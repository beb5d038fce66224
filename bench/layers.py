"""The traced run: per-layer metrics from spans and microbenchmarks.

The workload's own invocations run in-process through
`electronlab.cli.main`, alternately with and without the span recorder,
so the trace overhead is measured on the same inputs. Spans come from
wrappers around public entry points (see `entries`); nothing under
`src/` changes. A physics layer that the workload never reaches is
driven directly through its entry point at the size of the workload
where it matters (spin_dynamics at `trajectory`, electron_model at
`profile`, epr_model at `singles`), so every traced run reports every
layer. Each microbenchmark warms up with one call, then reports the
median per-call time over REPEATS timed loops.
"""

from __future__ import annotations

import importlib
import io
import math
import os
import pathlib
import random
import re
import statistics
import subprocess
import sys
import tempfile
import time
import types
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path

import check
import workloads
from tracer import Entry, Tracer

# name -> (unit, better); the per-layer half of BENCHMARK.json
PER_LAYER = {
    "config.parse_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.io_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "cli.rows_written": ("count", "lower"),
    "cli.numpy_import_s": ("s", "lower"),
    "spin_dynamics.integrate_s": ("s", "lower"),
    "spin_dynamics.steps": ("count", "lower"),
    "spin_dynamics.records": ("count", "lower"),
    "spin_dynamics.rk4_step_ns.linear": ("ns", "lower"),
    "spin_dynamics.rk4_step_ns.cosine": ("ns", "lower"),
    "spin_dynamics.record_ns": ("ns", "lower"),
    "spin_dynamics.max_err": ("1", "lower"),
    "electron_model.profile_rows_s": ("s", "lower"),
    "electron_model.points": ("count", "higher"),
    "electron_model.point_us": ("us", "lower"),
    "electron_model.born_residual": ("1", "lower"),
    "epr_model.singles_s": ("s", "lower"),
    "epr_model.trials": ("count", "higher"),
    "epr_model.blocks": ("count", "lower"),
    "epr_model.block_ms": ("ms", "lower"),
    "epr_model.workers2_speedup": ("ratio", "higher"),
    "epr_model.singles_z": ("sigma", "lower"),
    "ga3.gp_ns": ("ns", "lower"),
    "ga3.rotor_apply_ns": ("ns", "lower"),
    "ga3.rotor_ns": ("ns", "lower"),
    "ga3.multivector_ns": ("ns", "lower"),
    "uncertainty.budget_report_us": ("us", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

MODULES = ("cli", "config", "ga3", "electron_model", "spin_dynamics", "epr_model", "uncertainty")

REPEATS = 5          # timed repetitions per microbenchmark; the median is kept
DIRECT_CALLS = 3     # direct calls of a layer the workload does not reach
IMPORT_RUNS = 5      # fresh interpreters for the numpy import share


class Absent(Exception):
    """A metric cannot be measured; the message says why."""


def load_modules() -> dict:
    """electronlab's modules by short name; a placeholder for any that fail to import."""
    found = {}
    for name in MODULES:
        try:
            found[name] = importlib.import_module(f"electronlab.{name}")
        except ImportError as exc:
            found[name] = types.SimpleNamespace(__name__=f"electronlab.{name} ({exc})")
    return found


def _integrate_counters(args, kwargs, result):
    ramp, params = args[1], args[2]
    return {"steps": int(round(ramp.duration / params.dt)), "records": len(result)}


def _singles_counters(args, kwargs, result):
    return {"trials": kwargs.get("n"), "hits": result[0]}


def _write_counters(args, kwargs, result):
    return {"bytes": len(args[1].encode(kwargs.get("encoding") or "utf-8"))}


def entries(m: dict) -> list[Entry]:
    cli = (m["cli"],)
    return [
        Entry(m["config"], "parse_config", "config.parse_config", aliases=cli),
        Entry(m["cli"], "run", "cli.run"),
        Entry(m["spin_dynamics"], "integrate", "spin_dynamics.integrate", _integrate_counters),
        Entry(m["electron_model"], "profile_rows", "electron_model.profile_rows",
              lambda a, k, r: {"points": len(r)}, aliases=cli),
        Entry(m["epr_model"], "monte_carlo_singles", "epr_model.monte_carlo_singles",
              _singles_counters),
        Entry(m["uncertainty"], "budget_report", "uncertainty.budget_report", aliases=cli),
        Entry(pathlib.Path, "write_text", "cli.write_text", _write_counters),
    ]


def per_call(fn, number: int) -> float:
    """Median seconds per call of `fn` over REPEATS timed loops, after a warm-up call."""
    fn()
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - start) / number)
    return statistics.median(times)


def numpy_import_s(env: dict) -> float:
    """numpy's cumulative share of `import electronlab.cli`, from -X importtime."""
    shares = []
    for _ in range(IMPORT_RUNS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import electronlab.cli"],
                              env=env, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise Absent(f"import electronlab.cli failed: {proc.stderr.strip()[-200:]}")
        micros = 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s*\d+\s*\|\s*(\d+)\s*\|\s*(\S.*)$", line)
            if m and m.group(2).strip() == "numpy":
                micros = int(m.group(1))
        shares.append(micros * 1e-6)
    return statistics.median(shares)


class TracedRun:
    def __init__(self, workload: str, seed: int, seconds: int, scratch: Path, env: dict):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.scratch, self.env = scratch, env
        self.rng = random.Random(seed)
        self.m = load_modules()
        self.tracer = Tracer()
        self.entries = entries(self.m)
        self.metrics: dict = {}
        self.absent: dict = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.calls: list[dict] = []   # one per in-process CLI invocation

    # --- in-process CLI invocations -------------------------------------

    def _cli_call(self, traced: bool, pair: int) -> None:
        inv = workloads.WORKLOADS[self.workload](self.rng)
        self.attempted += 1
        self.tracer.run_id += 1
        record = {"traced": traced, "run_id": self.tracer.run_id, "pair": pair}
        with tempfile.TemporaryDirectory(dir=self.scratch) as tmp:
            sink = io.StringIO()
            tracing = self.tracer.installed(self.entries) if traced else nullcontext()
            try:
                with tracing, redirect_stdout(sink), redirect_stderr(sink):
                    start = time.perf_counter()
                    with self.tracer.span("cli.main") if traced else nullcontext():
                        code = self.m["cli"].main(inv.argv + ["--out", tmp])
                    record["main_s"] = time.perf_counter() - start
                if code != 0:
                    raise check.CheckError(f"exit {code}: {sink.getvalue().strip()[-200:]}")
                record["check"] = check.check(self.workload, Path(tmp), inv.expect)
            except Exception as exc:  # a failed invocation is counted, not fatal
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                return
        self.calls.append(record)

    def cli_loop(self, seconds: float) -> None:
        """Alternate untraced and traced invocations, at least three pairs."""
        self._cli_call(traced=False, pair=-1)   # warm-up, not kept
        self.calls.clear()
        deadline = time.perf_counter() + seconds
        pair = 0
        while pair < 3 or time.perf_counter() < deadline:
            for traced in ((False, True) if pair % 2 == 0 else (True, False)):
                self._cli_call(traced, pair)
            pair += 1

    def _spans(self, run_id: int, name: str) -> list:
        found = self.tracer.find(name, run_id)
        if not found:
            raise Absent(self.tracer.absent.get(name, f"no {name} span recorded"))
        return found

    def _total(self, run_id: int, name: str) -> float:
        return sum(s.duration for s in self._spans(run_id, name))

    def _count(self, run_id: int, name: str, key: str):
        return sum(s.counters[key] for s in self._spans(run_id, name))

    def _over(self, metric: str, ids: list[int], value) -> None:
        """Metric = median of value(run_id) over the given runs."""
        if ids:
            self._measure(metric, lambda: statistics.median(value(r) for r in ids))
        else:
            self.absent.setdefault(metric, "no run reached this layer")

    def _own_ids(self) -> list[int]:
        return [c["run_id"] for c in self.calls if c["traced"]]

    def _direct(self, metric: str, call) -> list[int]:
        """Run call() DIRECT_CALLS times under the tracer; return their run ids."""
        ids = []
        with self.tracer.installed(self.entries):
            for _ in range(DIRECT_CALLS):
                self.tracer.run_id += 1
                self.attempted += 1
                try:
                    call()
                except Exception as exc:  # recorded as a failure; the metric goes absent
                    self.failed += 1
                    self.errors.append(f"{type(exc).__name__}: {exc}")
                    self.absent[metric] = f"direct call failed: {type(exc).__name__}: {exc}"
                    return []
                ids.append(self.tracer.run_id)
        return ids

    def cli_metrics(self) -> None:
        ids = self._own_ids()
        self._over("config.parse_s", ids, lambda r: self._total(r, "config.parse_config"))
        self._over("cli.self_s", ids, lambda r: sum(
            self.tracer.self_time(s) for s in self._spans(r, "cli.run")))
        self._over("cli.io_s", ids, lambda r: self._total(r, "cli.write_text"))
        self._over("cli.bytes_written", ids, lambda r: self._count(r, "cli.write_text", "bytes"))
        rows = {c["run_id"]: c["check"]["rows"] for c in self.calls}
        self._over("cli.rows_written", ids, rows.get)
        self._measure("cli.numpy_import_s", lambda: numpy_import_s(self.env))

        # per pair, so that both sides of each ratio ran at the same machine speed
        pairs = {}
        for c in self.calls:
            pairs.setdefault(c["pair"], {})[c["traced"]] = c["main_s"]
        fractions = [(p[True] - p[False]) / p[False] for p in pairs.values() if len(p) == 2]
        if fractions:
            self.metrics["trace.overhead_frac"] = statistics.median(fractions)
        else:
            self.absent["trace.overhead_frac"] = "no pair of successful invocations"

    def spin_metrics(self) -> None:
        sd = self.m["spin_dynamics"]
        name = "spin_dynamics.integrate"
        if self.workload == "trajectory":
            ids = self._own_ids()
            errors = [c["check"]["max_err"] for c in self.calls]
        else:
            errors = []

            def call():
                e = workloads.trajectory(self.rng).expect
                params = sd.LLParams(kappa=e["kappa"], u=e["u"], dt=e["dt"])
                ramp = sd.linear_ramp(e["rate"], e["duration"], e["bdir"])
                path = sd.integrate(sd.SpinState.from_vector(e["es0"]), ramp, params,
                                    record_every=1)
                e_at = check.spin_closed_form(e)
                errors.append(max(math.dist(s.e_s, e_at(t)) for t, s in path))

            ids = self._direct("spin_dynamics.integrate_s", call)
        self._over("spin_dynamics.integrate_s", ids, lambda r: self._total(r, name))
        self._over("spin_dynamics.steps", ids, lambda r: self._count(r, name, "steps"))
        self._over("spin_dynamics.records", ids, lambda r: self._count(r, name, "records"))
        if errors:
            self.metrics["spin_dynamics.max_err"] = max(errors)

        def record_ns(r):
            step_ns = self.metrics.get("spin_dynamics.rk4_step_ns.linear")
            if step_ns is None:
                raise Absent("needs spin_dynamics.rk4_step_ns.linear")
            return ((self._total(r, name) * 1e9 - self._count(r, name, "steps") * step_ns)
                    / self._count(r, name, "records"))

        self._over("spin_dynamics.record_ns", ids, record_ns)

    def electron_metrics(self) -> None:
        em = self.m["electron_model"]
        name = "electron_model.profile_rows"
        residuals = []
        if self.workload == "profile":
            ids = self._own_ids()
            residuals = [c["check"]["born_residual"] for c in self.calls]
        else:
            def call():
                e = workloads.profile(self.rng).expect
                electron = em.PlaneWaveElectron(rho0=e["rho0"], u=e["u"], helicity="plus")
                step = (e["zmax"] - e["zmin"]) / (e["points"] - 1)
                zs = [e["zmin"] + i * step for i in range(e["points"])]
                rows = em.profile_rows(electron, zs, t=e["t"])
                residuals.append(max(abs(r["rho"] + r["S"] - e["rho0"]) for r in rows))

            ids = self._direct("electron_model.profile_rows_s", call)
        self._over("electron_model.profile_rows_s", ids, lambda r: self._total(r, name))
        self._over("electron_model.points", ids, lambda r: self._count(r, name, "points"))
        if residuals:
            self.metrics["electron_model.born_residual"] = max(residuals)

    def epr_metrics(self) -> None:
        ep = self.m["epr_model"]
        name = "epr_model.monte_carlo_singles"
        if self.workload == "singles":
            ids = self._own_ids()
        else:
            def call():
                e = workloads.singles(self.rng).expect
                ep.monte_carlo_singles(math.radians(e["angle_deg"]), n=e["n"],
                                       seed=e["seed"], workers=1)

            ids = self._direct("epr_model.singles_s", call)
        self._over("epr_model.singles_s", ids, lambda r: self._total(r, name))
        self._over("epr_model.trials", ids, lambda r: self._count(r, name, "trials"))
        self._over("epr_model.blocks", ids, lambda r: math.ceil(
            self._count(r, name, "trials") / ep._BLOCK))

        def pooled_z():
            hits = sum(self._count(r, name, "hits") for r in ids)
            trials = sum(self._count(r, name, "trials") for r in ids)
            return abs(hits - 0.5 * trials) / (0.5 * math.sqrt(trials))

        if ids:
            self._measure("epr_model.singles_z", pooled_z)

    # --- microbenchmarks --------------------------------------------------

    def microbenchmarks(self) -> None:
        ga3, sd, em, ep, un = (self.m[k] for k in
                               ("ga3", "spin_dynamics", "electron_model", "epr_model", "uncertainty"))
        self._measure("ga3.gp_ns", lambda: self._gp(ga3))
        self._measure("ga3.rotor_ns", lambda: per_call(lambda: ga3.rotor(ga3.E12, 0.7), 4_000) * 1e9)
        self._measure("ga3.rotor_apply_ns", lambda: self._rotor_apply(ga3))
        self._measure("ga3.multivector_ns",
                      lambda: per_call(lambda: ga3.Multivector3(s=0.6, b12=0.8), 5_000) * 1e9)
        self._measure("spin_dynamics.rk4_step_ns.linear", lambda: self._rk4(sd, "linear"))
        self._measure("spin_dynamics.rk4_step_ns.cosine", lambda: self._rk4(sd, "cosine"))
        self._measure("electron_model.point_us", lambda: self._profile_point(em) * 1e6)
        self._measure("epr_model.block_ms", lambda: per_call(
            lambda: ep.monte_carlo_singles(0.5, n=ep._BLOCK, seed=self.seed, workers=1), 8) * 1e3)
        self._measure("uncertainty.budget_report_us", lambda: per_call(un.budget_report, 4_000) * 1e6)
        self._measure("epr_model.workers2_speedup", lambda: self._workers2(ep))

    def _gp(self, ga3) -> float:
        r = random.Random(self.seed)
        a, b = (ga3.Multivector3(*(r.uniform(-1.0, 1.0) for _ in range(8))) for _ in range(2))
        return per_call(lambda: ga3.gp(a, b), 3_000) * 1e9

    @staticmethod
    def _rotor_apply(ga3) -> float:
        rotor, v = ga3.rotor(ga3.E12, 0.7), ga3.vector(0.3, -0.5, 0.8)
        return per_call(lambda: rotor.apply(v), 1_000) * 1e9

    @staticmethod
    def _rk4(sd, shape: str) -> float:
        steps, dt = 10_000, 1e-4
        duration = steps * dt
        ramp = (sd.linear_ramp(1.0, duration, (1.0, 0.0, 0.0)) if shape == "linear"
                else sd.cosine_ramp(duration, duration, (1.0, 0.0, 0.0)))
        params = sd.LLParams(kappa=1.0, u=(0.0, 0.0, 1.0), dt=dt)
        state0 = sd.SpinState.from_vector((0.0, 1.0, 0.0))
        return per_call(lambda: sd.integrate(state0, ramp, params, record_every=steps), 1) / steps * 1e9

    @staticmethod
    def _profile_point(em) -> float:
        electron = em.PlaneWaveElectron(rho0=1.0, u=1.0)
        zs = [0.001 * i for i in range(1_000)]
        return per_call(lambda: em.profile_rows(electron, zs, t=0.5), 5) / len(zs)

    @staticmethod
    def _workers2(ep) -> float:
        if len(os.sched_getaffinity(0)) < 2:
            raise Absent("needs 2 cores; this process may use 1")
        ratios = []
        for i in range(3):
            times = {}
            for workers in ((1, 2) if i % 2 == 0 else (2, 1)):
                start = time.perf_counter()
                ep.monte_carlo_singles(0.5, n=workloads.SINGLES_TRIALS, seed=i, workers=workers)
                times[workers] = time.perf_counter() - start
            ratios.append(times[1] / times[2])
        return statistics.median(ratios)

    # ----------------------------------------------------------------------

    def _measure(self, name: str, compute) -> None:
        """Store compute() as metric `name`, or the reason it is absent."""
        try:
            self.metrics[name] = compute()
        except Absent as exc:
            self.absent[name] = str(exc)
        except (AttributeError, TypeError, KeyError) as exc:
            self.absent[name] = f"{type(exc).__name__}: {exc}"

    def run(self) -> None:
        self.cli_loop(self.seconds / 2)
        self.microbenchmarks()
        self.cli_metrics()
        self.spin_metrics()
        self.electron_metrics()
        self.epr_metrics()
        for name in PER_LAYER:
            if name not in self.metrics and name not in self.absent:
                self.absent[name] = "not measured"
