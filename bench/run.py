"""electronlab benchmark: three CLI workloads, end to end or traced.

Run from the repository root:

    python3 bench/run.py --workload trajectory --seed 1 --seconds 40 --trace 0

With `--trace 0` it runs fresh `electronlab <subcommand>` processes (via
bench/launch.py) in a closed loop, one client and one invocation at a
time, for `--seconds`; checks every artifact; and reports the
end-to-end metrics. With `--trace 1` it runs the workload in-process
under the span recorder and reports the per-layer metrics instead (see
layers.py). `--workload all` runs every workload in turn.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. A results file with the
machine facts, every sample and (traced) every span is written to
.bench_results/. The package is imported from src/ of this checkout.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import check
from layers import PER_LAYER, TracedRun
from workloads import ITEM_NAMES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LAUNCH = Path(__file__).resolve().parent / "launch.py"
RESULTS = ROOT / ".bench_results"
SCRATCH = ROOT / ".bench_tmp"

# Single-threaded numerics in every process the benchmark runs.
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> (unit, better); the end-to-end half of BENCHMARK.json. The
# shared host's speed swings by up to 1.8x from one half-minute to the
# next, so a run's median wall time lands anywhere between its fast and
# slow stretches; it is printed but not gated (see README.md, Noise).
END_TO_END = {
    "wall_s_tail": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
TAIL_BEYOND = 10          # samples that must lie above the reported tail percentile
INVOCATION_TIMEOUT = 120  # seconds before a hung invocation is killed


def child_env() -> dict:
    env = dict(os.environ)
    env.update(SINGLE_THREAD, PYTHONPATH=str(SRC))
    return env


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile."""
    xs = sorted(values)
    return xs[max(1, math.ceil(p / 100 * len(xs))) - 1]


def tail(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile (nearest rank) with TAIL_BEYOND samples above it.

    With too few samples for any percentile to qualify, the maximum is
    returned as percentile 100.
    """
    n = len(values)
    for p in range(99, 0, -1):
        if n - math.ceil(p / 100 * n) >= TAIL_BEYOND:
            return p, percentile(values, p)
    return 100, max(values)


def invoke(inv, env: dict) -> dict:
    """Spawn one electronlab process, wait for it, check its artifacts."""
    with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
        tmp = Path(tmp)
        times = tmp / "times.json"
        with open(tmp / "stdout", "wb") as out, open(tmp / "stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(LAUNCH), str(times), *inv.argv, "--out", str(tmp / "out")],
                env=env, cwd=ROOT, stdout=out, stderr=err)
            watchdog = threading.Timer(INVOCATION_TIMEOUT, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        sample = {"wall_s": wall, "rss_mb": usage.ru_maxrss / 1024.0, "exit": code,
                  "items": inv.items}
        stderr = (tmp / "stderr").read_text(encoding="utf-8", errors="replace")
        try:
            if code != 0 or "Traceback" in stderr:
                raise check.CheckError(f"exit {code}: {stderr.strip()[-300:]}")
            timing = json.loads(times.read_text(encoding="utf-8"))
            if not Path(timing["package"]).resolve().is_relative_to(SRC):
                raise check.CheckError(f"electronlab imported from {timing['package']}, not {SRC}")
            sample.update(setup_s=timing["setup_s"], main_s=timing["main_s"])
            sample.update(check.check(inv.workload, tmp / "out", inv.expect))
            sample["error"] = None
        except (check.CheckError, OSError, ValueError, KeyError) as exc:
            sample["error"] = f"{type(exc).__name__}: {exc}"
    return sample


def end_to_end(workload: str, seed: int, seconds: int) -> dict:
    env = child_env()
    rng = random.Random(seed)
    make = WORKLOADS[workload]
    warmup = invoke(make(rng), env)   # compiles bytecode, warms the file cache
    samples = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        samples.append(invoke(make(rng), env))
    everything = [warmup] + samples
    good = [s for s in samples if s["error"] is None]
    result = {"attempted": len(everything),
              "failed": sum(s["error"] is not None for s in everything),
              "sample_count": len(good),
              "errors": [s["error"] for s in everything if s["error"]],
              "samples": samples, "metrics": {}, "notes": {}}
    if good:
        walls = [s["wall_s"] for s in good]
        p, value = tail(walls)
        n = len(good)
        result["metrics"] = {
            "wall_s_tail": value,
            "setup_s": statistics.median(s["setup_s"] for s in good),
            "items_per_s": good[0]["items"] / percentile([s["main_s"] for s in good], p),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in good),
        }
        result["median_wall_s"] = statistics.median(walls)
        result["notes"] = {
            "wall_s_tail": f"p{p} of {n} invocations, {n - math.ceil(p / 100 * n)} beyond it",
            "setup_s": f"median of {n} imports of electronlab.cli + build_parser",
            "items_per_s": f"{good[0]['items']} {ITEM_NAMES[workload]} per invocation, "
                           f"over the p{p} cli.main time",
            "peak_rss_mb": "median peak resident set size of one invocation",
        }
    return result


def traced(workload: str, seed: int, seconds: int) -> dict:
    sys.path.insert(0, str(SRC))
    run = TracedRun(workload, seed, seconds, SCRATCH, child_env())
    run.run()
    return {"attempted": run.attempted, "failed": run.failed, "errors": run.errors,
            "sample_count": len(run.calls),
            "metrics": {k: run.metrics[k] for k in PER_LAYER if k in run.metrics},
            "absent": run.absent, "spans": run.tracer.records(),
            "notes": {"invocations": f"{len(run.calls)} in-process CLI invocations kept, "
                                     "half of them traced"}}


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), None)
    except OSError:
        pass
    try:
        numpy = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy = None
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu or platform.machine(),
            "python": platform.python_version(), "numpy": numpy, "git_commit": _git_commit()}


def units(trace: int) -> dict:
    return PER_LAYER if trace else END_TO_END


def report(workload: str, seed: int, seconds: int, trace: int, result: dict) -> None:
    table = units(trace)
    mode = "traced, in-process" if trace else "closed loop, 1 client, 1 invocation at a time"
    print(f"== {workload}  seed {seed}  {seconds} s  ({mode})")
    notes = result.get("notes", {})
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value:>14.6g} {table[name][0]:6s} {notes.get(name, '')}")
    for name, reason in result.get("absent", {}).items():
        print(f"  {name:34s} {'absent':>14s}        {reason}")
    if "median_wall_s" in result:
        print(f"  {'wall_s':34s} {result['median_wall_s']:>14.6g} {'s':6s} "
              f"median of {result['sample_count']} invocations; printed, not gated")
    if not trace:
        rate = result["failed"] / result["attempted"]
        print(f"  {'error_rate':34s} {rate:>14.6g} {'1':6s} "
              f"{result['failed']} of {result['attempted']} invocations failed")
    if "invocations" in notes:
        print(f"  {notes['invocations']}")
    for error in result["errors"][:5]:
        print(f"  failure: {error}")


def run_one(workload: str, seed: int, seconds: int, trace: int) -> dict:
    result = (traced if trace else end_to_end)(workload, seed, seconds)
    table = units(trace)
    result["correct"] = result["failed"] == 0
    report(workload, seed, seconds, trace, result)
    RESULTS.mkdir(exist_ok=True)
    facts = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
             "machine": machine_facts(),
             "units": {k: table[k][0] for k in table}}
    path = RESULTS / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({**facts, **result}, indent=1) + "\n", encoding="utf-8")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "electronlab" / "cli.py").is_file():
        print(f"error: {SRC / 'electronlab'} not found; run from an electronlab checkout",
              file=sys.stderr)
        return 2

    os.environ.update(SINGLE_THREAD)
    SCRATCH.mkdir(exist_ok=True)
    names = tuple(WORKLOADS) if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_one(w, args.seed, args.seconds, args.trace) for w in names}
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    table = units(args.trace)
    line = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {(name if len(results) == 1 else f"{w}.{name}"): {"value": value,
                                                                    "unit": table[name][0]}
                    for w, r in results.items() for name, value in r["metrics"].items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
