"""Batch command-line front end.

Four subcommands (electron, epr, sterngerlach, budget) read a config
file plus flag overrides, run the corresponding physics module, and
write CSV/JSON artifacts into the output directory. The flags are
generated from the config registry, so types, choices and help live in
one place. Angles cross the boundary in degrees and are converted to
radians internally. Every artifact embeds the resolved configuration
and the tool version, and identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from itertools import chain
from operator import itemgetter
from pathlib import Path

from . import __version__, epr_model, spin_dynamics
from .config import MAX_ROWS, REGISTRY, Option, RunConfig, parse_config
from .constants import COHESIVE_POTENTIAL_EV, UNIT_SYSTEMS
from .electron_model import PROFILE_COLUMNS, PlaneWaveElectron, profile_rows
from .errors import ConfigError, DomainError, ElectronLabError
from .uncertainty import budget_report


def _fmt(value) -> str:
    """Fixed 17-significant-digit float formatting for `#` lines and stdout."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


def _meta(config: RunConfig) -> dict:
    return {"version": __version__, "config": config.resolved()}


def _strict_json(obj, indent=None) -> str:
    """RFC 8259 JSON: a NaN or infinity is an error, not a token."""
    try:
        return json.dumps(obj, indent=indent, allow_nan=False)
    except ValueError:
        raise DomainError("the run produced a non-finite value; "
                          "the inputs exceed double precision") from None


def _json_text(payload: dict) -> str:
    return _strict_json(payload, indent=2) + "\n"


def _write(path: Path, text: str):
    # the first artifact creates --out, so a refused run leaves nothing behind
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
    except ValueError as exc:  # a NUL byte in the path
        raise ConfigError(f"cannot create output directory {str(path.parent)!r}: {exc}") from None
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


def _write_table(out: Path, name: str, columns, rows, config: RunConfig, **header):
    """Tabular artifact in the configured format (CSV gets a JSON mirror).

    `rows` are tuples of floats in column order. `header` entries go into
    the JSON between the metadata and the table. Both texts are built
    before any file is written, so a rejected run writes no file.
    """
    text = _json_text({**_meta(config), **header, "columns": list(columns), "rows": []})
    cells = tuple(chain.from_iterable(rows))
    if rows:
        # json's indent=2 layout around one pass of its C encoder, which
        # writes each float as its repr and rejects NaN and infinity;
        # "rows" is the last key, so the text ends in `[]\n}\n`
        tokens = _strict_json(cells)[1:-1].split(", ")
        fields = ",\n".join(f"      {json.dumps(c)}: %s" for c in columns)
        item = "    {\n" + fields + "\n    }"
        body = ",\n".join([item] * len(rows)) % tuple(tokens)
        text = text[:-len("[]\n}\n")] + "[\n" + body + "\n  ]\n}\n"
    if config.format == "csv":
        lines = [f"# version = {__version__}"]
        lines += [f"# {key} = {_fmt(value)}" for key, value in config.resolved().items()]
        lines.append(",".join(columns))
        if rows:
            lines.append("\n".join([",".join(["%.17g"] * len(columns))] * len(rows)) % cells)
        _write(out / f"{name}.csv", "\n".join(lines) + "\n")
    _write(out / f"{name}.json", text)


def _run_electron(config: RunConfig, out: Path) -> int:
    """density/energy/wavefunction profiles"""
    p = config.params
    points = p["electron.points"]
    zmin, zmax = p["electron.zmin"], p["electron.zmax"]
    if points > 1 and zmax <= zmin:
        raise ConfigError(f"electron.zmax must exceed electron.zmin, got {zmax} <= {zmin}")
    electron = PlaneWaveElectron(
        rho0=p["electron.rho0"],
        u=p["electron.u"],
        helicity="plus" if p["electron.helicity"] == "+" else "minus",
        units=UNIT_SYSTEMS[p["electron.units"]],
        field_split=p["electron.field_split"],
    )
    if points == 1:
        zs = [zmin]
    else:
        step = (zmax - zmin) / (points - 1)
        zs = [zmin + i * step for i in range(points)]
    rows = profile_rows(electron, zs, t=p["electron.t"])
    rows = list(map(itemgetter(*PROFILE_COLUMNS), rows))

    _write_table(out, "electron_profile", PROFILE_COLUMNS, rows, config,
                 wavelength=electron.wavelength, nu=electron.nu, E0=electron.E0,
                 H0=electron.H0, cohesive_potential_ev=COHESIVE_POTENTIAL_EV)
    print(f"electron profile: {len(rows)} samples, wavelength = {_fmt(electron.wavelength)}")
    return 0


def _run_epr(config: RunConfig, out: Path) -> int:
    """correlation curve, CHSH report, singles sampling"""
    p = config.params
    mode = p["epr.mode"]
    delta = math.radians(p["epr.delta_deg"])

    if mode == "curve":
        phi1 = math.radians(p["epr.phi1_deg"])
        step = p["epr.step_deg"]
        count = int(round(360.0 / step))
        rows = []
        for i in range(count):
            phi_deg = i * step
            pair = epr_model.AnalyzerPair(phi1, phi1 + math.radians(phi_deg), delta)
            rows.append((phi_deg, epr_model.expectation(pair)))
        _write_table(out, "epr_curve", ("phi_deg", "E"), rows, config)
        print(f"correlation curve: {len(rows)} settings")
        return 0

    if mode == "chsh":
        degs = p["epr.angles_deg"]
        settings = epr_model.ChshSettings(*(math.radians(d) for d in degs))
        e_matrix = [[epr_model.expectation(epr_model.AnalyzerPair(a, b, delta))
                     for b in (settings.phi2, settings.phi2p)]
                    for a in (settings.phi1, settings.phi1p)]
        s = epr_model.chsh_sum(settings, delta)
        payload = {**_meta(config),
                   "settings_deg": list(degs),
                   "E_matrix": e_matrix,
                   "S": s}
        _write(out / "epr_chsh.json", _json_text(payload))
        print(f"CHSH sum S = {_fmt(s)}")
        return 0

    # singles
    n = p["epr.n"]
    hits, rate = epr_model.monte_carlo_singles(
        math.radians(p["epr.angle_deg"]), side="A", delta=delta,
        n=n, seed=config.seed, workers=p["epr.workers"])
    stderr = math.sqrt(rate * (1.0 - rate) / n)
    payload = {**_meta(config),
               "angle_deg": p["epr.angle_deg"],
               "n": n,
               "hits": hits,
               "rate": rate,
               "stderr": stderr}
    _write(out / "epr_singles.json", _json_text(payload))
    print(f"singles rate = {_fmt(rate)} ({hits}/{n})")
    return 0


def _run_sterngerlach(config: RunConfig, out: Path) -> int:
    """spin trajectory in a ramping field"""
    p = config.params
    duration = p["sterngerlach.duration"]
    rate = p["sterngerlach.brate"]
    b_dir = p["sterngerlach.bdir"]
    threshold = p["sterngerlach.threshold"]
    if p["sterngerlach.ramp"] == "linear":
        ramp = spin_dynamics.linear_ramp(rate, duration, b_dir)
    else:
        # same net field change as the linear ramp at this rate
        ramp = spin_dynamics.cosine_ramp(rate * duration, duration, b_dir)
    params = spin_dynamics.LLParams(
        kappa=p["sterngerlach.kappa"], u=p["sterngerlach.u"], dt=p["sterngerlach.dt"])
    every = p["sterngerlach.record_every"]
    # the initial sample plus one per `every` steps; a float compares exactly
    # with an int of any size, where dividing by `every` would overflow
    if duration / params.dt > (MAX_ROWS - 1) * every:
        raise ConfigError("sterngerlach.duration / sterngerlach.dt / sterngerlach.record_every"
                          f" would record more than {MAX_ROWS} rows")
    state0 = spin_dynamics.SpinState.from_vector(p["sterngerlach.es0"])
    trajectory = spin_dynamics.integrate(state0, ramp, params, record_every=every)

    bx, by, bz = ramp.b_dir
    rows = []
    for t, state in trajectory:
        ex, ey, ez = state.e_s
        rows.append((t, ex, ey, ez, ex * bx + ey * by + ez * bz))
    _write_table(out, "sterngerlach_trajectory", ("t", "ex", "ey", "ez", "dot_B"),
                 rows, config)

    final = trajectory[-1][1]
    label = spin_dynamics.classify_deflection(final, ramp.b_dir, threshold)
    payload = {**_meta(config),
               "classification": label,
               "kappa": params.kappa,
               "ramp": {"shape": p["sterngerlach.ramp"],
                        "b_dir": list(ramp.b_dir),
                        "rate": rate,
                        "duration": duration,
                        "dt": params.dt},
               "threshold": threshold,
               "final": {"t": trajectory[-1][0],
                         "e_s": list(final.e_s),
                         "dot_B": rows[-1][4]}}
    _write(out / "sterngerlach_summary.json", _json_text(payload))
    print(f"deflection: {label} (e_s . B = {_fmt(rows[-1][4])})")
    return 0


def _run_budget(config: RunConfig, out: Path) -> int:
    """measurement uncertainty budget"""
    p = config.params
    budget = budget_report(
        band_energy_ev=p["budget.band_energy_mev"] / 1000.0,
        lateral_resolution_pm=p["budget.resolution_pm"],
        feature_height_pm=p["budget.feature_pm"],
        height_error_pm=p["budget.error_pm"],
        convention_factor=p["budget.convention"],
    )
    fields = budget.as_dict()
    width = max(len(k) for k in fields)
    for key, value in fields.items():
        print(f"{key:<{width}}  {_fmt(value)}")
    _write(out / "budget.json", _json_text({**_meta(config), "budget": fields}))
    return 0


_RUNNERS = {
    "electron": _run_electron,
    "epr": _run_epr,
    "sterngerlach": _run_sterngerlach,
    "budget": _run_budget,
}


def run(config: RunConfig) -> int:
    """Dispatch one resolved configuration and write its artifacts."""
    return _RUNNERS[config.subcommand](config, Path(config.out))


# The exceptions to the rule that key <subcommand>.<name> is the flag
# --<name>: a shorter spelling, or None for one exclusive switch per choice.
_FLAG_EXCEPTIONS = {"epr.angles_deg": "--angles", "epr.angle_deg": "--angle", "epr.mode": None}


def _add_flag(parser: argparse.ArgumentParser, opt: Option):
    """One registry key as a flag whose dest is the key itself."""
    flag = _FLAG_EXCEPTIONS.get(opt.key, "--" + opt.key.rpartition(".")[2].replace("_", "-"))
    if flag is None:
        group = parser.add_mutually_exclusive_group()
        for choice in opt.choices:
            group.add_argument(f"--{choice}", dest=opt.key, action="store_const",
                               const=choice, help=f"{opt.key} = {choice}")
        return
    # no type or choices here: the value stays a string for parse_config
    metavar = ("{%s}" % ",".join(map(str, opt.choices)) if opt.choices
               else flag[2:].upper().replace("-", "_"))
    parser.add_argument(flag, dest=opt.key, metavar=metavar,
                        help=opt.help + (f" in {opt.within}" if opt.within else ""))


def build_parser() -> argparse.ArgumentParser:
    """The argparse front end, generated from `config.REGISTRY`."""
    common = argparse.ArgumentParser(add_help=False)
    for opt in REGISTRY.values():
        if "." not in opt.key and opt.key != "subcommand":
            _add_flag(common, opt)
    common.add_argument("--config", help="key = value config file")

    parser = argparse.ArgumentParser(
        prog="electronlab",
        description="Batch runner for the extended-electron laboratory.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, runner in _RUNNERS.items():
        subparser = sub.add_parser(name, parents=[common], help=runner.__doc__)
        # argparse alone reads only `-1`-shaped tokens as values; no flag
        # starts with a digit or `.`, so `--zmin -1e3` and `--u -1,0,0` work
        subparser._negative_number_matcher = re.compile(r"-[0-9.]")
        for opt in REGISTRY.values():
            if opt.key.startswith(name + "."):
                _add_flag(subparser, opt)
    return parser


def _collect_overrides(args: argparse.Namespace) -> list[str]:
    return [f"{key}={value}" for key, value in vars(args).items()
            if key != "config" and value is not None]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            file_text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
        except ValueError as exc:  # a NUL byte in the name, or bytes that are not UTF-8
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        return run(parse_config(file_text, _collect_overrides(args)))
    except (ElectronLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except ArithmeticError as exc:
        print(f"error: out of double-precision range: {exc}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
