"""Batch command-line front end.

Four subcommands (electron, epr, sterngerlach, budget) read a config
file plus flag overrides, run the corresponding physics module, and
write CSV/JSON artifacts into the output directory. The flags are
generated from the config registry, so types, choices and help live in
one place. Angles cross the boundary in degrees, are reduced exactly
modulo 360 and are converted to radians internally. Every artifact
embeds the resolved configuration and the tool version, and identical
configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__, epr_model, spin_dynamics
from .config import MAX_ROWS, REGISTRY, Option, RunConfig, parse_config
from .constants import COHESIVE_POTENTIAL_EV, UNIT_SYSTEMS
from .electron_model import PROFILE_COLUMNS, PlaneWaveElectron, profile_rows
from .errors import ConfigError, DomainError, ElectronLabError, within
from .uncertainty import budget_report


def _fmt(value) -> str:
    """`#` line and stdout text; a float is its repr, the text the JSON holds."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return ",".join(_fmt(v) for v in value)
    return str(value)


_NON_FINITE = "the run produced a non-finite value; the inputs exceed double precision"


def _strict_json(obj, indent=None) -> str:
    """RFC 8259 JSON: a NaN or infinity is an error, not a token."""
    try:
        return json.dumps(obj, indent=indent, allow_nan=False)
    except ValueError:
        raise DomainError(_NON_FINITE) from None


def _json_text(config: RunConfig, **fields) -> str:
    """Every JSON artifact: the version, the resolved configuration, then `fields`."""
    return _strict_json({"version": __version__, "config": config.resolved(), **fields},
                        indent=2) + "\n"


def _write(path: Path, text: str):
    # the first artifact creates --out, so a refused run leaves nothing behind
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"wrote {path}")


_CHUNK_ROWS = 1024  # rows encoded per pass; only one chunk's cell tokens are alive at once


def _write_table(out: Path, name: str, table, config: RunConfig, **header):
    """Tabular artifact in the configured format (CSV gets a JSON mirror).

    `table` maps each column name, in order, to its float column (an
    `array('d')`, a float64 ndarray or a row of one), all of one length;
    `header` entries go into the JSON between the metadata and the table.
    A table holding a NaN or infinity is refused, and both texts are built
    before any file is written, so a refused run writes no file.

    A cell's token is its `repr`, the text json's encoder writes for a
    float. A column whose cells share one bit pattern (`-0.0` is not `0.0`)
    is encoded once. Each `_CHUNK_ROWS` rows are copied from the column
    slices into one float64 block and encoded, so besides the columns the
    writer keeps one chunk of tokens and the two texts, each as a list of
    per-chunk pieces that is joined once, just before its write.
    """
    columns = {c: np.asarray(column, dtype=np.float64) for c, column in table.items()}
    cells = {}  # the token of each constant column
    for c, column in columns.items():
        if not np.isfinite(column).all():  # json's encoder refuses NaN and infinity
            raise DomainError(_NON_FINITE)
        bits = column.view(np.int64)
        if len(bits) and (bits == bits[0]).all():
            cells[c] = repr(float(column[0]))  # no % in a float's token
    varying = [column for c, column in columns.items() if c not in cells]
    text = _json_text(config, **header, columns=list(columns), rows=[])
    # json's indent=2 layout; "rows" is the last key, so the text ends in `[]\n}\n`
    # a `%` in a column name is doubled, so the template reads it as text
    fields = ",\n".join(f"      {json.dumps(c).replace('%', '%%')}: {cells.get(c, '%s')}"
                         for c in columns)
    item = "    {\n" + fields + "\n    }"
    line = ",".join(cells.get(c, "%s") for c in columns)

    def templates(count: int) -> tuple[str, str]:
        """The JSON and CSV text of `count` rows, a `%s` for each cell token."""
        return ",\n".join([item] * count), "\n".join([line] * count) + "\n"

    full = templates(_CHUNK_ROWS)
    json_parts = [text[:-len("[]\n}\n")] + "[\n"]
    csv_parts = [f"# version = {__version__}\n"]
    csv_parts += [f"# {key} = {_fmt(value)}\n" for key, value in config.resolved().items()]
    csv_parts.append(",".join(columns) + "\n")
    rows = len(next(iter(columns.values())))
    block = np.empty((_CHUNK_ROWS, len(varying)))
    for start in range(0, rows, _CHUNK_ROWS):
        chunk = block[:rows - start]
        for j, column in enumerate(varying):
            chunk[:, j] = column[start:start + _CHUNK_ROWS]
        json_rows, csv_rows = full if len(chunk) == _CHUNK_ROWS else templates(len(chunk))
        tokens = tuple(map(repr, chunk.ravel().tolist()))  # both files are built from these
        json_parts += (json_rows % tokens, ",\n")
        if config.format == "csv":
            csv_parts.append(csv_rows % tokens)
    if len(json_parts) > 1:
        json_parts[-1] = "\n  ]\n}\n"  # in place of the separator after the last chunk
    else:
        json_parts = [text]
    # each list is dropped once joined and each text once written, so at most
    # one whole text is alive, beside the bytes its write encodes
    if config.format == "csv":
        text = "".join(csv_parts)
        del csv_parts
        _write(out / f"{name}.csv", text)
        del text
    text = "".join(json_parts)
    del json_parts
    _write(out / f"{name}.json", text)


def _run_electron(config: RunConfig, out: Path) -> int:
    """density/energy/wavefunction profiles"""
    p = config.params
    points = p["electron.points"]
    zmin, zmax = p["electron.zmin"], p["electron.zmax"]
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
        within(zmax - zmin, "(0, inf)", "electron.zmax - electron.zmin")
        step = (zmax - zmin) / (points - 1)
        with np.errstate(all="ignore"):  # the profile refuses an overflowing z by name
            zs = zmin + np.arange(points) * step
    profile = profile_rows(electron, zs, p["electron.t"])
    _write_table(out, "electron_profile", dict(zip(PROFILE_COLUMNS, profile.columns)), config,
                 wavelength=electron.wavelength, nu=electron.nu, E0=electron.E0,
                 H0=electron.H0, cohesive_potential_ev=COHESIVE_POTENTIAL_EV)
    print(f"electron profile: {len(zs)} samples, wavelength = {_fmt(electron.wavelength)}")
    return 0


def _run_epr(config: RunConfig, out: Path) -> int:
    """correlation curve, CHSH report, singles sampling"""
    def radians(deg: float) -> float:  # fmod is exact, so the residue modulo 360 survives
        return math.radians(math.fmod(deg, 360.0))
    p = config.params
    mode = p["epr.mode"]
    delta = radians(p["epr.delta_deg"])

    if mode == "curve":
        step = p["epr.step_deg"]
        count = int(round(360.0 / step))
        phis = np.arange(count) * step  # each product rounds once, as i * step does
        # E reads phi1 - phi2 only, so phi1 stays out of the arithmetic
        es = np.fromiter((epr_model.expectation(epr_model.AnalyzerPair(0.0, radians(phi), delta))
                          for phi in phis.tolist()), np.float64, count)
        _write_table(out, "epr_curve", {"phi_deg": phis, "E": es}, config)
        print(f"correlation curve: {len(phis)} settings")
        return 0

    if mode == "chsh":
        degs = p["epr.angles_deg"]
        settings = epr_model.ChshSettings(*map(radians, degs))
        e_matrix = [[epr_model.expectation(epr_model.AnalyzerPair(a, b, delta))
                     for b in (settings.phi2, settings.phi2p)]
                    for a in (settings.phi1, settings.phi1p)]
        s = epr_model.chsh_sum(settings, delta)
        _write(out / "epr_chsh.json",
               _json_text(config, settings_deg=list(degs), E_matrix=e_matrix, S=s))
        print(f"CHSH sum S = {_fmt(s)}")
        return 0

    # singles
    n = p["epr.n"]
    hits, rate = epr_model.monte_carlo_singles(
        radians(p["epr.angle_deg"]), side="A", delta=delta,
        n=n, seed=config.seed, workers=p["epr.workers"])
    stderr = math.sqrt(rate * (1.0 - rate) / n)
    _write(out / "epr_singles.json", _json_text(
        config, angle_deg=p["epr.angle_deg"], n=n, hits=hits, rate=rate, stderr=stderr))
    print(f"singles rate = {_fmt(rate)} ({hits}/{n})")
    return 0


def _run_sterngerlach(config: RunConfig, out: Path) -> int:
    """spin trajectory in a ramping field"""
    p = config.params
    duration = p["sterngerlach.duration"]
    rate = p["sterngerlach.brate"]
    b_dir = p["sterngerlach.bdir"]
    threshold = p["sterngerlach.threshold"]
    within(spin_dynamics.norm(b_dir), "(0, inf)", "sterngerlach.bdir length")
    if p["sterngerlach.ramp"] == "linear":
        ramp = spin_dynamics.linear_ramp(rate, duration, b_dir)
    else:
        # same net field change as the linear ramp at this rate
        ramp = spin_dynamics.cosine_ramp(rate * duration, duration, b_dir)
    params = spin_dynamics.LLParams(
        kappa=p["sterngerlach.kappa"], u=p["sterngerlach.u"], dt=p["sterngerlach.dt"])
    every = p["sterngerlach.record_every"]
    within(spin_dynamics.schedule(duration, params.dt, every)[1], f"[1, {MAX_ROWS}]",
           "row count of sterngerlach.duration / sterngerlach.dt / sterngerlach.record_every")
    within(spin_dynamics.norm(p["sterngerlach.es0"]), "(0, inf)", "sterngerlach.es0 length")
    state0 = spin_dynamics.SpinState.from_vector(p["sterngerlach.es0"])
    trajectory = spin_dynamics.integrate(state0, ramp, params, record_every=every)

    bx, by, bz = ramp.b_dir
    t, ex, ey, ez = trajectory.t, trajectory.ex, trajectory.ey, trajectory.ez
    with np.errstate(all="ignore"):  # the writer refuses a non-finite dot_B
        dots = np.frombuffer(ex) * bx + np.frombuffer(ey) * by + np.frombuffer(ez) * bz
    _write_table(out, "sterngerlach_trajectory",
                 {"t": t, "ex": ex, "ey": ey, "ez": ez, "dot_B": dots}, config)

    t_final, final = trajectory[-1]
    # the configured direction, so that the label is decided by the dot_B it reports
    label = spin_dynamics.classify_deflection(final, b_dir, threshold)
    _write(out / "sterngerlach_summary.json", _json_text(
        config,
        classification=label,
        kappa=params.kappa,
        ramp={"shape": p["sterngerlach.ramp"], "b_dir": list(ramp.b_dir), "rate": rate,
              "duration": duration, "dt": params.dt},
        threshold=threshold,
        final={"t": t_final, "e_s": list(final.e_s), "dot_B": float(dots[-1])}))
    print(f"deflection: {label} (e_s . B = {_fmt(float(dots[-1]))})")
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
    text = _json_text(config, budget=fields)  # built first, so a refused report prints nothing
    width = max(len(k) for k in fields)
    for key, value in fields.items():
        print(f"{key:<{width}}  {_fmt(value)}")
    _write(out / "budget.json", text)
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


@functools.cache  # parse_args keeps no state in the parser, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    """The argparse front end, generated from `config.REGISTRY`, built once per process."""
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
            # utf-8-sig: a byte order mark, as Notepad writes one, is not part of the first key
            file_text = Path(args.config).read_text(encoding="utf-8-sig") if args.config else ""
        except ValueError as exc:  # a NUL byte in the name, or bytes that are not UTF-8
            raise ConfigError(f"cannot read config file {args.config!r}: {exc}") from None
        return run(parse_config(file_text, _collect_overrides(args)))
    except (ElectronLabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
    except ArithmeticError as exc:
        # float ** raises OverflowError(errno, text); the text is the last argument
        print(f"error: out of double-precision range: {exc.args[-1]}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
