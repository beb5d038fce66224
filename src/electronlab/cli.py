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
from .config import MAX_ROWS, REGISTRY, Option, parse_config
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


def _json_text(config: dict, **fields) -> str:
    """Every JSON artifact: the version, the configuration, then `fields`, as RFC 8259
    JSON, so a NaN or infinity is an error, not a token."""
    try:
        return json.dumps({"version": __version__, "config": config, **fields},
                          indent=2, allow_nan=False) + "\n"
    except ValueError:
        raise DomainError(_NON_FINITE) from None


def _write(path: Path, text: str, report: str = ""):
    # the first artifact creates --out, so a refused run leaves nothing behind, and
    # `report` prints after the write, so a failed write prints nothing
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    print(f"{report}wrote {path}")


_CHUNK_ROWS = 1024  # rows encoded per pass; only one chunk's cell tokens are alive at once


def _write_table(out: Path, name: str, table, config: dict, **header):
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
    writer keeps one chunk of tokens and the two texts, each grown in place
    by each chunk's text. The CSV text is dropped once written.
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
    rows = len(next(iter(columns.values())))
    # each text grows by `+=`: CPython resizes a str that holds its only reference
    # in place, and glibc moves a large block with mremap, so no piece list and no
    # join copy stands beside it (under sys.settrace the append copies instead)
    json_text = text[:-len("[]\n}\n")] + "[\n" if rows else text
    if config["format"] == "csv":
        csv_text = f"# version = {__version__}\n"
        for key, value in config.items():
            csv_text += f"# {key} = {_fmt(value)}\n"
        csv_text += ",".join(columns) + "\n"
    block = np.empty((_CHUNK_ROWS, len(varying)))
    for start in range(0, rows, _CHUNK_ROWS):
        chunk = block[:rows - start]
        for j, column in enumerate(varying):
            chunk[:, j] = column[start:start + _CHUNK_ROWS]
        json_rows, csv_rows = full if len(chunk) == _CHUNK_ROWS else templates(len(chunk))
        tokens = tuple(map(repr, chunk.ravel().tolist()))  # both files are built from these
        if start:
            json_text += ",\n"
        json_text += json_rows % tokens
        if config["format"] == "csv":
            csv_text += csv_rows % tokens
    if rows:
        json_text += "\n  ]\n}\n"
    if config["format"] == "csv":
        _write(out / f"{name}.csv", csv_text)
        del csv_text  # so that one text and the bytes its write encodes are alive at a time
    _write(out / f"{name}.json", json_text)


def plan(config: dict) -> tuple[int, int, int]:
    """Rows, RK4 steps and Monte Carlo trials of a `parse_config` mapping's run, from its keys
    alone; DomainError for a trajectory `spin_dynamics.schedule` refuses or over the row cap."""
    name, mode = config["subcommand"], config.get("epr.mode")
    if name == "electron":
        return config["electron.points"], 0, 0
    if mode == "curve":
        return round(360.0 / config["epr.step_deg"]), 0, 0
    if mode == "singles":
        return 0, 0, config["epr.n"]
    if name == "sterngerlach":
        steps, records = spin_dynamics.schedule(config["sterngerlach.duration"],
                                                config["sterngerlach.dt"],
                                                config["sterngerlach.record_every"])
        within(records, f"[1, {MAX_ROWS}]",
               "row count of sterngerlach.duration / sterngerlach.dt / sterngerlach.record_every")
        return records, steps, 0
    return 0, 0, 0  # chsh and budget write reports, not tables


def _run_electron(config: dict, out: Path) -> int:
    """density/energy/wavefunction profiles"""
    points = config["electron.points"]
    zmin, zmax = config["electron.zmin"], config["electron.zmax"]
    electron = PlaneWaveElectron(
        rho0=config["electron.rho0"],
        u=config["electron.u"],
        helicity="plus" if config["electron.helicity"] == "+" else "minus",
        units=UNIT_SYSTEMS[config["electron.units"]],
        field_split=config["electron.field_split"],
    )
    if points == 1:
        zs = [zmin]
    else:
        within(zmax - zmin, "(0, inf)", "electron.zmax - electron.zmin")
        step = (zmax - zmin) / (points - 1)
        with np.errstate(all="ignore"):  # the profile refuses an overflowing z by name
            zs = zmin + np.arange(points) * step
    profile = profile_rows(electron, zs, config["electron.t"])
    _write_table(out, "electron_profile", dict(zip(PROFILE_COLUMNS, profile.columns)), config,
                 wavelength=electron.wavelength, nu=electron.nu, E0=electron.E0,
                 H0=electron.H0, cohesive_potential_ev=COHESIVE_POTENTIAL_EV)
    print(f"electron profile: {len(zs)} samples, wavelength = {_fmt(electron.wavelength)}")
    return 0


def _run_epr(config: dict, out: Path) -> int:
    """correlation curve, CHSH report, singles sampling"""
    def radians(deg: float) -> float:  # fmod is exact, so the residue modulo 360 survives
        return math.radians(math.fmod(deg, 360.0))
    mode = config["epr.mode"]
    delta = radians(config["epr.delta_deg"])

    if mode == "curve":
        count = plan(config)[0]
        phis = np.arange(count) * config["epr.step_deg"]  # each product rounds once, as i * step
        es = np.fromiter((epr_model.expectation(epr_model.AnalyzerPair(0.0, radians(phi), delta))
                          for phi in phis.tolist()), np.float64, count)
        _write_table(out, "epr_curve", {"phi_deg": phis, "E": es}, config)
        print(f"correlation curve: {len(phis)} settings")
        return 0

    if mode == "chsh":
        degs = config["epr.angles_deg"]
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
    n = config["epr.n"]
    hits, rate = epr_model.monte_carlo_singles(
        radians(config["epr.angle_deg"]), n=n, seed=config["seed"], workers=config["epr.workers"])
    stderr = math.sqrt(rate * (1.0 - rate) / n)
    _write(out / "epr_singles.json", _json_text(
        config, angle_deg=config["epr.angle_deg"], n=n, hits=hits, rate=rate, stderr=stderr))
    print(f"singles rate = {_fmt(rate)} ({hits}/{n})")
    return 0


def _run_sterngerlach(config: dict, out: Path) -> int:
    """spin trajectory in a ramping field"""
    duration = config["sterngerlach.duration"]
    rate = config["sterngerlach.brate"]
    b_dir = config["sterngerlach.bdir"]
    threshold = config["sterngerlach.threshold"]
    within(spin_dynamics.norm(b_dir), "(0, inf)", "sterngerlach.bdir length")
    if config["sterngerlach.ramp"] == "linear":
        ramp = spin_dynamics.linear_ramp(rate, duration, b_dir)
    else:
        # same net field change as the linear ramp at this rate
        ramp = spin_dynamics.cosine_ramp(rate * duration, duration, b_dir)
    params = spin_dynamics.LLParams(kappa=config["sterngerlach.kappa"],
                                    u=config["sterngerlach.u"], dt=config["sterngerlach.dt"])
    plan(config)  # refuses a trajectory over the row cap before it is integrated
    within(spin_dynamics.norm(config["sterngerlach.es0"]), "(0, inf)", "sterngerlach.es0 length")
    state0 = spin_dynamics.SpinState.from_vector(config["sterngerlach.es0"])
    trajectory = spin_dynamics.integrate(state0, ramp, params, config["sterngerlach.record_every"])

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
        ramp={"shape": config["sterngerlach.ramp"], "b_dir": list(ramp.b_dir), "rate": rate,
              "duration": duration, "dt": params.dt},
        threshold=threshold,
        final={"t": t_final, "e_s": list(final.e_s), "dot_B": float(dots[-1])}))
    print(f"deflection: {label} (e_s . B = {_fmt(float(dots[-1]))})")
    return 0


def _run_budget(config: dict, out: Path) -> int:
    """measurement uncertainty budget"""
    budget = budget_report(
        band_energy_ev=config["budget.band_energy_mev"] / 1000.0,
        lateral_resolution_pm=config["budget.resolution_pm"],
        feature_height_pm=config["budget.feature_pm"],
        height_error_pm=config["budget.error_pm"],
        convention_factor=config["budget.convention"],
    )
    fields = budget.as_dict()
    width = max(len(k) for k in fields)
    _write(out / "budget.json", _json_text(config, budget=fields),
           "".join(f"{key:<{width}}  {_fmt(value)}\n" for key, value in fields.items()))
    return 0


_RUNNERS = {
    "electron": _run_electron,
    "epr": _run_epr,
    "sterngerlach": _run_sterngerlach,
    "budget": _run_budget,
}


def run(config: dict) -> int:
    """Dispatch the mapping `parse_config` returns and write the artifacts that echo it."""
    return _RUNNERS[config["subcommand"]](config, Path(config["out"]))


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
