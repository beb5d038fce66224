"""Run configuration: a flat key registry, file parsing, flag overrides.

Config files are line oriented, one ``key = value`` per line, with ``#``
comments and blank lines ignored. Flags arrive as ``key=value`` strings
and win over file values, which win over the documented defaults. Keys
outside the registry are rejected. `parse_config` returns the one mapping
that every artifact echoes: the globals `subcommand`, `seed`, `out` and
`format` in registry order, then the subcommand's own keys sorted, defaults
included, and no key of another subcommand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Sequence

from .constants import UNIT_SYSTEMS
from .errors import ConfigError, DomainError, one_of, within

SUBCOMMANDS = ("electron", "epr", "sterngerlach", "budget")
# Most rows one run may emit (profile points, curve settings, trajectory samples), checked
# before any loop runs so that a tiny step fails at once instead of looping without bound.
MAX_ROWS = 1_000_000


@dataclass(frozen=True)
class Option:
    key: str
    default: Any                   # its type is the value's: int, finite float(s) or text
    choices: tuple | None = None
    help: str = ""
    within: str | None = None      # "[lo, hi)": a bracket includes its end, a parenthesis not


_OPTIONS = [
    Option("subcommand", None, choices=SUBCOMMANDS),
    Option("seed", 12345, help="random seed for every sampled quantity", within="[0, inf)"),
    Option("out", "out", help="output directory for artifacts"),
    Option("format", "csv", choices=("csv", "json"),
           help="tabular artifact format; reports are always JSON"),

    Option("electron.rho0", 1.0, help="mass-density amplitude", within="(0, inf)"),
    Option("electron.u", 1.0, help="mechanical velocity"),
    Option("electron.helicity", "+", choices=("+", "-")),
    Option("electron.zmin", 0.0),
    Option("electron.zmax", 2.0 * math.pi, help="one wavelength at the default parameters"),
    Option("electron.points", 256, help="profile samples", within=f"[1, {MAX_ROWS}]"),
    Option("electron.t", 0.0),
    Option("electron.units", "atomic", choices=tuple(UNIT_SYSTEMS)),
    Option("electron.field_split", 0.5, help="fraction of the field energy carried by E",
           within="(0, 1)"),

    Option("epr.mode", "curve", choices=("curve", "chsh", "singles")),
    Option("epr.delta_deg", 0.0, help="source phase difference"),
    # round(360 / step) settings, from 1 to MAX_ROWS
    Option("epr.step_deg", 1.0, help="curve resolution", within=f"[{360 / MAX_ROWS}, 720)"),
    Option("epr.angles_deg", (0.0, 45.0, 22.5, 67.5),
           help="phi1, phi1', phi2, phi2' for the CHSH run"),
    Option("epr.angle_deg", 0.0, help="analyzer angle for singles"),
    # ~9-14 s at 7.4e7-1.2e8 trials/s (8 in-process runs of `epr --singles --n 100000000
    # --workers 1`, 2-core Xeon VM); an unchecked n could take hours
    Option("epr.n", 1_000_000, help="Monte Carlo trials", within="[1, 1000000000]"),
    Option("epr.workers", 1, help="threads for the singles trials", within="[1, inf)"),

    Option("sterngerlach.kappa", 1.0, help="torque coupling"),
    Option("sterngerlach.u", (0.0, 0.0, 1.0), help="electron velocity"),
    Option("sterngerlach.bdir", (1.0, 0.0, 0.0), help="field direction"),
    Option("sterngerlach.brate", 1.0, help="field ramp rate dB/dt"),
    Option("sterngerlach.duration", 1.0),
    Option("sterngerlach.dt", 1e-3),
    Option("sterngerlach.ramp", "linear", choices=("linear", "cosine")),
    Option("sterngerlach.es0", (0.0, 0.0, 1.0), help="initial spin direction"),
    Option("sterngerlach.threshold", 0.99, help="deflection cutoff", within="(0, 1)"),
    Option("sterngerlach.record_every", 1, help="steps per record", within="[1, inf)"),

    Option("budget.band_energy_mev", 80.0, help="band energy (meV)", within="(0, inf)"),
    Option("budget.resolution_pm", 20.0, help="lateral resolution (pm)", within="(0, inf)"),
    Option("budget.feature_pm", 30.0, help="feature height (pm)", within="(0, inf)"),
    Option("budget.error_pm", 0.1, help="height error (pm)", within="[0, inf)"),
    Option("budget.convention", 0.5, choices=(0.5, 1.0)),
]

REGISTRY = {opt.key: opt for opt in _OPTIONS}

# Unicode's control characters (Cc) and its line and paragraph separators: any of
# them in `out` would break a `#` line of a CSV, and NUL a path
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{value} is not finite")
    return value


def _parse_value(opt: Option, raw: str, where: str) -> Any:
    text = raw.strip()
    default = opt.default
    try:
        if isinstance(default, tuple):
            value: Any = tuple(_finite(part) for part in text.split(","))
            if len(value) != len(default):
                raise ValueError(f"expected {len(default)} values, got {len(value)}")
        elif isinstance(default, int):
            value = int(text)
        elif isinstance(default, float):
            value = _finite(text)
        else:
            value = text
            text.encode("utf-8")  # a lone surrogate, as Python decodes a non-UTF-8 byte
            if bad := _CONTROL.search(text):
                raise ValueError(f"control character {bad[0]!r}")
    except ValueError as exc:
        raise ConfigError(f"{where}: bad value for '{opt.key}': {exc}") from None
    try:
        if opt.choices is not None:
            one_of(value, opt.choices, f"'{opt.key}'")
        if opt.within is not None:
            within(value, opt.within, f"'{opt.key}'")
    except DomainError as exc:
        raise ConfigError(f"{where}: {exc}") from None
    return value


def _assign(resolved: dict, key: str, raw: str, where: str):
    opt = REGISTRY.get(key)
    if opt is None:
        raise ConfigError(f"{where}: unknown key '{key}'")
    resolved[key] = _parse_value(opt, raw, where)


def parse_config(file_text: str, overrides: Sequence[str] = ()) -> dict:
    """Defaults, then the config file, then override flags: the mapping artifacts echo."""
    resolved = {opt.key: opt.default for opt in _OPTIONS}

    # the breaks universal newlines read; str.splitlines also breaks at \v, \x1c, U+2028 ...
    lines = file_text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for lineno, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        key, sep, raw = stripped.partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        _assign(resolved, key.strip(), raw, f"line {lineno}")

    for item in overrides:
        key, sep, raw = str(item).partition("=")
        if not sep or not key.strip():
            raise ConfigError(f"override: expected 'key=value', got {item!r}")
        _assign(resolved, key.strip(), raw, "override")

    subcommand = resolved["subcommand"]
    if subcommand is None:
        raise ConfigError("no subcommand selected")

    own = sorted(k for k in resolved if k.startswith(subcommand + "."))
    return {k: resolved[k] for k in [k for k in resolved if "." not in k] + own}
