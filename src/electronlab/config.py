"""Run configuration: a flat key registry, file parsing, flag overrides.

Config files are line oriented, one ``key = value`` per line, with ``#``
comments and blank lines ignored. Flags arrive as ``key=value`` strings
and win over file values, which win over the documented defaults. Keys
outside the registry are rejected, and every run keeps its fully
resolved configuration (defaults included) for embedding in artifacts.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Any, Sequence

from .constants import UNIT_SYSTEMS
from .errors import ConfigError

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

    Option("electron.rho0", 1.0, help="mass-density amplitude"),
    Option("electron.u", 1.0, help="mechanical velocity"),
    Option("electron.helicity", "+", choices=("+", "-")),
    Option("electron.zmin", 0.0),
    Option("electron.zmax", 2.0 * math.pi, help="one wavelength at the default parameters"),
    Option("electron.points", 256, help="profile samples", within=f"[1, {MAX_ROWS}]"),
    Option("electron.t", 0.0),
    Option("electron.units", "atomic", choices=tuple(UNIT_SYSTEMS)),
    Option("electron.field_split", 0.5, help="fraction of the field energy carried by E"),

    Option("epr.mode", "curve", choices=("curve", "chsh", "singles")),
    Option("epr.phi1_deg", 0.0, help="reference analyzer angle"),
    Option("epr.delta_deg", 0.0, help="source phase difference"),
    # round(360 / step) settings, from 1 to MAX_ROWS
    Option("epr.step_deg", 1.0, help="curve resolution", within=f"[{360 / MAX_ROWS}, 720)"),
    Option("epr.angles_deg", (0.0, 45.0, 22.5, 67.5),
           help="phi1, phi1', phi2, phi2' for the CHSH run"),
    Option("epr.angle_deg", 0.0, help="analyzer angle for singles"),
    # a minute or so at ~1.8e7 trials/s on a 2-core Xeon VM; an unchecked n could take hours
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

    Option("budget.band_energy_mev", 80.0),
    Option("budget.resolution_pm", 20.0),
    Option("budget.feature_pm", 30.0),
    Option("budget.error_pm", 0.1),
    Option("budget.convention", 0.5, choices=(0.5, 1.0)),
]

REGISTRY = {opt.key: opt for opt in _OPTIONS}

# Unicode's control characters (Cc) and its line and paragraph separators: any of
# them in `out` would break a `#` line of a CSV, and NUL a path
_CONTROL = re.compile(r"[\x00-\x1f\x7f-\x9f\u2028\u2029]")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved batch run."""

    subcommand: str
    seed: int
    out: str
    format: str
    params: dict

    def resolved(self) -> dict:
        """Flat view of everything this run will use, defaults included."""
        flat = {
            "subcommand": self.subcommand,
            "seed": self.seed,
            "out": self.out,
            "format": self.format,
        }
        for key in sorted(self.params):
            flat[key] = self.params[key]
        return flat


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
    if opt.choices is not None and value not in opt.choices:
        raise ConfigError(
            f"{where}: '{opt.key}' must be one of {list(opt.choices)}, got {value!r}")
    if opt.within is not None:
        lo, hi = map(float, opt.within[1:-1].split(","))
        closed_end = value == lo and opt.within[0] == "[" or value == hi and opt.within[-1] == "]"
        if not (lo < value < hi or closed_end):
            raise ConfigError(f"{where}: '{opt.key}' must lie in {opt.within}, got {value!r}")
    return value


def _assign(resolved: dict, key: str, raw: str, where: str):
    opt = REGISTRY.get(key)
    if opt is None:
        raise ConfigError(f"{where}: unknown key '{key}'")
    resolved[key] = _parse_value(opt, raw, where)


def parse_config(file_text: str, overrides: Sequence[str] = ()) -> RunConfig:
    """Resolve defaults, then the config file, then override flags."""
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

    prefix = subcommand + "."
    params = {k: v for k, v in resolved.items() if k.startswith(prefix)}
    return RunConfig(
        subcommand=subcommand,
        seed=resolved["seed"],
        out=resolved["out"],
        format=resolved["format"],
        params=params,
    )
