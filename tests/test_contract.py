"""The exit contract, over argv drawn from the config registry.

Every run of `main` ends one of two ways: exit 0 with RFC 8259 JSON
artifacts (no NaN or Infinity token), each CSV holding the rows of its
JSON mirror and stdout naming each file once; or exit 1 with one
`error:` line on stderr and no `--out` directory. It never raises and
never exits 2 (argparse's usage error).

An argv names one subcommand and, each with probability 1/2, each of
its options and the globals `seed` and `format`. The flag is the one
`cli.build_parser()` gives the key. Half the time a number is drawn near
its default, from half to twice it (from -1 to 1 around 0), so that more
argv are accepted. Otherwise a float is drawn from the ends of the double
range and of every registry interval, or from all finite doubles; an int
from the interval ends, 0, -1, 10**400 and small ints; a tuple one
component at a time. A value with choices is drawn from its choices.

Work bound: an argv the registry accepts is assumed away if it asks for
more than 10**3 profile points, 10**3 curve settings, 10**4 Monte Carlo
trials or 2*10**4 RK4 steps (as `spin_dynamics.schedule` counts them).
Refused argv, including a step count `schedule` refuses, always stay in.

Two argv are pinned with `example`: `electron --zmin=-1.7e+308` breaks
the contract if `phase` or `profile_rows` loses its finiteness test, and
`electron --rho0=1.7e+308` if the writer allows NaN. About a third of
the drawn argv are accepted, but the draws alone reach each of those
faults in under one example in a hundred.
"""

import argparse
import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from electronlab import cli, spin_dynamics
from electronlab.config import REGISTRY, SUBCOMMANDS, parse_config
from electronlab.errors import ConfigError, DomainError, _ends

_PARSER = cli.build_parser()
_SUBPARSERS = next(a for a in _PARSER._actions
                   if isinstance(a, argparse._SubParsersAction)).choices

EDGES = [sign * x for sign in (1.0, -1.0) for x in (0.0, 5e-324, 1e-300, 1e300, 1.7e308)]
FINITE = st.floats(allow_nan=False, allow_infinity=False)


def _near(default):
    """A float from half to twice `default`, or in [-1, 1] around a default of 0."""
    return st.floats(*sorted((default / 2, default * 2))) if default else st.floats(-1.0, 1.0)


def _value(opt):
    """Flag text for one registry key: half the time near its default, else from the edges.

    The edges are the double range's and those of the key's interval, each finite
    interval end with its neighbours. A mapped strategy is one branch of `|`, so
    the two halves are drawn equally often.
    """
    if opt.choices is not None:
        return st.sampled_from(opt.choices).map(str)
    ends = [end for end in _ends(opt.within) if math.isfinite(end)] if opt.within else []
    if isinstance(opt.default, int):
        edges = {int(end) + d for end in ends for d in (-1, 0, 1)} | {0, -1, 10**400}
        near = st.integers(opt.default // 2, opt.default * 2)
        return near.map(str) | (st.sampled_from(sorted(edges)) | st.integers(0, 9)).map(str)
    edges = EDGES + [x for end in ends for x in (math.nextafter(end, -math.inf), end,
                                                 math.nextafter(end, math.inf))]
    floats = st.sampled_from(edges) | FINITE
    if isinstance(opt.default, tuple):
        def text(v):
            return ",".join(map(repr, v))
        return (st.tuples(*map(_near, opt.default)).map(text)
                | st.tuples(*[floats] * len(opt.default)).map(text))
    return _near(opt.default).map(repr) | floats.map(repr)


def _flag(name, key):
    """`--flag=value` for a key, or one of its switches if it has one per choice."""
    actions = [a for a in _SUBPARSERS[name]._actions if a.dest == key]
    if isinstance(actions[0], argparse._StoreConstAction):
        return st.sampled_from([a.option_strings[0] for a in actions])
    flag = actions[0].option_strings[0]
    return _value(REGISTRY[key]).map(lambda text: f"{flag}={text}")


# subcommand -> the flag strategies of `seed`, `format` and each of its keys
OPTIONS = {name: [_flag(name, key) for key in REGISTRY
                  if key in ("seed", "format") or key.startswith(name + ".")]
           for name in SUBCOMMANDS}


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(SUBCOMMANDS))
    return [name] + [draw(flag) for flag in OPTIONS[name] if draw(st.booleans())]


def _within_work_bound(argv):
    """False for an accepted argv above the work bound; True for every refused one."""
    try:
        p = parse_config("", cli._collect_overrides(_PARSER.parse_args(argv))).params
    except (SystemExit, ConfigError):  # main then shows the refusal
        return True
    if "electron.points" in p:
        return p["electron.points"] <= 10**3
    if p.get("epr.mode") == "curve":
        return round(360.0 / p["epr.step_deg"]) <= 10**3
    if p.get("epr.mode") == "singles":
        return p["epr.n"] <= 10**4
    if "sterngerlach.dt" in p:
        try:
            return spin_dynamics.schedule(p["sterngerlach.duration"], p["sterngerlach.dt"])[0] \
                <= 2 * 10**4
        except DomainError:
            return True
    return True


def _reject_constant(token):
    raise ValueError(f"non-RFC 8259 token {token}")


def _csv_rows(path):
    """The rows below the `#` lines and the header, each cell as its text."""
    lines = [line for line in path.read_text(encoding="utf-8").splitlines()
             if not line.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argvs())
@example(argv=["electron", "--zmin=-1.7e+308"])
@example(argv=["electron", "--rho0=1.7e+308"])
def test_every_argv_keeps_the_exit_contract(argv):
    assume(_within_work_bound(argv))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = cli.main(argv + [f"--out={out}"])
            except SystemExit as exc:
                pytest.fail(f"argparse exited {exc.code} on {argv}: {stderr.getvalue()}")
        if code == 0:
            files = list(out.iterdir())
            wrote = sorted(line for line in stdout.getvalue().splitlines()
                           if line.startswith("wrote "))
            assert wrote == sorted(f"wrote {path}" for path in files), argv
            for path in files:
                if path.suffix == ".json":
                    json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
                else:
                    mirror = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
                    # a cell is the repr of its JSON number, so -0.0 and 0.0 differ
                    assert _csv_rows(path) == [{k: repr(v) for k, v in row.items()}
                                               for row in mirror["rows"]], argv
        else:
            lines = stderr.getvalue().splitlines()
            assert code == 1, argv
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
            assert not out.exists(), argv
