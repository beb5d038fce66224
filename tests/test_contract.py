"""The exit contract, over argv drawn from the config registry.

Every run of `main` ends one of two ways: exit 0 with RFC 8259 JSON
artifacts (no NaN or Infinity token), each CSV holding the rows of its
JSON mirror and stdout naming each file once; or exit 1 with one
`error:` line on stderr, nothing on stdout and no `--out` directory. It
never raises and never exits 2 (argparse's usage error). The same values
in a `--config` file give the same exit code, stdout and artifacts, and
the same error after its `line N:` or `override:` prefix.

An argv names one subcommand and, each with probability 1/2, each of
its options and the globals `seed` and `format`. The flag is the one
`cli.build_parser()` gives the key. Half the time a number is drawn near
its default, from half to twice it (from -1 to 1 around 0) and inside its
interval, so that more argv are accepted. Otherwise a float is drawn from the ends of the double
range and of every registry interval, or from all finite doubles; an int
from the interval ends, 0, -1, 10**400 and small ints; a tuple one
component at a time. A value with choices is drawn from its choices.
Three argv in four take the window branch: each key in `SIZES` is drawn
inside the work bound, and zmin < zmax, so that about half of all argv
are accepted.

Work bound: an argv the registry accepts is assumed away if it asks for
more than 10**3 profile points, 10**3 curve settings, 10**4 Monte Carlo
trials or 2*10**4 RK4 steps (as `spin_dynamics.schedule` counts them).
Refused argv, including a step count `schedule` refuses, always stay in.

Four argv are pinned with `example`: `electron --zmin=-1.7e+308` breaks
the contract if `phase` or `profile_rows` loses its finiteness test,
`electron --rho0=1.7e+308` if the writer allows NaN,
`electron --u=1.7e+308` if `main` lets `u**2`'s OverflowError escape,
and `budget --feature-pm=1e-320 --error-pm=1e+308` if a refused budget
prints its report first. The draws alone reach each of those faults in
under one example in a hundred.
"""

import argparse
import contextlib
import io
import json
import math
import re
import shutil
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


def _near(default, lo=-math.inf, hi=math.inf):
    """A float from half to twice `default` (-1 to 1 around 0), strictly between lo and hi."""
    a, b = sorted((default / 2, default * 2)) if default else (-1.0, 1.0)
    return st.floats(max(a, lo), min(b, hi), exclude_min=a <= lo, exclude_max=b >= hi)


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
        near = st.integers(-(-opt.default // 2), opt.default * 2)
        return near.map(str) | (st.sampled_from(sorted(edges)) | st.integers(0, 9)).map(str)
    edges = EDGES + [x for end in ends for x in (math.nextafter(end, -math.inf), end,
                                                 math.nextafter(end, math.inf))]
    floats = st.sampled_from(edges) | FINITE
    if isinstance(opt.default, tuple):
        def text(v):
            return ",".join(map(repr, v))
        return (st.tuples(*map(_near, opt.default)).map(text)
                | st.tuples(*[floats] * len(opt.default)).map(text))
    return _near(opt.default, *_ends(opt.within or "(-inf, inf)")).map(repr) | floats.map(repr)


def _flag(name, key, values):
    """`--flag=value` for a key, the value drawn from `values`, or one of its switches."""
    actions = [a for a in _SUBPARSERS[name]._actions if a.dest == key]
    if isinstance(actions[0], argparse._StoreConstAction):
        return st.sampled_from([a.option_strings[0] for a in actions])
    flag = actions[0].option_strings[0]
    return values.map(lambda text: f"{flag}={text}")


# subcommand -> key -> the flag strategy of `seed`, `format` and each of its keys
OPTIONS = {name: {key: _flag(name, key, _value(REGISTRY[key])) for key in REGISTRY
                  if key in ("seed", "format") or key.startswith(name + ".")}
           for name in SUBCOMMANDS}
# the window branch's draws of the keys that size a run, well inside the work bound
SIZES = {key: _flag(key.partition(".")[0], key, values) for key, values in {
    "electron.points": st.integers(1, 10**2).map(str),
    "epr.step_deg": st.floats(3.6, 720.0, exclude_max=True).map(repr),
    "epr.n": st.integers(1, 10**4).map(str),
    "sterngerlach.duration": st.floats(0.1, 2.0).map(repr),
    "sterngerlach.dt": st.floats(0.01, 0.1).map(repr),
    "sterngerlach.record_every": st.integers(1, 10**2).map(str),
}.items()}
Z = ("electron.zmin", "electron.zmax")


@st.composite
def argvs(draw):
    name = draw(st.sampled_from(SUBCOMMANDS))
    argv, options = [name], dict(OPTIONS[name])
    if draw(st.integers(0, 3)):  # the window branch
        argv += [draw(SIZES[key]) for key in SIZES if options.pop(key, None) is not None]
        if Z[0] in options:  # zmin < zmax: two values drawn as `_value` draws them, in order
            (zmin, _, a), (zmax, _, b) = (draw(options.pop(key)).partition("=") for key in Z)
            assume(float(a) != float(b))
            argv += [f"{zmin}={min(a, b, key=float)}", f"{zmax}={max(a, b, key=float)}"]
    return argv + [draw(flag) for flag in options.values() if draw(st.booleans())]


def _within_work_bound(argv):
    """False for an accepted argv above the work bound; True for every refused one."""
    try:
        p = parse_config("", cli._collect_overrides(_PARSER.parse_args(argv)))
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
            return spin_dynamics.schedule(p["sterngerlach.duration"], p["sterngerlach.dt"],
                                          p["sterngerlach.record_every"])[0] <= 2 * 10**4
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


def _run(argv, out):
    """Exit code, stdout, stderr and the bytes of each file in `out` of `main(argv)`."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv + [f"--out={out}"])
        except SystemExit as exc:
            pytest.fail(f"argparse exited {exc.code} on {argv}: {stderr.getvalue()}")
    files = {path.name: path.read_bytes() for path in out.iterdir()} if out.exists() else {}
    return code, stdout.getvalue(), stderr.getvalue(), files


@settings(max_examples=200, deadline=None, derandomize=True)
@given(argv=argvs())
@example(argv=["electron", "--zmin=-1.7e+308"])
@example(argv=["electron", "--rho0=1.7e+308"])
@example(argv=["electron", "--u=1.7e+308"])
@example(argv=["budget", "--feature-pm=1e-320", "--error-pm=1e+308"])
def test_every_argv_keeps_the_exit_contract(argv):
    assume(_within_work_bound(argv))
    with tempfile.TemporaryDirectory() as tmp:
        out, config = Path(tmp) / "out", Path(tmp) / "run.cfg"
        code, stdout, stderr, files = run = _run(argv, out)
        if code == 0:
            wrote = sorted(line for line in stdout.splitlines() if line.startswith("wrote "))
            assert wrote == sorted(f"wrote {out / name}" for name in files), argv
            for path in out.iterdir():
                if path.suffix == ".json":
                    json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
                else:
                    mirror = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
                    # a cell is the repr of its JSON number, so -0.0 and 0.0 differ
                    assert _csv_rows(path) == [{k: repr(v) for k, v in row.items()}
                                               for row in mirror["rows"]], argv
        else:
            lines = stderr.splitlines()
            assert code == 1, argv
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv, lines)
            assert stdout == "", (argv, stdout)
            assert not out.exists(), argv
        # the same values as `key=value` lines of a config file: the same run, and the same
        # error after its prefix
        shutil.rmtree(out, ignore_errors=True)
        overrides = cli._collect_overrides(_PARSER.parse_args(argv))
        config.write_text("".join(item + "\n" for item in overrides), encoding="utf-8")
        from_file = _run([argv[0], f"--config={config}"], out)
    assert from_file[:2] + from_file[3:] == run[:2] + run[3:], argv
    errors = {re.sub(r"^error: (line \d+|override): ", "error: ", text)
              for text in (stderr, from_file[2])}
    assert len(errors) == 1, (argv, errors)
