"""The benchmark workloads as seeded electronlab invocations.

Each workload turns a `random.Random` into one invocation: the CLI
arguments (without `--out`), the number of work items it performs, and
the parameters the output checker needs. Sizes are fixed per workload,
so the seed changes the inputs (directions, z window, analyzer angle,
Monte Carlo seed) but never the amount of work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# Work per invocation. Each runs in well under a second on a 2-core
# machine, so one measured run collects a few dozen invocations.
TRAJECTORY_DURATION = 1.5707963   # README geometry: a quarter turn
TRAJECTORY_DT = 1e-4              # 15 708 steps, every one recorded
PROFILE_POINTS = 10_000
SINGLES_TRIALS = 8_000_000        # 123 blocks of 65 536 trials


@dataclass(frozen=True)
class Invocation:
    """One electronlab run: its arguments, its work items, what to check."""

    workload: str
    argv: list[str]
    items: int
    expect: dict = field(default_factory=dict)


def _num(x: float) -> str:
    return repr(float(x))   # round-trips exactly; flags use --name=value for negatives


def _vec(v) -> str:
    return ",".join(_num(c) for c in v)


def _direction(rng) -> tuple[float, float, float]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(c * c for c in v))
        if n > 1e-3:
            return tuple(c / n for c in v)


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _sterngerlach(rng, shape, duration, dt, record_every) -> Invocation:
    es0 = _direction(rng)
    bdir = _direction(rng)
    while True:   # keep the precession axis u x b well defined
        u = _direction(rng)
        if math.sqrt(sum(c * c for c in _cross(u, bdir))) > 0.3:
            break
    steps = int(round(duration / dt))
    rows = 1 + steps // record_every + (1 if steps % record_every else 0)
    argv = ["sterngerlach", "--kappa=1", f"--u={_vec(u)}", f"--bdir={_vec(bdir)}",
            "--brate=1", f"--duration={_num(duration)}", f"--dt={_num(dt)}",
            f"--ramp={shape}", f"--es0={_vec(es0)}", f"--record-every={record_every}",
            "--format=csv"]
    expect = {"shape": shape, "kappa": 1.0, "u": u, "bdir": bdir, "rate": 1.0,
              "es0": es0, "duration": duration, "dt": dt, "record_every": record_every,
              "steps": steps, "rows": rows}
    return Invocation("trajectory", argv, rows, expect)


def trajectory(rng) -> Invocation:
    """Linear ramp, every step recorded: row building and serialization dominate."""
    return _sterngerlach(rng, "linear", TRAJECTORY_DURATION, TRAJECTORY_DT, 1)


def profile(rng) -> Invocation:
    """Electron profile over a seeded z window: per-point loop plus formatting."""
    zmin = rng.uniform(-20.0, 20.0)
    zmax = zmin + rng.uniform(2.0 * math.pi, 4.0 * math.pi)
    t = rng.uniform(0.0, 5.0)
    argv = ["electron", "--rho0=1", "--u=1", "--helicity=+", f"--zmin={_num(zmin)}",
            f"--zmax={_num(zmax)}", f"--points={PROFILE_POINTS}", f"--t={_num(t)}",
            "--format=csv"]
    expect = {"rho0": 1.0, "u": 1.0, "helicity": "+", "zmin": zmin, "zmax": zmax,
              "t": t, "points": PROFILE_POINTS}
    return Invocation("profile", argv, PROFILE_POINTS, expect)


def singles(rng) -> Invocation:
    """Monte Carlo singles: numpy-bound, no row assembly, one worker."""
    angle = rng.uniform(0.0, 180.0)
    seed = rng.randrange(2**31)
    argv = ["epr", "--singles", f"--angle={_num(angle)}", f"--n={SINGLES_TRIALS}",
            f"--seed={seed}", "--workers=1"]
    expect = {"angle_deg": angle, "n": SINGLES_TRIALS, "seed": seed}
    return Invocation("singles", argv, SINGLES_TRIALS, expect)


WORKLOADS = {"trajectory": trajectory, "profile": profile, "singles": singles}

ITEM_NAMES = {"trajectory": "recorded trajectory rows", "profile": "profile points",
              "singles": "Monte Carlo trials"}
