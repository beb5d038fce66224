"""Spin-direction precession in a ramping magnetic field.

The direction e_s obeys de_s/dt = kappa * e_s x (u x dB/dt). Every ramp
keeps dB/dt = rate * shape(t) * b_dir along one direction, so with
constant u the right-hand side is shape(t) * (e_s x w) about the fixed
precession vector w = kappa * (u x rate * b_dir). It is orthogonal to
e_s, so the exact flow stays on the unit sphere; the integrator is
classical fixed-step RK4 with a renormalization after every step.

Nothing in the equation drives e_s to settle parallel or antiparallel
to B, so `classify_deflection` reports the projection onto the field
axis at the end of the ramp instead of asserting alignment.
"""

from __future__ import annotations

import math
from array import array
from collections import abc
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import within

Vec3 = tuple[float, float, float]

# a minute or so at ~1.4 us per RK4 step on a 2-core Xeon VM; like epr.n's cap, no run takes hours
_MAX_STEPS = 50_000_000
# |n - 1| <= 1e-9 exactly: the double 1.0 + 1e-9 lies above 1 + 1e-9, so the top is open
_UNIT_LENGTH = f"[{1.0 - 1e-9!r}, {1.0 + 1e-9!r})"

PARALLEL = "parallel"
ANTIPARALLEL = "antiparallel"
UNRESOLVED = "unresolved"


def _cross(a: Vec3, b: Vec3) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0])


def norm(a: Vec3) -> float:
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


@dataclass(frozen=True, slots=True)
class SpinState:
    """Unit spin direction; a `Trajectory` builds one per item it hands out."""

    e_s: Vec3

    def __post_init__(self):
        x, y, z = self.e_s
        x, y, z = float(x), float(y), float(z)
        object.__setattr__(self, "e_s", (x, y, z))
        within(math.sqrt(x * x + y * y + z * z), _UNIT_LENGTH, "spin direction length")

    @classmethod
    def from_vector(cls, v: Sequence[float]) -> "SpinState":
        return cls(e_s=_unit(v, "spin vector"))


@dataclass(frozen=True)
class FieldRamp:
    """dB/dt = rate * shape(t) * b_dir over [0, duration], b_dir a unit vector."""

    b_dir: Vec3
    rate: float
    duration: float
    shape: Callable[[float], float]

    def __post_init__(self):
        object.__setattr__(self, "b_dir", tuple(float(c) for c in self.b_dir))
        within(norm(self.b_dir), _UNIT_LENGTH, "field direction length")
        within(self.rate, "(-inf, inf)", "rate")
        within(self.duration, "(0, inf)", "duration")

    def b_rate(self, t: float) -> Vec3:
        """dB/dt at time t."""
        r = self.rate * self.shape(t)
        return (r * self.b_dir[0], r * self.b_dir[1], r * self.b_dir[2])


def linear_ramp(rate: float, duration: float, b_dir: Sequence[float]) -> FieldRamp:
    """Constant dB/dt = rate * b_dir over [0, duration]."""
    return FieldRamp(_unit(b_dir), rate, duration, lambda t: 1.0)


def cosine_ramp(b_total: float, duration: float, b_dir: Sequence[float]) -> FieldRamp:
    """Smooth switch-on reaching b_total at t = duration.

    B(t) = b_total * (1 - cos(pi t / duration)) / 2, so the rate starts
    and ends at zero.
    """
    within(duration, "(0, inf)", "duration")  # checked here too, before the rate divides by it
    return FieldRamp(_unit(b_dir), b_total * math.pi / (2.0 * duration), duration,
                     lambda t: math.sin(math.pi * t / duration))


def _unit(v: Sequence[float], name: str = "direction vector") -> Vec3:
    n = norm(tuple(v))
    within(n, "(0, inf)", f"{name} length")
    return (v[0] / n, v[1] / n, v[2] / n)


@dataclass(frozen=True)
class LLParams:
    """Coupling constant, electron velocity, and integrator step size."""

    kappa: float = 1.0
    u: Vec3 = (0.0, 0.0, 1.0)
    dt: float = 1e-3

    def __post_init__(self):
        object.__setattr__(self, "u", tuple(float(c) for c in self.u))
        for c in self.u:
            within(c, "(-inf, inf)", "velocity component")
        within(self.dt, "(0, inf)", "dt")
        within(self.kappa, "(-inf, inf)", "kappa")


def _precession(params: LLParams, dbdt: Sequence[float]) -> Vec3:
    """Precession vector w = kappa * (u x dB/dt), so that de_s/dt = e_s x w."""
    w = _cross(params.u, tuple(dbdt))
    return (params.kappa * w[0], params.kappa * w[1], params.kappa * w[2])


def ll_rhs(state: SpinState, params: LLParams, dbdt: Sequence[float]) -> Vec3:
    """kappa * e_s x (u x dB/dt); always orthogonal to e_s."""
    return _cross(state.e_s, _precession(params, dbdt))


class Trajectory(abc.Sequence):
    """The samples `integrate` recorded, as four `array('d')` columns.

    Item k is `(t[k], SpinState((ex[k], ey[k], ez[k])))`, built and
    validated when it is read; the columns hold packed doubles, 8 B a
    cell, and no Python object per record.
    """

    __slots__ = ("t", "ex", "ey", "ez")

    def __init__(self, t: array, ex: array, ey: array, ez: array):
        self.t, self.ex, self.ey, self.ez = t, ex, ey, ez

    def __len__(self) -> int:
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return self.t[k], SpinState((self.ex[k], self.ey[k], self.ez[k]))


def schedule(duration: float, dt: float, record_every: int = 1) -> tuple[int, int]:
    """Step and record counts of the trajectory `integrate` runs.

    round(duration / dt) steps; the records are the initial state, every
    `record_every`-th step and the final step, 1 + ceil(steps / record_every).
    """
    within(dt, "(0, inf)", "dt")
    within(record_every, "[1, inf)", "record_every")
    # the ratios that round, half to even, to 1 ... _MAX_STEPS steps
    within(duration / dt, f"(0.5, {_MAX_STEPS + 0.5!r}]", "duration / dt")
    steps = round(duration / dt)
    return steps, 1 + -(-steps // record_every)  # integer ceil, exact at any record_every


def integrate(state0: SpinState, ramp: FieldRamp, params: LLParams,
              record_every: int = 1) -> Trajectory:
    """RK4 trajectory of the spin direction over the ramp.

    `schedule` sets the step count (the step size is adjusted so the
    final sample lands exactly at t = duration). Every step renormalizes
    e_s. Records every `record_every`-th step plus the initial and final
    states, as the `array('d')` columns of a `Trajectory`.

    Only the final state is checked for unit length. A step that is
    renormalized stays on the unit sphere, and a NaN or infinity in any
    step turns every later state into NaN, so a unit final state means
    every record is unit; otherwise the check raises `DomainError`.
    """
    steps, _ = schedule(ramp.duration, params.dt, record_every)
    h = ramp.duration / steps

    b, rate, shape = ramp.b_dir, ramp.rate, ramp.shape
    wx, wy, wz = _precession(params, (rate * b[0], rate * b[1], rate * b[2]))
    for c in (wx, wy, wz):  # a non-finite component would turn every later state into NaN
        within(c, "(-inf, inf)", "precession vector kappa*(u x dB/dt) component")
    ex, ey, ez = state0.e_s
    hh, sixth = 0.5 * h, h / 6.0
    ts, xs, ys, zs = array("d", [0.0]), array("d", [ex]), array("d", [ey]), array("d", [ez])
    # bound once, so the loop does no attribute lookups
    t_append, x_append, y_append, z_append = ts.append, xs.append, ys.append, zs.append
    sqrt = math.sqrt

    for k in range(steps):
        t0 = k * h
        g1, g2, g3 = shape(t0), shape(t0 + hh), shape(t0 + h)

        k1x = g1 * (ey * wz - ez * wy)
        k1y = g1 * (ez * wx - ex * wz)
        k1z = g1 * (ex * wy - ey * wx)

        ax, ay, az = ex + hh * k1x, ey + hh * k1y, ez + hh * k1z
        k2x = g2 * (ay * wz - az * wy)
        k2y = g2 * (az * wx - ax * wz)
        k2z = g2 * (ax * wy - ay * wx)

        ax, ay, az = ex + hh * k2x, ey + hh * k2y, ez + hh * k2z
        k3x = g2 * (ay * wz - az * wy)
        k3y = g2 * (az * wx - ax * wz)
        k3z = g2 * (ax * wy - ay * wx)

        ax, ay, az = ex + h * k3x, ey + h * k3y, ez + h * k3z
        k4x = g3 * (ay * wz - az * wy)
        k4y = g3 * (az * wx - ax * wz)
        k4z = g3 * (ax * wy - ay * wx)

        ex += sixth * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        ey += sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        ez += sixth * (k1z + 2.0 * k2z + 2.0 * k3z + k4z)

        inv = 1.0 / sqrt(ex * ex + ey * ey + ez * ez)
        ex *= inv
        ey *= inv
        ez *= inv

        if (k + 1) % record_every == 0 or k + 1 == steps:
            t = ramp.duration if k + 1 == steps else (k + 1) * h
            t_append(t)
            x_append(ex)
            y_append(ey)
            z_append(ez)

    SpinState((ex, ey, ez))  # the one unit-length check, for every record
    return Trajectory(ts, xs, ys, zs)


def classify_deflection(final: SpinState, b_dir: Sequence[float], threshold: float) -> str:
    """Sign of the deflection a field gradient would impose on this spin."""
    within(threshold, "(0, 1)", "threshold")
    (ex, ey, ez), (bx, by, bz) = final.e_s, _unit(b_dir)
    alignment = ex * bx + ey * by + ez * bz
    if alignment > threshold:
        return PARALLEL
    if alignment < -threshold:
        return ANTIPARALLEL
    return UNRESOLVED
