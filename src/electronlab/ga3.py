"""Dense geometric algebra of 3-D Euclidean space, signature (+,+,+).

A multivector packs all eight blade coefficients into one flat value:
scalar, the three vectors e1,e2,e3, the three bivectors in cyclic order
e2e3, e3e1, e1e2, and the pseudoscalar i = e1e2e3. As i squares to -1,
commutes with everything and gives i e1 = e2e3, i e2 = e3e1, i e3 = e1e2,
this is the complex Pauli algebra: with z0 = s + i p and z_k = v_k + i b_k
for b = (b23, b31, b12),

    (z0 + z.e)(w0 + w.e) = (z0 w0 + z.w) + (z0 w + w0 z + i z x w).e

Reversion conjugates all four slots; rotor phases are the (s, b12) pair.

Orientation convention: rotor(e1e2, theta) turns e1 toward e2 for
theta > 0 in a right-handed frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class Multivector3:
    """One element of the eight-dimensional algebra.

    Components: ``s`` (grade 0), ``v1 v2 v3`` (grade 1), ``b23 b31 b12``
    (grade 2, cyclic order), ``p`` (grade 3, coefficient of e1e2e3).
    """

    s: float = 0.0
    v1: float = 0.0
    v2: float = 0.0
    v3: float = 0.0
    b23: float = 0.0
    b31: float = 0.0
    b12: float = 0.0
    p: float = 0.0

    def components(self) -> tuple[float, ...]:
        return (self.s, self.v1, self.v2, self.v3, self.b23, self.b31, self.b12, self.p)

    def __add__(self, other: "Multivector3") -> "Multivector3":
        return Multivector3(*(a + b for a, b in zip(self.components(), other.components())))

    def __sub__(self, other: "Multivector3") -> "Multivector3":
        return Multivector3(*(a - b for a, b in zip(self.components(), other.components())))

    def __neg__(self) -> "Multivector3":
        return Multivector3(*(-a for a in self.components()))

    def __mul__(self, other):
        if isinstance(other, Multivector3):
            return gp(self, other)
        return Multivector3(*(a * other for a in self.components()))

    def __rmul__(self, other):
        return Multivector3(*(other * a for a in self.components()))

    def grade(self, g: int) -> "Multivector3":
        return grade(self, g)

    def reverse(self) -> "Multivector3":
        return reverse(self)

    def norm(self) -> float:
        return math.sqrt(sum(a * a for a in self.components()))


def scalar(x: float) -> Multivector3:
    return Multivector3(s=x)


def vector(x: float, y: float, z: float) -> Multivector3:
    return Multivector3(v1=x, v2=y, v3=z)


def pseudovector(x: float, y: float, z: float) -> Multivector3:
    """Bivector dual to the vector (x, y, z): the image of i*(x e1 + y e2 + z e3)."""
    return Multivector3(b23=x, b31=y, b12=z)


ONE = scalar(1.0)
E1 = Multivector3(v1=1.0)
E2 = Multivector3(v2=1.0)
E3 = Multivector3(v3=1.0)
E23 = Multivector3(b23=1.0)
E31 = Multivector3(b31=1.0)
E12 = Multivector3(b12=1.0)
E123 = Multivector3(p=1.0)

BASIS = (ONE, E1, E2, E3, E23, E31, E12, E123)
_GRADES = (0, 1, 1, 1, 2, 2, 2, 3)  # the grade of each slot of components(), in BASIS order


def _slots(a: Multivector3) -> tuple[complex, ...]:
    """The complex scalar z0 = s + i p, then the complex vector z_k = v_k + i b_k."""
    return complex(a.s, a.p), complex(a.v1, a.b23), complex(a.v2, a.b31), complex(a.v3, a.b12)


def gp(a: Multivector3, b: Multivector3) -> Multivector3:
    """Full geometric product, by the complex-vector rule above."""
    z0, z1, z2, z3 = _slots(a)
    w0, w1, w2, w3 = _slots(b)
    c0 = z0 * w0 + z1 * w1 + z2 * w2 + z3 * w3
    c1 = z0 * w1 + w0 * z1 + 1j * (z2 * w3 - z3 * w2)
    c2 = z0 * w2 + w0 * z2 + 1j * (z3 * w1 - z1 * w3)
    c3 = z0 * w3 + w0 * z3 + 1j * (z1 * w2 - z2 * w1)
    return Multivector3(c0.real, c1.real, c2.real, c3.real, c1.imag, c2.imag, c3.imag, c0.imag)


def grade(a: Multivector3, g: int) -> Multivector3:
    """Project onto grade g; the four projections sum back to the input."""
    if g not in _GRADES:
        raise DomainError(f"grade index must be 0..3, got {g!r}")
    return Multivector3(*(c if k == g else 0.0 for c, k in zip(a.components(), _GRADES)))


def reverse(a: Multivector3) -> Multivector3:
    """Reversion: grades 0 and 1 kept, grades 2 and 3 negated."""
    return Multivector3(*(-c if k >= 2 else c for c, k in zip(a.components(), _GRADES)))


@dataclass(frozen=True)
class Rotor3:
    """Unit even multivector; rotates vectors through the sandwich product."""

    s: float
    b23: float
    b31: float
    b12: float

    def __post_init__(self):
        n2 = self.s**2 + self.b23**2 + self.b31**2 + self.b12**2
        if abs(n2 - 1.0) > _UNIT_TOL:
            raise DomainError(f"rotor norm^2 deviates from 1 by {abs(n2 - 1.0):.3e}")

    def as_multivector(self) -> Multivector3:
        return Multivector3(s=self.s, b23=self.b23, b31=self.b31, b12=self.b12)

    def reverse(self) -> "Rotor3":
        return Rotor3(self.s, -self.b23, -self.b31, -self.b12)

    def __neg__(self) -> "Rotor3":
        return Rotor3(-self.s, -self.b23, -self.b31, -self.b12)

    def apply(self, x: Multivector3) -> Multivector3:
        """Sandwich action R x R~; grade-preserving and norm-preserving."""
        return gp(gp(self.as_multivector(), x), self.reverse().as_multivector())


def rotor(plane: Multivector3, angle: float) -> Rotor3:
    """exp(-plane*angle/2) for a unit bivector plane.

    The sandwich action turns grade-1 vectors in the plane by `angle`,
    first basis vector toward the second for positive angles. The rotor
    itself is 4pi-periodic: shifting the angle by 2pi negates it while
    leaving the sandwich action unchanged.
    """
    if math.hypot(plane.s, plane.v1, plane.v2, plane.v3, plane.p) > _UNIT_TOL:
        raise DomainError("rotor plane must be a pure bivector")
    n2 = plane.b23**2 + plane.b31**2 + plane.b12**2
    if abs(n2 - 1.0) > _UNIT_TOL:
        raise DomainError(f"rotor plane norm^2 deviates from 1 by {abs(n2 - 1.0):.3e}")
    c = math.cos(angle / 2.0)
    s = math.sin(angle / 2.0)
    return Rotor3(s=c, b23=-s * plane.b23, b31=-s * plane.b31, b12=-s * plane.b12)
