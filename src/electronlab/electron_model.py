"""Plane-wave model of an electron with internal field structure.

The electron moves along e3 with mechanical velocity u. Its mass density
oscillates at twice the phase frequency while transverse E/H components
carry the complementary share of the energy, so the total energy density
stays flat at rho0*u^2/2. The wavefunction built from these pieces is an
even multivector: square root of the mass density in the scalar slot and
square root of the spin density along the pseudovector i*e3 (the e1e2
bivector slot), with the spin sign set by helicity.

The transverse field runs a quarter period ahead of the mass density. That
phase is part of the model, not a parameter: it makes the spin density
sin^2(phase) and the spin the geometric product of E and H. The mass is the
unit system's electron mass.

Conventions chosen where the model leaves slack: dispersion closed with
the de Broglie pair wavelength = 2*pi*hbar/(m*u), nu = m*u^2/(4*pi*hbar),
which makes the group velocity of omega(k) = hbar*k^2/2m equal u; the
field-amplitude constraint eps0*E0^2/2 + mu0*H0^2/2 = rho0*u^2/2 is split
between E and H by a configurable energy fraction (default equipartition);
flipping helicity flips both the H field and the spin pseudovector so the
spin stays the geometric product of the fields.
"""

from __future__ import annotations

import math
from collections import abc
from dataclasses import dataclass, field, replace
from itertools import repeat
from typing import Sequence

import numpy as np

from . import ga3
from .constants import ATOMIC_UNITS, UnitSystem
from .errors import DomainError, one_of, within

HELICITIES = ("plus", "minus")

PROFILE_COLUMNS = ("z", "t", "rho", "omega_kin", "omega_field", "S",
                   "psi_scalar", "psi_pseudo")

_BLOCK = 4096  # points per numpy pass in `profile_rows`; bounds its scratch arrays


@dataclass(frozen=True)
class PlaneWaveElectron:
    """Parameters of one plane-wave electron plus derived amplitudes.

    `field_split` is the fraction of the field energy carried by E;
    mass, wavelength, nu, E0 and H0 are derived, never set directly.
    """

    rho0: float
    u: float
    helicity: str = "plus"
    units: UnitSystem = ATOMIC_UNITS
    field_split: float = 0.5
    mass: float = field(init=False)
    wavelength: float = field(init=False)
    nu: float = field(init=False)
    E0: float = field(init=False)
    H0: float = field(init=False)

    def __post_init__(self):
        within(self.rho0, "(0, inf)", "rho0")
        within(self.u, "[0, inf)", "velocity")
        one_of(self.helicity, HELICITIES, "helicity")
        within(self.field_split, "(0, 1)", "field_split")
        object.__setattr__(self, "mass", self.units.m_e)
        hbar = self.units.hbar
        object.__setattr__(self, "wavelength",
                           2.0 * math.pi * hbar / (self.mass * self.u) if self.u else math.inf)
        object.__setattr__(self, "nu", self.mass * self.u**2 / (4.0 * math.pi * hbar))
        w = 0.5 * self.rho0 * self.u**2  # total field-amplitude energy density
        object.__setattr__(self, "E0", math.sqrt(2.0 * self.field_split * w / self.units.eps0))
        object.__setattr__(self, "H0", math.sqrt(2.0 * (1.0 - self.field_split) * w / self.units.mu0))

    @property
    def helicity_sign(self) -> float:
        return 1.0 if self.helicity == "plus" else -1.0

    def phase(self, z: float, t: float) -> float:
        """Travelling phase 2*pi*z/wavelength - 2*pi*nu*t."""
        within(self.u, "(0, inf)", "velocity")  # at rest the wavelength is infinite
        theta = 2.0 * math.pi * z / self.wavelength - 2.0 * math.pi * self.nu * t
        if not math.isfinite(2.0 * theta):  # the densities take cos(2 * phase)
            raise DomainError(f"the phase at z = {z!r}, t = {t!r} exceeds double precision")
        return theta

    def density(self, z: float, t: float) -> float:
        """Mass density (rho0/2)*(1 + cos(2*phase)); ranges over [0, rho0]."""
        return 0.5 * self.rho0 * (1.0 + math.cos(2.0 * self.phase(z, t)))

    def spin_density(self, z: float, t: float) -> float:
        """Spin density rho0*sin^2(phase), the complement of the mass density."""
        return 0.5 * self.rho0 * (1.0 - math.cos(2.0 * self.phase(z, t)))

    def kinetic_energy_density(self, z: float, t: float) -> float:
        return 0.5 * self.u**2 * self.density(z, t)

    def fields(self, z: float, t: float) -> tuple[ga3.Multivector3, ga3.Multivector3]:
        """Transverse E along e1 and H along e2; H flips with helicity."""
        c = math.cos(self.phase(z, t) + math.pi / 2.0)
        e_vec = ga3.vector(self.E0 * c, 0.0, 0.0)
        h_vec = ga3.vector(0.0, self.helicity_sign * self.H0 * c, 0.0)
        return e_vec, h_vec

    def spin(self, z: float, t: float) -> ga3.Multivector3:
        """Spin pseudovector i*e3*E0*H0*sin^2(phase), signed by helicity.

        Equals the geometric product of the two transverse fields.
        """
        magnitude = self.E0 * self.H0 * math.sin(self.phase(z, t)) ** 2
        return ga3.pseudovector(0.0, 0.0, self.helicity_sign * magnitude)

    @property
    def _field_amplitude(self) -> float:
        """eps0*E0^2/2 + mu0*H0^2/2, the peak field energy density."""
        return 0.5 * self.units.eps0 * self.E0**2 + 0.5 * self.units.mu0 * self.H0**2

    def field_energy_density(self, z: float, t: float) -> float:
        return self._field_amplitude * math.sin(self.phase(z, t)) ** 2

    def total_energy(self, volume: float) -> float:
        """m*u^2/2 for an electron filling `volume` at density rho0."""
        within(volume, "(0, inf)", "volume")
        if abs(self.rho0 * volume - self.mass) > 1e-9 * self.mass:
            raise DomainError(
                f"normalization rho0*volume = mass violated: "
                f"{self.rho0 * volume!r} != {self.mass!r}")
        return 0.5 * self.mass * self.u**2

    def wavefunction(self, z: float, t: float) -> "WavefunctionSample":
        """Even multivector sqrt(rho) + i*e3*sqrt(S), spin sign by helicity."""
        psi = ga3.Multivector3(
            s=math.sqrt(self.density(z, t)),
            b12=self.helicity_sign * math.sqrt(self.spin_density(z, t)),
        )
        return WavefunctionSample(psi=psi, z=z, t=t)

    def schrodinger_wave(self, z: float, t: float) -> complex:
        """Reduced complex plane wave sqrt(rho0)*exp(i*phase).

        The spin direction is dropped, kept only as a hidden label.
        """
        theta = self.phase(z, t)
        return math.sqrt(self.rho0) * complex(math.cos(theta), math.sin(theta))

    def group_velocity(self) -> float:
        """d(omega)/dk of omega(k) = hbar*k^2/2m at k = m*u/hbar; equals u."""
        k = self.mass * self.u / self.units.hbar
        return self.units.hbar * k / self.mass

    def ehrenfest_step(self, grad_potential: Sequence[float], dt: float) -> "PlaneWaveElectron":
        """Advance the velocity under F = -grad(potential) = rho0*du/dt.

        One-dimensional model: the gradient may point along e3 only. All
        derived quantities (wavelength, nu, field amplitudes) are rebuilt
        so the amplitude constraint and the dispersion stay satisfied.
        """
        within(dt, "(0, inf)", "dt")
        gx, gy, gz = grad_potential
        if gx != 0.0 or gy != 0.0:
            raise DomainError("force must act along the motion axis e3 only")
        new_u = self.u - (gz / self.rho0) * dt  # the model covers forward motion only
        within(new_u, "(0, inf)", "velocity after the step")
        return replace(self, u=new_u)

    def complementarity_check(self, z: float, t: float, dt: float) -> tuple[float, float]:
        """Central-difference time derivatives (dS/dt, drho/dt) at (z, t).

        The two densities share rho0, so the derivatives cancel up to
        discretization and roundoff.
        """
        within(dt, "(0, inf)", "dt")
        ds_dt = (self.spin_density(z, t + dt) - self.spin_density(z, t - dt)) / (2.0 * dt)
        drho_dt = (self.density(z, t + dt) - self.density(z, t - dt)) / (2.0 * dt)
        return ds_dt, drho_dt


@dataclass(frozen=True)
class WavefunctionSample:
    """Wavefunction value at one (z, t): an even multivector."""

    psi: ga3.Multivector3
    z: float
    t: float

    def __post_init__(self):
        odd = (self.psi.v1, self.psi.v2, self.psi.v3, self.psi.p)
        if any(c != 0.0 for c in odd):
            raise DomainError("wavefunction must be an even multivector")

    def conj(self) -> "WavefunctionSample":
        """Flip the spin part (the pseudovector component); involutive.

        For even multivectors this is exactly reversion.
        """
        return WavefunctionSample(psi=ga3.reverse(self.psi), z=self.z, t=self.t)

    def born_product(self) -> ga3.Multivector3:
        """conj(psi) * psi; a pure scalar equal to rho + S = rho0."""
        return ga3.gp(ga3.reverse(self.psi), self.psi)


class Profile(abc.Sequence):
    """The samples `profile_rows` computed, as one `(8, n)` float64 array.

    `columns` is that array, a row per column in `PROFILE_COLUMNS` order,
    8 B a cell and no Python object per point. Row k is a dict of Python
    floats keyed by `PROFILE_COLUMNS`, built when it is read.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: np.ndarray):
        self.columns = columns

    def __len__(self) -> int:
        return self.columns.shape[1]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return dict(zip(PROFILE_COLUMNS, self.columns[:, k].tolist()))


def profile_rows(e: PlaneWaveElectron, z_values: Sequence[float], t: float) -> Profile:
    """Sample the standard profile columns over a grid of positions.

    One phase per point: theta is `phase`'s formula, with its velocity
    check made once. With c = cos(2*theta), rho = rho0/2*(1 + c) and
    S = rho0/2*(1 - c); every other column follows from those and
    sin(theta). The per-point methods (`density`, `kinetic_energy_density`,
    `field_energy_density`, `spin_density`, `wavefunction`) are the oracle:
    each cell equals theirs exactly.

    The columns are computed `_BLOCK` points at a time. numpy runs the
    correctly rounded operations (+, -, *, / and sqrt) in the methods'
    order, so each gives the bits Python's floats give; cos, sin and the
    square of sin stay libm's `math.cos`, `math.sin` and `pow`, whose
    bits numpy's own loops do not promise.
    """
    within(e.u, "(0, inf)", "velocity")  # phase's check, once for the whole grid
    half_rho0 = 0.5 * e.rho0
    half_u2 = 0.5 * e.u**2
    amplitude = e._field_amplitude
    sign = e.helicity_sign
    two_pi, wavelength, shift = 2.0 * math.pi, e.wavelength, 2.0 * math.pi * e.nu * t
    table = np.empty((len(PROFILE_COLUMNS), len(z_values)))
    table[0], table[1] = z_values, t
    with np.errstate(all="ignore"):  # an overflowing phase is refused by name below
        for start in range(0, table.shape[1], _BLOCK):
            theta = two_pi * table[0, start:start + _BLOCK] / wavelength - shift
            two_theta = 2.0 * theta
            finite = np.isfinite(two_theta)
            if not finite.all():
                e.phase(float(table[0, start + finite.argmin()]), t)  # raises phase's own message
            c = np.fromiter(map(math.cos, two_theta.tolist()), np.float64, len(theta))
            sin2 = np.fromiter(map(pow, map(math.sin, theta.tolist()), repeat(2.0)),
                               np.float64, len(theta))
            rho = half_rho0 * (1.0 + c)
            s = half_rho0 * (1.0 - c)
            table[2:, start:start + _BLOCK] = (rho, half_u2 * rho, amplitude * sin2, s,
                                               np.sqrt(rho), sign * np.sqrt(s))
    return Profile(table)
