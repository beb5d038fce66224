"""Physical constants and unit systems.

SI values are CODATA 2018. The atomic system sets hbar = m_e = 1 and
keeps the electromagnetic constants consistent with c = 1/alpha, so the
vacuum-permittivity/permeability pair still satisfies eps0*mu0 = 1/c^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# SI constants (CODATA 2018)
HBAR = 1.054571817e-34      # J s   (h/2pi, h exact since the 2019 SI)
M_E = 9.1093837015e-31      # kg    electron mass
EV = 1.602176634e-19        # J     electron volt (exact)
EPS0 = 8.8541878128e-12     # F/m   vacuum permittivity
MU0 = 1.25663706212e-6      # N/A^2 vacuum permeability
ALPHA_INV = 137.035999084   # inverse fine-structure constant

PM = 1e-12                  # m per picometre

# Cohesive potential assigned to the electron's charge distribution,
# countering Coulomb self-repulsion. Exposed for reporting only; no
# stability dynamics are computed from it.
COHESIVE_POTENTIAL_EV = -8.16


@dataclass(frozen=True)
class UnitSystem:
    """The handful of constants the plane-wave model depends on."""

    name: str
    hbar: float
    m_e: float
    eps0: float
    mu0: float


ATOMIC_UNITS = UnitSystem(
    name="atomic",
    hbar=1.0,
    m_e=1.0,
    eps0=1.0 / (4.0 * math.pi),
    mu0=4.0 * math.pi / ALPHA_INV**2,
)

SI_UNITS = UnitSystem(name="si", hbar=HBAR, m_e=M_E, eps0=EPS0, mu0=MU0)

UNIT_SYSTEMS = {u.name: u for u in (ATOMIC_UNITS, SI_UNITS)}
