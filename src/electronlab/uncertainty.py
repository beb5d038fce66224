"""Uncertainty budget for scanning-probe measurements of band electrons.

Chains a band energy through a momentum uncertainty into a position
uncertainty and compares it with the instrument's lateral resolution.
When the position uncertainty exceeds the resolution, features at the
measured sharpness could not come from point detection statistics, and
the budget raises its contradiction flag.

The prefactor in dx = factor * hbar / dp is a convention, not physics;
it is an explicit argument everywhere, defaults to 1/2, and is carried
into every report. The momentum step assigns the full band energy to
the measured axis (the in-plane motion is isotropic and no partition
rule is imposed).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
import math

from .constants import EV, HBAR, M_E, PM
from .errors import within

DEFAULT_CONVENTION = 0.5


def momentum_uncertainty(band_energy_ev: float, mass: float = M_E) -> float:
    """dp = sqrt(2 m dE) in kg m/s for a band energy in eV."""
    within(band_energy_ev, "(0, inf)", "band energy")
    within(mass, "(0, inf)", "mass")
    return math.sqrt(2.0 * mass * band_energy_ev * EV)


def position_uncertainty(dp: float, convention_factor: float = DEFAULT_CONVENTION) -> float:
    """dx = factor * hbar / dp, reported in picometres."""
    within(dp, "(0, inf)", "momentum uncertainty")
    within(convention_factor, "(0, inf)", "convention factor")
    return convention_factor * HBAR / dp / PM


def relative_feature_error(feature_height_pm: float, height_error_pm: float) -> float:
    """Height error over feature height, dimensionless."""
    within(feature_height_pm, "(0, inf)", "feature height")
    within(height_error_pm, "[0, inf)", "height error")
    ratio = height_error_pm / feature_height_pm
    within(ratio, "[0, inf)", "relative feature error")  # 1e308 pm over 1e-320 pm is inf
    return ratio


def compliance_energy(target_dx_pm: float, mass: float = M_E,
                      convention_factor: float = DEFAULT_CONVENTION) -> float:
    """Band energy in eV at which dx would shrink to the target.

    Inverts the chain: dp = factor * hbar / dx, then E = dp^2 / 2m.
    Strictly decreasing in the target.
    """
    within(target_dx_pm, "(0, inf)", "target position uncertainty")
    within(mass, "(0, inf)", "mass")
    within(convention_factor, "(0, inf)", "convention factor")
    # below about 2.5e-312 pm the target is 0 m, and below about 7.3e-153 pm the energy is inf
    within(target_dx_pm * PM, "(0, inf)", "target position uncertainty in m")
    dp = convention_factor * HBAR / (target_dx_pm * PM)
    energy = dp * dp / (2.0 * mass) / EV
    within(energy, "[0, inf)", "compliance energy in eV")
    return energy


@dataclass(frozen=True)
class UncertaintyBudget:
    """Every intermediate of one budget evaluation, ready for reporting."""

    band_energy_ev: float
    mass_kg: float
    dp_kg_m_s: float
    dx_pm: float
    lateral_resolution_pm: float
    feature_height_pm: float
    height_error_pm: float
    relative_error: float
    compliance_energy_ev: float
    convention_factor: float
    contradiction: bool

    def as_dict(self) -> dict:
        return asdict(self)


def budget_report(band_energy_ev: float = 0.08,
                  mass: float = M_E,
                  lateral_resolution_pm: float = 20.0,
                  feature_height_pm: float = 30.0,
                  height_error_pm: float = 0.1,
                  convention_factor: float = DEFAULT_CONVENTION) -> UncertaintyBudget:
    """Evaluate the full chain and flag dx > lateral resolution.

    The compliance energy is quoted at the lateral resolution: the band
    energy at which dx would shrink to it.
    """
    within(lateral_resolution_pm, "(0, inf)", "lateral resolution")
    dp = momentum_uncertainty(band_energy_ev, mass)
    dx = position_uncertainty(dp, convention_factor)
    return UncertaintyBudget(
        band_energy_ev=band_energy_ev,
        mass_kg=mass,
        dp_kg_m_s=dp,
        dx_pm=dx,
        lateral_resolution_pm=lateral_resolution_pm,
        feature_height_pm=feature_height_pm,
        height_error_pm=height_error_pm,
        relative_error=relative_feature_error(feature_height_pm, height_error_pm),
        compliance_energy_ev=compliance_energy(lateral_resolution_pm, mass, convention_factor),
        convention_factor=convention_factor,
        contradiction=dx > lateral_resolution_pm,
    )
