"""Uncertainty-budget chain: frozen values, scaling laws, round trips."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from electronlab.constants import EV, HBAR, M_E, PM
from electronlab.errors import DomainError
from electronlab.uncertainty import (
    budget_report,
    compliance_energy,
    momentum_uncertainty,
    position_uncertainty,
    relative_feature_error,
)

# Frozen oracle values, evaluated by hand from the CODATA 2018 constants:
#   dp = sqrt(2 * 9.1093837015e-31 * E[eV] * 1.602176634e-19)
#   dx = f * 1.054571817e-34 / dp / 1e-12
#   E  = (f * 1.054571817e-34 / (dx * 1e-12))^2 / (2 m) / 1.602176634e-19
DP_80_MEV = 1.528127833222534e-25       # kg m/s
DP_1000_EV = 1.708498856697524e-23      # kg m/s
DX_80_MEV_HALF = 345.05353350449303     # pm
COMPLIANCE_20_PM_FULL = 95.24955278714904   # eV
COMPLIANCE_20_PM_HALF = 23.81238819678726   # eV


class TestMomentumUncertainty:
    def test_80_mev_band(self):
        assert momentum_uncertainty(0.08) == pytest.approx(DP_80_MEV, rel=1e-12)

    def test_1000_ev_band(self):
        assert momentum_uncertainty(1000.0) == pytest.approx(DP_1000_EV, rel=1e-12)

    def test_square_root_scaling(self):
        assert momentum_uncertainty(0.32) == pytest.approx(
            2.0 * momentum_uncertainty(0.08), rel=1e-12)

    def test_rejects_non_positive_energy(self):
        with pytest.raises(DomainError):
            momentum_uncertainty(0.0)
        with pytest.raises(DomainError):
            momentum_uncertainty(-1.0)


class TestPositionUncertainty:
    def test_80_mev_band_at_half_convention(self):
        dx = position_uncertainty(DP_80_MEV, 0.5)
        assert dx == pytest.approx(DX_80_MEV_HALF, rel=1e-12)
        assert 315.0 <= dx <= 385.0  # within 10% of 350 pm

    def test_factor_linearity(self):
        assert position_uncertainty(DP_80_MEV, 1.0) == pytest.approx(
            2.0 * position_uncertainty(DP_80_MEV, 0.5), rel=1e-12)

    def test_vanishes_for_huge_momentum(self):
        assert position_uncertainty(1e30, 0.5) < 1e-50

    def test_strictly_decreasing_in_band_energy(self):
        energies = [0.01, 0.08, 1.0, 100.0, 1e6]
        widths = [position_uncertainty(momentum_uncertainty(e), 0.5) for e in energies]
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            position_uncertainty(0.0)
        with pytest.raises(DomainError):
            position_uncertainty(1.0, convention_factor=0.0)


class TestRelativeFeatureError:
    def test_30_pm_feature_with_tenth_pm_error(self):
        rel = relative_feature_error(30.0, 0.1)
        assert rel == pytest.approx(0.1 / 30.0, rel=1e-15)
        assert rel == pytest.approx(0.00333, abs=1e-5)

    def test_equal_error_and_height(self):
        assert relative_feature_error(5.0, 5.0) == 1.0

    def test_cryogenic_error_floor(self):
        assert relative_feature_error(30.0, 0.05) == pytest.approx(0.05 / 30.0, rel=1e-15)

    def test_rejects_degenerate_feature(self):
        with pytest.raises(DomainError):
            relative_feature_error(0.0, 0.1)


class TestComplianceEnergy:
    def test_20_pm_factor_one(self):
        assert compliance_energy(20.0, convention_factor=1.0) == pytest.approx(
            COMPLIANCE_20_PM_FULL, rel=1e-12)

    def test_20_pm_factor_half(self):
        assert compliance_energy(20.0, convention_factor=0.5) == pytest.approx(
            COMPLIANCE_20_PM_HALF, rel=1e-12)

    def test_quadratic_scaling(self):
        assert compliance_energy(10.0) == pytest.approx(
            4.0 * compliance_energy(20.0), rel=1e-12)

    def test_strictly_decreasing_in_target(self):
        targets = [1.0, 5.0, 20.0, 100.0]
        values = [compliance_energy(t) for t in targets]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_round_trip_inverse_chain(self):
        for energy in (0.08, 1.0, 1000.0):
            for factor in (0.5, 1.0):
                dx = position_uncertainty(momentum_uncertainty(energy), factor)
                back = compliance_energy(dx, convention_factor=factor)
                assert back == pytest.approx(energy, rel=1e-12)

    def test_momentum_round_trip(self):
        dp = momentum_uncertainty(0.08)
        dx = position_uncertainty(dp, 0.5)
        assert 0.5 * HBAR / (dx * 1e-12) == pytest.approx(dp, rel=1e-12)

    @pytest.mark.parametrize("target, message", [
        # the target is 0 m, where the division used to raise a bare ZeroDivisionError
        (1e-320, r"^target position uncertainty in m must lie in \(0, inf\), got 0\.0$"),
        # dp * dp overflows, where the function used to return inf
        (1e-310, r"^compliance energy in eV must lie in \[0, inf\), got inf$"),
        (7.2e-153, r"^compliance energy in eV must lie in \[0, inf\), got inf$"),
    ])
    def test_a_target_beyond_double_precision_names_the_quantity(self, target, message):
        with pytest.raises(DomainError, match=message):
            compliance_energy(target)

    # from the smallest target with a finite energy to the largest double, whose energy is 0.0
    @pytest.mark.parametrize("target", [7.3e-153, 1e-100, 20.0, 1e300, 1.7976931348623157e308])
    def test_accepted_targets_keep_their_value(self, target):
        dp = 0.5 * HBAR / (target * PM)
        assert compliance_energy(target) == dp * dp / (2.0 * M_E) / EV


class TestBudgetReport:
    def test_defaults_flag_the_contradiction(self):
        budget = budget_report()
        assert budget.contradiction is True
        assert budget.dx_pm == pytest.approx(DX_80_MEV_HALF, rel=1e-12)
        assert budget.convention_factor == 0.5
        assert budget.relative_error == pytest.approx(0.1 / 30.0, rel=1e-15)

    def test_high_energy_band_resolves_it(self):
        budget = budget_report(band_energy_ev=1e6)
        assert budget.dx_pm < 20.0
        assert budget.contradiction is False

    def test_boundary_is_not_a_contradiction(self):
        plain = budget_report()
        boundary = budget_report(lateral_resolution_pm=plain.dx_pm)
        assert boundary.contradiction is False

    def test_compliance_target_defaults_to_resolution(self):
        budget = budget_report(convention_factor=1.0)
        assert budget.compliance_energy_ev == pytest.approx(
            COMPLIANCE_20_PM_FULL, rel=1e-12)

    def test_dict_view_carries_every_field(self):
        d = budget_report().as_dict()
        for key in ("band_energy_ev", "mass_kg", "dp_kg_m_s", "dx_pm",
                    "lateral_resolution_pm", "feature_height_pm", "height_error_pm",
                    "relative_error", "compliance_energy_ev", "convention_factor",
                    "contradiction"):
            assert key in d

    def test_mass_propagates(self):
        light = budget_report(mass=M_E / 4.0)
        assert light.dp_kg_m_s == pytest.approx(momentum_uncertainty(0.08) / 2.0, rel=1e-12)
        assert light.dx_pm == pytest.approx(2.0 * DX_80_MEV_HALF, rel=1e-12)


# each public function with finite arguments it accepts, by keyword
VALID_CALLS = [
    (momentum_uncertainty, {"band_energy_ev": 0.08, "mass": M_E}),
    (position_uncertainty, {"dp": DP_80_MEV, "convention_factor": 0.5}),
    (relative_feature_error, {"feature_height_pm": 30.0, "height_error_pm": 0.1}),
    (compliance_energy, {"target_dx_pm": 20.0, "mass": M_E, "convention_factor": 0.5}),
    (budget_report, {"band_energy_ev": 0.08, "mass": M_E, "lateral_resolution_pm": 20.0,
                     "feature_height_pm": 30.0, "height_error_pm": 0.1,
                     "convention_factor": 0.5}),
]


@given(st.sampled_from([(fn, kwargs, name) for fn, kwargs in VALID_CALLS for name in kwargs]),
       st.sampled_from([math.nan, math.inf, -math.inf]))
def test_non_finite_argument_rejected(call, bad):
    fn, kwargs, name = call
    fn(**kwargs)
    with pytest.raises(DomainError):
        fn(**{**kwargs, name: bad})
