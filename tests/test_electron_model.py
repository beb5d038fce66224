"""Plane-wave electron model: closed forms, invariants, and dynamics."""

import math
import random
import tracemalloc
from collections import abc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from electronlab import ga3
from electronlab.constants import ATOMIC_UNITS, SI_UNITS
from electronlab.electron_model import (
    HELICITIES,
    PROFILE_COLUMNS,
    _BLOCK,
    PlaneWaveElectron,
    Profile,
    WavefunctionSample,
    profile_rows,
)
from electronlab.errors import DomainError, UnsupportedConfigurationError


@pytest.fixture
def e():
    return PlaneWaveElectron(rho0=1.0, u=1.0)


def sample_points(e, n, seed=0):
    rng = random.Random(seed)
    period = 1.0 / e.nu
    return [(rng.uniform(0.0, e.wavelength), rng.uniform(0.0, period)) for _ in range(n)]


params = st.tuples(
    st.floats(min_value=0.1, max_value=10.0),    # rho0
    st.floats(min_value=0.1, max_value=100.0),   # u
    st.floats(min_value=0.05, max_value=0.95),   # field_split
)


class TestDerivedQuantities:
    def test_de_broglie_pair(self, e):
        assert e.wavelength == pytest.approx(2.0 * math.pi, rel=1e-15)
        assert e.nu == pytest.approx(1.0 / (4.0 * math.pi), rel=1e-15)

    @given(params)
    def test_amplitude_constraint(self, p):
        rho0, u, split = p
        e = PlaneWaveElectron(rho0=rho0, u=u, field_split=split)
        left = (0.5 * e.units.eps0 * e.E0**2 + 0.5 * e.units.mu0 * e.H0**2)
        right = 0.5 * rho0 * u**2
        assert abs(left - right) <= 1e-12 * right

    def test_amplitude_constraint_si(self):
        e = PlaneWaveElectron(rho0=2.5, u=1e6, units=SI_UNITS)
        left = 0.5 * SI_UNITS.eps0 * e.E0**2 + 0.5 * SI_UNITS.mu0 * e.H0**2
        assert left == pytest.approx(0.5 * 2.5 * 1e12, rel=1e-12)

    @pytest.mark.parametrize("u", [0.0, -0.0])
    def test_at_rest(self, u):
        still = PlaneWaveElectron(rho0=1.0, u=u)
        assert still.wavelength == math.inf
        assert (still.nu, still.E0, still.H0) == (0.0, 0.0, 0.0)
        assert all(math.copysign(1.0, v) == 1.0 for v in (still.nu, still.E0, still.H0))

    def test_invalid_inputs_rejected(self):
        with pytest.raises(DomainError):
            PlaneWaveElectron(rho0=0.0, u=1.0)
        with pytest.raises(DomainError):
            PlaneWaveElectron(rho0=1.0, u=-1.0)
        with pytest.raises(DomainError):
            PlaneWaveElectron(rho0=1.0, u=1.0, helicity="sideways")
        with pytest.raises(DomainError):
            PlaneWaveElectron(rho0=1.0, u=1.0, field_split=1.0)

    @given(st.sampled_from(["rho0", "u", "mass"]),
           st.sampled_from([math.nan, math.inf, -math.inf]))
    def test_non_finite_inputs_rejected(self, name, bad):
        kwargs = {"rho0": 1.0, "u": 1.0, "mass": 1.0, name: bad}
        with pytest.raises(DomainError):
            PlaneWaveElectron(**kwargs)


class TestDensity:
    def test_peak_at_origin(self, e):
        assert e.density(0.0, 0.0) == pytest.approx(1.0, abs=1e-15)

    def test_node_at_quarter_wavelength(self, e):
        assert e.density(e.wavelength / 4.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_eighth_wavelength_matches_direct_evaluation(self, e):
        z = e.wavelength / 8.0
        want = (e.rho0 / 2.0) * (1.0 + math.cos(4.0 * math.pi * z / e.wavelength))
        assert e.density(z, 0.0) == pytest.approx(want, abs=1e-15)
        assert e.density(z, 0.0) == pytest.approx(e.rho0 / 2.0, abs=1e-12)

    def test_bounded_and_periodic(self, e):
        for z, t in sample_points(e, 200):
            rho = e.density(z, t)
            assert 0.0 <= rho <= e.rho0 * (1.0 + 1e-15)
            assert e.density(z + e.wavelength / 2.0, t) == pytest.approx(rho, abs=1e-12)

    def test_rejected_at_rest(self):
        still = PlaneWaveElectron(rho0=1.0, u=0.0)
        with pytest.raises(DomainError):
            still.density(0.0, 0.0)


class TestKineticEnergyDensity:
    def test_peak_and_node(self, e):
        assert e.kinetic_energy_density(0.0, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert e.kinetic_energy_density(e.wavelength / 4.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_equals_density_times_half_u_squared(self):
        e = PlaneWaveElectron(rho0=3.0, u=2.0)
        for z, t in sample_points(e, 100):
            want = 0.5 * e.u**2 * e.rho0 * math.cos(e.phase(z, t)) ** 2
            assert abs(e.kinetic_energy_density(z, t) - want) <= 1e-12 * (want + 1.0)


class TestFields:
    def test_quarter_phase_vanishes_at_origin(self, e):
        e_vec, h_vec = e.fields(0.0, 0.0)
        assert abs(e_vec.v1) <= 1e-12 * e.E0
        assert abs(h_vec.v2) <= 1e-12 * e.H0

    def test_zero_phase_peaks_at_origin(self):
        e = PlaneWaveElectron(rho0=1.0, u=1.0, phi=0.0)
        e_vec, h_vec = e.fields(0.0, 0.0)
        assert e_vec == ga3.vector(e.E0, 0.0, 0.0)
        assert h_vec == ga3.vector(0.0, e.H0, 0.0)

    def test_transverse_to_motion(self, e):
        for z, t in sample_points(e, 50):
            e_vec, h_vec = e.fields(z, t)
            assert ga3.grade(ga3.gp(e_vec, ga3.E3), 0).s == 0.0
            assert ga3.grade(ga3.gp(h_vec, ga3.E3), 0).s == 0.0

    def test_helicity_flips_h(self, e):
        minus = PlaneWaveElectron(rho0=1.0, u=1.0, helicity="minus")
        z, t = 0.3, 0.7
        _, h_plus = e.fields(z, t)
        _, h_minus = minus.fields(z, t)
        assert h_minus.v2 == -h_plus.v2


class TestSpin:
    def test_node_at_origin(self, e):
        assert e.spin(0.0, 0.0).norm() <= 1e-12

    def test_antinode_at_quarter_wavelength(self, e):
        s = e.spin(e.wavelength / 4.0, 0.0)
        assert s.b12 == pytest.approx(e.E0 * e.H0, rel=1e-12)
        assert s.grade(2) == s

    def test_equals_geometric_product_of_fields(self):
        for helicity in ("plus", "minus"):
            e = PlaneWaveElectron(rho0=2.0, u=3.0, helicity=helicity)
            scale = e.E0 * e.H0
            for z, t in sample_points(e, 100, seed=3):
                product = ga3.gp(*e.fields(z, t))
                direct = e.spin(z, t)
                diff = product - direct
                assert diff.norm() <= 1e-12 * scale

    def test_helicity_sign(self):
        minus = PlaneWaveElectron(rho0=1.0, u=1.0, helicity="minus")
        assert minus.spin(minus.wavelength / 4.0, 0.0).b12 < 0.0

    def test_rejects_other_phases(self):
        tilted = PlaneWaveElectron(rho0=1.0, u=1.0, phi=0.3)
        with pytest.raises(UnsupportedConfigurationError):
            tilted.spin(0.0, 0.0)


class TestEnergyBookkeeping:
    def test_field_energy_node_and_peak(self, e):
        assert e.field_energy_density(0.0, 0.0) == pytest.approx(0.0, abs=1e-12)
        peak = e.field_energy_density(e.wavelength / 4.0, 0.0)
        assert peak == pytest.approx(0.5 * e.rho0 * e.u**2, rel=1e-12)

    @given(params)
    def test_pointwise_conservation(self, p):
        rho0, u, split = p
        e = PlaneWaveElectron(rho0=rho0, u=u, field_split=split)
        budget = 0.5 * rho0 * u**2
        for z, t in sample_points(e, 20):
            total = e.kinetic_energy_density(z, t) + e.field_energy_density(z, t)
            assert abs(total - budget) <= 1e-12 * budget

    def test_density_spin_split_sums_to_rho0(self, e):
        for z, t in sample_points(e, 100, seed=5):
            assert e.density(z, t) + e.spin_density(z, t) == pytest.approx(e.rho0, rel=1e-14)

    def test_spin_density_amplitude_is_rho0(self, e):
        assert e.spin_density(e.wavelength / 4.0, 0.0) == pytest.approx(e.rho0, rel=1e-12)


class TestTotalEnergy:
    def test_at_rest_is_zero(self):
        still = PlaneWaveElectron(rho0=1.0, u=0.0)
        assert still.total_energy(volume=still.mass / still.rho0) == 0.0

    def test_definition(self):
        e = PlaneWaveElectron(rho0=1.0, u=2.0)
        assert e.total_energy(volume=e.mass) == pytest.approx(0.5 * e.mass * 4.0, rel=1e-15)

    def test_quadrature_over_one_period(self):
        e = PlaneWaveElectron(rho0=2.0, u=3.0)
        volume = e.mass / e.rho0
        period = e.wavelength / 2.0
        n = 2000
        h = period / n
        zs = [i * h for i in range(n + 1)]
        values = [e.kinetic_energy_density(z, 0.0) + e.field_energy_density(z, 0.0)
                  for z in zs]
        integral = h * (0.5 * values[0] + sum(values[1:-1]) + 0.5 * values[-1])
        estimate = (integral / period) * volume * 1.0  # mean density * volume
        assert abs(estimate - e.total_energy(volume)) <= 1e-9 * e.total_energy(volume)

    def test_rejects_bad_normalization(self):
        e = PlaneWaveElectron(rho0=1.0, u=1.0)
        with pytest.raises(DomainError):
            e.total_energy(volume=2.0 * e.mass)
        with pytest.raises(DomainError):
            e.total_energy(volume=0.0)


class TestWavefunction:
    def test_pure_scalar_at_density_peak(self, e):
        w = e.wavefunction(0.0, 0.0)
        assert w.psi.s == pytest.approx(math.sqrt(e.rho0), rel=1e-15)
        assert abs(w.psi.b12) <= 1e-6  # sqrt softens the node
        assert w.psi.v1 == w.psi.v2 == w.psi.v3 == w.psi.p == 0.0

    def test_pure_pseudovector_at_density_node(self, e):
        w = e.wavefunction(e.wavelength / 4.0, 0.0)
        assert w.psi.b12 == pytest.approx(math.sqrt(e.rho0), rel=1e-12)
        assert abs(w.psi.s) <= 1e-6

    def test_helicity_flips_pseudovector(self):
        minus = PlaneWaveElectron(rho0=1.0, u=1.0, helicity="minus")
        w = minus.wavefunction(minus.wavelength / 4.0, 0.0)
        assert w.psi.b12 == pytest.approx(-1.0, rel=1e-12)

    def test_born_product_is_constant_scalar(self, e):
        for z, t in sample_points(e, 200, seed=7):
            out = e.wavefunction(z, t).born_product()
            assert abs(out.s - e.rho0) <= 1e-12 * e.rho0
            assert out - ga3.grade(out, 0) == ga3.Multivector3()

    def test_conj_flips_spin_part_only(self, e):
        w = e.wavefunction(0.4, 0.1)
        c = w.conj()
        assert c.psi.s == w.psi.s
        assert c.psi.b12 == -w.psi.b12
        assert c.conj() == w

    @pytest.mark.parametrize("odd", ["v1", "v2", "v3", "p"])
    def test_odd_part_refused(self, odd):
        psi = ga3.Multivector3(s=1.0, **{odd: 0.5})
        with pytest.raises(DomainError, match="must be an even multivector"):
            WavefunctionSample(psi=psi, z=0.0, t=0.0)

    def test_conj_product_sums_density_and_spin(self, e):
        z, t = 1.3, 0.2
        w = e.wavefunction(z, t)
        out = ga3.gp(w.conj().psi, w.psi)
        want = e.density(z, t) + e.spin_density(z, t)
        assert out.s == pytest.approx(want, rel=1e-14)


class TestSchrodingerWave:
    def test_origin_value(self, e):
        assert e.schrodinger_wave(0.0, 0.0) == pytest.approx(math.sqrt(e.rho0))

    def test_unit_modulus_everywhere(self, e):
        for z, t in sample_points(e, 100, seed=11):
            assert abs(e.schrodinger_wave(z, t)) ** 2 == pytest.approx(e.rho0, rel=1e-13)

    def test_eighth_wavelength_components(self, e):
        w = e.schrodinger_wave(e.wavelength / 8.0, 0.0)
        root = math.sqrt(e.rho0)
        assert w.real == pytest.approx(root * math.cos(math.pi / 4.0), rel=1e-12)
        assert w.imag == pytest.approx(root * math.sin(math.pi / 4.0), rel=1e-12)

    def test_spatial_period_is_wavelength(self, e):
        z, t = 0.37, 0.21
        assert e.schrodinger_wave(z + e.wavelength, t) == pytest.approx(
            e.schrodinger_wave(z, t), rel=1e-12)


class TestGroupVelocity:
    def test_equals_mechanical_velocity(self):
        for u in (1e-6, 0.5, 1.0, 37.0):
            e = PlaneWaveElectron(rho0=1.0, u=u)
            assert e.group_velocity() == pytest.approx(u, rel=1e-15)

    def test_si_units(self):
        e = PlaneWaveElectron(rho0=1.0, u=1e6, units=SI_UNITS)
        assert e.group_velocity() == pytest.approx(1e6, rel=1e-12)

    def test_zero_velocity_limit(self):
        still = PlaneWaveElectron(rho0=1.0, u=0.0)
        assert still.group_velocity() == 0.0

    def test_finite_difference_of_dispersion(self):
        rng = random.Random(13)
        for _ in range(20):
            u = rng.uniform(1e-3, 1e3)
            e = PlaneWaveElectron(rho0=1.0, u=u)
            hbar, m = e.units.hbar, e.mass
            k = m * u / hbar
            h = 1e-6 * k
            omega = lambda q: hbar * q * q / (2.0 * m)
            fd = (omega(k + h) - omega(k - h)) / (2.0 * h)
            assert abs(fd - e.group_velocity()) <= 1e-6 * u


class TestEhrenfestStep:
    def test_zero_force_is_identity(self, e):
        assert e.ehrenfest_step((0.0, 0.0, 0.0), dt=1e-3) == e

    def test_constant_force_matches_closed_form(self):
        e = PlaneWaveElectron(rho0=2.0, u=5.0)
        gz, dt, n = 0.4, 1e-3, 1000
        stepped = e
        for _ in range(n):
            stepped = stepped.ehrenfest_step((0.0, 0.0, gz), dt)
        want = e.u - (gz / e.rho0) * n * dt
        assert abs(stepped.u - want) <= 1e-9 * want

    def test_amplitude_constraint_maintained(self):
        e = PlaneWaveElectron(rho0=1.5, u=2.0, field_split=0.3)
        stepped = e.ehrenfest_step((0.0, 0.0, -0.7), dt=0.1)
        left = (0.5 * stepped.units.eps0 * stepped.E0**2
                + 0.5 * stepped.units.mu0 * stepped.H0**2)
        right = 0.5 * stepped.rho0 * stepped.u**2
        assert abs(left - right) <= 1e-12 * right
        assert stepped.u != e.u
        assert stepped.wavelength == pytest.approx(
            2.0 * math.pi * stepped.units.hbar / (stepped.mass * stepped.u), rel=1e-15)

    def test_rejects_transverse_force(self, e):
        with pytest.raises(DomainError):
            e.ehrenfest_step((1.0, 0.0, 0.0), dt=1e-3)

    def test_rejects_stopping_step(self, e):
        with pytest.raises(DomainError):
            e.ehrenfest_step((0.0, 0.0, 1e6), dt=1.0)

    def test_rejects_non_positive_dt(self, e):
        with pytest.raises(DomainError):
            e.ehrenfest_step((0.0, 0.0, 0.0), dt=0.0)


class TestComplementarity:
    def test_derivatives_cancel(self):
        e = PlaneWaveElectron(rho0=2.0, u=3.0)
        dt = 1e-5 / e.nu
        for z, t in sample_points(e, 100, seed=17):
            ds, drho = e.complementarity_check(z, t, dt)
            assert abs(ds + drho) <= 1e-8 * e.rho0 * e.nu

    def test_zero_slope_at_density_peak(self, e):
        ds, drho = e.complementarity_check(0.0, 0.0, 1e-6 / e.nu)
        assert abs(drho) <= 1e-8 * e.rho0 * e.nu

    def test_matches_analytic_derivative(self):
        e = PlaneWaveElectron(rho0=1.0, u=2.0)
        dt = 1e-5 / e.nu
        for z, t in sample_points(e, 50, seed=19):
            ds, drho = e.complementarity_check(z, t, dt)
            arg = 4.0 * math.pi * z / e.wavelength - 4.0 * math.pi * e.nu * t
            analytic = 2.0 * math.pi * e.nu * e.rho0 * math.sin(arg)
            assert abs(drho - analytic) <= 1e-6 * e.rho0 * e.nu
            assert abs(ds + analytic) <= 1e-6 * e.rho0 * e.nu

    def test_rejects_non_positive_dt(self, e):
        with pytest.raises(DomainError):
            e.complementarity_check(0.0, 0.0, 0.0)


class TestProfileRows:
    def test_columns_and_consistency(self, e):
        zs = [0.0, 0.5, 1.0]
        rows = profile_rows(e, zs, t=0.25)
        assert len(rows) == 3
        for row, z in zip(rows, zs):
            assert tuple(row.keys()) == PROFILE_COLUMNS
            assert row["z"] == z
            assert row["t"] == 0.25
            assert row["rho"] == pytest.approx(e.density(z, 0.25), rel=1e-15)
            assert row["psi_scalar"] == pytest.approx(math.sqrt(row["rho"]), rel=1e-12)
            assert row["rho"] + row["S"] == pytest.approx(e.rho0, rel=1e-13)


class TestProfile:
    """`profile_rows` fills eight float columns and builds each row when it is read."""

    @pytest.fixture(scope="class")
    def profile(self):
        return profile_rows(PlaneWaveElectron(rho0=2.0, u=1.5, helicity="minus"),
                            [0.1 * k - 0.7 for k in range(23)], t=0.3)

    def test_is_a_slotted_sequence(self, profile):
        assert isinstance(profile, Profile) and isinstance(profile, abc.Sequence)
        assert not hasattr(profile, "__dict__")

    def test_length_indices_and_iteration(self, profile):
        n = len(profile)
        assert n == 23 == len(list(profile))
        assert all(len(column) == n for column in profile.columns)
        assert list(profile) == [profile[k] for k in range(n)]
        for k in range(-n, 0):
            assert profile[k] == profile[n + k]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                profile[k]
        assert profile[::-3] == list(profile)[::-3]
        assert profile[2:5] == [profile[2], profile[3], profile[4]]

    def test_rows_are_dicts_of_floats_in_column_order(self, profile):
        for row in profile:
            assert type(row) is dict and tuple(row) == PROFILE_COLUMNS
            assert all(type(v) is float for v in row.values())

    def test_columns_equal_the_rows(self, profile):
        assert len(profile.columns) == len(PROFILE_COLUMNS)
        for name, column in zip(PROFILE_COLUMNS, profile.columns):
            assert list(column) == [row[name] for row in profile]
        assert list(zip(*profile.columns)) == [tuple(row.values()) for row in profile]

    def test_peak_bytes_per_point(self, e):
        # eight packed doubles cost about 67 B a point with the arrays'
        # overallocation; a dict of eight floats per point cost about 424 B
        zs = [k * 1e-3 for k in range(20_000)]
        profile_rows(e, zs[:10], 0.0)  # warm-up
        tracemalloc.start()
        try:
            profile = profile_rows(e, zs, 0.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(profile) == 20_000
        assert peak / len(profile) < 100


# two whole blocks and one point, so the last block `profile_rows` computes is partial
_seam_rng = random.Random(7)
SEAM_GRID = [_seam_rng.uniform(-1e4, 1e4) for _ in range(2 * _BLOCK + 1)]
# points of the 10⁴-point golden profile (rho0 = u = 1 at this t) where libm's
# pow(sin θ, 2) and sin θ * sin θ, numpy's square, differ in the last bit
SQUARE_T = 3.8188730948830703
SQUARE_ZS = [-14.27019699571547, -11.578086266730203, -10.683037809616083]


class TestProfileRowsOracle:
    """One phase per point must give exactly what the per-point methods give."""

    @given(params,
           st.sampled_from(HELICITIES),
           st.sampled_from([ATOMIC_UNITS, SI_UNITS]),
           st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1, max_size=20),
           st.floats(min_value=-1e3, max_value=1e3))
    @example((1.3, 2.7, 0.3), "minus", ATOMIC_UNITS, SEAM_GRID, 0.25)
    @example((1.0, 1.0, 0.5), "plus", ATOMIC_UNITS, SQUARE_ZS, SQUARE_T)
    def test_cells_equal_the_per_point_methods(self, p, helicity, units, zs, t):
        rho0, u, split = p
        e = PlaneWaveElectron(rho0=rho0, u=u, helicity=helicity, units=units,
                              field_split=split)
        rows = profile_rows(e, zs, t)
        assert len(rows) == len(zs)
        for row, z in zip(rows, zs):
            psi = e.wavefunction(z, t).psi
            assert tuple(row) == PROFILE_COLUMNS
            assert (row["z"], row["t"]) == (z, t)
            assert row["rho"] == e.density(z, t)
            assert row["omega_kin"] == e.kinetic_energy_density(z, t)
            assert row["omega_field"] == e.field_energy_density(z, t)
            assert row["S"] == e.spin_density(z, t)
            assert row["psi_scalar"] == psi.s
            assert row["psi_pseudo"] == psi.b12

    def test_at_rest_is_a_domain_error(self):
        with pytest.raises(DomainError):
            profile_rows(PlaneWaveElectron(rho0=1.0, u=0.0), [0.0, 1.0], 0.0)

    def test_other_field_phase_is_unsupported(self):
        with pytest.raises(UnsupportedConfigurationError):
            profile_rows(PlaneWaveElectron(rho0=1.0, u=1.0, phi=0.0), [0.0, 1.0], 0.0)

    def test_phase_overflow_is_a_domain_error(self, e):
        # the text `phase` words, naming the first z that overflows, in the first block
        # or past it, although profile_rows tests theta a block at a time
        for zs in ([0.0, 1e308], SEAM_GRID[:_BLOCK + 1] + [1e308, -1e308]):
            with pytest.raises(DomainError, match=r"^the phase at z = 1e\+308, t = 0\.0 "
                                                  r"exceeds double precision$"):
                profile_rows(e, zs, 0.0)

    def test_a_finite_grid_never_calls_phase(self, e, monkeypatch):
        """theta is `phase`'s formula inline; `phase` itself only words a refusal."""
        calls = []
        phase = PlaneWaveElectron.phase

        def counted(self, z, t):
            calls.append((z, t))
            return phase(self, z, t)

        monkeypatch.setattr(PlaneWaveElectron, "phase", counted)
        profile = profile_rows(e, [k * 1e-3 for k in range(10_000)], 0.25)
        assert len(profile) == 10_000 and calls == []
