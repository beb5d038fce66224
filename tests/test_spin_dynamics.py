"""Spin precession: torque expression, RK4 behaviour, classification."""

import dataclasses
import math
import random
import tracemalloc
from collections import abc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from electronlab import ga3
from electronlab.errors import DomainError
from electronlab.spin_dynamics import (
    ANTIPARALLEL,
    PARALLEL,
    UNRESOLVED,
    _MAX_STEPS,
    FieldRamp,
    LLParams,
    SpinState,
    Trajectory,
    classify_deflection,
    cosine_ramp,
    integrate,
    linear_ramp,
    ll_rhs,
    schedule,
)


def final_direction(traj):
    return traj[-1][1].e_s


def length(v):
    return math.sqrt(sum(c * c for c in v))


class TestRhs:
    def test_zero_ramp_no_torque(self):
        state = SpinState((0.0, 0.0, 1.0))
        assert ll_rhs(state, LLParams(), (0.0, 0.0, 0.0)) == (0.0, 0.0, 0.0)

    def test_velocity_parallel_to_ramp_no_torque(self):
        state = SpinState((1.0, 0.0, 0.0))
        params = LLParams(u=(0.0, 0.0, 2.0))
        assert ll_rhs(state, params, (0.0, 0.0, 5.0)) == (0.0, 0.0, 0.0)

    def test_hand_expanded_double_cross(self):
        # e_s = e3, u = |u| e3, dB/dt = r e1:
        # u x dB/dt = |u| r e2, then e3 x (|u| r e2) = -|u| r e1
        speed, rate, kappa = 3.0, 0.25, 1.7
        state = SpinState((0.0, 0.0, 1.0))
        params = LLParams(kappa=kappa, u=(0.0, 0.0, speed))
        rhs = ll_rhs(state, params, (rate, 0.0, 0.0))
        assert rhs == pytest.approx((-kappa * speed * rate, 0.0, 0.0), abs=1e-15)

    def test_orthogonal_to_spin(self):
        rng = random.Random(1)
        for _ in range(50):
            v = [rng.uniform(-1, 1) for _ in range(3)]
            state = SpinState.from_vector(v)
            params = LLParams(kappa=rng.uniform(-2, 2),
                              u=tuple(rng.uniform(-3, 3) for _ in range(3)))
            dbdt = tuple(rng.uniform(-3, 3) for _ in range(3))
            rhs = ll_rhs(state, params, dbdt)
            dot = sum(a * b for a, b in zip(rhs, state.e_s))
            assert abs(dot) <= 1e-12 * (length(rhs) + 1.0)


class TestStateValidation:
    def test_rejects_non_unit_direction(self):
        with pytest.raises(DomainError):
            SpinState((0.0, 0.0, 2.0))

    def test_rejects_nan_direction(self):
        with pytest.raises(DomainError):
            SpinState((math.nan, 0.0, 1.0))

    def test_int_components_stored_as_floats(self):
        s = SpinState((0, 1, 0))
        assert s.e_s == (0.0, 1.0, 0.0)
        assert all(type(c) is float for c in s.e_s)

    def test_frozen(self):
        s = SpinState((0.0, 0.0, 1.0))
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.e_s = (1.0, 0.0, 0.0)

    def test_from_vector_normalizes(self):
        s = SpinState.from_vector((3.0, 0.0, 4.0))
        assert s.e_s == pytest.approx((0.6, 0.0, 0.8), abs=1e-15)

    def test_from_vector_rejects_zero(self):
        with pytest.raises(DomainError):
            SpinState.from_vector((0.0, 0.0, 0.0))

    def test_params_validation(self):
        with pytest.raises(DomainError):
            LLParams(dt=0.0)
        with pytest.raises(DomainError):
            LLParams(kappa=math.inf)


NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


class TestNonFiniteInputs:
    @given(st.sampled_from(["dt", 0, 1, 2]), NON_FINITE)
    def test_ll_params(self, where, bad):
        """`where` is dt or the index of a velocity component."""
        u, dt = [0.0, 0.0, 1.0], 1e-3
        if where == "dt":
            dt = bad
        else:
            u[where] = bad
        with pytest.raises(DomainError):
            LLParams(u=tuple(u), dt=dt)

    @given(st.sampled_from([FieldRamp, linear_ramp, cosine_ramp]),
           st.sampled_from(["rate", "duration"]), NON_FINITE)
    def test_ramps(self, make, name, bad):
        rate, duration = (bad, 1.0) if name == "rate" else (1.0, bad)
        with pytest.raises(DomainError):
            if make is FieldRamp:
                FieldRamp((0.0, 0.0, 1.0), rate, duration, lambda t: 1.0)
            else:
                make(rate, duration, (0.0, 0.0, 1.0))

    @given(st.integers(min_value=0, max_value=2), NON_FINITE)
    def test_ramp_direction(self, i, bad):
        b_dir = [0.0, 0.0, 1.0]
        b_dir[i] = bad
        with pytest.raises(DomainError):
            linear_ramp(1.0, 1.0, b_dir)

    def test_overflowing_precession_vector(self):
        params = LLParams(kappa=1e308, u=(0.0, 0.0, 1e308), dt=0.1)
        ramp = linear_ramp(1.0, 1.0, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match=r"^precession vector .* component must lie in"):
            integrate(SpinState((0.0, 0.0, 1.0)), ramp, params)


    def test_overflow_inside_the_loop_fails_the_final_check(self):
        # the README run at kappa = 1e300: w is finite, but the first RK4 step
        # overflows to inf and its renormalization to NaN, which stays NaN
        params = LLParams(kappa=1e300, u=(0.0, 0.0, 1.0), dt=1e-4)
        ramp = linear_ramp(1.0, 1.5707963, (1.0, 0.0, 0.0))
        for every in (1, 10**9):
            with pytest.raises(DomainError,
                               match=r"^spin direction length must lie in .*, got nan$"):
                integrate(SpinState((0.0, 0.0, 1.0)), ramp, params, every)


class TestTrajectory:
    """`integrate` records float columns and builds each item when it is read."""

    @pytest.fixture(scope="class")
    def traj(self):
        ramp = cosine_ramp(2.0, 1.0, (1.0, 0.5, 0.0))
        return integrate(SpinState.from_vector((0.3, 0.4, 0.8)), ramp, LLParams(dt=0.01), 7)

    def test_is_a_slotted_sequence(self, traj):
        assert isinstance(traj, Trajectory) and isinstance(traj, abc.Sequence)
        assert not hasattr(traj, "__dict__")

    def test_length_indices_and_iteration(self, traj):
        n = len(traj)
        assert n == len(traj.t) == len(list(traj))
        assert list(traj) == [traj[k] for k in range(n)]
        for k in range(-n, 0):
            assert traj[k] == traj[n + k]
        for k in (n, -n - 1):
            with pytest.raises(IndexError):
                traj[k]
        assert traj[::-3] == list(traj)[::-3]

    def test_items_are_a_time_and_a_spin_state(self, traj):
        for item in traj:
            t, s = item
            assert type(item) is tuple and type(t) is float and type(s) is SpinState
        assert traj[0] == (0.0, SpinState.from_vector((0.3, 0.4, 0.8)))
        assert traj[-1][0] == 1.0

    def test_columns_equal_the_items(self, traj):
        assert list(traj.t) == [t for t, _ in traj]
        assert list(zip(traj.ex, traj.ey, traj.ez)) == [s.e_s for _, s in traj]
        assert all(type(c) is float for c in traj.t + traj.ex + traj.ey + traj.ez)

    def test_peak_bytes_per_record(self):
        # four packed doubles cost about 34 B a record with the arrays'
        # overallocation; four float lists cost about 131 B, and a
        # (t, SpinState) pair per record about 255 B
        ramp = linear_ramp(1.0, 2.0, (1.0, 0.0, 0.0))
        state0, params = SpinState((0.0, 1.0, 0.0)), LLParams(dt=1e-4)
        integrate(state0, linear_ramp(1.0, 0.01, (1.0, 0.0, 0.0)), params)  # warm-up
        tracemalloc.start()
        try:
            traj = integrate(state0, ramp, params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(traj) == 20001
        assert peak / len(traj) < 48


class TestIntegrate:
    @pytest.mark.parametrize("record_every", [1, 7])
    def test_records_are_spin_states(self, record_every):
        ramp = cosine_ramp(2.0, 1.0, (1.0, 0.0, 0.0))
        traj = integrate(SpinState((0.0, 0.0, 1.0)), ramp, LLParams(dt=0.01), record_every)
        assert len(traj) == 1 + math.ceil(100 / record_every)
        assert all(type(s) is SpinState for _, s in traj)

    def test_zero_ramp_constant_trajectory(self):
        state0 = SpinState.from_vector((1.0, 1.0, 0.0))
        ramp = linear_ramp(0.0, 1.0, (1.0, 0.0, 0.0))
        traj = integrate(state0, ramp, LLParams(dt=0.01))
        for _, s in traj:
            assert s.e_s == pytest.approx(state0.e_s, abs=1e-15)

    def test_timestamps_monotone_and_final_at_duration(self):
        state0 = SpinState((0.0, 0.0, 1.0))
        ramp = linear_ramp(1.0, 0.7, (1.0, 0.0, 0.0))
        traj = integrate(state0, ramp, LLParams(dt=0.01), record_every=13)
        times = [t for t, _ in traj]
        assert times[0] == 0.0
        assert times[-1] == 0.7
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_known_precession_angle(self):
        # w = kappa * (u x rate_dir * rate) = e2; rotation of e3 about e2
        # by angle=duration radians lands on (-sin, 0, cos).
        state0 = SpinState((0.0, 0.0, 1.0))
        duration = 1.0
        ramp = linear_ramp(1.0, duration, (1.0, 0.0, 0.0))
        traj = integrate(state0, ramp, LLParams(kappa=1.0, u=(0.0, 0.0, 1.0), dt=1e-4))
        ex, ey, ez = final_direction(traj)
        assert ex == pytest.approx(-math.sin(duration), abs=1e-10)
        assert ey == pytest.approx(0.0, abs=1e-12)
        assert ez == pytest.approx(math.cos(duration), abs=1e-10)

    def test_norm_kept_at_every_sample(self):
        state0 = SpinState.from_vector((1.0, 2.0, 2.0))
        ramp = cosine_ramp(3.0, 2.0, (0.0, 1.0, 0.0))
        traj = integrate(state0, ramp, LLParams(kappa=2.0, u=(1.0, 0.0, 0.5), dt=2e-4))
        assert len(traj) == 10001
        for _, s in traj:
            assert abs(length(s.e_s) - 1.0) <= 1e-9

    def test_sign_flip_mirrors_trajectory(self):
        ramp = cosine_ramp(2.0, 1.0, (1.0, 0.0, 0.0))
        params = LLParams(kappa=1.3, u=(0.2, 0.1, 1.0), dt=1e-3)
        plus = integrate(SpinState.from_vector((0.3, -0.2, 0.9)), ramp, params)
        minus = integrate(SpinState.from_vector((-0.3, 0.2, -0.9)), ramp, params)
        for (t1, a), (t2, b) in zip(plus, minus):
            assert t1 == t2
            assert b.e_s == pytest.approx(tuple(-c for c in a.e_s), abs=1e-8)

    def test_scaling_covariance(self):
        state0 = SpinState((0.0, 1.0, 0.0))
        params_a = LLParams(kappa=1.0, u=(0.0, 0.0, 1.0), dt=1e-3)
        params_b = LLParams(kappa=4.0, u=(0.0, 0.0, 1.0), dt=1e-3)
        ramp_a = linear_ramp(2.0, 1.0, (1.0, 1.0, 0.0))
        ramp_b = linear_ramp(0.5, 1.0, (1.0, 1.0, 0.0))
        final_a = final_direction(integrate(state0, ramp_a, params_a))
        final_b = final_direction(integrate(state0, ramp_b, params_b))
        assert final_a == pytest.approx(final_b, abs=1e-12)

    def test_fourth_order_convergence(self):
        state0 = SpinState((0.0, 0.0, 1.0))
        ramp = linear_ramp(1.0, 1.0, (1.0, 0.0, 0.0))

        def run(dt):
            params = LLParams(kappa=1.0, u=(0.0, 0.0, 1.0), dt=dt)
            return final_direction(integrate(state0, ramp, params, record_every=10**9))

        ref = run(0.002)
        err = lambda v: length(tuple(a - b for a, b in zip(v, ref)))
        ratio = err(run(0.02)) / err(run(0.01))
        assert 14.0 <= ratio <= 18.0

    def test_cosine_ramp_converges_at_fourth_order_too(self):
        state0 = SpinState((0.0, 0.0, 1.0))
        ramp = cosine_ramp(1.5, 1.0, (1.0, 0.0, 0.0))

        def run(dt):
            params = LLParams(kappa=1.0, u=(0.0, 0.0, 1.0), dt=dt)
            return final_direction(integrate(state0, ramp, params, record_every=10**9))

        ref = run(0.002)
        err = lambda v: length(tuple(a - b for a, b in zip(v, ref)))
        ratio = err(run(0.02)) / err(run(0.01))
        assert 13.0 <= ratio <= 19.0

    def test_step_overflow_guarded(self):
        state0 = SpinState((0.0, 0.0, 1.0))
        ramp = linear_ramp(1.0, 1.0, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            integrate(state0, ramp, LLParams(dt=1e-10))

    def test_subunit_step_count_rejected(self):
        state0 = SpinState((0.0, 0.0, 1.0))
        ramp = linear_ramp(1.0, 0.1, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            integrate(state0, ramp, LLParams(dt=1.0))

    @pytest.mark.parametrize("every", [1, 2, 3, 7, 10 ** 400])
    def test_schedule_counts_the_records_integrate_makes(self, every):
        """Ratios just below, at and just above a half round to the nearest step."""
        state0 = SpinState((0.0, 0.6, 0.8))
        dt = 1e-3
        for n in (1, 2, 3, 6, 13, 50):
            for frac in (0.0, 0.4, 0.5, 0.6):
                ramp = linear_ramp(1.3, (n + frac) * dt, (1.0, 0.0, 0.0))
                steps, records = schedule(ramp.duration, dt, every)
                assert abs(steps - ramp.duration / dt) <= 0.5
                assert records == len(integrate(state0, ramp, LLParams(dt=dt), every))

    def test_schedule_step_guard(self):
        assert schedule(1.0, 1.0 / _MAX_STEPS) == (_MAX_STEPS, _MAX_STEPS + 1)
        assert schedule(1.0, 1.0 / _MAX_STEPS, 2) == (_MAX_STEPS, _MAX_STEPS // 2 + 1)
        for duration, dt in ((1.0, 1.0 / (_MAX_STEPS + 1)), (1e300, 1e-300)):  # the last is inf
            with pytest.raises(DomainError, match=r"^duration / dt must lie in"):
                schedule(duration, dt)
        with pytest.raises(DomainError, match="record_every"):
            schedule(1.0, 1e-3, 0)


def cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


# Both ramps keep dB/dt along b_dir, so de/dt = e x w * dB/dt with the fixed
# w = kappa * (u x b_dir). The exact flow turns e about w by -|w| * (B(t) - B(0)),
# negative because e x w = -w x e.
ORACLE_CASES = {
    "linear": (lambda: linear_ramp(0.8, 1.0, (1.0, 0.5, 0.0)),
               lambda t: 0.8 * t),
    "cosine": (lambda: cosine_ramp(0.8, 1.0, (1.0, 0.5, 0.0)),
               lambda t: 0.8 * (1.0 - math.cos(math.pi * t)) / 2.0),
}
ORACLE_PARAMS = dict(kappa=1.7, u=(0.3, -0.2, 1.0))
ORACLE_E0 = (0.3, 0.4, 0.8)


def rotor_flow(ramp, delta_b):
    """e(t) = R e0 R~ with R = rotor(I w_hat, -|w| * delta_b(t))."""
    w = tuple(ORACLE_PARAMS["kappa"] * c for c in cross(ORACLE_PARAMS["u"], ramp.b_dir))
    speed = length(w)
    plane = ga3.pseudovector(*(c / speed for c in w))
    e0 = ga3.vector(*SpinState.from_vector(ORACLE_E0).e_s)

    def at(t):
        v = ga3.rotor(plane, -speed * delta_b(t)).apply(e0)
        return (v.v1, v.v2, v.v3)

    return at


def rotor_error(shape, dt):
    """Largest distance of the recorded RK4 samples from the exact rotor flow."""
    make_ramp, delta_b = ORACLE_CASES[shape]
    ramp = make_ramp()
    exact = rotor_flow(ramp, delta_b)
    traj = integrate(SpinState.from_vector(ORACLE_E0), ramp, LLParams(dt=dt, **ORACLE_PARAMS))
    return max(math.dist(s.e_s, exact(t)) for t, s in traj)


class TestExactRotor:
    @pytest.mark.parametrize("shape", sorted(ORACLE_CASES))
    def test_rk4_matches_rotor_flow(self, shape):
        assert rotor_error(shape, 1e-3) <= 1e-12

    def test_cosine_global_error_is_fourth_order(self):
        ratio = rotor_error("cosine", 2e-2) / rotor_error("cosine", 1e-2)
        assert 14.0 <= ratio <= 18.0


class TestRamps:
    def test_linear_rate_is_constant(self):
        ramp = linear_ramp(2.0, 1.0, (0.0, 0.0, 1.0))
        assert ramp.b_rate(0.0) == ramp.b_rate(0.5) == (0.0, 0.0, 2.0)

    def test_cosine_rate_starts_and_ends_at_zero(self):
        ramp = cosine_ramp(2.0, 1.0, (0.0, 0.0, 1.0))
        assert length(ramp.b_rate(0.0)) <= 1e-15
        assert length(ramp.b_rate(1.0)) <= 1e-12

    def test_cosine_total_field_change(self):
        b_total, duration = 2.0, 1.0
        ramp = cosine_ramp(b_total, duration, (0.0, 0.0, 1.0))
        n = 20000
        h = duration / n
        vals = [ramp.b_rate(i * h)[2] for i in range(n + 1)]
        integral = h * (0.5 * vals[0] + sum(vals[1:-1]) + 0.5 * vals[-1])
        assert integral == pytest.approx(b_total, rel=1e-6)

    def test_ramp_validation(self):
        with pytest.raises(DomainError):
            FieldRamp(b_dir=(1.0, 1.0, 0.0), rate=0.0, duration=1.0, shape=lambda t: 1.0)
        with pytest.raises(DomainError):
            linear_ramp(1.0, 0.0, (1.0, 0.0, 0.0))
        with pytest.raises(DomainError, match=r"duration must lie in \(0, inf\)"):
            cosine_ramp(1.0, 0.0, (1.0, 0.0, 0.0))


class TestClassification:
    def test_aligned(self):
        s = SpinState((1.0, 0.0, 0.0))
        assert classify_deflection(s, (1.0, 0.0, 0.0), 0.9) == PARALLEL

    def test_anti_aligned(self):
        s = SpinState((-1.0, 0.0, 0.0))
        assert classify_deflection(s, (1.0, 0.0, 0.0), 0.9) == ANTIPARALLEL

    def test_perpendicular_unresolved(self):
        s = SpinState((0.0, 0.0, 1.0))
        assert classify_deflection(s, (1.0, 0.0, 0.0), 0.9) == UNRESOLVED

    def test_threshold_validation(self):
        s = SpinState((1.0, 0.0, 0.0))
        with pytest.raises(DomainError):
            classify_deflection(s, (1.0, 0.0, 0.0), 1.0)
        with pytest.raises(DomainError):
            classify_deflection(s, (1.0, 0.0, 0.0), 0.0)
