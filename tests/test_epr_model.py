"""Analyzer correlation model: phases, coincidences, CHSH, Monte Carlo."""

import cmath
import math
import os
import random
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from electronlab import epr_model
from electronlab.epr_model import (
    MINUS,
    PLUS,
    UNDETERMINED,
    AnalyzerPair,
    ChshSettings,
    chsh_sum,
    coincidence_probability,
    coincidence_table,
    conditional_outcome,
    expectation,
    hidden_phase_samples,
    monte_carlo_singles,
    reduce_angle,
    rotor_phase,
    single_probability,
)
from electronlab.errors import DomainError

ROOT_HALF = math.sqrt(2.0) / 2.0
TWO_ROOT_TWO = 2.0 * math.sqrt(2.0)

angle_st = st.floats(min_value=-20.0, max_value=20.0,
                     allow_nan=False, allow_infinity=False)


def float64_blocks(n, seed):
    """Each 65 536-trial block's hidden phases and detector draws."""
    for k, start in enumerate(range(0, n, 1 << 16)):
        rng = np.random.default_rng([seed, k])
        size = min(1 << 16, n - start)
        yield rng.uniform(0.0, 2.0 * math.pi, size), rng.random(size)


def float64_hits(angle, side, delta, n, seed):
    """The singles hit rule, all in float64, block by block."""
    base = angle if side == "A" else angle + delta
    return sum(int(np.count_nonzero(r < np.cos(base + phi0) ** 2))
               for phi0, r in float64_blocks(n, seed))


class TestRotorPhase:
    def test_zero_angle(self):
        assert rotor_phase(0.0, "A") == 1.0 + 0.0j

    def test_quarter_phase_is_imaginary_unit(self):
        z = rotor_phase(math.pi / 2.0, "A")
        assert abs(z - 1j) <= 1e-15

    def test_matches_complex_exponential(self):
        rng = random.Random(23)
        for _ in range(1000):
            angle = rng.uniform(-10.0, 10.0)
            assert abs(rotor_phase(angle, "A") - cmath.exp(1j * angle)) <= 1e-12
            assert abs(rotor_phase(angle, "B") - cmath.exp(-1j * angle)) <= 1e-12

    def test_two_sided_product_carries_difference(self):
        phi1, phi2 = 0.73, -1.21
        product = rotor_phase(phi1, "A") * rotor_phase(phi2, "B")
        assert abs(product - cmath.exp(1j * (phi1 - phi2))) <= 1e-12

    def test_rejects_unknown_side(self):
        with pytest.raises(DomainError):
            rotor_phase(0.1, "C")


class TestSingleProbability:
    def test_aligned_phase_detects(self):
        assert single_probability(0.0, "A", phi0=0.0) == 1.0

    def test_crossed_phase_blocks(self):
        assert single_probability(0.0, "A", phi0=math.pi / 2.0) <= 1e-30

    def test_source_phase_shifts_side_b(self):
        assert single_probability(0.3, "B", delta=0.2, phi0=0.1) == pytest.approx(
            math.cos(0.6) ** 2, rel=1e-15)

    @given(angle_st, angle_st)
    def test_bounded(self, angle, phi0):
        assert 0.0 <= single_probability(angle, "A", phi0=phi0) <= 1.0

    def test_rejects_unknown_side(self):
        with pytest.raises(DomainError, match="side must be one of"):
            single_probability(0.0, "C")

    def test_average_over_hidden_phase_is_half(self):
        n = 1_000_000
        phases = hidden_phase_samples(n, seed=101)
        for angle in (0.0, 0.4, 1.3, 2.9):
            mean = float(np.mean(np.cos(angle + phases) ** 2))
            assert abs(mean - 0.5) <= 3.0 * 0.354 / math.sqrt(n)


class TestCoincidence:
    def test_quarter_turn_difference_is_exactly_zero(self):
        assert coincidence_probability(AnalyzerPair(math.pi / 2.0, 0.0)) == 0.0

    def test_half_turn_difference_is_exactly_one(self):
        assert coincidence_probability(AnalyzerPair(math.pi, 0.0)) == 1.0

    def test_eighth_turn_difference(self):
        p = coincidence_probability(AnalyzerPair(math.pi / 4.0, 0.0))
        assert p == pytest.approx(0.5, abs=1e-15)

    @given(angle_st, angle_st)
    def test_equals_cos_squared(self, phi1, phi2):
        p = coincidence_probability(AnalyzerPair(phi1, phi2))
        assert abs(p - math.cos(phi1 - phi2) ** 2) <= 1e-13

    @given(angle_st, angle_st)
    def test_symmetric_under_swap(self, phi1, phi2):
        a = coincidence_probability(AnalyzerPair(phi1, phi2))
        b = coincidence_probability(AnalyzerPair(phi2, phi1))
        assert abs(a - b) <= 1e-13

    def test_source_phase_folds_into_side_b(self):
        with_delta = coincidence_probability(AnalyzerPair(0.9, 0.2, delta=0.3))
        folded = coincidence_probability(AnalyzerPair(0.9, 0.5))
        assert with_delta == pytest.approx(folded, abs=1e-15)

    @given(angle_st, angle_st, angle_st)
    def test_hidden_phase_cancels_in_product_construction(self, phi1, phi2, phi0):
        dressed = (rotor_phase(phi1, "A") * cmath.exp(1j * phi0)
                   * rotor_phase(phi2, "B") * cmath.exp(-1j * phi0))
        bare = rotor_phase(phi1, "A") * rotor_phase(phi2, "B")
        assert abs(dressed - bare) <= 1e-12
        p = coincidence_probability(AnalyzerPair(phi1, phi2))
        assert abs(bare.real ** 2 - p) <= 1e-12


class TestCoincidenceTable:
    def test_perfect_correlation_at_equal_settings(self):
        t = coincidence_table(AnalyzerPair(0.7, 0.7))
        assert (t.cpp, t.cmm, t.cpm, t.cmp) == (1.0, 1.0, 0.0, 0.0)

    def test_balanced_at_eighth_turn(self):
        t = coincidence_table(AnalyzerPair(math.pi / 4.0, 0.0))
        for value in (t.cpp, t.cmm, t.cpm, t.cmp):
            assert value == pytest.approx(0.5, abs=1e-15)

    @given(angle_st, angle_st)
    def test_structure(self, phi1, phi2):
        t = coincidence_table(AnalyzerPair(phi1, phi2))
        assert t.cpp == t.cmm
        assert t.cpm == t.cmp
        assert t.cpp + t.cpm == 1.0


class TestExpectation:
    def test_equal_settings(self):
        assert expectation(AnalyzerPair(0.4, 0.4)) == 1.0

    def test_22_5_degrees(self):
        pair = AnalyzerPair(math.radians(22.5), 0.0)
        assert expectation(pair) == pytest.approx(ROOT_HALF, abs=1e-12)

    def test_90_degrees(self):
        assert expectation(AnalyzerPair(math.pi / 2.0, 0.0)) == -1.0

    @given(angle_st, angle_st)
    def test_bounded_symmetric_periodic(self, phi1, phi2):
        e = expectation(AnalyzerPair(phi1, phi2))
        assert -1.0 <= e <= 1.0
        assert abs(e - expectation(AnalyzerPair(phi2, phi1))) <= 1e-12
        assert abs(e - expectation(AnalyzerPair(phi1 + math.pi, phi2))) <= 1e-11


class TestChsh:
    def canonical(self):
        return ChshSettings(*(math.radians(d) for d in (0.0, 45.0, 22.5, 67.5)))

    def test_canonical_angles_reach_two_root_two(self):
        assert chsh_sum(self.canonical()) == pytest.approx(TWO_ROOT_TWO, abs=1e-9)

    def test_all_zero_angles_give_two(self):
        assert chsh_sum(ChshSettings(0.0, 0.0, 0.0, 0.0)) == pytest.approx(2.0, abs=1e-15)

    def test_grid_scan_never_exceeds_bound(self):
        # S depends only on the three independent differences
        # a = phi1-phi2, b = phi1-phi2', c = phi1'-phi2, with
        # phi1'-phi2' = c - a + b. Scan them on a 1-degree grid.
        degrees = np.radians(np.arange(360.0))
        b_grid, c_grid = np.meshgrid(degrees, degrees, indexing="ij")
        best = -np.inf
        for a in degrees:
            s = (np.cos(2.0 * a) - np.cos(2.0 * b_grid) + np.cos(2.0 * c_grid)
                 + np.cos(2.0 * (c_grid - a + b_grid)))
            best = max(best, float(np.max(np.abs(s))))
        assert best <= TWO_ROOT_TWO + 1e-6
        # the 1-degree lattice gets close; the canonical half-degree
        # offsets reach the bound itself
        assert best >= 2.82
        assert abs(chsh_sum(self.canonical()) - TWO_ROOT_TWO) <= 1e-9

    def test_source_phase_shifts_settings(self):
        shifted = chsh_sum(self.canonical(), delta=0.1)
        plain = chsh_sum(ChshSettings(
            0.0, math.radians(45.0),
            math.radians(22.5) + 0.1, math.radians(67.5) + 0.1))
        assert shifted == pytest.approx(plain, abs=1e-12)


class TestConditionalOutcome:
    def test_quarter_turn_anticorrelates(self):
        pair = AnalyzerPair(math.pi / 2.0, 0.0)
        assert conditional_outcome(PLUS, pair) == MINUS
        assert conditional_outcome(MINUS, pair) == PLUS

    def test_half_turn_correlates(self):
        pair = AnalyzerPair(math.pi, 0.0)
        assert conditional_outcome(PLUS, pair) == PLUS
        assert conditional_outcome(MINUS, pair) == MINUS

    def test_generic_angle_undetermined(self):
        assert conditional_outcome(MINUS, AnalyzerPair(math.pi / 4.0, 0.0)) == UNDETERMINED

    def test_consistent_with_coincidence_probability(self):
        for k in range(-8, 9):
            pair = AnalyzerPair(k * math.pi / 2.0, 0.0)
            outcome = conditional_outcome(PLUS, pair)
            assert outcome in (PLUS, MINUS)
            p = coincidence_probability(pair)
            assert p == (1.0 if outcome == PLUS else 0.0)

    def test_rejects_unknown_outcome_label(self):
        with pytest.raises(DomainError):
            conditional_outcome("up", AnalyzerPair(0.0, 0.0))


class TestMonteCarloSingles:
    def test_deterministic_under_fixed_seed(self):
        a = monte_carlo_singles(0.3, n=10_000, seed=42)
        b = monte_carlo_singles(0.3, n=10_000, seed=42)
        assert a == b

    def test_single_trial_reproducible(self):
        hits, rate = monte_carlo_singles(0.3, n=1, seed=7)
        assert hits in (0, 1)
        assert (hits, rate) == monte_carlo_singles(0.3, n=1, seed=7)

    def test_worker_count_does_not_change_totals(self):
        serial = monte_carlo_singles(1.1, n=300_000, seed=9, workers=1)
        threaded = monte_carlo_singles(1.1, n=300_000, seed=9, workers=4)
        assert serial == threaded

    @pytest.mark.parametrize("workers, cores, blocks, pool", [
        (64, 8, 3, 3),      # no more threads than blocks
        (64, 2, 3, 2),      # nor than cores
        (2, 8, 3, 2),       # nor than asked for
        (64, 8, 1, None),   # one block runs without a pool
        (64, 1, 3, None),   # so does one core
    ])
    def test_pool_size_is_bounded_by_cores_and_blocks(self, workers, cores, blocks, pool,
                                                      monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        # monte_carlo_singles imports the pool class when it needs a pool
        monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(epr_model.os, "cpu_count", lambda: cores)
        n = (blocks - 1) * (1 << 16) + 5
        result = monte_carlo_singles(0.7, n=n, seed=4, workers=workers)
        assert sizes == ([] if pool is None else [pool])
        assert result == monte_carlo_singles(0.7, n=n, seed=4, workers=1)

    def test_a_one_worker_process_never_imports_the_pool(self):
        # concurrent.futures pulls in logging, at a cost paid by every CLI start
        code = ("import sys, electronlab.cli; "
                "electronlab.cli.epr_model.monte_carlo_singles(0.5, n=1000, seed=1); "
                "sys.exit('concurrent.futures' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0

    def test_rate_near_half_for_any_angle(self):
        n = 100_000
        bound = 3.0 * math.sqrt(0.25 / n)
        for i, angle in enumerate((0.0, 0.5, 1.1, 2.2)):
            _, rate = monte_carlo_singles(angle, n=n, seed=1000 + i)
            assert abs(rate - 0.5) <= bound

    def test_two_angles_agree_within_noise(self):
        n = 100_000
        _, r1 = monte_carlo_singles(0.0, n=n, seed=5)
        _, r2 = monte_carlo_singles(1.0, n=n, seed=5)
        assert abs(r1 - r2) <= 6.0 * math.sqrt(0.25 / n)

    def test_side_b_uses_source_phase(self):
        a = monte_carlo_singles(0.4, side="B", delta=0.5, n=10_000, seed=3)
        b = monte_carlo_singles(0.9, side="A", n=10_000, seed=3)
        assert a == b

    # 1e3 puts about 130 trials per block in the float64 band; at 1e300
    # the band exceeds 1 and float32 overflows, which must stay silent
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("angle", [0.0, math.pi / 4.0, 1e3, -1e3, 1e300])
    @pytest.mark.parametrize("n", [1, 65_535, 65_537, 3 * 65_536 + 5])
    def test_hits_equal_the_float64_rule(self, angle, n):
        for seed, side, delta, workers in [(0, "A", 0.0, 1), (11, "B", 0.37, 2),
                                           (2**31 - 1, "B", -2.5, 1), (5, "A", 0.9, 2)]:
            hits = float64_hits(angle, side, delta, n, seed)
            assert monte_carlo_singles(angle, side, delta, n=n, seed=seed,
                                       workers=workers) == (hits, hits / n)

    def test_validation(self):
        with pytest.raises(DomainError):
            monte_carlo_singles(0.0, n=0, seed=1)
        with pytest.raises(DomainError):
            monte_carlo_singles(0.0, n=10, seed=-1)
        with pytest.raises(DomainError):
            monte_carlo_singles(0.0, n=10, seed=1, workers=0)
        with pytest.raises(DomainError, match="side must be one of"):
            monte_carlo_singles(0.0, "C", n=10, seed=1)


class TestHiddenPhase:
    def test_uniform_range(self):
        phases = hidden_phase_samples(100_000, seed=11)
        assert float(phases.min()) >= 0.0
        assert float(phases.max()) < 2.0 * math.pi

    def test_phasor_mean_vanishes(self):
        n = 100_000
        phases = hidden_phase_samples(n, seed=13)
        mean = complex(np.mean(np.exp(1j * phases)))
        assert abs(mean) <= 4.0 / math.sqrt(n)

    @pytest.mark.parametrize("n, seed", [(1, 0), (3 * 65_536 + 5, 29)])
    def test_equals_the_phases_the_sampler_draws(self, n, seed):
        phases = np.concatenate([phi0 for phi0, _ in float64_blocks(n, seed)])
        assert np.array_equal(hidden_phase_samples(n, seed), phases)

    def test_block_layout_stable(self):
        whole = hidden_phase_samples(70_000, seed=17)
        prefix = hidden_phase_samples(65_536, seed=17)
        assert np.array_equal(whole[:65_536], prefix)

    def test_validation(self):
        with pytest.raises(DomainError, match="sample count must be >= 1"):
            hidden_phase_samples(0, seed=1)
        with pytest.raises(DomainError, match="seed must be non-negative"):
            hidden_phase_samples(10, seed=-1)


class TestReduceAngle:
    @given(angle_st)
    def test_lands_in_window(self, angle):
        r = reduce_angle(angle)
        assert 0.0 <= r < 2.0 * math.pi
        assert abs(math.cos(r) - math.cos(angle)) <= 1e-9
