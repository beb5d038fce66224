"""Kernel checks for the dense Cl(3,0) implementation."""

import cmath
import math
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ga_oracle
from electronlab.errors import DomainError
from electronlab.ga3 import (
    BASIS,
    E1,
    E2,
    E3,
    E12,
    E123,
    E23,
    E31,
    ONE,
    Multivector3,
    Rotor3,
    gp,
    grade,
    reverse,
    rotor,
    scalar,
    vector,
)

COMPONENTS = ("s", "v1", "v2", "v3", "b23", "b31", "b12", "p")

coeff = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
multivectors = st.builds(Multivector3, *([coeff] * 8))
# signed zeros, subnormals and infinities as well, for checks that compare bits
edge_coeff = coeff | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf])
edge_multivectors = st.builds(Multivector3, *([edge_coeff] * 8))
# a blade's grade is the number of basis vectors in it, read off the oracle's bitmasks
SLOT_GRADES = tuple(bin(mask).count("1") for _, mask, _ in ga_oracle.FIELDS)


def bits(components) -> bytes:
    return struct.pack("8d", *components)
angles = st.floats(min_value=-4.0 * math.pi, max_value=4.0 * math.pi,
                   allow_nan=False, allow_infinity=False)


def assert_close(a: Multivector3, b: Multivector3, tol: float):
    for name in COMPONENTS:
        assert abs(getattr(a, name) - getattr(b, name)) <= tol, (name, a, b)


class TestBladeTable:
    def test_all_64_products_match_parity_oracle_exactly(self):
        for i in range(8):
            for j in range(8):
                got = gp(BASIS[i], BASIS[j])
                coefficient, name = ga_oracle.basis_product(i, j)
                for component in COMPONENTS:
                    want = coefficient if component == name else 0.0
                    assert getattr(got, component) == want, (i, j, component)

    def test_e1_e2_equals_pseudoscalar_times_e3(self):
        assert gp(E1, E2) == gp(E123, E3) == E12

    def test_pseudoscalar_squares_to_minus_one(self):
        assert gp(E123, E123) == scalar(-1.0)

    def test_identity_element(self):
        x = Multivector3(0.3, -1.2, 4.0, 0.7, -2.5, 1.1, 0.0, 9.0)
        assert gp(x, ONE) == x
        assert gp(ONE, x) == x


class TestProductLaws:
    @given(multivectors, multivectors, multivectors)
    def test_associative(self, a, b, c):
        left = gp(gp(a, b), c)
        right = gp(a, gp(b, c))
        scale = a.norm() * b.norm() * c.norm() + 1.0
        assert_close(left, right, 1e-10 * scale)

    @given(multivectors, multivectors, multivectors)
    def test_distributes_over_addition(self, a, b, c):
        left = gp(a, b + c)
        right = gp(a, b) + gp(a, c)
        scale = a.norm() * (b.norm() + c.norm()) + 1.0
        assert_close(left, right, 1e-12 * scale)

    @given(multivectors)
    def test_pseudoscalar_commutes(self, x):
        assert_close(gp(E123, x), gp(x, E123), 1e-14 * (x.norm() + 1.0))

    @given(multivectors, multivectors)
    def test_matches_oracle_on_random_inputs(self, a, b):
        got = gp(a, b)
        assert a * b == got
        assert a * 2.0 == 2.0 * a
        want = ga_oracle.gp_oracle(a.components(), b.components())
        scale = a.norm() * b.norm() + 1.0
        for name in COMPONENTS:
            assert abs(getattr(got, name) - want[name]) <= 1e-12 * scale


class TestGrade:
    def test_selects_component(self):
        assert grade(E1 + E12, 1) == E1
        assert grade(E1 + E12, 2) == E12

    def test_completeness(self):
        x = Multivector3(1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
        total = grade(x, 0) + grade(x, 1) + grade(x, 2) + grade(x, 3)
        assert total == x

    def test_product_grade_projection(self):
        assert grade(gp(E1, E2), 2) == E12

    @given(edge_multivectors)
    def test_keeps_its_slots_bit_for_bit(self, x):
        for g in range(4):
            want = [c if k == g else 0.0 for c, k in zip(x.components(), SLOT_GRADES)]
            assert bits(grade(x, g).components()) == bits(want)

    @pytest.mark.parametrize("bad", [-1, 4, 17])
    def test_invalid_grade_rejected(self, bad):
        with pytest.raises(DomainError):
            grade(ONE, bad)


class TestReverse:
    def test_bivector_negated(self):
        assert reverse(E12) == -E12

    def test_vector_and_scalar_kept(self):
        x = scalar(2.0) + vector(1.0, -1.0, 3.0)
        assert reverse(x) == x

    @given(multivectors)
    def test_involution(self, x):
        assert reverse(reverse(x)) == x
        assert x.reverse() == reverse(x)

    @given(edge_multivectors)
    def test_sign_is_that_of_the_blade_reversed_bit_for_bit(self, x):
        # reversing k basis vectors takes k(k-1)/2 swaps
        want = [-c if k * (k - 1) // 2 % 2 else c for c, k in zip(x.components(), SLOT_GRADES)]
        assert bits(reverse(x).components()) == bits(want)

    @given(multivectors, multivectors)
    def test_anti_automorphism(self, a, b):
        left = reverse(gp(a, b))
        right = gp(reverse(b), reverse(a))
        assert_close(left, right, 1e-12 * (a.norm() * b.norm() + 1.0))


class TestRotor:
    def test_quarter_turn_sends_e1_to_e2(self):
        r = rotor(E12, math.pi / 2.0)
        assert_close(r.apply(E1), E2, 1e-12)
        assert_close(r.apply(E2), -E1, 1e-12)

    def test_zero_angle_is_identity(self):
        r = rotor(E12, 0.0)
        assert r.as_multivector() == ONE

    def test_full_turn_is_minus_one_but_acts_as_identity(self):
        r = rotor(E12, 2.0 * math.pi)
        mv = r.as_multivector()
        assert mv.s == -1.0
        assert abs(mv.b12) <= 1e-12 and mv.b23 == 0.0 and mv.b31 == 0.0
        assert_close(r.apply(E1), E1, 1e-12)

    @given(angles)
    def test_double_cover(self, theta):
        r = rotor(E23, theta)
        shifted = rotor(E23, theta + 2.0 * math.pi)
        assert abs(shifted.s + r.s) <= 1e-12
        assert abs(shifted.b23 + r.b23) <= 1e-12
        assert abs(shifted.b31 + r.b31) <= 1e-12
        assert abs(shifted.b12 + r.b12) <= 1e-12
        x = vector(0.3, -0.4, 0.5)
        assert_close(shifted.apply(x), r.apply(x), 1e-12)
        assert (-r).apply(x) == r.apply(x)  # R and -R are one rotation, exactly

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), angles,
           st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5))
    def test_norm_preserved(self, bx, by, bz, theta, vx, vy, vz):
        n = math.sqrt(bx * bx + by * by + bz * bz)
        if n < 1e-3:
            return
        plane = Multivector3(b23=bx / n, b31=by / n, b12=bz / n)
        r = rotor(plane, theta)
        x = vector(vx, vy, vz)
        assert abs(r.apply(x).norm() - x.norm()) <= 1e-12 * (x.norm() + 1.0)

    @given(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1), angles, multivectors)
    def test_apply_matches_rodrigues(self, nx, ny, nz, theta, x):
        """Vectors and bivectors turn by one 3x3 matrix; s and p stay."""
        n = math.sqrt(nx * nx + ny * ny + nz * nz)
        if n < 1e-3:
            return
        axis = (nx / n, ny / n, nz / n)
        c, s = math.cos(theta), math.sin(theta)

        def rodrigues(v):
            # v cos + (axis x v) sin + axis (axis . v)(1 - cos), about the plane's dual
            dot = sum(a * b for a, b in zip(axis, v))
            cross = (axis[1] * v[2] - axis[2] * v[1],
                     axis[2] * v[0] - axis[0] * v[2],
                     axis[0] * v[1] - axis[1] * v[0])
            return tuple(vk * c + ck * s + ak * dot * (1.0 - c)
                         for vk, ck, ak in zip(v, cross, axis))

        v1, v2, v3 = rodrigues((x.v1, x.v2, x.v3))
        b23, b31, b12 = rodrigues((x.b23, x.b31, x.b12))
        want = Multivector3(x.s, v1, v2, v3, b23, b31, b12, x.p)
        got = rotor(Multivector3(b23=axis[0], b31=axis[1], b12=axis[2]), theta).apply(x)
        assert_close(got, want, 1e-12 * (x.norm() + 1.0))

    @given(st.floats(-50.0, 50.0))
    def test_e12_rotor_pair_is_the_complex_phase(self, theta):
        """exp(e1e2 theta) read as (s, b12) is exp(i theta): e1e2 = i e3."""
        r = rotor(E12, -2.0 * theta)
        assert complex(r.s, r.b12) == cmath.exp(1j * theta)

    def test_sandwich_preserves_grade(self):
        r = rotor(E31, 0.77)
        out = r.apply(vector(1.0, 2.0, 3.0))
        assert abs(out.s) <= 1e-12 and abs(out.p) <= 1e-12
        assert out.grade(2).norm() <= 1e-12

    def test_rejects_non_unit_plane(self):
        with pytest.raises(DomainError):
            rotor(2.0 * E12, 1.0)

    def test_rejects_mixed_grade_plane(self):
        with pytest.raises(DomainError):
            rotor(E12 + E1, 1.0)

    def test_rotor3_rejects_non_unit(self):
        with pytest.raises(DomainError):
            Rotor3(0.5, 0.5, 0.0, 0.0)
