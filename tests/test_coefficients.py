"""Coefficient families, thresholds, prefactors, and pair-weight sums."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from ffgap.coefficients import (
    SQRT6,
    Deformation1D,
    Deformation2D,
    autocorr_1d,
    coeffs_1d,
    coeffs_2d,
    optimal_x,
    prefactor_1d,
    sigma_bruteforce,
    threshold_1d,
    threshold_1d_general,
    threshold_1d_quadratic_form,
    threshold_2d,
    weight_bruteforce,
    weight_table,
)

# threshold table after round-up to 4 decimals
G_TABLE = {4: 0.3246, 5: 0.2361, 6: 0.1833, 7: 0.1484, 8: 0.1238, 9: 0.1056}


def round_up_4(x: float) -> float:
    return math.ceil(x * 10_000 - 1e-9) / 10_000


class TestCoeffs1D:
    def test_quadratic_values(self):
        c = coeffs_1d(4, SQRT6).c
        assert_allclose(c, (8.0, 8.0 + SQRT6, 8.0), rtol=0, atol=1e-14)

    def test_n3_constant_pair(self):
        assert coeffs_1d(3, 1.7).c == (1.0, 1.0)

    def test_symmetry_and_peak(self):
        for n in (5, 8, 13):
            c = coeffs_1d(n, SQRT6).c
            assert_allclose(c, c[::-1], rtol=0, atol=1e-12)
            mid = (len(c) - 1) // 2
            assert c[mid] == max(c)

    @given(st.integers(4, 60), st.floats(0.05, 10.0))
    @settings(max_examples=60, deadline=None)
    def test_positive_and_unimodal(self, n, x):
        c = coeffs_1d(n, x).c
        assert min(c) > 0
        rising = c[: len(c) // 2 + 1]
        assert all(a <= b + 1e-12 for a, b in zip(rising, rising[1:]))

    def test_validation_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            Deformation1D(c=(1.0, 2.0, 3.0))


class TestThreshold1D:
    @pytest.mark.parametrize("n,expected", sorted(G_TABLE.items()))
    def test_table_after_round_up(self, n, expected):
        assert round_up_4(threshold_1d(n)) == expected

    def test_three_routes_agree(self):
        for n in range(4, 40):
            x = optimal_x(n)[0]
            g1 = threshold_1d(n)
            g2 = threshold_1d_general(coeffs_1d(n, x))
            g3 = threshold_1d_quadratic_form(n, x)
            assert_allclose([g2, g3], [g1, g1], rtol=1e-12)

    def test_optimal_x_minimizes_general_route(self):
        for n in (5, 9, 17):
            x = optimal_x(n)[0]
            best = threshold_1d_general(coeffs_1d(n, x))
            for dx in (-0.05, 0.05):
                assert threshold_1d_general(coeffs_1d(n, x + dx)) >= best

    def test_asymptotic_bounds_exact(self):
        for n in range(4, 120):
            exact = threshold_1d(n, "exact")
            asym = threshold_1d(n, "asymptotic")
            assert exact <= asym
            assert exact > 0

    def test_asymptotic_n3(self):
        assert threshold_1d(3, "asymptotic") == 0.5

    def test_scaling_constant(self):
        # n^{3/2} G(n) -> 2 sqrt(6) from below, at rate ~ 1 - sqrt(6)/sqrt(n)
        ratios = [
            threshold_1d(n) / (2.0 * SQRT6 * n ** -1.5)
            for n in (10 ** 3, 10 ** 4, 10 ** 5)
        ]
        assert all(0.0 < r < 1.0 for r in ratios)
        assert ratios == sorted(ratios)
        for n, r in zip((10 ** 3, 10 ** 4, 10 ** 5), ratios):
            assert r == pytest.approx(1.0 - SQRT6 / n ** 0.5, abs=30.0 / n)

    def test_optimal_x_increases_to_sqrt6(self):
        xs = [optimal_x(n)[0] for n in range(4, 200)]
        assert all(a < b for a, b in zip(xs, xs[1:]))
        assert xs[-1] < SQRT6
        assert optimal_x(10 ** 6)[0] == pytest.approx(SQRT6, rel=1e-2)

    def test_threshold_decreases_with_n(self):
        gs = [threshold_1d(n) for n in range(4, 100)]
        assert all(a > b for a, b in zip(gs, gs[1:]))


class TestPrefactor1D:
    def test_n3_exact_value(self):
        f_exact, f_lower = prefactor_1d(3, SQRT6)
        assert f_exact == pytest.approx(2.0, abs=1e-14)
        assert f_lower == 0.0

    def test_lower_bound_holds(self):
        for n in range(4, 80):
            for x in (optimal_x(n)[0], SQRT6, 1.0):
                f_exact, f_lower = prefactor_1d(n, x)
                assert f_exact >= f_lower > 0


class TestAutocorr:
    @given(st.integers(4, 40), st.sampled_from(["optimal", "sqrt6"]))
    @settings(max_examples=40, deadline=None)
    def test_non_increasing(self, n, which):
        x = optimal_x(n)[0] if which == "optimal" else SQRT6
        q = autocorr_1d(coeffs_1d(n, x))
        assert len(q) == n - 1
        assert all(a >= b - 1e-12 * abs(a) for a, b in zip(q, q[1:]))

    def test_first_value_is_norm(self):
        c = coeffs_1d(6, SQRT6)
        q = autocorr_1d(c)
        assert q[0] == pytest.approx(sum(v * v for v in c.c))


class TestWeights2D:
    def test_table_n2(self):
        t = weight_table(2)
        assert t.W_self == pytest.approx(40.0)
        assert t.W_edge == pytest.approx(16.0)
        assert t.W_corner == pytest.approx(16.0)
        assert t.sigma == pytest.approx(10.0 * math.sqrt(2.0))
        assert t.alpha == pytest.approx(1.0 / 16.0)
        assert t.beta == pytest.approx(1.5)

    def test_table_n4(self):
        t = weight_table(4)
        assert t.sigma == pytest.approx(215.0)
        assert t.W_self == pytest.approx(1885.0)
        assert t.W_edge == pytest.approx(1410.0)

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_closed_forms_match_bruteforce(self, n):
        c = coeffs_2d(n)
        t = weight_table(n, c)
        origin = (1, 1)
        side = (3, 1)  # distance-1 side neighbor (edge pair)
        corner = (3, 3)  # diagonal neighbor (corner pair)
        assert_allclose(t.W_self, weight_bruteforce(n, c, origin, origin), rtol=1e-12)
        assert_allclose(t.W_edge, weight_bruteforce(n, c, origin, side), rtol=1e-12)
        assert_allclose(t.W_corner, weight_bruteforce(n, c, origin, corner), rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_sigma_matches_bruteforce(self, n):
        c = coeffs_2d(n)
        assert_allclose(weight_table(n, c).sigma, sigma_bruteforce(n, c), rtol=1e-12)

    def test_edge_equals_corner_exactly(self):
        for n in (2, 4, 6, 8, 10):
            t = weight_table(n)
            assert t.W_edge == t.W_corner


class TestThreshold2D:
    def test_value_n2(self):
        assert threshold_2d(2) == pytest.approx(2.4)

    def test_value_n4(self):
        assert threshold_2d(4) == pytest.approx(1900.0 / 1720.0)

    def test_routes_agree(self):
        for n in range(2, 40, 2):
            direct, tele = threshold_2d(n, with_routes=True)
            assert_allclose(direct, tele, rtol=1e-12)

    def test_scaled_threshold_bounded_and_monotone(self):
        # n^{3/2} G_2d(n) increases monotonically with shrinking increments
        # toward a finite constant (measured ~36 in the large-n limit).
        scaled = [threshold_2d(n) * n ** 1.5 for n in range(4, 260, 2)]
        assert all(b > a for a, b in zip(scaled, scaled[1:]))
        increments = [b - a for a, b in zip(scaled, scaled[1:])]
        assert all(d2 < d1 for d1, d2 in zip(increments, increments[1:]))
        assert scaled[-1] < 36.0

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            threshold_2d(3)


class TestDeformation2D:
    def test_ring_values(self):
        c = coeffs_2d(4)
        assert c.at(1) == pytest.approx(4 ** 1.5 + 4 - 1)
        assert c.at(2) == pytest.approx(4 ** 1.5)

    def test_at_range_checked(self):
        c = coeffs_2d(4)
        with pytest.raises(ValueError):
            c.at(0)
        with pytest.raises(ValueError):
            c.at(3)
