import math
from fractions import Fraction

import pytest

from rqclattice.bounds import (
    T_CAP,
    brickwork_single_wall_count,
    c1_images,
    conjecture_evidence,
    count_walls_bruteforce,
    count_walls_dp,
    epsilon_from_fp,
    fp2_upper_bound,
    fp_k_leading,
    single_wall_bound_k,
    t2_design_depth,
    tk_design_depth_largeq,
    tk_lower_bound,
)
from rqclattice.errors import BudgetExceededError
from rqclattice.lattice import build_geometry, frame_potential_transfer


class TestWallCounting:
    def test_known_small_counts(self):
        assert count_walls_bruteforce(3, 2, 1) == 2
        assert count_walls_bruteforce(2, 5, 1) == 0  # no room for a moving walker
        assert count_walls_bruteforce(4, 3, 2) == 2  # worked out by hand

    def test_two_wall_regressions(self):
        # frozen from dual-counter agreement
        assert count_walls_bruteforce(5, 3, 2) == 20
        assert count_walls_bruteforce(5, 4, 2) == 56
        assert count_walls_bruteforce(6, 3, 2) == 70
        assert count_walls_bruteforce(6, 4, 3) == 132

    def test_enumeration_matches_dp(self):
        for n_g in range(2, 7):
            for t in range(2, 6):
                for walls in (1, 2):
                    assert count_walls_bruteforce(n_g, t, walls) == count_walls_dp(
                        n_g, t, walls
                    )

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            count_walls_bruteforce(9, 2, 1)
        with pytest.raises(BudgetExceededError):
            count_walls_bruteforce(4, 9, 1)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            count_walls_bruteforce(4, 2, 0)
        with pytest.raises(ValueError):
            count_walls_bruteforce(4, 1, 1)


class TestImagesFormula:
    def test_matches_enumeration_on_grid(self):
        for n_g in range(3, 9):
            for t in range(2, 9):
                assert c1_images(2 * n_g, t) == count_walls_bruteforce(n_g, t, 1)

    def test_n2_has_no_interior(self):
        # n_g=2 leaves a single position; a +-1 walker cannot loop there
        for t in range(2, 7):
            assert c1_images(4, t) == 0
        assert c1_images(4, 20000) == 0

    def test_matches_spectral_form(self):
        # the trace of the 2(t-1)-th power of the g-1 position path's adjacency
        for n in range(4, 41):
            g = n // 2
            for t in range(2, 16):
                trace = sum((2 * math.cos(math.pi * j / g)) ** (2 * (t - 1)) for j in range(1, g))
                assert c1_images(n, t) == round(trace), (n, t)


class TestFp2Bound:
    def test_direct_substitution(self):
        assert fp2_upper_bound(4, 2, 3) == pytest.approx(2.8192)

    def test_monotone_to_two(self):
        values = [fp2_upper_bound(8, 2, t) for t in range(2, 50)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] == pytest.approx(2.0, abs=1e-6)

    def test_overflow_is_infinite(self):
        # 1.4096^49999 overflows a double
        assert fp2_upper_bound(100000, 2, 3) == math.inf
        assert fp2_upper_bound(1000, 2, 3) == 2.0 * (1.0 + 0.8**4) ** 499

    def test_dominates_exact(self):
        for n in (4, 6, 8):
            for t in (2, 3, 4):
                exact = float(frame_potential_transfer(build_geometry(n, 2, t, "open"), 2).value)
                assert exact <= fp2_upper_bound(n, 2, t) * (1 + 1e-12)


class TestSingleWallSector:
    def test_direct_substitution(self):
        assert single_wall_bound_k(6, 2, 4, 3) == pytest.approx(0.49152)

    def test_k2_reduces_to_one_wall_term(self):
        # C(2,2) = 1 transposition type
        n, q, t = 8, 2, 3
        expected = (n // 2 - 1) * math.comb(2 * (t - 1), t - 1) * (q / (q**2 + 1)) ** (
            2 * (t - 1)
        )
        assert single_wall_bound_k(n, q, t, 2) == pytest.approx(expected)

    def test_grows_as_k_squared(self):
        base = single_wall_bound_k(6, 2, 3, 2)
        assert single_wall_bound_k(6, 2, 3, 4) == pytest.approx(base * math.comb(4, 2))

    def test_odd_n_counts_every_wall_start(self):
        # (n-1)//2 layer-0 wall bonds: at q=64 the estimate sits above the
        # exact single-wall-dominated excess (F-2)/2 for odd n as well
        for n in (3, 5, 7):
            for t in (2, 3):
                F = frame_potential_transfer(build_geometry(n, 64, t, "open"), 2).value
                assert float((F - 2) / 2) < single_wall_bound_k(n, 64, t, 2), (n, t)
        assert single_wall_bound_k(3, 64, 2, 2) == single_wall_bound_k(4, 64, 2, 2)

    def test_fp_k_leading(self):
        assert fp_k_leading(6, 2, 3, 1) == 1.0
        # t large: sector vanishes, leaving k!
        assert fp_k_leading(6, 2, 60, 3) == pytest.approx(6.0)
        assert fp_k_leading(4, 2, 2, 2) == pytest.approx(2 * (1 + 2 * (2 / 5) ** 2))


class TestEpsilonFromFp:
    def test_haar_floor_gives_zero(self):
        assert epsilon_from_fp(2.0, 2, 4, 2) == 0.0

    def test_direct_substitution(self):
        assert epsilon_from_fp(2.25, 2, 2, 2) == pytest.approx(8.0)

    def test_below_floor_rejected(self):
        with pytest.raises(ValueError):
            epsilon_from_fp(1.5, 2, 4, 2)

    def test_no_overflow_at_large_nk(self):
        assert epsilon_from_fp(121.0, 5, 400, 2) == math.inf

    def test_exact_excess_below_double_resolution(self):
        # F - 2 = 2^-1100 underflows to 0.0 in a float; eps = 2^1200 * 2^-550
        F = 2 + Fraction(1, 2**1100)
        assert epsilon_from_fp(F, 2, 600, 2) == pytest.approx(2.0**650, rel=1e-12)
        assert epsilon_from_fp(Fraction(9, 4), 2, 2, 2) == pytest.approx(8.0)

    def test_monotone_on_exact_series(self):
        eps = []
        for t in range(2, 9):
            F = float(frame_potential_transfer(build_geometry(4, 2, t, "open"), 2).value)
            eps.append(epsilon_from_fp(F, 2, 4, 2))
        assert all(a > b for a, b in zip(eps, eps[1:]))


class TestDesignDepths:
    def test_t2_linear_coefficient_q2(self):
        res = t2_design_depth(10, 2, 0.5)
        coeff = res.constant * 2 * math.log(2)
        assert coeff == pytest.approx(6.213, abs=1e-3)

    def test_t2_epsilon_halving_adds_c_log2(self):
        a = t2_design_depth(10, 2, 0.02)
        b = t2_design_depth(10, 2, 0.01)
        assert b.t - a.t == pytest.approx(a.constant * math.log(2))

    def test_t2_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            t2_design_depth(10, 2, 1.5)

    def test_tk_largeq_direct_substitution(self):
        res = tk_design_depth_largeq(10, 4, 3, 0.01)
        expected = (
            60 * math.log(4) + 3 * math.log(3) + math.log(90) + math.log(100)
        ) / math.log(2)
        assert res.t == pytest.approx(expected)

    def test_tk_largeq_needs_q3(self):
        with pytest.raises(ValueError):
            tk_design_depth_largeq(10, 2, 3, 0.01)

    def test_tk_largeq_linear_in_k_up_to_klogk(self):
        res3 = tk_design_depth_largeq(10, 4, 3, 0.25)
        res6 = tk_design_depth_largeq(10, 4, 6, 0.25)
        # dominant term doubles with k
        assert res6.t / res3.t == pytest.approx(2.0, rel=0.08)

    def test_tk_lower_direct_substitution(self):
        res = tk_lower_bound(100, 2, 10)
        assert res.t == pytest.approx(1000 / (80 * math.log(1000)), rel=1e-12)
        assert res.t == pytest.approx(1.81, abs=0.01)
        assert not res.caveats

    def test_tk_lower_caveats(self):
        res = tk_lower_bound(100, 2, 10, epsilon=0.5)
        assert "epsilon" in res.caveats
        res = tk_lower_bound(4, 2, 10)
        assert "k" in res.caveats

    def test_lower_below_upper_on_grid(self):
        for q in (3, 4, 8):
            for n in range(10, 101, 30):
                for k in range(2, 11, 4):
                    lower = tk_lower_bound(n, q, k, epsilon=0.25).t
                    upper = tk_design_depth_largeq(n, q, k, 0.25).t
                    assert lower <= upper


class TestConjectureEvidence:
    def test_emits_exact_data(self):
        row = conjecture_evidence(4, 2, 2, 2)
        assert row["frame_potential"] == "66/25"
        assert Fraction(row["excess"]) == Fraction(16, 25)
        assert row["ratio"] == pytest.approx(1.0)  # at t=2 the path bound is exact

    def test_k2_ratio_decays_with_t(self):
        # at n=4 the only excess over k! = 2 is the single-wall sector, which
        # the confined count captures exactly; at n=6 the two-wall sector adds
        # a contamination that decays with t
        assert [conjecture_evidence(4, 2, t, 2)["ratio"] for t in (2, 3, 4)] == [1.0] * 3
        ratios = [conjecture_evidence(6, 2, t, 2)["ratio"] for t in (2, 3, 4)]
        expected = [Fraction(28, 25), Fraction(3197, 3125), Fraction(109807, 109375)]
        assert ratios == [float(r) for r in expected]
        assert ratios[0] > ratios[1] > ratios[2] > 1.0

    def test_truncation_is_exact_excess_at_n4_k2(self):
        for q in (2, 3):
            for t in range(2, 6):
                row = conjecture_evidence(4, q, t, 2)
                assert Fraction(row["excess"]) == Fraction(row["single_wall_truncation"])

    def test_n2_has_no_wall_and_ratio_one(self):
        for q in (2, 3):
            for t in (2, 3):
                for k in (2, 3):
                    row = conjecture_evidence(2, q, t, k)
                    assert Fraction(row["excess"]) == 0 == Fraction(row["single_wall_truncation"])
                    assert row["ratio"] == 1.0, (q, t, k)


def _brickwork_wall_walks(n, t):
    """Single-wall configurations by a layer-by-layer DP on the brickwork geometry.

    A wall in a layer sits on a bond (u, u+1) that no gate of the layer
    covers; between layers it moves one bond, and it returns after the
    2(t-1) layers of the time-periodic circuit.
    """
    layers = build_geometry(n, 2, t, "open").layers
    allowed = [
        {b for b in range(1, n) if all(g.qudits != (b, b + 1) for g in layer)}
        for layer in layers
    ]
    total = 0
    for start in allowed[0]:
        counts = {start: 1}
        for ell in range(1, len(layers) + 1):
            nxt = allowed[ell % len(layers)]
            new = {}
            for b, c in counts.items():
                for b2 in (b - 1, b + 1):
                    if b2 in nxt:
                        new[b2] = new.get(b2, 0) + c
            counts = new
        total += counts.get(start, 0)
    return total


class TestBrickworkSingleWallCount:
    def test_matches_layer_dp(self):
        for n in range(4, 11):
            for t in range(2, 7):
                assert brickwork_single_wall_count(n, t) == _brickwork_wall_walks(n, t), (n, t)

    def test_n4_is_power_of_two(self):
        for t in range(2, 10):
            assert brickwork_single_wall_count(4, t) == 2 ** (t - 1)
        assert brickwork_single_wall_count(4, 20000) == 2**19999

    def test_matches_spectral_form(self):
        # half the trace of the 2(t-1)-th power of the n-1 bond chain's adjacency
        for n in range(2, 41):
            for t in range(2, 16):
                trace = sum((2 * math.cos(math.pi * j / n)) ** (2 * (t - 1)) for j in range(1, n))
                assert brickwork_single_wall_count(n, t) == round(trace / 2), (n, t)

    def test_bad_args(self):
        with pytest.raises(ValueError):
            brickwork_single_wall_count(1, 3)
        with pytest.raises(ValueError):
            brickwork_single_wall_count(4, 1)

    def test_t_capped(self):
        # the O(t^2) walk counts refuse t past the cap before counting
        assert T_CAP >= 20000  # what the console-script check runs
        for count in (lambda t: brickwork_single_wall_count(4, t), lambda t: c1_images(4, t),
                      lambda t: single_wall_bound_k(4, 2, t, 2), lambda t: fp_k_leading(4, 2, t, 2)):
            with pytest.raises(BudgetExceededError, match="t <= "):
                count(T_CAP + 1)
