"""Acceptance suite: one test per criterion, printing one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here, not deferred.

Criterion 11's large-q clause checks the program's coefficient against its
exact large-q form 2 log q / log(q/2), whose only departure from the limit 2
is a logarithmic term that tends to 0; the analysis companion follows the
convergence.  Criterion 13's truncation uses the confined brickwork
single-wall count, so the evidence ratios tend to 1 at every t.
"""

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import reduce

import pytest

from rqclattice.bounds import (
    c1_images,
    conjecture_evidence,
    count_walls_bruteforce,
    count_walls_dp,
    epsilon_from_fp,
    fp2_upper_bound,
    t2_design_depth,
    tk_design_depth_largeq,
)
from rqclattice.exact import RationalFunction, int_mul
from rqclattice.lattice import (
    build_geometry,
    frame_potential_direct,
    frame_potential_special,
    frame_potential_transfer,
)
from rqclattice.montecarlo import estimate_frame_potential
from rqclattice.perms import Perm, cycle_type, group_table
from rqclattice.plaquette import (
    asymptotic_check,
    build_table,
    pole_free_report,
    verify_rules,
)
from rqclattice.weingarten import wg_gram, wg_symbolic

MC_SEED = 20240613


@contextmanager
def criterion(num: int, name: str):
    try:
        yield
    except Exception:
        print(f"\nACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {num:02d} {name}: PASS")


def P(*coeffs):
    return list(coeffs)


def PP(*factors):
    """The product of integer polynomials, each given by its coefficients, lowest first."""
    return reduce(int_mul, factors)


# golden reference weights, in their published factored forms
SINGLE_WALL = RationalFunction(P(0, 1), P(1, 0, 1))
K3_DEN = PP((2, 0, 1), (1, 0, 1), (-2, 0, 1))
K3_WEIGHTS = {
    "two_through": RationalFunction(P(0, 0, -1, 0, 1), K3_DEN),
    "two_same_side": RationalFunction(P(-2, 0, -2, 0, 1), K3_DEN),
    "annihilation": RationalFunction(P(2, 0, -2), K3_DEN),
    "single": SINGLE_WALL,
}
K4_WEIGHTS = {
    "three_out_split": RationalFunction(
        PP((-1, 0, 1), (2, 0, 2, 0, 1)),
        PP((3, 0, 1), (2, 0, 1), (1, 0, 1), (-2, 0, 1), (0, 1)),
    ),
    "four_in_disjoint": RationalFunction(
        P(-1, 0, 1), PP((3, 0, 1), (1, 0, 1), (-3, 0, 1))
    ),
    "three_in_one_side": RationalFunction(
        P(-1, 0, -4, 0, 1), PP((3, 0, 1), (1, 0, 1), (-2, 0, 1), (0, 1))
    ),
    "five_in_annihilating": RationalFunction(
        PP((-1,), (1, 0, 2), (-1, 0, 1)),
        PP((3, 0, 1), (2, 0, 1), (1, 0, 1), (-2, 0, 1), (0, 1)),
    ),
}


def test_criterion_01_golden_plaquette_tables():
    """All reference k=2/3/4 weights reproduced as exact rational-function identities."""
    with criterion(1, "golden plaquette tables"):
        i2, s2 = Perm.identity(2), Perm.from_cycles(2, (1, 2))
        one, zero = RationalFunction.constant(1), RationalFunction.constant(0)
        t2 = build_table(2)
        assert t2.weight(i2, i2, i2) == one
        assert t2.weight(s2, s2, s2) == one
        assert t2.weight(i2, s2, s2) == zero
        assert t2.weight(s2, i2, i2) == zero
        assert t2.weight(i2, i2, s2) == SINGLE_WALL == t2.weight(i2, s2, i2)
        assert t2.weight(s2, s2, i2) == SINGLE_WALL == t2.weight(s2, i2, s2)

        id3 = Perm.identity(3)
        t3 = build_table(3)
        assert t3.weight(id3, Perm.from_cycles(3, (1, 2)), id3) == K3_WEIGHTS["single"]
        assert (
            t3.weight(id3, Perm.from_cycles(3, (1, 2)), Perm.from_cycles(3, (1, 3)))
            == K3_WEIGHTS["two_through"]
        )
        assert t3.weight(id3, Perm.from_cycles(3, (1, 2, 3)), id3) == K3_WEIGHTS["two_same_side"]
        assert (
            t3.weight(id3, Perm.from_cycles(3, (1, 2, 3)), Perm.from_cycles(3, (1, 3, 2)))
            == K3_WEIGHTS["annihilation"]
        )

        t4 = build_table(4)
        found = {name: set() for name in K4_WEIGHTS}
        weights, _ = t4.key_classes()
        for c, w in enumerate(weights):
            sig = t4.class_signature(c)
            for name, target in K4_WEIGHTS.items():
                if w == target:
                    found[name].add((sig.in_left, sig.in_right, sig.across))
        assert found["three_out_split"] == {(2, 1, 3), (1, 2, 3)}
        assert found["four_in_disjoint"] == {(2, 2, 2)}
        assert found["three_in_one_side"] == {(3, 0, 3), (0, 3, 3)}
        assert found["five_in_annihilating"] == {(2, 3, 3), (3, 2, 3)}


def test_criterion_02_weingarten_cross_oracle():
    """Character expansion equals Gram inversion for k <= 5, d in {k, k+1, k+2}."""
    with criterion(2, "weingarten cross-oracle"):
        for k in range(1, 6):
            symbolic = {ct: wg_symbolic(ct, k) for ct in group_table(k).cycle_types}
            for d in (k, k + 1, k + 2):
                gram = wg_gram(k, d)
                for p, val in gram.items():
                    assert symbolic[cycle_type(p)].evaluate(d) == val


def test_criterion_03_plaquette_rule_suite():
    """Structural rules: exhaustive for k <= 4, sampled (10^4 triples) for k = 5."""
    with criterion(3, "plaquette rule suite"):
        for k in (1, 2, 3, 4):
            report = verify_rules(k)
            assert report.ok, report.violations[:5]
        report = verify_rules(5, samples=10_000)
        assert report.ok, report.violations[:5]


def test_criterion_04_pole_freeness():
    """No reduced k <= 5 weight denominator has an integer root q in [2, 1000]."""
    with criterion(4, "pole freeness"):
        for k in (1, 2, 3, 4, 5):
            report = pole_free_report(k, 2, 1000)
            assert report.ok, report.violations[:5]


def test_criterion_05_asymptotic_orders():
    """Every nonzero k <= 4 weight decays as q^-(ingoing), equality when no annihilation."""
    with criterion(5, "asymptotic orders"):
        for k in (2, 3, 4):
            report = asymptotic_check(k)
            assert report.ok, report.violations[:5]
            assert report.checked > 0


def _grid():
    for n in (4, 5, 6):
        for t in (2, 3):
            for k in (2, 3):
                for q in (2, 3):
                    for bc in ("open", "periodic"):
                        yield n, t, k, q, bc


def test_criterion_06_evaluator_equivalence():
    """Direct (hexagonal/Gram) == transfer (triangular/symbolic), exact, full grid."""
    with criterion(6, "evaluator equivalence"):
        for n, t, k, q, bc in _grid():
            geom = build_geometry(n, q, t, bc)
            dv = frame_potential_direct(geom, k).value
            tv = frame_potential_transfer(geom, k).value
            assert dv == tv, (n, t, k, q, bc)
            assert dv >= math.factorial(k)


def test_criterion_07_exact_endpoints():
    """F^(1) = 1; F(t=0) = q^(2nk); F(t=1) = (k!)^floor(n/2) for k <= q^2."""
    with criterion(7, "exact endpoints"):
        for n, t, k, q, bc in _grid():
            geom = build_geometry(n, q, t, bc)
            assert frame_potential_direct(geom, 1).value == 1
            assert frame_potential_transfer(geom, 1).value == 1
            assert frame_potential_special(n, q, 0, k) == q ** (2 * n * k)
            if k <= q * q:
                assert frame_potential_special(n, q, 1, k) == math.factorial(k) ** (n // 2)
                g1 = build_geometry(n, q, 1, bc)
                assert frame_potential_transfer(g1, k).value == math.factorial(k) ** (n // 2)


def test_criterion_08_monte_carlo_agreement():
    """MC within 4 standard errors of exact for n=4, q=2, t in {2,3,4}, k=2 at 1e5 samples."""
    with criterion(8, "Monte Carlo agreement"):
        for t in (2, 3, 4):
            est = estimate_frame_potential(4, 2, t, 2, samples=100_000, seed=MC_SEED)
            exact = float(frame_potential_transfer(build_geometry(4, 2, t, "open"), 2).value)
            dev = abs(est.mean - exact) / est.std_error
            print(f"  t={t}: MC {est.mean:.5f} +/- {est.std_error:.5f}, exact {exact:.5f}, {dev:.2f} sigma")
            assert dev < 4.0
        est = estimate_frame_potential(4, 2, 3, 1, samples=20_000, seed=MC_SEED)
        assert abs(est.mean - 1.0) < 4 * est.std_error


def test_criterion_09_bound_domination():
    """Exact F^(2) <= closed-form bound on n in 4..12, t in 2..8, q in {2,3}."""
    with criterion(9, "bound domination"):
        for q in (2, 3):
            for n in range(4, 13):
                for t in range(2, 9):
                    geom = build_geometry(n, q, t, "open")
                    value = frame_potential_transfer(geom, 2, backend="float").value
                    bound = fp2_upper_bound(n, q, t)
                    assert (bound - value) / value >= -1e-9, (n, q, t, value, bound)


def test_criterion_10_wall_count_calibration():
    """Images formula equals enumeration on the whole grid; multi-wall regressions stable."""
    with criterion(10, "wall-count calibration"):
        for n_g in range(3, 9):
            for t in range(2, 9):
                brute = count_walls_bruteforce(n_g, t, 1)
                assert c1_images(2 * n_g, t) == brute
                assert count_walls_dp(n_g, t, 1) == brute
        # 2-wall regression values (enumeration oracle, cross-checked by DP)
        for args, expected in (((4, 3, 2), 2), ((5, 3, 2), 20), ((5, 4, 2), 56), ((6, 3, 2), 70)):
            assert count_walls_bruteforce(*args) == expected
            assert count_walls_dp(*args) == expected


def test_criterion_11_design_depth_constants():
    """t2 linear coefficient 6.213 +/- 0.001 at q=2; q->inf coefficient tends to 2.

    The coefficient 2 log q / log((q^2+1)/(2q)) converges only
    logarithmically: c(q)/2 - 1 = log 2 / log(q/2) + O(q^-2), 5.3% at q=1e6,
    and 1% only at q = 2^101 ~ 2.5e30.  So at q=1e6 the program's coefficient
    is checked against 2 log q / log(q/2), whose only departure from 2 is that
    vanishing logarithmic term, and against the large-q k-design constant at
    k=2.  See the analysis companion below.
    """
    with criterion(11, "design-depth constants"):
        res = t2_design_depth(10, 2, 0.5)
        coeff_q2 = res.constant * 2 * math.log(2)
        assert abs(coeff_q2 - 6.213) <= 0.001
        q = 10**6
        res = t2_design_depth(10, q, 0.5)
        coeff_largeq = 2 * math.log(q) * res.constant
        limit_form = 2 * math.log(q) / math.log(q / 2)
        print(
            f"  q=1e6 coefficient: {coeff_largeq:.6f} "
            f"(2 log q / log(q/2) = {limit_form:.6f}, log-term {math.log(2) / math.log(q / 2):.4f})"
        )
        assert abs(coeff_largeq - limit_form) / limit_form <= 1e-9
        largeq = tk_design_depth_largeq(10, q, 2, 0.5)
        assert abs(res.constant - largeq.constant) / largeq.constant <= 1e-9


def test_criterion_11_analysis_largeq_convergence():
    """The coefficient decreases monotonically toward 2, logarithmically slowly.

    The relative deviation c/2 - 1 falls to 1% at q = 2^101 ~ 2.5e30; the
    absolute deviation c - 2 falls to 0.01 only at q = 2^201 ~ 3.2e60.
    """

    def coefficient(q):
        return 2 * math.log(q) * t2_design_depth(10, q, 0.5).constant

    coeffs = [coefficient(10**exp) for exp in (2, 6, 10, 20, 40, 60)]
    print("  coefficient over q=1e2..1e60:", [round(c, 4) for c in coeffs])
    assert all(a > b for a, b in zip(coeffs, coeffs[1:]))
    assert all(c > 2 for c in coeffs)
    assert coeffs[-1] - 2 < 0.011  # c - 2 reaches 0.01 only around q ~ 3e60
    assert coefficient(10**30) / 2 - 1 > 0.01 > coefficient(10**31) / 2 - 1


def test_criterion_12_convergence_behavior():
    """Exact F(t) decreases toward 2; the epsilon bound crosses 1 no later than
    the t2 formula depth (+/- 2 layers).

    Eq-level note: the design-depth formula is a sufficient depth derived from
    the path-count bound, so consistency is one-sided; the exact crossing
    (t* = 12) comes well before the formula value (31.1) because the true
    confined-wall entropy is 2 per period versus the bound's 2^(2(t-1)).
    """
    with criterion(12, "convergence behavior"):
        n, q, k = 4, 2, 2
        values = {}
        for t in range(2, 15):
            geom = build_geometry(n, q, t, "open")
            values[t] = frame_potential_transfer(geom, k).value
        assert all(values[t] > values[t + 1] for t in range(2, 14))
        assert values[14] - 2 < Fraction(1, 10**6)

        eps = {t: epsilon_from_fp(float(F), k, n, q) for t, F in values.items()}
        assert all(eps[t] > eps[t + 1] for t in range(2, 14))
        t_star = min(t for t, e in eps.items() if e < 1.0)
        constant = t2_design_depth(n, q, 0.5).constant
        formula_t = constant * (2 * n * math.log(q) + math.log(n))  # log(1/eps) = 0 at eps = 1
        print(f"  crossing t* = {t_star} (eps = {eps[t_star]:.3f}); formula depth {formula_t:.1f}")
        assert t_star <= formula_t + 2


def test_criterion_13_conjecture_evidence():
    """Evidence tables for k=3, n=4, q in {2,4,8,16}, t in {2,3}; large-q ratios
    closer to 1 than small-q ratios at each t.

    The truncation counts the confined brickwork single walls (2^(t-1) at
    n=4), so the ratio tends to 1 as the multi-wall sectors die off with q.
    """
    with criterion(13, "conjecture evidence"):
        tables = {}
        for t in (2, 3):
            rows = [conjecture_evidence(4, q, t, 3) for q in (2, 4, 8, 16)]
            for row in rows:
                assert set(row) >= {"frame_potential", "excess", "single_wall_truncation", "ratio"}
                assert Fraction(row["excess"]) > 0
            tables[t] = [row["ratio"] for row in rows]
            print(f"  t={t} ratios over q=2,4,8,16: {[round(r, 5) for r in tables[t]]}")
        for t in (2, 3):
            deviations = [abs(r - 1.0) for r in tables[t]]
            assert all(a >= b for a, b in zip(deviations, deviations[1:])), (
                f"t={t}: ratios move away from 1 with q "
                f"({[round(r, 4) for r in tables[t]]})"
            )


def test_criterion_13_analysis_single_wall_dominance():
    """Conjecture-relevant monotonicity: the multi-wall contamination of the
    ratio shrinks monotonically with q at each t.

    The truncation counts exactly the pure single-wall configurations, so the
    exact ratio converges to L_t = 1 at every t.  |ratio - L_t| -> 0
    monotonically in q.
    """
    for t in (2, 3):
        limit = 1.0
        ratios = [conjecture_evidence(4, q, t, 3)["ratio"] for q in (2, 4, 8, 16)]
        deviations = [abs(r - limit) for r in ratios]
        print(f"  t={t}: |ratio - {limit:.4f}| = {[f'{d:.2e}' for d in deviations]}")
        assert all(a > b for a, b in zip(deviations, deviations[1:]))
        assert deviations[-1] < deviations[0] / 10
