"""Domain-wall combinatorics, frame-potential bounds, and design-depth formulas.

The wall counters live on the idealized uniform-width lattice: a configuration
of `walls` non-intersecting walkers on gate-boundary positions {1..n_g-1},
each stepping +-1 per layer for 2(t-1) layers, returning to its start and
never leaving the interval.  Two independent counters are kept (path
enumeration and a transfer-style DP).

One walker is counted in closed form.  Summed over the starts 1..L-1, the
method-of-images series of the returning walks of 2m steps confined to
(0, L) collapses to L*A - 4^m, with A the sum of C(2m, r) over
r = m (mod L) (:func:`_closed_walks`).  It is the trace of the 2m-th power
of the path's adjacency matrix, sum_{j=1}^{L-1} (2 cos(pi j / L))^(2m).  On
the brickwork (L = n, half the sum, m = t-1) the two top terms j = 1, n-1,
times w^(2(t-1)) with w = q/(q^2+1), give lambda_2^(t-1): lambda_2 =
(2 w cos(pi/n))^2 is the top eigenvalue of one confined wall's walk, measured
as the time transfer matrix's largest eigenvalue below its k! unit ones.

That idealized lattice is not the brickwork's single-wall count.  On the open
brickwork a wall sits on a qudit bond 1..n-1 and moves one bond per layer, so
its walks are confined to that chain: :func:`brickwork_single_wall_count`
counts them.  For n=4 the brickwork has 2^(t-1) single walls, while
``c1_images(4, t) = 0`` (its one gate-boundary position leaves a walker no
room to step).

All closed-form bounds compute in double precision with log-domain steps where
q^(2nk) would overflow; a bound past the largest double is inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import BudgetExceededError

WALK_NG_CAP = 8
WALK_T_CAP = 8
# The confined-walk counts and the unconfined-walk estimates take O(t^2) bit
# operations in Python ints; past this t they are refused before any is made
# (t = 40000 takes about 2 s).
T_CAP = 40_000


@dataclass
class DesignDepthResult:
    """Circuit depth (time-step convention t) from a closed-form design bound."""

    t: float
    n: int
    q: int
    epsilon: float
    constant: float
    k: int | None = None
    caveats: dict = field(default_factory=dict)


def _check_walk_budget(n_g: int, t: int):
    if n_g > WALK_NG_CAP or t > WALK_T_CAP:
        raise BudgetExceededError(
            f"walk enumeration capped at n_g <= {WALK_NG_CAP}, t <= {WALK_T_CAP}"
        )


def _check_t(t: int):
    if t > T_CAP:
        raise BudgetExceededError(f"walk counts at t = {t} are capped at t <= {T_CAP}")


def count_walls_bruteforce(n_g: int, t: int, walls: int) -> int:
    """Exact count of returning non-intersecting walker tuples, by path enumeration.

    Walkers occupy strictly increasing positions in {1..n_g-1} at every one of
    the 2(t-1) steps and return to their starting tuple.  Validated against
    the independent DP in :func:`count_walls_dp`.
    """
    if walls < 1:
        raise ValueError("walls must be >= 1")
    if t < 2:
        raise ValueError("t must be >= 2 (no layers to walk)")
    _check_walk_budget(n_g, t)
    positions = list(range(1, n_g))
    if len(positions) < walls:
        return 0
    steps = 2 * (t - 1)
    total = 0

    import itertools

    for start in itertools.combinations(positions, walls):
        stack = [(0, start)]
        while stack:
            step, pos = stack.pop()
            if step == steps:
                if pos == start:
                    total += 1
                continue
            for moves in itertools.product((-1, 1), repeat=walls):
                new = tuple(p + m for p, m in zip(pos, moves))
                if new[0] < 1 or new[-1] > n_g - 1:
                    continue
                if any(new[i] >= new[i + 1] for i in range(walls - 1)):
                    continue
                stack.append((step + 1, new))
    return total


def count_walls_dp(n_g: int, t: int, walls: int) -> int:
    """Same count via a transfer-style recursion over ordered position tuples."""
    if walls < 1:
        raise ValueError("walls must be >= 1")
    if t < 2:
        raise ValueError("t must be >= 2")
    import itertools

    positions = list(range(1, n_g))
    if len(positions) < walls:
        return 0
    states = list(itertools.combinations(positions, walls))
    index = {s: i for i, s in enumerate(states)}
    moves = list(itertools.product((-1, 1), repeat=walls))
    neighbors: list[list[int]] = []
    for s in states:
        outs = []
        for mv in moves:
            new = tuple(p + m for p, m in zip(s, mv))
            if new[0] < 1 or new[-1] > n_g - 1:
                continue
            if any(new[i] >= new[i + 1] for i in range(walls - 1)):
                continue
            outs.append(index[new])
        neighbors.append(outs)

    steps = 2 * (t - 1)
    total = 0
    for s_i in range(len(states)):
        vec = [0] * len(states)
        vec[s_i] = 1
        for _ in range(steps):
            new_vec = [0] * len(states)
            for i, c in enumerate(vec):
                if c:
                    for j in neighbors[i]:
                        new_vec[j] += c
            vec = new_vec
        total += vec[s_i]
    return total


def _closed_walks(L: int, m: int) -> int:
    """Returning walks of 2m steps confined to (0, L), summed over the starts 1..L-1.

    The image series summed over the starts: L*A - 4^m, with A the sum of
    C(2m, r) over r = m (mod L), taken in one pass over the binomials.
    """
    _check_t(m + 1)
    a, c = 0, 1
    for r in range(2 * m + 1):
        if (r - m) % L == 0:
            a += c
        c = c * (2 * m - r) // (r + 1)
    return L * a - 4**m


def c1_images(n: int, t: int) -> int:
    """Single-domain-wall count of the gate-boundary lattice, summed over starts.

    Counts returning walks of 2(t-1) steps confined to the gate-boundary
    interval (0, n//2), every reflection included, by :func:`_closed_walks`:
    sum_{j=1}^{g-1} (2 cos(pi j/g))^(2(t-1)) with g = n//2.  It reproduces
    count_walls_bruteforce(n_g, t, 1) exactly.
    """
    if n < 4:
        raise ValueError("n must be >= 4 (at least two gates per even layer)")
    if t < 2:
        raise ValueError("t must be >= 2")
    return _closed_walks(n // 2, t - 1)


# ---------------------------------------------------------------------------
# closed-form bounds and design depths
# ---------------------------------------------------------------------------


def fp2_upper_bound(n: int, q: int, t: int) -> float:
    """Second-moment bound 2(1 + (2q/(q^2+1))^(2(t-1)))^(n_g - 1), inf past a double."""
    if n < 2 or q < 2 or t < 1:
        raise ValueError("need n >= 2, q >= 2, t >= 1")
    n_g = n // 2
    x = (2 * q / (q * q + 1)) ** (2 * (t - 1))
    try:
        return 2.0 * (1.0 + x) ** (n_g - 1)
    except OverflowError:
        return math.inf


def brickwork_single_wall_count(n: int, t: int) -> int:
    """Single domain walls of the open brickwork: confined returning walks.

    In each layer a wall sits on a qudit bond 1..n-1 that no gate of the
    layer covers, and the next layer's gates shift it by one bond, so a
    single-wall configuration is a returning walk of 2(t-1) steps confined
    to (0, n).  Walks start on the layer-0 wall bonds 2, 4, ...: the chain
    is bipartite, so these are exactly half of all returning walks,
    N1 = (1/2) sum_{j=1}^{n-1} (2 cos(pi j/n))^(2(t-1)) (:func:`_closed_walks`).
    At n=4 this is 2^(t-1).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if t < 2:
        raise ValueError("t must be >= 2")
    return _closed_walks(n, t - 1) // 2


def single_wall_excess_exact(n: int, q: int, t: int, k: int) -> Fraction:
    """Unconfined-walk single-wall estimate ((n-1)//2) C(k,2) C(2(t-1), t-1) (q/(q^2+1))^(2(t-1)).

    Walls start on the (n-1)//2 layer-0 wall bonds 2, 4, ..., but the
    binomial counts their returning walks as if no boundary confined them, so
    it is not the brickwork's single-wall count (:func:`brickwork_single_wall_count`):
    for even n it agrees at t=2 and overcounts from t=3 on (6 against 4 at
    n=4, t=3); for odd n it overcounts already at t=2 (2 against 1 at n=3).
    It serves the bounds below, not the exact single-wall sector.
    """
    _check_t(t)
    w = Fraction(q, q * q + 1)
    return (
        Fraction((n - 1) // 2 * math.comb(k, 2) * math.comb(2 * (t - 1), t - 1))
        * w ** (2 * (t - 1))
    )


def single_wall_bound_k(n: int, q: int, t: int, k: int) -> float:
    """Unconfined-walk estimate of the single-wall sector of the k-th moment.

    An estimate, not a bound: it leaves out every multi-wall term, which can
    outweigh its overcount (at n=8, t=2, q=64 the exact (F-2)/2 = 1.46472e-3
    exceeds the estimate 1.46413e-3 through the two-wall term).
    """
    if k < 2:
        raise ValueError("single-wall walls exist only for k >= 2")
    return float(single_wall_excess_exact(n, q, t, k))


def fp_k_leading(n: int, q: int, t: int, k: int) -> float:
    """k! (1 + single-wall sector): the leading truncation of the k-th frame potential.

    A truncation, not a bound, unless the single-wall sector dominates the
    multi-wall sectors (the conjecture this package only gathers evidence for).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sector = 0.0 if k == 1 else float(single_wall_excess_exact(n, q, t, k))
    return math.factorial(k) * (1.0 + sector)


def epsilon_from_fp(F: Fraction | float, k: int, n: int, q: int) -> float:
    """Diamond-norm bound epsilon = d^k sqrt(F - k!) with d = q^n, in log domain.

    log(F - k!) is taken from the numerator and denominator of the exact
    excess (a float F converts exactly), so an excess below double
    resolution still counts.
    """
    haar = math.factorial(k)
    if F < haar:
        raise ValueError(f"F = {F} below the Haar floor {haar}")
    if F == haar:
        return 0.0
    excess = Fraction(F) - haar
    log_excess = math.log(excess.numerator) - math.log(excess.denominator)
    log_eps = k * n * math.log(q) + 0.5 * log_excess
    try:
        return math.exp(log_eps)
    except OverflowError:
        return math.inf


def t2_design_depth(n: int, q: int, epsilon: float) -> DesignDepthResult:
    """Depth for an epsilon-approximate 2-design: C(2n log q + log n + log 1/eps)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if n < 2 or q < 2:
        raise ValueError("need n >= 2, q >= 2")
    constant = 1.0 / math.log((q * q + 1) / (2 * q))
    depth = constant * (2 * n * math.log(q) + math.log(n) + math.log(1 / epsilon))
    return DesignDepthResult(t=depth, n=n, q=q, epsilon=epsilon, constant=constant, k=2)


def tk_design_depth_largeq(n: int, q: int, k: int, epsilon: float) -> DesignDepthResult:
    """Large-q k-design depth C(2nk log q + k log k + log(nk^2) + log 1/eps), C = 1/log(q/2)."""
    if not 0 < epsilon < 1:
        raise ValueError("epsilon must lie in (0, 1)")
    if q <= 2:
        raise ValueError("the large-q constant 1/log(q/2) requires q >= 3")
    constant = 1.0 / math.log(q / 2)
    depth = constant * (
        2 * n * k * math.log(q)
        + k * math.log(k)
        + math.log(n * k * k)
        + math.log(1 / epsilon)
    )
    return DesignDepthResult(
        t=depth, n=n, q=q, epsilon=epsilon, constant=constant, k=k
    )


def tk_lower_bound(n: int, q: int, k: int, epsilon: float | None = None) -> DesignDepthResult:
    """Known depth lower bound nk / (5 q^4 log(nk)), with its validity caveats flagged.

    The bound holds for epsilon <= 1/4 and k <= sqrt(d); the result carries
    `caveats` entries when the supplied parameters step outside that regime.
    """
    if n * k < 2:
        raise ValueError("need nk >= 2")
    value = n * k / (5 * q**4 * math.log(n * k))
    caveats = {}
    if epsilon is not None and epsilon > 0.25:
        caveats["epsilon"] = f"bound stated for epsilon <= 1/4, got {epsilon}"
    # k <= d^(1/2) = q^(n/2), in logs to avoid overflow
    if math.log(max(k, 1)) > 0.5 * n * math.log(q):
        caveats["k"] = f"bound stated for k <= q^(n/2), got k={k}"
    return DesignDepthResult(
        t=value,
        n=n,
        q=q,
        epsilon=0.25 if epsilon is None else epsilon,
        constant=1.0 / (5 * q**4),
        k=k,
        caveats=caveats,
    )


def conjecture_evidence(n: int, q: int, t: int, k: int) -> dict:
    """Exact excess over k! next to its single-wall truncation, as data.

    The truncation is k! C(k,2) N1 (q/(q^2+1))^(2(t-1)), with N1 the confined
    brickwork single-wall count of :func:`brickwork_single_wall_count`.
    Emits the ratio (F - k!) / truncation for one instance; no claim is
    asserted here, downstream reports aggregate the tables.
    """
    from .lattice import build_geometry, frame_potential_transfer

    F = frame_potential_transfer(build_geometry(n, q, t, "open"), k).value
    haar = math.factorial(k)
    excess = F - haar
    truncation = (
        haar
        * math.comb(k, 2)
        * brickwork_single_wall_count(n, t)
        * Fraction(q, q * q + 1) ** (2 * (t - 1))
    )
    if truncation:
        ratio = float(Fraction(excess) / truncation)
    else:
        # n=2 has no wall: a zero truncation of a zero excess is exact
        ratio = 1.0 if excess == 0 else math.inf
    return {
        "n": n,
        "q": q,
        "t": t,
        "k": k,
        "frame_potential": str(F),
        "excess": str(excess),
        "single_wall_truncation": str(truncation),
        "ratio": ratio,
    }
