"""Segment-size mathematics for Algorithm 6 (Eqs. 5.4 - 5.6).

Let ``x(n)`` be the number of join results among ``n`` iTuples drawn without
replacement from the L iTuples of which S are results.  Then ``x(n)`` is
hypergeometric:

    P[x(n) = k] = C(L-S, n-k) C(S, k) / C(L, n)                    (Eq. 5.4)

A *blemish* occurs when some segment of n random iTuples contains more than M
results; its probability is union-bounded by

    P_M(n) = (L / n) * P[x(n) > M]                                 (Eq. 5.6 text)

The optimal segment size ``n*`` is the largest n whose blemish bound stays
below the privacy parameter epsilon.  (The paper's Eq. 5.6 prints an
``arg min``; minimizing n trivially satisfies the constraint, and the
surrounding discussion — "the larger the segment size n, the higher the
chance a blemish case happens ... a larger n also implies fewer decoys" —
makes clear the intended optimum is the *largest* feasible n.  Documented as
an erratum.)

All probabilities are computed in log space with ``lgamma`` so that epsilon
down to 1e-300 and L in the millions are handled without underflow.
"""

from __future__ import annotations

import math
from functools import lru_cache

from repro.errors import ConfigurationError

_NEG_INF = float("-inf")


def _log_binom(n: int, k: int) -> float:
    """log C(n, k), -inf outside the support."""
    if k < 0 or k > n:
        return _NEG_INF
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def log_hypergeom_pmf(universe: int, successes: int, draws: int, k: int) -> float:
    """log P[x(draws) = k] per Eq. 5.4."""
    _validate(universe, successes, draws)
    return (
        _log_binom(universe - successes, draws - k)
        + _log_binom(successes, k)
        - _log_binom(universe, draws)
    )


def hypergeom_pmf(universe: int, successes: int, draws: int, k: int) -> float:
    """P[x(draws) = k] per Eq. 5.4."""
    log_p = log_hypergeom_pmf(universe, successes, draws, k)
    return math.exp(log_p) if log_p > _NEG_INF else 0.0


def _validate(universe: int, successes: int, draws: int) -> None:
    if universe < 1:
        raise ConfigurationError("L must be at least 1")
    if not 0 <= successes <= universe:
        raise ConfigurationError("S must be in [0, L]")
    if not 0 <= draws <= universe:
        raise ConfigurationError("n must be in [0, L]")


def _log_sum_exp(values: list[float]) -> float:
    finite = [v for v in values if v > _NEG_INF]
    if not finite:
        return _NEG_INF
    peak = max(finite)
    return peak + math.log(sum(math.exp(v - peak) for v in finite))


def log_tail_probability(universe: int, successes: int, draws: int, threshold: int) -> float:
    """log P[x(draws) > threshold]."""
    _validate(universe, successes, draws)
    k_max = min(draws, successes)
    if threshold >= k_max:
        return _NEG_INF
    terms = [
        log_hypergeom_pmf(universe, successes, draws, k)
        for k in range(threshold + 1, k_max + 1)
    ]
    return min(_log_sum_exp(terms), 0.0)


def log_blemish_bound(universe: int, successes: int, memory: int, segment: int) -> float:
    """log P_M(n) = log(L/n) + log P[x(n) > M] — the Eq. 5.6 union bound."""
    if segment < 1:
        raise ConfigurationError("segment size must be at least 1")
    tail = log_tail_probability(universe, successes, segment, memory)
    if tail == _NEG_INF:
        return _NEG_INF
    return math.log(universe / segment) + tail


def blemish_bound(universe: int, successes: int, memory: int, segment: int) -> float:
    """P_M(n) as a float (0.0 when it underflows; compare logs for precision)."""
    log_p = log_blemish_bound(universe, successes, memory, segment)
    return math.exp(min(log_p, 0.0)) if log_p > _NEG_INF else 0.0


@lru_cache(maxsize=256)
def optimal_segment_size(
    universe: int, successes: int, memory: int, epsilon: float
) -> int:
    """``n*``: the largest segment size whose blemish bound is <= epsilon.

    Segments of at most M iTuples can never blemish (a segment cannot contain
    more results than tuples), so the result is always >= min(M, L); when even
    the whole input is safe (e.g. S <= M) the result is L.  Memoised: it is a
    pure function of public parameters, asked for on every Algorithm 6 join.
    """
    _validate(universe, successes, 0)
    if memory < 1:
        raise ConfigurationError("M must be at least 1")
    if not 0.0 <= epsilon <= 1.0:
        raise ConfigurationError("epsilon must be in [0, 1]")
    floor_n = min(memory, universe)
    if successes <= memory:
        return universe
    log_eps = math.log(epsilon) if epsilon > 0.0 else _NEG_INF

    def feasible(n: int) -> bool:
        return log_blemish_bound(universe, successes, memory, n) <= log_eps

    if feasible(universe):
        return universe
    # The bound is monotone nondecreasing in n beyond M (verified empirically
    # and guarded by the final refinement below): binary search the boundary.
    low, high = floor_n, universe  # feasible(low) holds: segments <= M never blemish
    while high - low > 1:
        mid = (low + high) // 2
        if feasible(mid):
            low = mid
        else:
            high = mid
    # Refinement: walk down if the boundary was jagged (non-monotone corner).
    while low > floor_n and not feasible(low):
        low -= 1
    return low


def segment_count(universe: int, segment: int) -> int:
    """Number of segments: ceil(L / n*)."""
    return math.ceil(universe / segment)
