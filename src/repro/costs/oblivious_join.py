"""Closed-form costs of the oblivious sort-merge joins (algorithms 7/8).

Each join has one cost body, written over its networks; the two views differ
only in how a network is charged.  ``exact_*`` mirrors the executors
transfer for transfer — real sorting-network sizes, the real distribution and
compaction networks (``4 * sum(m - 2^j for 2^j < m)``), every linear pass one
get plus one put per slot — and is what the model-vs-trace tests assert.
``paper_*`` is the same body with every network swapped for its asymptotic
form: ``n (log2 n)^2`` for a sort, ``4 m log2 m`` for a route (Krastnikov et
al. arXiv 2003.09481; Arasu-Kaushik arXiv 1312.4012).  So ``paper - exact``
is exactly the sum of those swaps, and the two views cannot drift.

Algorithm 7 sorts the union twice and routes each table's matched tuples to
their output positions with one distribution network over the ``S`` output
slots; only the right table pays a third sort, its stride alignment over
``S``.  Algorithm 8 sorts the union once and compacts the stamped rows with
one compaction network over ``n``.

The point of the models is the asymptotic crossover: the Chapter 5
algorithms charge ``Theta(n1 * n2)`` for the cartesian scan, while the
sort-merge join charges ``O(n log^2 n + S log^2 S)`` with ``n = n1 + n2``
— the reason Algorithm 7 overtakes Algorithm 4 as the tables grow
(``benchmarks/bench_oblivious_join.py``).
"""

from __future__ import annotations

from typing import Callable

from repro.costs.bitonic import (
    exact_route_transfers,
    exact_sort_transfers,
    paper_route_transfers,
    paper_sort_transfers,
)
from repro.costs.chapter4 import CostBreakdown
from repro.errors import ConfigurationError

#: Transfers of one network over a given number of slots.
NetworkCost = Callable[[int], float]


def _check(n1: int, n2: int, results: int, result_cap: int) -> None:
    if n1 < 1 or n2 < 1:
        raise ConfigurationError("relation sizes must be positive")
    if not 0 <= results <= result_cap:
        raise ConfigurationError(
            f"S must be in [0, {result_cap}] (got {results})"
        )


# --------------------------------------------------------------------------
# Algorithm 7 — oblivious sort-merge equi-join
# --------------------------------------------------------------------------
def _algorithm7(n1: int, n2: int, results: int,
                sort: NetworkCost, route: NetworkCost) -> CostBreakdown:
    """Per table t: the 2*n_t expansion copy, max(0, S - n_t) null fillers,
    the distribution over S and the 2*S fill pass; the right table adds its
    stride-alignment sort over S."""
    _check(n1, n2, results, n1 * n2)
    n = n1 + n2
    expansion = sum(
        2 * nt + max(0, results - nt) + route(results) + 2 * results
        for nt in (n1, n2)
    ) + sort(results)
    return CostBreakdown.of(
        build=2 * n,
        union_sorts=2 * sort(n),
        count=6 * n,
        expansion=expansion,
        emit=3 * results,
    )


def paper_algorithm7(n1: int, n2: int, results: int) -> CostBreakdown:
    """:func:`exact_algorithm7` with asymptotic network costs."""
    return _algorithm7(n1, n2, results, paper_sort_transfers, paper_route_transfers)


def exact_algorithm7(n1: int, n2: int, results: int) -> CostBreakdown:
    """Exact transfers of the Algorithm 7 executor."""
    return _algorithm7(n1, n2, results, exact_sort_transfers, exact_route_transfers)


# --------------------------------------------------------------------------
# Algorithm 8 — oblivious semi-join / foreign-key fast path
# --------------------------------------------------------------------------
def _algorithm8(n1: int, n2: int, results: int,
                sort: NetworkCost, route: NetworkCost) -> CostBreakdown:
    """One union sort, one merge pass, the compaction over n, the S-row emit."""
    _check(n1, n2, results, n1)
    n = n1 + n2
    return CostBreakdown.of(
        build=2 * n,
        sort=sort(n),
        merge=2 * n,
        align=route(n),
        emit=2 * results,
    )


def paper_algorithm8(n1: int, n2: int, results: int) -> CostBreakdown:
    """:func:`exact_algorithm8` with asymptotic network costs:
    ``4n + n (log2 n)^2 + 4 n log2 n + 2S``."""
    return _algorithm8(n1, n2, results, paper_sort_transfers, paper_route_transfers)


def exact_algorithm8(n1: int, n2: int, results: int) -> CostBreakdown:
    """Exact transfers of the Algorithm 8 executor."""
    return _algorithm8(n1, n2, results, exact_sort_transfers, exact_route_transfers)
