"""Oblivious-network cost views shared by the cost models.

Two views of the same operation:

* ``exact_sort_transfers(n)`` — the comparator count of the network our
  executor declares (Batcher's merge-exchange,
  :func:`repro.oblivious.networks.sorting_column`), times 4 (two gets + two
  puts per comparator).  Tests assert the traced executor performs exactly
  this many transfers.
* ``paper_sort_transfers(n)`` — the paper's bitonic approximation
  ``n (log2 n)^2``, used when regenerating its tables and figures.

and the same two for a *route*, the distribution or compaction network of
:mod:`repro.oblivious.networks` (one conditional swap per slot pair ``i,
i + 2^j`` for every hop ``2^j < m``):

* ``exact_route_transfers(m)`` — ``4 * sum(m - 2^j for 2^j < m)``;
* ``paper_route_transfers(m)`` — its asymptotic form ``4 m log2 m``.
"""

from __future__ import annotations

import math

from repro.oblivious.networks import exact_transfers, paper_comparisons, paper_transfers


def exact_sort_transfers(n: int) -> int:
    """Exact T/H transfers of one oblivious sort of n elements."""
    return exact_transfers(n)


def paper_sort_transfers(n: int) -> float:
    """The paper's ``n (log2 n)^2`` transfer approximation."""
    return paper_transfers(n)


def paper_sort_comparisons(n: int) -> float:
    """The paper's ``(1/4) n (log2 n)^2`` comparison approximation."""
    return paper_comparisons(n)


def exact_route_transfers(m: int) -> int:
    """Exact T/H transfers of one distribution or compaction network over m
    slots: ``k`` hops ``1, 2, ..., 2^(k-1)`` with ``k = ceil(log2 m)``, so
    ``k*m - (2^k - 1)`` conditional swaps of four transfers each."""
    if m <= 1:
        return 0
    hops = (m - 1).bit_length()
    return 4 * (hops * m - ((1 << hops) - 1))


def paper_route_transfers(m: int) -> float:
    """The asymptotic ``4 m log2 m`` form of a route over m slots."""
    if m <= 1:
        return 0.0
    return 4 * m * math.log2(m)
