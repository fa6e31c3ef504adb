"""Sorting, merging and routing networks, for any size.

Oblivious sorting (Sections 4.4.1 and 5.2.2) is a fixed sequence of
compare-exchange operations whose positions depend only on the input *size*,
never on the data — which is exactly what makes the sort oblivious.  The
paper uses Batcher's bitonic network [7]; we use Batcher's other
construction, the odd-even **merge-exchange** (Knuth, TAOCP vol. 3 §5.2.2,
Algorithm M).  It sorts any ``n`` with no padding, and for the same
``(1/4) n (log2 n)^2`` order it needs 12-16 % fewer comparators at the sizes
the joins run (1 024 wires: 24 063 instead of 28 160).

Every network here is *standard*: a comparator ``(low, high)`` has
``low < high`` and leaves the smaller key at ``low``.

* :func:`sorting_network` — Algorithm M over ``n`` wires.
* :func:`merging_network` — merges two ascending halves of ``n`` wires (the
  parallel sort's block exchange): Algorithm M's last round, which merges
  the even and the odd chain, with the halves laid out as those chains.
* :func:`distribution_network` / :func:`compaction_network` — move rows
  whose final slots are already known (Algorithm 7's expansion, Algorithm
  8's align): ``log2 m`` passes of conditional swaps at a fixed hop,
  ``O(m log m)`` comparators.

The module also provides the two cost views used throughout the library:

* :func:`comparator_count` / :func:`exact_transfers` — the exact size of the
  generated network (4 tuple transfers per comparator: two gets, two puts).
  The traced executor in :mod:`repro.oblivious.sort` performs exactly this
  many transfers, and tests assert the equality.
* :func:`paper_comparisons` / :func:`paper_transfers` — the paper's
  approximation of ``(1/4) n (log2 n)^2`` comparisons and ``n (log2 n)^2``
  transfers, used when regenerating the paper's tables and figures.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import lru_cache
from itertools import chain, product
from typing import Callable, Iterator, NamedTuple

from repro.errors import ConfigurationError


class Comparator(NamedTuple):
    """Compare-exchange of positions ``low < high``: the smaller key ends up
    at ``low``."""

    low: int
    high: int


def _check_size(n: int) -> None:
    if n < 0:
        raise ConfigurationError("network size must be non-negative")


def _round(n: int, p: int) -> Iterator[Comparator]:
    """Round ``p`` of Algorithm M over ``n`` wires.

    With every chain of wires ``i, i + 2p, i + 4p, ...`` sorted, the round
    leaves every chain ``i, i + p, i + 2p, ...`` sorted.
    """
    q, r, d = 1 << ((n - 1).bit_length() - 1), 0, p
    while True:
        for i in range(n - d):
            if i & p == r:
                yield Comparator(i, i + d)
        if q == p:
            return
        q, r, d = q >> 1, p, q - p


@lru_cache(maxsize=256)
def sorting_network(n: int) -> tuple[Comparator, ...]:
    """Batcher's merge-exchange sorting ``n`` wires ascending: the rounds
    ``p = 2^(t-1), ..., 2, 1`` of Algorithm M, ``t = ceil(log2 n)``."""
    _check_size(n)
    rounds = (n - 1).bit_length() if n > 1 else 0
    return tuple(chain.from_iterable(
        _round(n, 1 << j) for j in range(rounds - 1, -1, -1)))


@lru_cache(maxsize=256)
def merging_network(n: int) -> tuple[Comparator, ...]:
    """Comparators that merge two ascending halves of ``n`` (even) wires.

    Algorithm M's last round merges the even chain with the odd chain, so
    lay the first half out as the even chain and the second as the odd one.
    That comparator sequence is not standard (wire ``half`` precedes wire
    ``1`` in chain order); untangling it (Knuth 5.3.4, exercise 16) swaps
    the two wires in every later comparator whenever one would leave the
    smaller key on the higher wire.  The result is standard and still
    merges, since a standard network leaves sorted input where it is.  For
    ``n = 2^k`` it has ``(k - 1) 2^(k-1) + 1`` comparators.
    """
    _check_size(n)
    if n % 2:
        raise ConfigurationError("a merging network joins two equal halves")
    half = n // 2
    wire = [i // 2 + half * (i % 2) for i in range(n)]  # chain place -> wire
    out = []
    for place in _round(n, 1):
        a, b = wire[place.low], wire[place.high]
        if a > b:
            wire[place.low], wire[place.high] = a, b = b, a
        out.append(Comparator(a, b))
    return tuple(out)


def _steps(m: int) -> list[int]:
    """The hop lengths ``2^j < m`` of a routing network, shortest first."""
    steps = []
    step = 1
    while step < m:
        steps.append(step)
        step <<= 1
    return steps


@lru_cache(maxsize=256)
def distribution_network(m: int) -> tuple[Comparator, ...]:
    """Conditional swaps that spread rows to their destinations (Krastnikov
    et al., arXiv 2003.09481).

    For each hop ``2^j < m``, longest first, and each ``i`` descending,
    slot ``i`` swaps with slot ``i + 2^j`` when it holds a row whose
    destination is at least ``i + 2^j``.  Rows that start as a prefix,
    sorted by distinct destinations below ``m``, end at their destinations
    without ever landing on one another.  ``sum(m - 2^j)`` comparators.
    """
    _check_size(m)
    return tuple(Comparator(i, i + step)
                 for step in reversed(_steps(m))
                 for i in range(m - step - 1, -1, -1))


@lru_cache(maxsize=256)
def compaction_network(n: int) -> tuple[Comparator, ...]:
    """Conditional swaps that pull stamped rows forward to their targets,
    order preserved (Arasu-Kaushik, arXiv 1312.4012).

    For each hop ``2^j < n``, shortest first, and each ``i`` ascending, slot
    ``i + 2^j`` moves into slot ``i`` when it holds a row and bit ``j`` of
    that row's remaining distance (its slot minus its target) is set.  Rows
    stamped ``0, 1, ...`` in slot order reach their targets without ever
    landing on one another.  The same comparator count as the distribution.
    """
    _check_size(n)
    return tuple(Comparator(i, i + step)
                 for step in _steps(n) for i in range(n - step))


@lru_cache(maxsize=256)
def wired_network(
    n: int, build: Callable[[int], tuple[Comparator, ...]] = sorting_network,
) -> tuple[tuple[Comparator, ...], array]:
    """The size-``n`` network made by ``build`` and its wire column.

    ``build`` is one of the network constructors of this module (the sort
    by default).  The column holds ``low, high, low, high`` per comparator —
    the wires its two gets and two puts touch — so mapping it through a slot
    list gives a section's declared indices.  Shared by every caller: read
    it, never write.
    """
    network = build(n)
    return network, array("q", chain.from_iterable(
        (comp.low, comp.high, comp.low, comp.high) for comp in network))


def schedule_stages(
    network: tuple[Comparator, ...],
) -> tuple[tuple[Comparator, ...], ...]:
    """Partition a comparator sequence into wire-disjoint stages (ASAP).

    Each comparator is placed in the earliest stage after every earlier
    comparator it shares a wire with.  Comparators within one stage touch
    disjoint positions, so executing a stage as one vectorized
    compare-exchange is equivalent to executing its comparators in network
    order — the per-wire comparator order (the only order that matters for
    the result) is preserved, and wire-disjoint compare-exchanges commute.
    """
    next_free: dict[int, int] = {}
    stages: list[list[Comparator]] = []
    for comp in network:
        stage = max(next_free.get(comp.low, 0), next_free.get(comp.high, 0))
        if stage == len(stages):
            stages.append([])
        stages[stage].append(comp)
        next_free[comp.low] = stage + 1
        next_free[comp.high] = stage + 1
    return tuple(tuple(stage) for stage in stages)


@lru_cache(maxsize=256)
def network_stages(n: int) -> tuple[tuple[Comparator, ...], ...]:
    """The size-``n`` sorting network scheduled into wire-disjoint stages:
    the synchronization structure of Section 5.3.5.  For ``n = 2^k`` that is
    the classical ``k (k + 1) / 2`` stages."""
    return schedule_stages(sorting_network(n))


def merge_comparator_count(n: int) -> int:
    """Exact number of compare-exchanges in the size-``n`` merging network."""
    return len(merging_network(n))


def comparator_count(n: int) -> int:
    """Exact number of compare-exchanges in the size-``n`` sorting network."""
    return len(sorting_network(n))


def exact_transfers(n: int) -> int:
    """Exact T/H tuple transfers to obliviously sort ``n`` host slots.

    Each comparator brings both elements into the coprocessor and writes both
    back re-encrypted: 2 gets + 2 puts.
    """
    return 4 * comparator_count(n)


def paper_comparisons(n: int) -> float:
    """The paper's approximation: (1/4) n (log2 n)^2 comparisons."""
    if n <= 1:
        return 0.0
    return 0.25 * n * math.log2(n) ** 2


def paper_transfers(n: int) -> float:
    """The paper's approximation: n (log2 n)^2 element transfers."""
    if n <= 1:
        return 0.0
    return n * math.log2(n) ** 2


def _sorts_zero_one(network: tuple[Comparator, ...], wires: list[int]) -> bool:
    """Run ``network`` on many 0-1 inputs at once and check each comes out
    ascending.  Bit ``x`` of ``wires[i]`` is wire ``i`` of input ``x``, so a
    comparator is ``(a & b, a | b)`` and an input is sorted when no wire
    holds a 1 above a 0."""
    for low, high in network:
        a, b = wires[low], wires[high]
        wires[low], wires[high] = a & b, a | b
    return not any(below & ~above for below, above in zip(wires, wires[1:]))


def is_sorting_network(
    n: int, trials: int | None = None,
    network: tuple[Comparator, ...] | None = None,
) -> bool:
    """Verify ``network`` (by default :func:`sorting_network`) sorts ``n``
    wires, by the 0-1 principle.

    Exhaustive over all ``2^n`` boolean inputs when ``trials`` is None (one
    ``2^n``-bit integer per wire: fine to ``n = 24``); otherwise over
    ``trials`` random boolean inputs.
    """
    if network is None:
        network = sorting_network(n)
    if trials is None:
        # Wire i is bit i of the input index: 2^i zeros, 2^i ones, repeated.
        wires = []
        for i in range(n):
            wire, width = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
            while width < 1 << n:
                wire, width = wire | wire << width, 2 * width
            wires.append(wire)
    else:
        rng = random.Random(0xBEEF)
        wires = [rng.getrandbits(trials) for _ in range(n)]
    return _sorts_zero_one(network, wires)


def is_merging_network(
    n: int, network: tuple[Comparator, ...] | None = None,
) -> bool:
    """Verify ``network`` (by default :func:`merging_network`) merges two
    ascending halves of ``n`` wires, on all ``(n/2 + 1)^2`` 0-1 inputs whose
    halves are sorted."""
    if network is None:
        network = merging_network(n)
    half = n // 2
    wires = [0] * n
    for bit, (first, second) in enumerate(product(range(half + 1), repeat=2)):
        # A sorted half of zeros and ones: ``first`` (``second``) zeros first.
        for wire in chain(range(first, half), range(half + second, n)):
            wires[wire] |= 1 << bit
    return _sorts_zero_one(network, wires)
