"""Bitonic sorting networks, and the two routing networks, for any size.

Oblivious sorting (Sections 4.4.1 and 5.2.2) is performed with Batcher's
bitonic network [7]: a fixed sequence of compare-exchange operations whose
positions depend only on the input *size*, never on the data — which is
exactly what makes the sort oblivious.  We use the standard arbitrary-n
variant (merge compares ``i`` with ``i + m`` where ``m`` is the greatest power
of two below ``n``), so buffers need not be padded to powers of two.

Two cheaper networks move rows whose final slots are already known: the
distribution network (Algorithm 7's expansion) and the compaction network
(Algorithm 8's align).  Each is ``log2 m`` passes of conditional swaps at a
fixed hop, ``O(m log m)`` comparators, positions again a function of the
size alone.

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
from array import array
from functools import lru_cache
from itertools import chain
from typing import Callable, Iterator, NamedTuple

from repro.errors import ConfigurationError


class Comparator(NamedTuple):
    """Compare-exchange of positions ``low`` and ``high`` (low < high).

    ``ascending`` tells the executor which way to order the pair: when True,
    the smaller key ends up at ``low``.
    """

    low: int
    high: int
    ascending: bool


def _greatest_power_of_two_below(n: int) -> int:
    k = 1
    while k << 1 < n:
        k <<= 1
    return k


def _merge(lo: int, n: int, ascending: bool, out: list[Comparator]) -> None:
    if n <= 1:
        return
    m = _greatest_power_of_two_below(n)
    for i in range(lo, lo + n - m):
        out.append(Comparator(i, i + m, ascending))
    _merge(lo, m, ascending, out)
    _merge(lo + m, n - m, ascending, out)


def _sort(lo: int, n: int, ascending: bool, out: list[Comparator]) -> None:
    if n <= 1:
        return
    m = n // 2
    _sort(lo, m, not ascending, out)
    _sort(lo + m, n - m, ascending, out)
    _merge(lo, n, ascending, out)


@lru_cache(maxsize=256)
def bitonic_network(n: int) -> tuple[Comparator, ...]:
    """The full comparator sequence sorting ``n`` elements ascending."""
    if n < 0:
        raise ConfigurationError("network size must be non-negative")
    out: list[Comparator] = []
    _sort(0, n, True, out)
    return tuple(out)


def comparators(n: int) -> Iterator[Comparator]:
    """Iterate the comparator sequence for size ``n``."""
    return iter(bitonic_network(n))


@lru_cache(maxsize=256)
def bitonic_merge_network(n: int) -> tuple[Comparator, ...]:
    """Comparators that sort any *bitonic* sequence of length ``n`` ascending.

    The half-cost primitive behind the parallel sort's block exchanges: two
    sorted runs laid head-to-tail (one reversed) form a bitonic sequence,
    which this network sorts in ~(n/2) log2 n comparators instead of the full
    sorting network's ~(n/4) (log2 n)^2.
    """
    if n < 0:
        raise ConfigurationError("network size must be non-negative")
    out: list[Comparator] = []
    _merge(0, n, True, out)
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
    if m < 0:
        raise ConfigurationError("network size must be non-negative")
    return tuple(Comparator(i, i + step, True)
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
    if n < 0:
        raise ConfigurationError("network size must be non-negative")
    return tuple(Comparator(i, i + step, True)
                 for step in _steps(n) for i in range(n - step))


@lru_cache(maxsize=256)
def wired_network(
    n: int, build: Callable[[int], tuple[Comparator, ...]] = bitonic_network,
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
def bitonic_stages(n: int) -> tuple[tuple[Comparator, ...], ...]:
    """The size-``n`` sorting network scheduled into wire-disjoint stages."""
    return schedule_stages(bitonic_network(n))


def merge_comparator_count(n: int) -> int:
    """Exact number of compare-exchanges in the size-``n`` merge network."""
    return len(bitonic_merge_network(n))


def comparator_count(n: int) -> int:
    """Exact number of compare-exchanges in the size-``n`` network."""
    return len(bitonic_network(n))


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


def is_sorting_network(n: int, trials: int | None = None) -> bool:
    """Verify the network sorts via the 0-1 principle.

    Exhaustive over all 2^n boolean inputs when ``trials`` is None (use only
    for small n); otherwise samples ``trials`` random boolean inputs.
    """
    import random

    network = bitonic_network(n)

    def run(bits: list[int]) -> bool:
        values = list(bits)
        for comp in network:
            a, b = values[comp.low], values[comp.high]
            if (a > b) == comp.ascending:
                values[comp.low], values[comp.high] = b, a
        return values == sorted(values)

    if trials is None:
        return all(run([(mask >> i) & 1 for i in range(n)]) for mask in range(1 << n))
    rng = random.Random(0xBEEF)
    return all(run([rng.randint(0, 1) for _ in range(n)]) for _ in range(trials))
