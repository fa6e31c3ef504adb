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
``low < high`` and leaves the smaller key at ``low``.  A network *is* its
wire column, ``low, high, low, high`` per comparator (the wires of its two
gets and two puts), a function of the size alone.  Each ``*_column``
constructor emits it from the network's rounds with range and slice
arithmetic, and :func:`wired_network` caches it: :func:`sorting_column`
(Algorithm M), :func:`merging_column` (two ascending halves, the parallel
sort's block exchange), :func:`distribution_column` /
:func:`compaction_column` (routes for rows whose final slots are known:
Algorithm 7's expansion, Algorithm 8's align).  The ``*_network``
functions are :class:`Comparator` views of them, for checks and tests.

:func:`comparator_count` / :func:`exact_transfers` count the sort pass by
pass, 4 tuple transfers per comparator (two gets, two puts), which the
traced executor in :mod:`repro.oblivious.sort` performs exactly;
:func:`paper_comparisons` / :func:`paper_transfers` are the paper's
``(1/4) n (log2 n)^2`` and ``n (log2 n)^2``, for its tables and figures.
"""

from __future__ import annotations

import math
import random
from array import array
from functools import lru_cache
from itertools import chain, compress, product
from typing import Callable, Iterable, NamedTuple

from repro.errors import ConfigurationError


class Comparator(NamedTuple):
    """Compare-exchange of positions ``low < high``: the smaller key ends up
    at ``low``."""

    low: int
    high: int


def _check_size(n: int) -> None:
    if n < 0:
        raise ConfigurationError("network size must be non-negative")


def _passes(n: int, merge: bool = False) -> list[tuple[int, int, int]]:
    """Algorithm M over ``n`` wires as passes ``(p, r, d)``: a pass of round
    ``p`` compares wire ``i`` with ``i + d`` for every ``i < n - d`` with
    ``i & p == r``, ascending.  The rounds are ``p = 2^(t-1), ..., 2, 1``,
    ``t = ceil(log2 n)`` (only the last with ``merge``); with every chain
    ``i, i + 2p, ...`` sorted, round ``p`` sorts every chain ``i, i + p, ...``.
    """
    _check_size(n)
    if merge and n % 2:
        raise ConfigurationError("a merging network joins two equal halves")
    rounds = (n - 1).bit_length() if n > 1 else 0
    passes = []
    for p in (1,) if merge else (1 << j for j in range(rounds - 1, -1, -1)):
        q, r, d = 1 << max(rounds - 1, 0), 0, p
        while True:
            passes.append((p, r, d))
            if q == p:
                break
            q, r, d = q >> 1, p, q - p
    return passes


def _pass_size(p: int, r: int, limit: int) -> int:
    """How many ``i < limit`` have ``i & p == r``."""
    full, rest = divmod(max(limit, 0), 2 * p)
    return full * p + min(max(rest - r, 0), p)


def _column(lows: Iterable[int], highs: Iterable[int]) -> array:
    """The wire column of the comparators ``zip(lows, highs)``."""
    lows, highs = array("q", lows), array("q", highs)
    column = array("q", bytes(32 * len(lows)))
    column[0::4] = column[2::4] = lows
    column[1::4] = column[3::4] = highs
    return column


def sorting_column(n: int) -> array:
    """Batcher's merge-exchange sorting ``n`` wires ascending: each pass of
    Algorithm M picks its wires ``i & p == r`` by a byte mask."""
    passes = [(d, (bytes(r) + b"\1" * p + bytes(p - r)) * (n // (2 * p) + 1))
              for p, r, d in _passes(n)]
    return _column(
        chain.from_iterable(compress(range(n - d), mask) for d, mask in passes),
        chain.from_iterable(compress(range(d, n), mask) for d, mask in passes))


def merging_column(n: int) -> array:
    """Comparators that merge two ascending halves of ``n`` (even) wires.

    Algorithm M's last round merges the even chain with the odd chain, so
    lay the first half out as the even chain and the second as the odd one.
    That comparator sequence is not standard (wire ``half`` precedes wire
    ``1`` in chain order); untangling it (Knuth 5.3.4, exercise 16) swaps
    the two wires in every later comparator whenever one would leave the
    smaller key on the higher wire.  The result is standard and still
    merges, since a standard network leaves sorted input where it is.  For
    ``n = 2^k`` it has ``(k - 1) 2^(k-1) + 1`` comparators.  A pass pairs
    places of opposite parity, so it untangles as two slices: min and max.
    """
    half = n // 2
    wire = [place // 2 + half * (place % 2) for place in range(n)]  # place -> wire
    lows, highs = array("q"), array("q")
    for _, r, d in _passes(n, merge=True):
        first, second = wire[r:n - d:2], wire[r + d::2]
        wire[r:n - d:2] = low = list(map(min, first, second))
        wire[r + d::2] = high = list(map(max, first, second))
        lows.extend(low)
        highs.extend(high)
    return _column(lows, highs)


def _steps(m: int) -> list[int]:
    """The hop lengths ``2^j < m`` of a routing network, shortest first."""
    _check_size(m)
    return [1 << j for j in range(max(m - 1, 0).bit_length())]


def distribution_column(m: int) -> array:
    """Conditional swaps that spread rows to their destinations (Krastnikov
    et al., arXiv 2003.09481).

    For each hop ``2^j < m``, longest first, and each ``i`` descending,
    slot ``i`` swaps with slot ``i + 2^j`` when it holds a row whose
    destination is at least ``i + 2^j``.  Rows that start as a prefix,
    sorted by distinct destinations below ``m``, end at their destinations
    without ever landing on one another.  ``sum(m - 2^j)`` comparators.
    """
    steps = _steps(m)[::-1]
    return _column(
        chain.from_iterable(range(m - step - 1, -1, -1) for step in steps),
        chain.from_iterable(range(m - 1, step - 1, -1) for step in steps))


def compaction_column(n: int) -> array:
    """Conditional swaps that pull stamped rows forward to their targets,
    order preserved (Arasu-Kaushik, arXiv 1312.4012).

    For each hop ``2^j < n``, shortest first, and each ``i`` ascending, slot
    ``i + 2^j`` moves into slot ``i`` when it holds a row and bit ``j`` of
    that row's remaining distance (its slot minus its target) is set.  Rows
    stamped ``0, 1, ...`` in slot order reach their targets without ever
    landing on one another.  The same comparator count as the distribution.
    """
    steps = _steps(n)
    return _column(chain.from_iterable(range(n - step) for step in steps),
                   chain.from_iterable(range(step, n) for step in steps))


@lru_cache(maxsize=256)
def wired_network(n: int, build: Callable[[int], array] = sorting_column) -> array:
    """The wire column of the size-``n`` network made by ``build``, one of
    this module's ``*_column`` constructors (the sort by default).

    It holds ``low, high, low, high`` per comparator — the wires its two
    gets and two puts touch — so mapping it through a slot list gives a
    section's declared indices.  Shared by every caller: read it, never
    write.
    """
    return build(n)


def _view(n: int, build: Callable[[int], array]) -> tuple[Comparator, ...]:
    column = wired_network(n, build)
    return tuple(map(Comparator, column[0::4], column[1::4]))


def sorting_network(n: int) -> tuple[Comparator, ...]:
    return _view(n, sorting_column)


def merging_network(n: int) -> tuple[Comparator, ...]:
    return _view(n, merging_column)


def distribution_network(m: int) -> tuple[Comparator, ...]:
    return _view(m, distribution_column)


def compaction_network(n: int) -> tuple[Comparator, ...]:
    return _view(n, compaction_column)


@lru_cache(maxsize=256)
def network_stages(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The size-``n`` sort's ``(low, high)`` pairs in wire-disjoint stages:
    the synchronization structure of Section 5.3.5 (``k (k + 1) / 2`` stages
    for ``n = 2^k``).  Each comparator goes in the earliest stage after every
    earlier one it shares a wire with, so a stage's comparators commute and
    the per-wire order (the only order that matters for the result) holds.
    """
    column = wired_network(n, sorting_column)
    next_free: dict[int, int] = {}
    stages: list[list[tuple[int, int]]] = []
    for low, high in zip(column[0::4], column[1::4]):
        stage = max(next_free.get(low, 0), next_free.get(high, 0))
        if stage == len(stages):
            stages.append([])
        stages[stage].append((low, high))
        next_free[low] = next_free[high] = stage + 1
    return tuple(map(tuple, stages))


def merge_comparator_count(n: int) -> int:
    """Exact number of compare-exchanges in the size-``n`` merging network."""
    return sum(_pass_size(p, r, n - d) for p, r, d in _passes(n, merge=True))


def comparator_count(n: int) -> int:
    """Exact number of compare-exchanges in the size-``n`` sorting network."""
    return sum(_pass_size(p, r, n - d) for p, r, d in _passes(n))


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
