"""Closed-form costs of the Chapter 4 algorithms (Sections 4.4 - 4.6).

Every function returns tuple-transfer counts between the secure coprocessor
and the host.  ``paper_*`` functions are the formulas printed in the paper;
``exact_*`` functions mirror the executors in :mod:`repro.core` exactly
(ceilings kept, real sorting-network sizes) and are what the
model-vs-execution tests assert against.

The ``normalized_*`` family restates the costs under |A| = |B| in terms of
``alpha = N/|B|`` and ``gamma = ceil(N/M)`` — the Section 4.6 parametrization
behind Figure 4.1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.costs.bitonic import exact_sort_transfers, paper_sort_transfers
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CostBreakdown:
    """A cost total with its named components (for reports and tests)."""

    total: float
    terms: dict[str, float]

    @classmethod
    def of(cls, **terms: float) -> "CostBreakdown":
        return cls(total=sum(terms.values()), terms=dict(terms))


def _check(a: int, b: int, n: int) -> None:
    if a < 1 or b < 1:
        raise ConfigurationError("relation sizes must be positive")
    if not 1 <= n <= b:
        raise ConfigurationError("N must be in [1, |B|]")


# --------------------------------------------------------------------------
# Algorithm 1 (Section 4.4.1)
# --------------------------------------------------------------------------
def paper_algorithm1(a: int, b: int, n: int) -> CostBreakdown:
    """``|A| + 2N|A| + 2|A||B| + 2|A||B|(log2 2N)^2``."""
    _check(a, b, n)
    return CostBreakdown.of(
        read_a=a,
        decoy_init=2 * n * a,
        compare_io=2 * a * b,
        sorting=2 * a * b * math.log2(2 * n) ** 2,
    )


def exact_algorithm1(a: int, b: int, n: int) -> CostBreakdown:
    """Exact transfers of the Algorithm 1 executor."""
    _check(a, b, n)
    sorts_per_a = math.ceil(b / n)
    return CostBreakdown.of(
        read_a=a,
        decoy_init=2 * n * a,
        compare_io=2 * a * b,
        sorting=a * sorts_per_a * exact_sort_transfers(2 * n),
    )


# --------------------------------------------------------------------------
# Algorithm 1 variant (Section 4.4.2)
# --------------------------------------------------------------------------
def paper_algorithm1_variant(a: int, b: int, n: int) -> CostBreakdown:
    """``|A| + 2|A||B| + |A||B|(log2 |B|)^2``."""
    _check(a, b, n)
    return CostBreakdown.of(
        read_a=a,
        compare_io=2 * a * b,
        sorting=a * paper_sort_transfers(b),
    )


def exact_algorithm1_variant(a: int, b: int, n: int) -> CostBreakdown:
    _check(a, b, n)
    return CostBreakdown.of(
        read_a=a,
        compare_io=2 * a * b,
        sorting=a * exact_sort_transfers(b),
    )


# --------------------------------------------------------------------------
# Algorithm 2 (Section 4.4.3)
# --------------------------------------------------------------------------
def gamma_of(n: int, memory: int, delta: int = 0) -> int:
    usable = memory - delta
    if usable < 1:
        raise ConfigurationError("memory leaves no room for results")
    return max(1, math.ceil(n / usable))


def paper_algorithm2(a: int, b: int, n: int, memory: int, delta: int = 0) -> CostBreakdown:
    """``|A| + N|A| + gamma |A||B|``."""
    _check(a, b, n)
    gamma = gamma_of(n, memory, delta)
    return CostBreakdown.of(read_a=a, output=n * a, scans=gamma * a * b)


def exact_algorithm2(a: int, b: int, n: int, memory: int, delta: int = 0) -> CostBreakdown:
    """Exact transfers: the per-pass output is blk = ceil(N/gamma) tuples."""
    _check(a, b, n)
    gamma = gamma_of(n, memory, delta)
    blk = math.ceil(n / gamma)
    return CostBreakdown.of(read_a=a, output=gamma * blk * a, scans=gamma * a * b)


@dataclass(frozen=True)
class MemoryPartition:
    """Section 4.4.3's optimal split of T's free memory for Algorithm 2.

    ``F = M + 1 - delta`` slots are divided among A tuples (``f_a``), B
    tuples (``f_b``), and joined tuples (``f_j``); ``gamma`` is the resulting
    number of scans of B per (block of) A tuples.
    """

    f_a: int
    f_b: int
    f_j: int
    gamma: int
    case: str  # "N > F" or "N <= F"

    @property
    def total(self) -> int:
        return self.f_a + self.f_b + self.f_j


def optimal_memory_partition(n: int, memory: int, delta: int = 0) -> MemoryPartition:
    """The Section 4.4.3 "Parameter Selection" analysis.

    Case 1 (N > F): blocking A does not help, so one A tuple is held and F is
    split between B tuples and the per-pass output block
    ``blk = ceil(N/gamma)``.  Case 2 (N <= F): hold ``Q`` A tuples and all
    their matches, with Q the largest integer satisfying ``Q(1+N) <= F`` —
    then B is scanned at most once per Q-block of A.
    """
    if n < 1:
        raise ConfigurationError("N must be positive")
    free = memory + 1 - delta
    if free < 2:
        raise ConfigurationError("free memory must hold at least two tuples")
    q = free // (1 + n)
    if q < 1:
        # Case 1 — not even one A tuple plus its N matches fits: keep a
        # single A tuple and split the rest between B streaming and the
        # per-pass output block.
        gamma = gamma_of(n, memory, delta)
        blk = math.ceil(n / gamma)
        f_b = max(0, free - 1 - blk)
        return MemoryPartition(f_a=1, f_b=f_b, f_j=blk, gamma=gamma, case="N > F")
    # Case 2 — hold Q A tuples and all their (up to QN) matches; B is
    # scanned once per Q-block.
    return MemoryPartition(
        f_a=q,
        f_b=free - q * (1 + n),
        f_j=q * n,
        gamma=1,
        case="N <= F",
    )


def blocking_algorithm2(a: int, b: int, n: int, block: int, n_prime: int) -> CostBreakdown:
    """The blocked-A alternative of Section 4.4.3 ("Understanding Blocking of A").

    ``|A| + ceil(|A|/K) ceil(N/N') |B| + N|A|`` — shown by the paper to be
    never better than the non-blocking Algorithm 2 when K N' < M.
    """
    _check(a, b, n)
    if block < 1 or n_prime < 1:
        raise ConfigurationError("block and per-tuple capacity must be positive")
    return CostBreakdown.of(
        read_a=a,
        scans=math.ceil(a / block) * math.ceil(n / n_prime) * b,
        output=n * a,
    )


# --------------------------------------------------------------------------
# Algorithm 3 (Section 4.5.2)
# --------------------------------------------------------------------------
def paper_algorithm3(a: int, b: int, n: int, presorted: bool = False) -> CostBreakdown:
    """``|A| + |A|N + |B|(log2 |B|)^2 + 3|A||B|`` (sort term dropped if presorted)."""
    _check(a, b, n)
    return CostBreakdown.of(
        read_a=a,
        decoy_init=a * n,
        sort_b=0.0 if presorted else paper_sort_transfers(b),
        compare_io=3 * a * b,
    )


def exact_algorithm3(a: int, b: int, n: int, presorted: bool = False) -> CostBreakdown:
    _check(a, b, n)
    return CostBreakdown.of(
        read_a=a,
        decoy_init=a * n,
        sort_b=0 if presorted else exact_sort_transfers(b),
        compare_io=3 * a * b,
    )


# --------------------------------------------------------------------------
# Section 4.6 normalized forms (|A| = |B|, alpha = N/|B|)
# --------------------------------------------------------------------------
def normalized_algorithm1(b: int, alpha: float) -> float:
    """``|B| + 2|B|^2 + 2 alpha |B|^2 + 2|B|^2 (log2 (2 alpha |B|))^2``."""
    _check_alpha(b, alpha)
    return b + 2 * b**2 + 2 * alpha * b**2 + 2 * b**2 * math.log2(2 * alpha * b) ** 2


def normalized_algorithm2(b: int, alpha: float, gamma: float) -> float:
    """``|B| + alpha |B|^2 + gamma |B|^2``."""
    _check_alpha(b, alpha)
    if gamma < 1:
        raise ConfigurationError("gamma must be at least 1")
    return b + alpha * b**2 + gamma * b**2


def normalized_algorithm3(b: int, alpha: float) -> float:
    """``|B| + 3|B|^2 + alpha |B|^2 + |B| (log2 |B|)^2``."""
    _check_alpha(b, alpha)
    return b + 3 * b**2 + alpha * b**2 + b * math.log2(b) ** 2


def _check_alpha(b: int, alpha: float) -> None:
    if b < 1:
        raise ConfigurationError("|B| must be positive")
    if not (0 < alpha <= 1):
        raise ConfigurationError("alpha must be in (0, 1]")


def algorithm1_beats_algorithm2_threshold(b: int, alpha: float) -> float:
    """Section 4.6.2: Algorithm 1 wins when gamma exceeds this threshold.

    ``gamma > 2 + alpha + 2 (log2 (2 alpha |B|))^2``.
    """
    _check_alpha(b, alpha)
    return 2 + alpha + 2 * math.log2(2 * alpha * b) ** 2
