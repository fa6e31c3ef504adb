"""Closed-form costs of the Chapter 5 algorithms (Eqs. 5.2, 5.3, 5.7).

``paper_*`` functions evaluate the printed formulas (with the squared-log
filter form and the delta <= omega - mu cap that reproduce the Table 5.3
numbers — see DESIGN.md errata).  ``exact_*`` functions mirror the executors:
they charge J gets per iTuple (J = number of participating tables), keep the
ceilings, and count the real sorting networks.
"""

from __future__ import annotations

import math

from repro.costs.bitonic import exact_sort_transfers
from repro.costs.chapter4 import CostBreakdown
from repro.costs.filter_opt import filter_transfers, optimal_delta
from repro.costs.segments import optimal_segment_size, segment_count
from repro.errors import ConfigurationError


def _check(total: int, results: int) -> None:
    if total < 1:
        raise ConfigurationError("L must be positive")
    if not 0 <= results <= total:
        raise ConfigurationError("S must be in [0, L]")


def paper_filter_cost(omega: int, mu: int, delta: int | None = None) -> float:
    """The optimized oblivious filter cost at (capped) delta*."""
    if omega == mu:
        return 0.0
    chosen = delta if delta is not None else optimal_delta(mu, omega)
    chosen = max(1, min(chosen, omega - mu))
    return filter_transfers(omega, mu, chosen)


def exact_filter_transfers(omega: int, mu: int, delta: int) -> int:
    """Exact transfers of the :func:`repro.oblivious.filterbuf.oblivious_filter` executor."""
    if omega == mu:
        return 0
    delta = max(1, min(delta, omega - mu))
    buffer = min(mu + delta, omega)
    sorts = 1 + math.ceil((omega - buffer) / delta)
    return sorts * exact_sort_transfers(buffer)


# --------------------------------------------------------------------------
# Algorithm 4 (Eq. 5.2)
# --------------------------------------------------------------------------
def paper_algorithm4(total: int, results: int, delta: int | None = None) -> CostBreakdown:
    """``2L + ((L-S)/delta*) (S + delta*) [log2(S + delta*)]^2``."""
    _check(total, results)
    return CostBreakdown.of(
        scan=2 * total,
        filter=paper_filter_cost(total, results, delta),
    )


def exact_algorithm4(
    total: int, results: int, tables: int = 2, delta: int | None = None
) -> CostBreakdown:
    """Exact transfers of the Algorithm 4 executor (J gets per iTuple)."""
    _check(total, results)
    chosen = delta if delta is not None else optimal_delta(results, total)
    return CostBreakdown.of(
        scan_reads=tables * total,
        scan_writes=total,
        filter=exact_filter_transfers(total, results, chosen),
        emit=2 * results,
    )


# --------------------------------------------------------------------------
# Algorithm 5 (Eq. 5.3)
# --------------------------------------------------------------------------
def algorithm5_scans(results: int, memory: int, known_result_size: bool = True) -> int:
    """Scan count: paper's ceil(S/M) with known S, floor(S/M)+1 without."""
    if memory < 1:
        raise ConfigurationError("M must be positive")
    if known_result_size:
        return max(1, math.ceil(results / memory))
    return results // memory + 1


def paper_algorithm5(total: int, results: int, memory: int) -> CostBreakdown:
    """``S + ceil(S/M) L``."""
    _check(total, results)
    return CostBreakdown.of(
        write=results,
        read=algorithm5_scans(results, memory) * total,
    )


def exact_algorithm5(
    total: int,
    results: int,
    memory: int,
    tables: int = 2,
    known_result_size: bool = False,
) -> CostBreakdown:
    _check(total, results)
    scans = algorithm5_scans(results, memory, known_result_size)
    return CostBreakdown.of(write=results, read=scans * tables * total)


# --------------------------------------------------------------------------
# Algorithm 6 (Eq. 5.7)
# --------------------------------------------------------------------------
def paper_algorithm6(
    total: int,
    results: int,
    memory: int,
    epsilon: float,
    segment: int | None = None,
    delta: int | None = None,
    one_pass: bool = False,
) -> CostBreakdown:
    """Eq. 5.7 with the squared-log filter form (see DESIGN.md errata).

    ``2L + ceil(L/n*) M + ((ceil(L/n*) M - S)/delta*) (S+delta*) [log2(S+delta*)]^2``;
    reduces to the minimum ``L + S`` when M >= S (n* = L, Section 5.3.3).
    ``one_pass=True`` models the known-S variant that skips the screening
    scan (the Chapter 6 one-pass question), replacing 2L with L.
    """
    _check(total, results)
    if memory < 1:
        raise ConfigurationError("M must be positive")
    if results <= memory:
        return CostBreakdown.of(scan=total, write=results)
    n_star = segment if segment is not None else optimal_segment_size(
        total, results, memory, epsilon
    )
    segments = segment_count(total, n_star)
    omega = segments * memory
    return CostBreakdown.of(
        scan=total if one_pass else 2 * total,
        segment_writes=omega,
        filter=paper_filter_cost(omega, results, delta),
    )


def exact_algorithm6(
    total: int,
    results: int,
    memory: int,
    epsilon: float,
    tables: int = 2,
    segment: int | None = None,
    delta: int | None = None,
    one_pass: bool = False,
) -> CostBreakdown:
    """Exact transfers of the (blemish-free) Algorithm 6 executor."""
    _check(total, results)
    if memory < 1:
        raise ConfigurationError("M must be positive")
    if results <= memory:
        return CostBreakdown.of(scan=tables * total, write=results)
    n_star = segment if segment is not None else optimal_segment_size(
        total, results, memory, epsilon
    )
    segments = segment_count(total, n_star)
    omega = segments * memory
    chosen = delta if delta is not None else optimal_delta(results, omega)
    return CostBreakdown.of(
        screen=0 if one_pass else tables * total,
        scan=tables * total,
        segment_writes=omega,
        filter=exact_filter_transfers(omega, results, chosen),
        emit=2 * results,
    )


def minimum_cost(total: int, results: int) -> int:
    """The information-theoretic floor the paper cites: ``L + S``."""
    _check(total, results)
    return total + results
