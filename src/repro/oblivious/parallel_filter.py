"""Parallel oblivious decoy filtering (Section 5.3.5).

"Oblivious filtering out decoys in parallel requires a parallel bitonic
sort" — this module combines the Section 5.2.2 repeated-sort filter with the
:mod:`repro.oblivious.parallel_sort` block-merge sort so that all P
coprocessors cooperate on every buffer sort.

The only structural change versus the serial filter is a divisibility
adjustment: the parallel sort needs equal chunks, so the swap size is rounded
up to the smallest ``delta'`` making ``mu + delta'`` a multiple of P (a
strictly larger swap area only improves the refill efficiency).  When the
constraints cannot be met (tiny buffers, P > buffer) the filter falls back to
the serial implementation and says so in its report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.hardware.cluster import Cluster, TaskExecutor
from repro.oblivious.filterbuf import _condense, filter_delta
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.oblivious.sort import KeyFunction, oblivious_sort


@dataclass(frozen=True)
class ParallelFilterReport:
    """Outcome of a parallel decoy filter."""

    buffer_region: str
    buffer_size: int
    delta: int
    sorts: int
    parallel: bool  # False when the serial fallback ran
    makespan: int   # sum of per-sort makespans; T0's filter transfers when serial


def _round_up_delta(keep: int, delta: int, processors: int, source_size: int) -> int | None:
    """Smallest delta' >= delta with (keep + delta') divisible by P and
    keep + delta' <= source_size; None when no such delta' exists."""
    delta = max(1, delta)
    candidate = keep + delta
    remainder = candidate % processors
    if remainder:
        candidate += processors - remainder
    if candidate - keep < 1 or candidate > source_size:
        return None
    return candidate - keep


def parallel_oblivious_filter(
    cluster: Cluster,
    source_region: str,
    source_size: int,
    keep: int,
    delta: int,
    priority: KeyFunction,
    buffer_region: str = "__pfilter",
    executor: TaskExecutor | None = None,
) -> ParallelFilterReport:
    """Condense ``source_region`` to its ``keep`` real elements, in parallel.

    Semantics match :func:`repro.oblivious.filterbuf.oblivious_filter` and
    so does the refill loop; only the buffer's sorts differ: they run on all
    coprocessors (through ``executor`` when one is given), or on T0 alone in
    the serial fallback.  The refills are host-side copies either way: the
    filter spans the cluster, so no section fuses it.
    """
    coordinator = cluster[0]
    adjusted = (
        None
        if keep == source_size
        else _round_up_delta(keep, delta, len(cluster), source_size)
    )
    if len(cluster) == 1 or adjusted is None:
        before = coordinator.trace.transfer_count()
        sorts = _condense(
            cluster.host, source_region, source_size, keep, delta, buffer_region,
            partial(oblivious_sort, coordinator, key=priority),
            cluster.host.host_copy_into)
        return ParallelFilterReport(
            buffer_region=buffer_region,
            buffer_size=cluster.host.size(buffer_region),
            delta=filter_delta(source_size, keep, delta),
            sorts=len(sorts),
            parallel=False,
            makespan=coordinator.trace.transfer_count() - before,
        )

    reports = _condense(
        cluster.host, source_region, source_size, keep, adjusted, buffer_region,
        partial(parallel_oblivious_sort, cluster, key=priority, executor=executor),
        cluster.host.host_copy_into)
    return ParallelFilterReport(
        buffer_region=buffer_region,
        buffer_size=keep + adjusted,
        delta=adjusted,
        sorts=len(reports),
        parallel=True,
        makespan=sum(report.makespan for report in reports),
    )
