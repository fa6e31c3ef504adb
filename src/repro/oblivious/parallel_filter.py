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

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster, TaskExecutor
from repro.oblivious.filterbuf import oblivious_filter
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.oblivious.sort import KeyFunction


@dataclass(frozen=True)
class ParallelFilterReport:
    """Outcome of a parallel decoy filter."""

    buffer_region: str
    buffer_size: int
    delta: int
    sorts: int
    parallel: bool  # False when the serial fallback ran
    makespan: int   # modelled parallel transfers (sum of per-sort makespans)


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

    Semantics match :func:`repro.oblivious.filterbuf.oblivious_filter`; the
    buffer's repeated sorts run on all coprocessors (through ``executor``
    when one is given; refills and the serial fallback stay host-side).
    """
    if keep < 0 or source_size < 0:
        raise ConfigurationError("sizes must be non-negative")
    if keep > source_size:
        raise ConfigurationError("cannot keep more elements than the source holds")
    processors = len(cluster)
    host = cluster.host
    coordinator = cluster[0]

    adjusted = (
        None
        if keep == source_size
        else _round_up_delta(keep, delta, processors, source_size)
    )
    if processors == 1 or adjusted is None:
        region = oblivious_filter(
            coordinator, source_region, source_size, keep,
            max(1, delta), priority, buffer_region=buffer_region,
        )
        return ParallelFilterReport(
            buffer_region=region,
            buffer_size=host.size(region),
            delta=max(1, delta),
            sorts=0,
            parallel=False,
            makespan=coordinator.trace.transfer_count(),
        )

    delta = adjusted
    buffer_size = keep + delta
    if host.has_region(buffer_region):
        host.free(buffer_region)
    host.allocate(buffer_region, buffer_size)
    host.host_copy_into(source_region, 0, buffer_size, buffer_region, 0)

    sorts = 0
    makespan = 0
    report = parallel_oblivious_sort(
        cluster, buffer_region, buffer_size, priority, executor)
    sorts += 1
    makespan += report.makespan
    position = buffer_size
    while position < source_size:
        take = min(delta, source_size - position)
        host.host_copy_into(source_region, position, take, buffer_region,
                            buffer_size - take)
        position += take
        report = parallel_oblivious_sort(
            cluster, buffer_region, buffer_size, priority, executor)
        sorts += 1
        makespan += report.makespan
    return ParallelFilterReport(
        buffer_region=buffer_region,
        buffer_size=buffer_size,
        delta=delta,
        sorts=sorts,
        parallel=True,
        makespan=makespan,
    )
