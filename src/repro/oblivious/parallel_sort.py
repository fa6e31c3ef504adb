"""Parallel oblivious sort across multiple coprocessors.

Section 5.3.5 sketches the scheme and Chapter 6 flags implementing it as
future work ("implementing a parallel bitonic sort is tricky due to
synchronization").  The construction here follows the sketch:

1. **Local phase** — each of the P coprocessors obliviously sorts its
   contiguous chunk of N/P slots (all chunks concurrently).
2. **Global phase** — a sorting network over the P chunks (the same
   merge-exchange the serial sort declares), "treating each list as one
   single element": every comparator becomes a *block compare-exchange*,
   realized as an odd-even merge of the two ascending chunks that leaves the
   smaller half in the lower chunk and the larger half in the higher one.
   Both chunks come out ascending, so no chunk is ever read in reverse or
   rewritten at the end.  Replacing comparators with such merge-splits
   preserves any sorting network (the 0-1 principle on block counts), and
   every step is data-oblivious.

Synchronization appears in the accounting: :func:`network_stages` schedules
the comparator network into minimal dependency stages (ASAP); comparators in
one stage touch disjoint chunk pairs and run concurrently, so a stage's
modelled makespan is a single block merge.  Each merge is charged to the
lower chunk's owning coprocessor so per-device totals are inspectable.

The sort is barrier rounds of :class:`~repro.hardware.cluster.ShardTask` — a
local-sort round, then one round per global stage — that
:meth:`~repro.hardware.cluster.Cluster.run_tasks` runs inline (the sequential
simulation, which only *models* the makespan) or, given ``executor=``, on
real processes: same traces, same report.  On processes the sort key must be
picklable (a module-level function or ``functools.partial``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster, ShardTask, TaskExecutor, TaskIO
from repro.oblivious.networks import (
    comparator_count,
    exact_transfers,
    merge_comparator_count,
    network_stages,
)
from repro.oblivious.sort import KeyFunction, oblivious_sort, oblivious_sort_indices


@dataclass(frozen=True)
class ParallelSortReport:
    """Accounting for one parallel oblivious sort."""

    processors: int
    chunk: int
    local_transfers: int          # per-coprocessor local-phase transfers
    exchange_transfers: int       # transfers of one block merge-exchange
    global_stages: int            # synchronization barriers in the global phase
    makespan: int                 # modelled parallel completion (transfers)
    total: int                    # sum over all coprocessors

    @property
    def speedup(self) -> float:
        return self.total / self.makespan if self.makespan else float("nan")


def _merge_stage_share(coprocessor, region: str, merges, key: KeyFunction) -> None:
    """One device's block merges of one global stage, in network order.

    Module-level (picklable) so a whole stage share ships as a single task;
    running the merges in the order the stage lists them fixes the device's
    trace whichever executor runs the round.
    """
    for indices in merges:
        oblivious_sort_indices(coprocessor, region, indices, key, merge=True)


def _check_chunks(size: int, processors: int) -> int:
    """The chunk each of ``processors`` coprocessors sorts locally."""
    if processors < 1 or size % processors != 0:
        raise ConfigurationError(
            f"size {size} must be divisible by the cluster size {processors}"
        )
    return size // processors


def parallel_oblivious_sort(
    cluster: Cluster,
    region: str,
    size: int,
    key: KeyFunction,
    executor: TaskExecutor | None = None,
) -> ParallelSortReport:
    """Sort ``region[0:size]`` ascending with all coprocessors cooperating.

    ``size`` must be divisible by the cluster size (equal chunks are what
    makes a block exchange a valid comparator on 0-1 block counts).
    """
    processors = len(cluster)
    chunk = _check_chunks(size, processors)
    if chunk == 0:
        raise ConfigurationError("each coprocessor needs at least one element")

    def slots(c: int) -> list[int]:
        return list(range(c * chunk, (c + 1) * chunk))

    def chunks_io(*chunks: int) -> TaskIO:
        return TaskIO(reads={region: [(c * chunk, (c + 1) * chunk) for c in chunks]})

    # Local phase: every coprocessor sorts its own chunk (concurrent).
    cluster.run_tasks([
        ShardTask(
            device=p,
            fn=oblivious_sort,
            io=chunks_io(p),
            args=(region, chunk, key),
            kwargs={"start": p * chunk},
            label=f"local sort chunk {p}",
        )
        for p in range(processors)
    ], executor)

    # Global phase: one barrier round per stage of the chunk-level network.
    # A stage's merges on one device coarsen into a single task (one shard
    # descriptor, one write-back flush) — block merges inside a stage touch
    # disjoint chunk pairs, so grouping by device changes neither the host
    # image nor any per-device trace order.
    stages = network_stages(processors)
    for number, stage in enumerate(stages):
        grouped: dict[int, list[tuple[int, int]]] = {}
        for comp in stage:
            grouped.setdefault(comp[0], []).append(comp)
        tasks = []
        for device, comps in grouped.items():
            # Each merge touches exactly two aligned chunks, which need not
            # be adjacent — ship the chunk spans, not the hull between them.
            chunks = sorted({c for comp in comps for c in comp})
            tasks.append(ShardTask(
                device=device,
                fn=_merge_stage_share,
                io=chunks_io(*chunks),
                args=(region, [slots(low) + slots(high) for low, high in comps], key),
                label=f"stage {number}: {len(comps)} merge(s) over chunks "
                      f"{','.join(map(str, chunks))}",
            ))
        cluster.run_tasks(tasks, executor)

    local = exact_transfers(chunk)
    exchange = 4 * merge_comparator_count(2 * chunk)
    return ParallelSortReport(
        processors=processors,
        chunk=chunk,
        local_transfers=local,
        exchange_transfers=exchange,
        global_stages=len(stages),
        makespan=local + len(stages) * exchange,
        total=processors * local + comparator_count(processors) * exchange,
    )


def parallel_sort_makespan(size: int, processors: int) -> int:
    """Modelled worst-case makespan of the parallel sort without executing it."""
    chunk = _check_chunks(size, processors)
    return (exact_transfers(chunk)
            + len(network_stages(processors)) * 4 * merge_comparator_count(2 * chunk))
