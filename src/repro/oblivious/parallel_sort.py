"""Parallel oblivious bitonic sort across multiple coprocessors.

Section 5.3.5 sketches the scheme and Chapter 6 flags implementing it as
future work ("implementing a parallel bitonic sort is tricky due to
synchronization").  The construction here follows the sketch:

1. **Local phase** — each of the P coprocessors obliviously sorts its
   contiguous chunk of N/P slots (all chunks concurrently).
2. **Global phase** — a bitonic comparator network over the P chunks,
   "treating each list as one single element": every comparator becomes a
   *block compare-exchange* realized as a bitonic **merge** of the two sorted
   chunks.  Laying one chunk out head-to-tail after the other *reversed*
   yields a bitonic sequence, so the ~m log 2m merge network (not the full
   (m/2)(log 2m)^2 sort) suffices.  The trickiness the paper alludes to is
   real: a merge leaves the second chunk sorted *backwards*, so the scheduler
   tracks a per-chunk orientation flag and reads flipped chunks in reverse,
   physically normalizing any still-reversed chunks at the end.  Replacing
   comparators with min/max block exchanges preserves the network's
   correctness by the 0-1-principle-on-block-counts argument, and every step
   is data-oblivious.

Synchronization appears in the accounting: :func:`network_stages` schedules
the comparator network into minimal dependency stages (ASAP); comparators in
one stage touch disjoint chunk pairs and run concurrently, so a stage's
modelled makespan is a single block merge.  Each merge is charged to the
lower chunk's owning coprocessor so per-device totals are inspectable.

The sort is barrier rounds of :class:`~repro.hardware.cluster.ShardTask` — a
local-sort round, one round per global stage, a normalization round — that
:meth:`~repro.hardware.cluster.Cluster.run_tasks` runs inline (the sequential
simulation, which only *models* the makespan) or, given ``executor=``, on
real processes: same traces, same report.  On processes the sort key must be
picklable (a module-level function or ``functools.partial``).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain

from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster, ShardTask, TaskExecutor, TaskIO
from repro.hardware.events import GET, PUT
from repro.oblivious.networks import (
    Comparator,
    bitonic_stages,
    exact_transfers,
    merge_comparator_count,
)
from repro.oblivious.sort import KeyFunction, oblivious_sort, oblivious_sort_indices


def network_stages(n: int) -> list[list[Comparator]]:
    """Schedule a bitonic network's comparators into minimal parallel stages.

    ASAP list scheduling: a comparator runs one stage after the latest prior
    comparator sharing either of its wires (only the per-wire order matters
    to a comparator network's function).  Comparators within a stage touch
    disjoint positions and can run concurrently — the synchronization
    structure of Section 5.3.5.  For n = 2^k inputs this recovers the
    classical k(k+1)/2 stage depth.

    The scheduling itself lives in
    :func:`repro.oblivious.networks.schedule_stages`; this wrapper keeps the
    historical list-of-lists shape.
    """
    return [list(stage) for stage in bitonic_stages(n)]


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
    """One device's block merges of one global stage, in plan order.

    Module-level (picklable) so a whole stage share ships as a single task;
    running the merges in the order :func:`plan_global_phase` lists them
    fixes the device's trace whichever executor runs the round.
    """
    for indices in merges:
        oblivious_sort_indices(coprocessor, region, indices, key, merge=True)


def _normalize_chunk(
    coprocessor, region: str, base: int, chunk: int
) -> None:
    """Physically reverse a chunk left descending (data-independent pass)."""
    indices = list(range(base, base + chunk))
    with coprocessor.hold(2):
        plains = coprocessor.gather_slots(region, indices)
        coprocessor.scatter_slots(region, indices, plains[::-1])
        # Swap the ends inwards; an odd chunk (a chunk of one included)
        # re-encrypts its middle.
        half = chunk // 2
        fronts, backs = indices[:half], indices[:-half - 1:-1]
        middle = [indices[half]] * 2 * (chunk % 2)
        coprocessor.charge_boundary(
            ((GET, region), (PUT, region)),
            b"\0\0\1\1" * half + b"\0\1" * (chunk % 2),
            array("q", [*chain.from_iterable(zip(fronts, backs, fronts, backs)),
                        *middle]))


def plan_global_phase(
    processors: int, chunk: int
) -> tuple[list[list[tuple[int, list[int]]]], list[int]]:
    """The global phase as pure data: per-stage block merges, then cleanup.

    Returns ``(stages, normalize)``: each stage is a list of
    ``(device, indices)`` pairs — the coprocessor charged with the merge and
    the explicit slot order the ascending merge network runs over — and
    ``normalize`` lists the chunks left descending at the end.
    """
    # +1: ascending along natural index order.
    orientation = [1] * processors

    def ordered_indices(p: int) -> list[int]:
        base = list(range(p * chunk, (p + 1) * chunk))
        return base if orientation[p] == 1 else base[::-1]

    plan: list[list[tuple[int, list[int]]]] = []
    for stage in network_stages(processors):
        stage_plan = []
        for comp in stage:
            # Ascending comparator: the low chunk receives the smaller half.
            first, second = (
                (comp.low, comp.high) if comp.ascending else (comp.high, comp.low)
            )
            # The merge network expects the shape the sort recursion produces:
            # first half descending, second half ascending — so the first
            # chunk is laid out reversed.
            indices = ordered_indices(first)[::-1] + ordered_indices(second)
            stage_plan.append((comp.low, indices))
            # The merged sequence is ascending along `indices`: chunk `first`
            # comes out reversed relative to its orientation order, chunk
            # `second` keeps its orientation.
            orientation[first] *= -1
        plan.append(stage_plan)
    normalize = [p for p in range(processors) if orientation[p] == -1]
    return plan, normalize


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
    if size % processors != 0:
        raise ConfigurationError(
            f"size {size} must be divisible by the cluster size {processors}"
        )
    chunk = size // processors
    if chunk == 0:
        raise ConfigurationError("each coprocessor needs at least one element")

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

    # Global phase: bitonic network over chunks; merge-based block exchange
    # with per-chunk orientation tracking (see module docstring).  One
    # barrier round per comparator stage; a stage's merges on one device
    # coarsen into a single task (one shard descriptor, one write-back
    # flush) — block merges inside a stage touch disjoint chunk pairs, so
    # grouping by device changes neither the host image nor any per-device
    # trace order.
    stage_plan, normalize = plan_global_phase(processors, chunk)
    exchanges = 0
    for number, stage in enumerate(stage_plan):
        grouped: dict[int, list[list[int]]] = {}
        for device, indices in stage:
            grouped.setdefault(device, []).append(indices)
            exchanges += 1
        tasks = []
        for device, merges in grouped.items():
            # Each merge touches exactly two aligned chunks, which need not
            # be adjacent — ship the chunk spans, not the hull between them.
            chunks = sorted({i // chunk for indices in merges for i in indices})
            tasks.append(ShardTask(
                device=device,
                fn=_merge_stage_share,
                io=chunks_io(*chunks),
                args=(region, merges, key),
                label=f"stage {number}: {len(merges)} merge(s) over chunks "
                      f"{','.join(map(str, chunks))}",
            ))
        cluster.run_tasks(tasks, executor)

    # Normalization: physically reverse any chunk left in descending
    # orientation (a data-independent read-and-rewrite pass).
    cluster.run_tasks([
        ShardTask(
            device=p,
            fn=_normalize_chunk,
            io=chunks_io(p),
            args=(region, p * chunk, chunk),
            label=f"normalize chunk {p}",
        )
        for p in normalize
    ], executor)

    local = exact_transfers(chunk)
    exchange = 4 * merge_comparator_count(2 * chunk)
    normalize_cost = 2 * chunk
    makespan = (
        local + len(stage_plan) * exchange + (normalize_cost if normalize else 0)
    )
    total = (
        processors * local + exchanges * exchange + len(normalize) * normalize_cost
    )
    return ParallelSortReport(
        processors=processors,
        chunk=chunk,
        local_transfers=local,
        exchange_transfers=exchange,
        global_stages=len(stage_plan),
        makespan=makespan,
        total=total,
    )


def parallel_sort_makespan(size: int, processors: int, normalized: bool = True) -> int:
    """Modelled worst-case makespan of the parallel sort without executing it."""
    if processors < 1 or size % processors != 0:
        raise ConfigurationError("size must be divisible by a positive processor count")
    chunk = size // processors
    stages = len(network_stages(processors))
    makespan = exact_transfers(chunk) + stages * 4 * merge_comparator_count(2 * chunk)
    if normalized and processors > 1:
        makespan += 2 * chunk
    return makespan
