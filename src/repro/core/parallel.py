"""Parallel variants of the join algorithms (Sections 4.4.4 and 5.3.5).

The paper observes that Algorithms 1-3 "are easy to parallelize with a linear
speed-up in the number of processors" and describes the Chapter 5 schemes:
partition the iTuples for Algorithm 4, coordinate per-coprocessor output
ranges for Algorithm 5, and share an MLFSR seed for Algorithm 6.

Every variant here is written once: it builds its coprocessors' shares as one
barrier round of :class:`~repro.hardware.cluster.ShardTask` — module-level
(picklable) scan bodies plus their declared host footprints — and hands
the round to :meth:`~repro.hardware.cluster.Cluster.run_tasks`, which has two
executors:

* **sequential simulation** (default) — the shares execute one after another
  but are accounted per coprocessor; the modelled parallel makespan is the
  busiest coprocessor's transfer count, so linear speedup appears as
  ``speedup ~= P``.
* **wall-clock execution** — pass a :class:`~repro.parallel.executor.
  ClusterExecutor` as ``executor`` and the same round runs as real OS
  processes, merged back in task order — so traces, counters, results, the
  modelled makespan and the rows of ``meta["phases"]`` (their transfer totals
  too) are bit-identical between the two; only the wall clock differs.  A
  share reports no phase rows of its own: a profile cannot cross a process
  boundary, so what a share flushes is booked to the round's row.

No algorithm has a share of its own here: each round runs the sequential
algorithm's scan body, passing no profile — :func:`repro.core.algorithm2.
scan_passes` and :func:`repro.core.algorithm3.scan_ring` over a slice of A,
:func:`repro.core.algorithm4.scan_otuples` over a partition of the iTuples,
:func:`repro.core.algorithm5.rescan_output` over a range of result ordinals
and :func:`repro.core.algorithm6.scan_segments` over a range of the shared
MLFSR order's segments.  So on a one-device cluster parallel Algorithms
2, 3, 4 and 6 trace as their sequential twins, event for event, and parallel
Algorithm 5 emits its rows in Algorithm 5's order.

Oblivious decoy filtering in parallel needs a parallel oblivious sort, which
the paper lists as future work ("implementing a parallel bitonic sort is
tricky due to synchronization"); Algorithm 4's filter phase uses the
implementation in :mod:`repro.oblivious.parallel_filter` (same ``executor``),
while Algorithm 6's variant keeps the serial filter (its omega is small
relative to the scans).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Sequence

from repro.core.algorithm2 import gamma_for, scan_passes
from repro.core.algorithm3 import scan_ring, upload_sorted
from repro.core.algorithm4 import scan_otuples
from repro.core.algorithm5 import rescan_output
from repro.core.algorithm6 import scan_segments
from repro.core.base import (
    JoinContext,
    decoy_priority,
    is_real,
    multi_party_output_schema,
    two_party_output_schema,
    validate_two_party_inputs,
)
from repro.core.cartesian import CartesianReader, scan_matches, upload_join
from repro.costs.filter_opt import optimal_delta
from repro.errors import BlemishError, ConfigurationError
from repro.hardware.cluster import Cluster, ShardTask, TaskExecutor, TaskIO
from repro.hardware.coprocessor import unfused
from repro.hardware.counters import TransferStats
from repro.oblivious.filterbuf import emit_kept, oblivious_filter
from repro.oblivious.parallel_filter import parallel_oblivious_filter
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.oblivious.sort import oblivious_sort
from repro.obs.spans import PhaseProfile
from repro.relational.predicates import Equality, MultiPredicate, Predicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec


@dataclass
class ParallelJoinResult:
    """Outcome of a parallel join: result plus per-coprocessor accounting."""

    result: Relation
    per_coprocessor: list[TransferStats]
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def total_transfers(self) -> int:
        return sum(s.total for s in self.per_coprocessor)

    @property
    def makespan_transfers(self) -> int:
        return max(s.total for s in self.per_coprocessor)

    @property
    def speedup(self) -> float:
        """total / makespan; P for an all-idle run (trivially balanced),
        matching :meth:`repro.hardware.cluster.Cluster.speedup`."""
        makespan = self.makespan_transfers
        if makespan == 0:
            return float(len(self.per_coprocessor))
        return self.total_transfers / makespan


def _screen(coordinator, tables, predicate, profile) -> int:
    """The coordinator's screening pass: learn S, write nothing."""
    reader = CartesianReader(coordinator, *tables)
    with profile.span("screen"), coordinator.hold(1):
        return sum(1 for _ in scan_matches(reader, range(len(reader.space)), predicate))


def _join_result(result: Relation, cluster: Cluster, profile: PhaseProfile,
                 meta: dict[str, Any], stats=None) -> ParallelJoinResult:
    """The tail every variant shares: per-coprocessor accounting (``stats``
    when it was taken before a later phase) plus ``P`` and the phase rows."""
    return ParallelJoinResult(
        result=result,
        per_coprocessor=stats or [TransferStats.from_trace(t.trace) for t in cluster],
        meta={**meta, "P": len(cluster), "phases": profile.breakdown()},
    )


# -- the parallel algorithms -------------------------------------------------

def parallel_algorithm2(
    context: JoinContext,
    cluster: Cluster,
    left: Relation,
    right: Relation,
    predicate: Predicate,
    n_max: int,
    memory: int,
    executor: TaskExecutor | None = None,
) -> ParallelJoinResult:
    """Algorithm 2 with A partitioned across the cluster (Section 4.4.4)."""
    validate_two_party_inputs(left, right, n_max, predicate)
    gamma = gamma_for(n_max, memory)
    blk = math.ceil(n_max / gamma)
    out_schema = two_party_output_schema(left, right)
    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation("B", right)
    context.allocate_output()

    profile = PhaseProfile.for_cluster(cluster)
    work = partial(
        scan_passes,
        left_codec=left_codec, right_codec=right_codec, right_size=len(right),
        predicate=predicate, gamma=gamma, blk=blk, out_codec=TupleCodec(out_schema),
    )
    per_a_outputs = gamma * blk
    tasks = cluster.partition_tasks(
        len(left), work,
        io=lambda index_range, worker: TaskIO(
            reads={"A": [(index_range.start, index_range.stop)], "B": None},
            appends={"output": index_range.start * per_a_outputs},
        ),
        label="algorithm2 scan",
    )
    with profile.span("scan"):
        cluster.run_tasks(tasks, executor)
    return _join_result(
        context.download_output(out_schema), cluster, profile,
        {"algorithm": "parallel_algorithm2", "gamma": gamma, "blk": blk})


def parallel_algorithm3(
    context: JoinContext,
    cluster: Cluster,
    left: Relation,
    right: Relation,
    on: str | Equality,
    n_max: int,
    presorted: bool = False,
    executor: TaskExecutor | None = None,
) -> ParallelJoinResult:
    """Algorithm 3 with A partitioned across the cluster.

    The coordinator (T0) obliviously sorts B once; every coprocessor then
    rings its slice of A through a private N-slot scratch area.  This is the
    Section 4.4.4 recipe ("easy to parallelize with a linear speed-up")
    applied to the sort-based equijoin: the sort is a one-off serial prefix,
    the 3·|A|·|B| scan — the dominant term — splits P ways.
    """
    eq = on if isinstance(on, Equality) else Equality(on)
    validate_two_party_inputs(left, right, n_max, eq)

    host = context.host
    out_schema = two_party_output_schema(left, right)

    profile = PhaseProfile.for_cluster(cluster)
    left_codec, right_codec = upload_sorted(
        context, cluster[0], left, right, eq, presorted, profile)

    scratches = [f"scratch3w{worker}" for worker in range(len(cluster))]
    for scratch in scratches:
        if host.has_region(scratch):
            host.free(scratch)
        host.allocate(scratch, n_max)
    output = context.allocate_output()

    work = partial(
        scan_ring,
        left_codec=left_codec, right_codec=right_codec, right_size=len(right),
        eq=eq, n_max=n_max, out_codec=TupleCodec(out_schema),
    )
    tasks = cluster.partition_tasks(
        len(left), work,
        io=lambda index_range, worker: TaskIO(
            reads={
                "A": [(index_range.start, index_range.stop)],
                "B": None,
                scratches[worker]: None,
            },
            appends={output: index_range.start * n_max},
        ),
        label="algorithm3 scan",
    )
    for task in tasks:
        task.kwargs["scratch"] = scratches[task.device]
    with profile.span("scan"):
        cluster.run_tasks(tasks, executor)
    return _join_result(
        context.download_output(out_schema), cluster, profile,
        {"algorithm": "parallel_algorithm3", "N": n_max, "presorted": presorted,
         "output_slots": n_max * len(left)})


def parallel_algorithm4(
    context: JoinContext,
    cluster: Cluster,
    relations: Sequence[Relation],
    predicate: MultiPredicate,
    executor: TaskExecutor | None = None,
) -> ParallelJoinResult:
    """Algorithm 4 with the iTuples partitioned across the cluster."""
    out_schema = multi_party_output_schema(relations)
    reader = upload_join(context, relations, predicate)
    total = len(reader.space)
    context.host.allocate("otuples", total)
    output = context.allocate_output()
    profile = PhaseProfile.for_cluster(cluster)

    tasks = cluster.partition_tasks(
        total,
        partial(scan_otuples, tables=reader.tables, predicate=predicate,
                out_codec=TupleCodec(out_schema)),
        io=lambda index_range, worker: TaskIO(reads={
            **{region: None for region in reader.regions},
            "otuples": [(index_range.start, index_range.stop)],
        }),
        label="algorithm4 scan",
    )
    with profile.span("scan"):
        counts = cluster.run_tasks(tasks, executor)
    result_count = sum(counts)
    scan_stats = [TransferStats.from_trace(t.trace) for t in cluster]

    # Filter phase: all coprocessors cooperate via the parallel sort
    # (Section 5.3.5's "oblivious filtering out decoys in parallel").
    with profile.span("filter"):
        filter_report = parallel_oblivious_filter(
            cluster, "otuples", total, keep=result_count,
            delta=optimal_delta(result_count, total), priority=decoy_priority,
            executor=executor,
        )
    with profile.span("emit"):
        emit_kept(cluster[0], filter_report.buffer_region, result_count, output,
                  is_real=is_real, strip=1)
    return _join_result(
        context.download_output(out_schema, flagged=False), cluster, profile,
        {
            "algorithm": "parallel_algorithm4",
            "S": result_count,
            "filter_parallel": filter_report.parallel,
            "filter_makespan": filter_report.makespan,
            "filter_sorts": filter_report.sorts,
            "per_worker_results": counts,
        },
        stats=scan_stats,
    )


def parallel_algorithm5(
    context: JoinContext,
    cluster: Cluster,
    relations: Sequence[Relation],
    predicate: MultiPredicate,
    memory: int,
    executor: TaskExecutor | None = None,
) -> ParallelJoinResult:
    """Algorithm 5 parallelized by output ranges (Section 5.3.5).

    A coordinator coprocessor screens the iTuples to learn S, then assigns the
    i-th coprocessor the results with ordinal positions
    [i*blk, (i+1)*blk); every coprocessor scans the iTuples in the same fixed
    order and outputs only its share.
    """
    if memory < 1:
        raise ConfigurationError("M must be at least 1")
    out_schema = multi_party_output_schema(relations)
    out_codec = TupleCodec(out_schema)
    reader = upload_join(context, relations, predicate)
    context.allocate_output()

    profile = PhaseProfile.for_cluster(cluster)

    # Screening by the coordinator (T0).
    result_count = _screen(cluster[0], reader.tables, predicate, profile)

    share = math.ceil(result_count / len(cluster)) if result_count else 0
    tasks = []
    for p in range(len(cluster)):
        lo, hi = p * share, min((p + 1) * share, result_count)
        if lo < hi:
            tasks.append(ShardTask(
                device=p,
                fn=rescan_output,
                io=TaskIO(
                    reads={region: None for region in reader.regions},
                    appends={"output": lo},
                ),
                kwargs=dict(
                    tables=reader.tables, predicate=predicate, out_codec=out_codec,
                    memory=memory, known_result_size=hi - lo, first=lo,
                ),
                label=f"algorithm5 ordinals [{lo}, {hi})",
            ))
    with profile.span("scan"):
        cluster.run_tasks(tasks, executor)
    return _join_result(
        context.download_output(out_schema, flagged=False), cluster, profile,
        {"algorithm": "parallel_algorithm5", "S": result_count, "share": share})


def parallel_algorithm6(
    context: JoinContext,
    cluster: Cluster,
    relations: Sequence[Relation],
    predicate: MultiPredicate,
    memory: int,
    epsilon: float = 1e-20,
    seed: int = 1,
    segment_size: int | None = None,
    executor: TaskExecutor | None = None,
) -> ParallelJoinResult:
    """Algorithm 6 parallelized by MLFSR position ranges (Section 5.3.5).

    "All T seed their maximal LFSR with the same value ... each T is then
    responsible for a particular range of the sequence of random numbers
    generated."  We partition the shared random order into contiguous
    position ranges aligned to whole segments, so every segment is owned by
    exactly one coprocessor; segment flushes land in per-segment slots of a
    shared host region.  The decoy filter then runs serially on the
    coordinator (T0) with :func:`repro.oblivious.filterbuf.oblivious_filter`:
    omega is small next to the scans, so unlike Algorithm 4 this variant does
    not use :mod:`repro.oblivious.parallel_filter`.
    """
    from repro.costs.segments import optimal_segment_size, segment_count
    from repro.crypto.mlfsr import RandomOrder

    if memory < 1:
        raise ConfigurationError("M must be at least 1")
    out_schema = multi_party_output_schema(relations)
    out_codec = TupleCodec(out_schema)
    reader = upload_join(context, relations, predicate)
    total = len(reader.space)
    output = context.allocate_output()

    profile = PhaseProfile.for_cluster(cluster)

    # Screening by the coordinator to learn S (no writes).
    result_count = _screen(cluster[0], reader.tables, predicate, profile)

    n_star = segment_size if segment_size is not None else optimal_segment_size(
        total, result_count, memory, epsilon
    )
    segments = segment_count(total, n_star)
    omega = segments * memory
    context.host.allocate("psegments", omega)

    # The shared random order, materialized once per coprocessor via the
    # identical seed; coprocessor p owns segments [p*per, (p+1)*per).
    per = math.ceil(segments / len(cluster))
    order = list(RandomOrder(total, seed=seed))
    tasks = []
    for p in range(len(cluster)):
        first_segment, last_segment = p * per, min((p + 1) * per, segments)
        if first_segment < last_segment:
            tasks.append(ShardTask(
                device=p,
                fn=scan_segments,
                io=TaskIO(reads={
                    **{region: None for region in reader.regions},
                    "psegments": [(first_segment * memory, last_segment * memory)],
                }),
                kwargs=dict(
                    tables=reader.tables, predicate=predicate, out_codec=out_codec,
                    order=order[first_segment * n_star:last_segment * n_star],
                    segments=range(first_segment, last_segment),
                    n_star=n_star, memory=memory, region="psegments",
                ),
                label=f"algorithm6 segments [{first_segment}, {last_segment})",
            ))
    # Inline, the round ends at the first blemished share (any() stops asking
    # for values); on a pool the whole round has run by then.
    with profile.span("random_scan"):
        blemish = any(cluster.iter_tasks(tasks, executor))

    if blemish:
        raise BlemishError(
            "segment produced more than M results during parallel Algorithm 6; "
            "rerun with a smaller epsilon or larger memory"
        )

    filter_t = cluster[0]
    with profile.span("filter"):
        buffer_region = oblivious_filter(
            filter_t, "psegments", omega, keep=result_count,
            delta=optimal_delta(result_count, omega), priority=decoy_priority,
        )
    with profile.span("emit"):
        emit_kept(filter_t, buffer_region, result_count, output,
                  is_real=is_real, strip=1)
    return _join_result(
        context.download_output(out_schema, flagged=False), cluster, profile,
        {"algorithm": "parallel_algorithm6", "S": result_count,
         "segments": segments, "segment_size": n_star})


def parallel_algorithm7(
    context: JoinContext,
    cluster: Cluster,
    relations: Sequence[Relation],
    predicate: MultiPredicate | Predicate,
) -> ParallelJoinResult:
    """Algorithm 7 with its phases mapped onto a cluster.

    The sort-merge join parallelizes along two seams: the big sorts over the
    union region run as the parallel oblivious sort (every coprocessor owns a
    contiguous slice of the network's wires whenever ``n`` divides evenly
    across the cluster), and the two expansion stages — independent by
    construction, one per table — run on different coprocessors, so the
    modelled makespan charges only the larger of the two.  The counting
    passes are inherently sequential (a running register crosses every
    slot) and stay on the coordinator, as do build and emit.  The union
    phases fuse into one section on the coordinator unless the union sort
    spans the cluster (other devices then read the union between passes);
    each expansion fuses on its own device.
    """
    from repro.core.algorithm7 import SortMergeEngine, sort_merge_equijoin

    coordinator = cluster[0]
    profile = PhaseProfile.for_cluster(cluster)
    parallel_sorts = 0
    spans_cluster = len(cluster) > 1 and sum(map(len, relations)) % len(cluster) == 0

    def union_sort(region, size, key):
        nonlocal parallel_sorts
        if spans_cluster:
            parallel_oblivious_sort(cluster, region, size, key)
            parallel_sorts += 1
        else:
            oblivious_sort(coordinator, region, size, key=key)

    engine = SortMergeEngine(
        build=coordinator,
        count=coordinator,
        left=coordinator,
        right=cluster[1 % len(cluster)],
        emit=coordinator,
        union_sort=union_sort,
        union_section=unfused if spans_cluster else coordinator.section,
    )
    out_schema, meta = sort_merge_equijoin(
        context, relations, predicate, profile, engine
    )
    return _join_result(
        context.download_output(out_schema, flagged=False), cluster, profile,
        {**meta, "algorithm": "parallel_algorithm7",
         "parallel_sorts": parallel_sorts})
