"""The multiprocess cluster executor: shards, merges, and trace identity.

The contract under test is the tentpole invariant: the wall-clock executor
must be *observationally indistinguishable* from the sequential simulation —
same results, same per-coprocessor traces (bit-identical fingerprints), same
modelled makespan — while actually running the shares on separate OS
processes.
"""

import random
import struct
from contextlib import nullcontext

import pytest

from tests.conftest import KEY
from tests.test_cartesian import blemishing_workload, plain_image

from repro.core.base import JoinContext
from repro.core.parallel import (
    parallel_algorithm2,
    parallel_algorithm3,
    parallel_algorithm4,
    parallel_algorithm5,
    parallel_algorithm6,
)
from repro.crypto.provider import FastProvider
from repro.errors import BlemishError, ConfigurationError, HostMemoryError
from repro.hardware.cluster import Cluster
from repro.hardware.host import HostMemory
from repro.oblivious.parallel_filter import parallel_oblivious_filter
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.parallel import (
    ClusterExecutor,
    ShardTask,
    TaskIO,
    build_shards,
    merge_shard_result,
)
from repro.parallel.shard import RegionShard, ShardHostMemory
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality


def rig(processors):
    provider = FastProvider(KEY)
    context = JoinContext.fresh(provider=provider)
    cluster = Cluster(context.host, provider, count=processors)
    return context, cluster


def int_key(plaintext):
    # Module-level: sort keys ship to worker processes and must pickle.
    return struct.unpack(">q", plaintext)[0]


def flag_priority(plaintext):
    return (plaintext[0] != 1, int_key(plaintext[1:]))


def load_region(cluster, values, region="R"):
    cluster.host.allocate(region, len(values))
    for i, v in enumerate(values):
        cluster[0].put(region, i, struct.pack(">q", v))
    for t in cluster:
        t.reset_trace()


def read_region(cluster, n, region="R"):
    return [struct.unpack(">q", cluster[0].get(region, i))[0] for i in range(n)]


def fingerprints(cluster):
    return [t.trace.fingerprint() for t in cluster]


def double_value(coprocessor, region, index):
    value = struct.unpack(">q", coprocessor.get(region, index))[0]
    coprocessor.put(region, index, struct.pack(">q", 2 * value))
    return value


def append_values(coprocessor, region, values):
    for v in values:
        coprocessor.put_append(region, struct.pack(">q", v))


def touch_outside(coprocessor, region, index):
    coprocessor.get(region, index)


class TestShardTransport:
    def test_build_shards_rejects_bad_span(self):
        host = HostMemory()
        host.allocate("R", 4)
        with pytest.raises(HostMemoryError):
            build_shards(host, TaskIO(reads={"R": [(2, 9)]}))

    def test_shard_host_rejects_undeclared_region(self):
        host = HostMemory()
        host.allocate("R", 2)
        shard_host = ShardHostMemory(build_shards(host, TaskIO(reads={"R": None})))
        with pytest.raises(HostMemoryError):
            shard_host.read_slot("other", 0)

    def test_shard_host_rejects_slot_outside_span(self):
        host = HostMemory()
        host.allocate("R", 8)
        for i in range(8):
            host.write_slot("R", i, b"x")
        shard_host = ShardHostMemory(build_shards(host, TaskIO(reads={"R": [(0, 4)]})))
        assert shard_host.read_slot("R", 3) == b"x"
        with pytest.raises(HostMemoryError):
            shard_host.read_slot("R", 5)
        with pytest.raises(HostMemoryError):
            shard_host.write_slot("R", 5, b"y")

    def test_shard_host_rejects_undeclared_append(self):
        host = HostMemory()
        host.allocate("R", 1)
        shard_host = ShardHostMemory(build_shards(host, TaskIO(reads={"R": None})))
        with pytest.raises(HostMemoryError):
            shard_host.append_slot("R", b"z")

    def test_append_indices_continue_from_declared_base(self):
        host = HostMemory()
        host.allocate("out", 3)
        shard_host = ShardHostMemory(
            build_shards(host, TaskIO(appends={"out": 3}))
        )
        assert shard_host.append_slot("out", b"a") == 3
        assert shard_host.append_slot("out", b"b") == 4

    def test_size_of_an_append_region_continues_from_its_base(self):
        """A shard reports the size the sequential host would: the declared
        append base plus this task's appends, which is where a staged
        append predicts its slots from."""
        shard_host = ShardHostMemory({"out": RegionShard(size=3, append_base=7),
                                      "R": RegionShard(size=5)})
        assert shard_host.size("out") == 7
        assert shard_host.append_slot("out", b"a") == 7
        assert shard_host.size("out") == 8
        assert shard_host.size("R") == 5

    def test_merge_verifies_append_base(self):
        host = HostMemory()
        host.allocate("out", 0)
        executor = ClusterExecutor(workers=1)
        cluster = Cluster(host, FastProvider(KEY), count=1)
        # Declared base 5, but the region holds 0 slots at merge time.
        task = ShardTask(
            device=0, fn=append_values, io=TaskIO(appends={"out": 5}),
            args=("out", [1, 2]),
        )
        with pytest.raises(HostMemoryError):
            executor.run_tasks(cluster, [task])


class TestClusterExecutor:
    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            ClusterExecutor(workers=0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_writes_merge_and_values_return_in_task_order(self, workers):
        _, cluster = rig(2)
        load_region(cluster, [10, 20, 30, 40])
        with ClusterExecutor(workers=workers) as executor:
            values = executor.run_tasks(cluster, [
                ShardTask(device=0, fn=double_value,
                          io=TaskIO(reads={"R": [(0, 2)]}), args=("R", 0)),
                ShardTask(device=1, fn=double_value,
                          io=TaskIO(reads={"R": [(2, 4)]}), args=("R", 3)),
            ])
        assert values == [10, 40]
        assert read_region(cluster, 4) == [20, 20, 30, 80]
        # Both devices recorded their own work.
        assert all(t.trace.transfer_count() > 0 for t in cluster)

    def test_worker_failure_annotated_with_device_and_label(self):
        _, cluster = rig(2)
        load_region(cluster, [1, 2])
        with ClusterExecutor(workers=2) as executor:
            with pytest.raises(HostMemoryError) as excinfo:
                executor.run_tasks(cluster, [
                    ShardTask(device=0, fn=touch_outside,
                              io=TaskIO(reads={"R": [(0, 1)]}),
                              args=("R", 0), label="in-bounds probe"),
                    ShardTask(device=1, fn=touch_outside,
                              io=TaskIO(reads={"R": [(0, 1)]}),
                              args=("R", 1), label="out-of-shard probe"),
                ])
        # The original error survives untouched; the worker/device context
        # rides along as an exception note (add_note), so both render in the
        # traceback and neither is lost to an unreconstructible type.
        assert "outside this worker's shard" in str(excinfo.value)
        notes = "\n".join(getattr(excinfo.value, "__notes__", []))
        assert "worker 1" in notes
        assert "out-of-shard probe" in notes

    def test_annotation_survives_unreconstructible_exception_type(self):
        class Picky(Exception):
            # Takes two required args: type(error)(message) would TypeError.
            def __init__(self, a, b):
                super().__init__(f"{a}/{b}")

        def raise_picky(coprocessor, region, index):
            raise Picky("left", "right")

        _, cluster = rig(1)
        load_region(cluster, [1])
        with ClusterExecutor(workers=1) as executor:
            with pytest.raises(Picky) as excinfo:
                executor.run_tasks(cluster, [
                    ShardTask(device=0, fn=raise_picky,
                              io=TaskIO(reads={"R": None}),
                              args=("R", 0), label="picky task"),
                ])
        assert "left/right" in str(excinfo.value)
        notes = "\n".join(getattr(excinfo.value, "__notes__", []))
        assert "worker 0" in notes and "picky task" in notes

    def test_run_partitioned_matches_cluster_partitions(self):
        _, cluster = rig(3)
        load_region(cluster, list(range(9)))
        with ClusterExecutor(workers=2) as executor:
            ranges = executor.run_partitioned(
                cluster, 9,
                double_all,
                io=lambda index_range, worker: TaskIO(
                    reads={"R": [(index_range.start, index_range.stop)]}
                ),
            )
        assert ranges == cluster.partition_range(9)
        assert read_region(cluster, 9) == [2 * v for v in range(9)]


def double_all(coprocessor, index_range, worker):
    for i in index_range:
        double_value(coprocessor, "R", i)


class TestWallclockSortIdentity:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("processors,size", [(2, 8), (4, 16), (3, 12)])
    def test_identical_to_sequential_simulation(self, workers, processors, size):
        values = random.Random(size * 7 + processors).sample(range(1000), size)

        _, sequential = rig(processors)
        load_region(sequential, values)
        seq_report = parallel_oblivious_sort(sequential, "R", size, int_key)

        _, concurrent = rig(processors)
        load_region(concurrent, values)
        with ClusterExecutor(workers=workers) as executor:
            par_report = parallel_oblivious_sort(
                concurrent, "R", size, int_key, executor=executor
            )

        assert par_report == seq_report
        assert fingerprints(concurrent) == fingerprints(sequential)
        # Reading the region back records fresh GETs — only after comparing.
        assert read_region(concurrent, size) == sorted(values)

    def test_rejects_indivisible_size(self):
        _, cluster = rig(3)
        load_region(cluster, list(range(8)))
        with ClusterExecutor(workers=1) as executor:
            with pytest.raises(ConfigurationError):
                parallel_oblivious_sort(cluster, "R", 8, int_key, executor=executor)


class TestWallclockFilterIdentity:
    def test_identical_to_sequential_simulation(self):
        rng = random.Random(11)
        size, keep = 16, 5
        flagged = [(1 if i < keep else 0, rng.randrange(1000)) for i in range(size)]
        rng.shuffle(flagged)
        payloads = [bytes([flag]) + struct.pack(">q", v) for flag, v in flagged]

        def load(cluster):
            cluster.host.allocate("S", size)
            for i, p in enumerate(payloads):
                cluster[0].put("S", i, p)
            for t in cluster:
                t.reset_trace()

        _, sequential = rig(2)
        load(sequential)
        seq = parallel_oblivious_filter(
            sequential, "S", size, keep=keep, delta=3, priority=flag_priority
        )

        _, concurrent = rig(2)
        load(concurrent)
        with ClusterExecutor(workers=2) as executor:
            par = parallel_oblivious_filter(
                concurrent, "S", size, keep=keep, delta=3,
                priority=flag_priority, executor=executor,
            )

        assert par == seq
        assert fingerprints(concurrent) == fingerprints(sequential)
        kept = [
            concurrent[0].get(seq.buffer_region, i)[0] for i in range(keep)
        ]
        assert kept == [1] * keep


def workload(seed=50, left=8, right=10, results=6):
    wl = equijoin_workload(left, right, results, rng=random.Random(seed))
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))
    return wl, reference


class TestWallclockJoinIdentity:
    """Each parallel algorithm under the executor == its sequential twin."""

    def run_both(self, fn, *args, **kwargs):
        context, cluster = rig(4)
        seq = fn(context, cluster, *args, **kwargs)
        seq_prints = fingerprints(cluster)
        context, cluster = rig(4)
        with ClusterExecutor(workers=2) as executor:
            par = fn(context, cluster, *args, executor=executor, **kwargs)
        return seq, par, seq_prints, fingerprints(cluster)

    def assert_identical(self, seq, par, seq_prints, par_prints, reference):
        assert par.result.same_multiset(seq.result)
        assert par.result.same_multiset(reference)
        assert par_prints == seq_prints
        assert par.makespan_transfers == seq.makespan_transfers
        assert par.total_transfers == seq.total_transfers

    def test_algorithm2(self):
        wl, reference = workload()
        out = self.run_both(
            parallel_algorithm2, wl.left, wl.right, Equality("key"),
            wl.max_matches, 2,
        )
        self.assert_identical(*out, reference)

    def test_algorithm3(self):
        wl, reference = workload(seed=51)
        out = self.run_both(
            parallel_algorithm3, wl.left, wl.right, "key", wl.max_matches,
        )
        self.assert_identical(*out, reference)

    def test_algorithm4(self):
        wl, reference = workload(seed=52)
        out = self.run_both(
            parallel_algorithm4, [wl.left, wl.right],
            BinaryAsMulti(Equality("key")),
        )
        self.assert_identical(*out, reference)

    def test_algorithm5(self):
        wl, reference = workload(seed=53)
        out = self.run_both(
            parallel_algorithm5, [wl.left, wl.right],
            BinaryAsMulti(Equality("key")), 4,
        )
        self.assert_identical(*out, reference)

    def test_algorithm6(self):
        wl, reference = workload(seed=54)
        out = self.run_both(
            parallel_algorithm6, [wl.left, wl.right],
            BinaryAsMulti(Equality("key")), 6, seed=9,
        )
        self.assert_identical(*out, reference)


class TestParallelExecutionPrivacy:
    """An adversarial host watching the *parallel* execution must see the
    same per-device access pattern regardless of data: the privacy argument
    of the sequential simulation carries over bit-for-bit."""

    @pytest.mark.parametrize("fn,extra", [
        (parallel_algorithm2, lambda wl: (Equality("key"), 2, 2)),
        (parallel_algorithm5,
         lambda wl: ([BinaryAsMulti(Equality("key"))][0], 4)),
    ])
    def test_traces_data_independent_under_executor(self, fn, extra):
        observed = []
        with ClusterExecutor(workers=2) as executor:
            for seed in (101, 202):
                wl = equijoin_workload(8, 9, 5, rng=random.Random(seed))
                context, cluster = rig(2)
                if fn is parallel_algorithm2:
                    fn(context, cluster, wl.left, wl.right, *extra(wl),
                       executor=executor)
                else:
                    fn(context, cluster, [wl.left, wl.right], *extra(wl),
                       executor=executor)
                observed.append([list(t.trace.events) for t in cluster])
        assert observed[0] == observed[1]


JOIN_CASES = {
    "algorithm2": (51, lambda wl: (parallel_algorithm2, (
        wl.left, wl.right, Equality("key"), wl.max_matches, 2), {})),
    "algorithm3": (52, lambda wl: (parallel_algorithm3, (
        wl.left, wl.right, "key", wl.max_matches), {})),
    "algorithm4": (53, lambda wl: (parallel_algorithm4, (
        [wl.left, wl.right], BinaryAsMulti(Equality("key"))), {})),
    "algorithm5": (54, lambda wl: (parallel_algorithm5, (
        [wl.left, wl.right], BinaryAsMulti(Equality("key")), 4), {})),
    "algorithm6": (55, lambda wl: (parallel_algorithm6, (
        [wl.left, wl.right], BinaryAsMulti(Equality("key")), 6), {"seed": 9})),
}


class TestOneDriverTwoExecutors:
    """Each parallel driver is one function; ``executor=`` only picks who runs
    its rounds.  Everything a caller can observe — the phase rows included —
    is the same inline, on the in-process shard path and on a pool."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", sorted(JOIN_CASES))
    def test_join_observables_identical(self, name, workers):
        seed, case = JOIN_CASES[name]
        wl, reference = workload(seed=seed)
        fn, args, kwargs = case(wl)

        context, inline = rig(3)
        seq = fn(context, inline, *args, **kwargs)
        context, pooled = rig(3)
        with ClusterExecutor(workers=workers) as executor:
            par = fn(context, pooled, *args, executor=executor, **kwargs)
            assert executor.tasks_run > 0

        assert seq.result.same_multiset(reference)
        assert par.result == seq.result  # row order too
        assert fingerprints(pooled) == fingerprints(inline)
        assert par.per_coprocessor == seq.per_coprocessor
        assert par.makespan_transfers == seq.makespan_transfers
        assert par.total_transfers == seq.total_transfers
        assert plain_image(pooled) == plain_image(inline)
        # The phase rows: a share books nothing of its own in either mode.
        assert list(par.meta["phases"]) == list(seq.meta["phases"])
        for phase, row in seq.meta["phases"].items():
            for column in ("gets", "puts", "transfers", "calls"):
                assert par.meta["phases"][phase][column] == row[column], (phase, column)
        assert sum(row["transfers"] for row in seq.meta["phases"].values()) \
            == sum(t.trace.transfer_count() for t in inline)
        assert {**par.meta, "phases": None} == {**seq.meta, "phases": None}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_filter_observables_identical(self, workers):
        rng = random.Random(12)
        size, keep = 24, 7
        flagged = [(1 if i < keep else 0, rng.randrange(1000)) for i in range(size)]
        rng.shuffle(flagged)

        def run(executor):
            _, cluster = rig(3)
            cluster.host.allocate("S", size)
            for i, (flag, v) in enumerate(flagged):
                cluster[0].put("S", i, bytes([flag]) + struct.pack(">q", v))
            for t in cluster:
                t.reset_trace()
            report = parallel_oblivious_filter(
                cluster, "S", size, keep=keep, delta=4, priority=flag_priority,
                executor=executor)
            return report, fingerprints(cluster), plain_image(cluster)

        with ClusterExecutor(workers=workers) as executor:
            par = run(executor)
        seq = run(None)
        assert seq[0].parallel and seq[0].sorts > 1
        assert par == seq

    @pytest.mark.parametrize("workers", [None, 2])
    def test_forced_blemish_raises_either_way(self, workers):
        """Inline, Algorithm 6's round ends at the first blemished share; a
        pool has run the whole round — and reports the blemish all the same."""
        relations, _ = blemishing_workload()
        context, cluster = rig(2)
        with (ClusterExecutor(workers=workers) if workers else nullcontext()) as executor:
            with pytest.raises(BlemishError):
                parallel_algorithm6(
                    context, cluster, relations, BinaryAsMulti(Equality("key")),
                    memory=1, segment_size=128, executor=executor)
        # T0 screened either way; T1 only ever ran on the pool.
        busy = [t.trace.transfer_count() > 0 for t in cluster]
        assert busy == [True, workers is not None]
