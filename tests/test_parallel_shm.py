"""Shared-memory shard transport: segment lifecycle, packing, memoization.

The executor's arena segments are parent-owned: every round must unlink its
segment on success, on a worker exception (the chaos harness's injected
crash), and on a hard worker death; ``close()`` sweeps anything a broken
round left registered; inline mode must never allocate a segment at all.
Leak checks look at ``/dev/shm`` filtered to this process's own prefix so
concurrently running test processes cannot interfere.
"""

import os
import pickle

import pytest

from tests.test_parallel_exec import (
    double_value,
    fingerprints,
    int_key,
    load_region,
    read_region,
    rig,
)

from repro.errors import CoprocessorCrashError
from repro.faults.plan import crash_plan
from repro.hardware.events import Trace
from repro.hardware.faulty import FaultyHost
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.obs import MetricsRegistry, instrument_executor
from repro.parallel import (
    SEGMENT_PREFIX,
    ClusterExecutor,
    ShardTask,
    TaskIO,
)
from repro.parallel.shard import (
    pack_appends,
    pack_writes,
    unpack_appends,
    unpack_writes,
)

SHM_DIR = "/dev/shm"
needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)


def own_segments():
    """Arena segments created by *this* process (names embed the pid)."""
    prefix = f"{SEGMENT_PREFIX}-{os.getpid()}-"
    return [name for name in os.listdir(SHM_DIR) if name.startswith(prefix)]


# -- module-level worker functions (must pickle) ------------------------------

def crash_via_chaos(coprocessor, region, index):
    """Reuse the repro.faults chaos harness to kill the worker's first op."""
    faulty = FaultyHost(coprocessor.host, crash_plan([1]))
    faulty.admit([("read", region)])


def hard_exit(coprocessor, region, index):
    os._exit(13)  # simulates a worker process dying without cleanup


def provider_identity(coprocessor, region, index):
    coprocessor.get(region, index)
    return (os.getpid(), id(coprocessor.provider))


class TestPackedTransfers:
    def test_trace_columns_round_trip(self):
        """A worker trace crosses the pool as its columns and merges as one run."""
        events = [("get", "A", 0), ("put", "B", 7), ("get", "A", 2 ** 40)]
        worker = Trace()
        for event in events * 10:
            worker.record(*event)
        table, codes, indices = pickle.loads(pickle.dumps(worker.columns()))
        # The table interns one entry per distinct (op, region) pair.
        assert table == (("get", "A"), ("put", "B"))
        assert len(codes) == len(indices) == 30 and indices.itemsize == 8
        parent = Trace()
        parent.record("put", "B", 1)  # interned in another order than the worker
        parent.record_run(table, codes, indices)
        assert parent.events == [("put", "B", 1)] + events * 10

    def test_writes_round_trip(self):
        writes = [(0, b"abc"), (5, b""), (2 ** 33, b"\x00" * 17)]
        assert list(unpack_writes(pack_writes(writes))) == writes

    def test_appends_round_trip(self):
        items = [b"x", b"", b"yy" * 100]
        assert list(unpack_appends(pack_appends(items))) == items


@needs_dev_shm
class TestSegmentLifecycle:
    def test_normal_pooled_run_leaves_no_segments(self):
        _, cluster = rig(2)
        load_region(cluster, [10, 20, 30, 40])
        with ClusterExecutor(workers=2) as executor:
            executor.run_tasks(cluster, [
                ShardTask(device=0, fn=double_value,
                          io=TaskIO(reads={"R": [(0, 2)]}), args=("R", 0)),
                ShardTask(device=1, fn=double_value,
                          io=TaskIO(reads={"R": [(2, 4)]}), args=("R", 3)),
            ])
            # Segments are per-round: already unlinked before close().
            assert own_segments() == []
            assert executor.bytes_shared > 0
        assert own_segments() == []
        assert read_region(cluster, 4) == [20, 20, 30, 80]

    def test_close_sweeps_leftover_arena(self):
        _, cluster = rig(2)
        load_region(cluster, [1, 2, 3, 4])
        executor = ClusterExecutor(workers=2)
        tasks = [ShardTask(device=0, fn=double_value,
                           io=TaskIO(reads={"R": None}), args=("R", 0))]
        # Simulate a crash path that never reached the round's unlink.
        executor._new_arena(cluster, tasks)
        assert len(own_segments()) == 1
        executor.close()
        assert own_segments() == []

    def test_worker_exception_via_chaos_harness_cleans_up(self):
        _, cluster = rig(2)
        load_region(cluster, [1, 2])
        with ClusterExecutor(workers=2) as executor:
            with pytest.raises(CoprocessorCrashError) as excinfo:
                executor.run_tasks(cluster, [
                    ShardTask(device=0, fn=crash_via_chaos,
                              io=TaskIO(reads={"R": [(0, 1)]}),
                              args=("R", 0), label="chaos crash"),
                    ShardTask(device=1, fn=double_value,
                              io=TaskIO(reads={"R": [(1, 2)]}),
                              args=("R", 1)),
                ])
            assert own_segments() == []
        notes = "\n".join(getattr(excinfo.value, "__notes__", []))
        assert "worker 0" in notes and "chaos crash" in notes
        assert own_segments() == []

    def test_worker_hard_death_cleans_up(self):
        from concurrent.futures.process import BrokenProcessPool

        _, cluster = rig(2)
        load_region(cluster, [1, 2])
        executor = ClusterExecutor(workers=2)
        try:
            with pytest.raises(BrokenProcessPool):
                executor.run_tasks(cluster, [
                    ShardTask(device=0, fn=hard_exit,
                              io=TaskIO(reads={"R": [(0, 1)]}),
                              args=("R", 0), label="hard death"),
                    ShardTask(device=1, fn=hard_exit,
                              io=TaskIO(reads={"R": [(1, 2)]}),
                              args=("R", 1), label="hard death"),
                ])
        finally:
            executor.close()
        assert own_segments() == []

    def test_inline_mode_allocates_no_segments(self):
        _, cluster = rig(2)
        load_region(cluster, [5, 6, 7, 8])
        with ClusterExecutor(workers=1) as executor:
            executor.run_tasks(cluster, [
                ShardTask(device=0, fn=double_value,
                          io=TaskIO(reads={"R": [(0, 2)]}), args=("R", 0)),
                ShardTask(device=1, fn=double_value,
                          io=TaskIO(reads={"R": [(2, 4)]}), args=("R", 2)),
            ])
            assert executor.bytes_shared == 0
            assert own_segments() == []


class TestWorkerProviderMemoization:
    def test_one_clone_per_worker_process(self):
        _, cluster = rig(2)
        load_region(cluster, [1, 2, 3, 4])
        seen: dict[int, set[int]] = {}
        with ClusterExecutor(workers=2) as executor:
            for _ in range(3):  # several rounds reuse the same pool processes
                results = executor.run_tasks(cluster, [
                    ShardTask(device=0, fn=provider_identity,
                              io=TaskIO(reads={"R": [(0, 2)]}), args=("R", 0)),
                    ShardTask(device=1, fn=provider_identity,
                              io=TaskIO(reads={"R": [(2, 4)]}), args=("R", 2)),
                ])
                for pid, provider_id in results:
                    seen.setdefault(pid, set()).add(provider_id)
        assert seen  # pooled path exercised
        for pid, provider_ids in seen.items():
            assert len(provider_ids) == 1, (
                f"worker {pid} rebuilt its provider instead of memoizing"
            )

    def test_in_process_clones_die_with_their_providers(self):
        """A round of one task (every global stage of a P=2 sort) runs in the
        parent on a clone of the cluster's provider.  The executor holds that
        clone weakly by provider: joins with fresh providers on one long-lived
        executor (the benchmark's ``parallel_pool``) must not leave one each."""
        import gc

        from tests.test_parallel_exec import workload
        from repro.core.parallel import parallel_algorithm4
        from repro.relational.predicates import BinaryAsMulti, Equality

        wl, reference = workload(seed=52)
        prints = set()
        with ClusterExecutor(workers=2) as executor:
            for _ in range(6):
                context, cluster = rig(2)  # a fresh provider per join
                out = parallel_algorithm4(
                    context, cluster, [wl.left, wl.right],
                    BinaryAsMulti(Equality("key")), executor=executor)
                assert out.result.same_multiset(reference)
                assert out.meta["filter_parallel"]
                prints.add(tuple(fingerprints(cluster)))
                assert len(executor._inline_providers) >= 1  # the path was taken
            del context, cluster, out
            gc.collect()
            assert len(executor._inline_providers) == 0
        assert len(prints) == 1

    def test_ciphertexts_interoperate_across_memoized_clones(self):
        # End to end: a multi-round sort where every worker reuses its clone
        # must still produce host ciphertexts the parent can decrypt.
        import random

        values = random.Random(3).sample(range(10_000), 16)
        _, cluster = rig(4)
        load_region(cluster, values)
        with ClusterExecutor(workers=2) as executor:
            parallel_oblivious_sort(cluster, "R", 16, int_key, executor=executor)
        assert read_region(cluster, 16) == sorted(values)


class TestExecutorCounters:
    def test_pooled_run_accounts_shared_and_pickled_bytes(self):
        import random

        values = random.Random(9).sample(range(10_000), 16)
        _, cluster = rig(4)
        load_region(cluster, values)
        with ClusterExecutor(workers=2) as executor:
            parallel_oblivious_sort(cluster, "R", 16, int_key, executor=executor)
            assert executor.bytes_shared > 0
            assert executor.bytes_pickled > 0   # packed results still pickle
            assert executor.tasks_submitted == executor.tasks_run
            assert executor.flushes >= executor.rounds
            registry = MetricsRegistry()
            instrument_executor(registry, executor, cluster="test")
            snapshot = registry.to_dict()
            series = snapshot["executor_bytes_shared_total"]["series"][0]
            assert series["value"] == executor.bytes_shared
            # A second instrumentation records only the (zero) delta.
            instrument_executor(registry, executor, cluster="test")
            series = registry.to_dict()["executor_bytes_shared_total"]["series"][0]
            assert series["value"] == executor.bytes_shared

    def test_identity_maintained_with_shared_memory_disabled(self, monkeypatch):
        # The dictionary fallback stays observationally identical.
        import random

        import repro.parallel.executor as executor_module

        values = random.Random(13).sample(range(10_000), 16)
        _, cluster = rig(4)
        load_region(cluster, values)
        with ClusterExecutor(workers=2) as executor:
            parallel_oblivious_sort(cluster, "R", 16, int_key, executor=executor)
        shm_prints = fingerprints(cluster)

        _, cluster = rig(4)
        load_region(cluster, values)

        def no_segments(*args, **kwargs):
            raise OSError("no usable shared memory")

        # The transport is chosen from an observation: the first arena that
        # cannot be created switches the executor to dictionaries for good.
        monkeypatch.setattr(executor_module, "SharedShardArena", no_segments)
        with ClusterExecutor(workers=2) as executor:
            parallel_oblivious_sort(cluster, "R", 16, int_key, executor=executor)
            assert not executor.use_shared_memory
            assert executor.bytes_shared == 0
            assert executor.bytes_pickled > 0
        assert fingerprints(cluster) == shm_prints
        assert read_region(cluster, 16) == sorted(values)
