"""Tests for the host memory, secure coprocessor, traces, and cluster."""

import pytest

from repro.crypto.provider import FastProvider
from repro.errors import AuthenticationError, EnclaveMemoryError, HostMemoryError
from repro.hardware.cluster import Cluster, ShardTask, TaskIO
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.counters import TransferStats
from repro.hardware.events import GET, PUT, AccessEvent, Trace
from repro.hardware.host import HostMemory

KEY = b"hardware-test-key-0123456789"


@pytest.fixture
def rig():
    host = HostMemory()
    provider = FastProvider(KEY)
    coprocessor = SecureCoprocessor(host, provider, memory_limit=4)
    return host, provider, coprocessor


class TestHostMemory:
    def test_allocate_and_size(self):
        host = HostMemory()
        host.allocate("A", 3)
        assert host.size("A") == 3
        assert host.has_region("A")

    def test_double_allocate_rejected(self):
        host = HostMemory()
        host.allocate("A", 1)
        with pytest.raises(HostMemoryError):
            host.allocate("A", 1)

    def test_unknown_region_rejected(self):
        host = HostMemory()
        with pytest.raises(HostMemoryError):
            host.read_slot("nope", 0)
        with pytest.raises(HostMemoryError):
            host.free("nope")

    def test_unwritten_slot_rejected(self):
        host = HostMemory()
        host.allocate("A", 1)
        with pytest.raises(HostMemoryError):
            host.read_slot("A", 0)

    def test_out_of_range_rejected(self):
        host = HostMemory()
        host.allocate("A", 1)
        with pytest.raises(HostMemoryError):
            host.write_slot("A", 5, b"x")

    def test_append_grows(self):
        host = HostMemory()
        host.allocate("A", 0)
        assert host.append_slot("A", b"x") == 0
        assert host.append_slot("A", b"y") == 1

    def test_host_copy_appends(self):
        host = HostMemory()
        host.allocate_from("src", [b"a", b"b", b"c"])
        host.allocate("dst", 0)
        host.host_copy("src", 1, 2, "dst")
        assert host.region_bytes("dst") == [b"b", b"c"]

    def test_host_copy_into_positional(self):
        host = HostMemory()
        host.allocate_from("src", [b"a", b"b"])
        host.allocate_from("dst", [b"x", b"y", b"z"])
        host.host_copy_into("src", 0, 2, "dst", 1)
        assert host.region_bytes("dst") == [b"x", b"a", b"b"]

    def test_copy_bounds_checked(self):
        host = HostMemory()
        host.allocate_from("src", [b"a"])
        host.allocate("dst", 1)
        with pytest.raises(HostMemoryError):
            host.host_copy_into("src", 0, 2, "dst", 0)
        with pytest.raises(HostMemoryError):
            host.host_copy_into("src", 0, 1, "dst", 1)

    def test_host_copy_rejects_negative_count(self):
        # Regression: a negative count used to pass the upper-bound check
        # (src_start + count <= len) and silently no-op the slice.
        host = HostMemory()
        host.allocate_from("src", [b"a", b"b", b"c"])
        host.allocate("dst", 0)
        with pytest.raises(HostMemoryError):
            host.host_copy("src", 2, -1, "dst")
        with pytest.raises(HostMemoryError):
            host.host_copy("src", -1, 2, "dst")
        assert host.region_bytes("dst") == []

    def test_host_copy_into_rejects_negative_count(self):
        host = HostMemory()
        host.allocate_from("src", [b"a", b"b"])
        host.allocate_from("dst", [b"x", b"y"])
        with pytest.raises(HostMemoryError):
            host.host_copy_into("src", 1, -1, "dst", 0)
        with pytest.raises(HostMemoryError):
            host.host_copy_into("src", 0, 1, "dst", -1)
        assert host.region_bytes("dst") == [b"x", b"y"]


class SlotLoggingHost(HostMemory):
    """Overrides the scalar writes, so the ranged calls must loop over them."""

    def __init__(self):
        super().__init__()
        self.log = []

    def write_slot(self, name, index, ciphertext):
        self.log.append(("write", name, index))
        super().write_slot(name, index, ciphertext)

    def append_slot(self, name, ciphertext):
        self.log.append(("append", name))
        return super().append_slot(name, ciphertext)


class TestHostRangedWrites:
    """The honest host writes a batch in one pass, and refuses exactly the
    batches its per-slot calls refuse: same error, same partial writes."""

    @staticmethod
    def host():
        host = HostMemory()
        host.allocate_from("A", [b"a0", b"a1", b"a2"])
        host.allocate("B", 2)
        return host

    @pytest.mark.parametrize("slots", [
        [("A", 0), ("C", 0)],
        [("A", 1), ("A", 3)],
        [("A", 2), ("A", -1)],
        [("B", 1), ("A", 0), ("B", 2), ("Z", 0)],
    ], ids=["unknown-region", "past-the-end", "negative", "first-refusal-wins"])
    def test_write_slots_refuses_where_write_slot_does(self, slots):
        cells = [b"w%d" % i for i in range(len(slots))]
        one_by_one, batch = self.host(), self.host()
        with pytest.raises(HostMemoryError) as scalar:
            for slot, cell in zip(slots, cells):
                one_by_one.write_slot(*slot, cell)
        with pytest.raises(HostMemoryError) as ranged:
            batch.write_slots(slots, cells)
        assert str(ranged.value) == str(scalar.value)
        assert batch.snapshot_regions() == one_by_one.snapshot_regions()

    def test_write_slots_writes_what_write_slot_does(self):
        slots = [("B", 1), ("A", 0), ("B", 1), ("A", 2)]
        cells = [b"x", b"y", b"z", b"w"]
        one_by_one, batch = self.host(), self.host()
        for slot, cell in zip(slots, cells):
            one_by_one.write_slot(*slot, cell)
        batch.write_slots(slots, cells)
        assert batch.snapshot_regions() == one_by_one.snapshot_regions()
        assert batch.region_bytes("B") == [None, b"z"]

    def test_an_honest_batch_makes_no_per_slot_call(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-slot call on the direct path")

        host = self.host()
        monkeypatch.setattr(HostMemory, "write_slot", refuse)
        monkeypatch.setattr(HostMemory, "append_slot", refuse)
        host.write_slots([("A", 1), ("B", 0)], [b"x", b"y"])
        assert host.append_slots("B", [b"p", b"q"]) == [2, 3]
        assert host.region_bytes("B") == [b"y", None, b"p", b"q"]

    def test_append_slots_matches_append_slot(self):
        one_by_one, batch = self.host(), self.host()
        assert batch.append_slots("A", [b"p", b"q"]) == [
            one_by_one.append_slot("A", cell) for cell in (b"p", b"q")]
        assert batch.snapshot_regions() == one_by_one.snapshot_regions()
        assert batch.append_slots("A", []) == []
        assert batch.append_slots("Z", []) == []
        with pytest.raises(HostMemoryError, match="'Z' does not exist"):
            batch.append_slots("Z", [b"x"])

    def test_a_host_that_overrides_the_scalar_writes_sees_every_slot(self):
        host = SlotLoggingHost()
        host.allocate("R", 2)
        host.write_slots([("R", 1), ("R", 0)], [b"x", b"y"])
        assert host.append_slots("R", [b"p", b"q"]) == [2, 3]
        assert host.log == [("write", "R", 1), ("write", "R", 0),
                            ("append", "R"), ("append", "R")]


class TestCoprocessor:
    def test_put_get_roundtrip_and_trace(self, rig):
        host, provider, t = rig
        host.allocate("R", 2)
        t.put("R", 1, b"hello")
        assert t.get("R", 1) == b"hello"
        assert t.trace.events == [AccessEvent(PUT, "R", 1), AccessEvent(GET, "R", 1)]

    def test_host_stores_only_ciphertext(self, rig):
        host, provider, t = rig
        host.allocate("R", 1)
        t.put("R", 0, b"plaintext-secret")
        assert b"plaintext-secret" not in host.read_slot("R", 0)

    def test_tamper_detected_on_get(self, rig):
        host, provider, t = rig
        host.allocate("R", 1)
        t.put("R", 0, b"secret")
        raw = bytearray(host.read_slot("R", 0))
        raw[-1] ^= 1
        host.write_slot("R", 0, bytes(raw))
        with pytest.raises(AuthenticationError):
            t.get("R", 0)

    def test_memory_limit_enforced(self, rig):
        host, provider, t = rig
        with t.hold(3):
            with pytest.raises(EnclaveMemoryError):
                with t.hold(2):
                    pass

    def test_hold_releases_on_exit(self, rig):
        _, _, t = rig
        with t.hold(4):
            pass
        assert t.slots_in_use == 0
        with t.hold(4):
            pass

    def test_peak_tracking(self, rig):
        _, _, t = rig
        with t.hold(2):
            with t.hold(1):
                pass
        assert t.peak_in_use == 3

    def test_buffer_overflow_raises(self, rig):
        _, _, t = rig
        buffer = t.buffer(2)
        buffer.append(b"a")
        buffer.append(b"b")
        assert buffer.full
        with pytest.raises(EnclaveMemoryError):
            buffer.append(b"c")
        buffer.release()

    def test_buffer_drain_and_release(self, rig):
        _, _, t = rig
        buffer = t.buffer(2)
        buffer.append(b"a")
        assert buffer.drain() == [b"a"]
        assert len(buffer) == 0
        buffer.release()
        assert t.slots_in_use == 0
        buffer.release()  # idempotent
        assert t.slots_in_use == 0

    def test_put_append(self, rig):
        host, _, t = rig
        host.allocate("out", 0)
        assert t.put_append("out", b"r0") == 0
        assert t.put_append("out", b"r1") == 1
        assert t.get("out", 1) == b"r1"

    def test_crypto_op_counters(self, rig):
        host, _, t = rig
        host.allocate("R", 1)
        t.put("R", 0, b"x")
        t.get("R", 0)
        assert t.encryptions == 1
        assert t.decryptions == 1


class TestTrace:
    def test_counts_and_regions(self):
        trace = Trace()
        trace.record(GET, "A", 0)
        trace.record(PUT, "B", 1)
        trace.record(GET, "A", 2)
        assert trace.transfer_count() == 3
        assert trace.count(op=GET) == 2
        assert trace.count(region="A") == 2
        assert trace.count(op=PUT, region="B") == 1
        assert trace.regions() == {"A", "B"}

    def test_fingerprint_distinguishes(self):
        t1, t2 = Trace(), Trace()
        t1.record(GET, "A", 0)
        t2.record(GET, "A", 1)
        assert t1.fingerprint() != t2.fingerprint()
        t3 = Trace()
        t3.record(GET, "A", 0)
        assert t1.fingerprint() == t3.fingerprint()

    def test_first_divergence(self):
        t1, t2 = Trace(), Trace()
        for t in (t1, t2):
            t.record(GET, "A", 0)
        assert t1.first_divergence(t2) is None
        t2.record(PUT, "B", 0)
        assert t1.first_divergence(t2) == 1
        t1.record(PUT, "C", 0)
        assert t1.first_divergence(t2) == 1

    def test_transfer_stats(self):
        trace = Trace()
        trace.record(GET, "A", 0)
        trace.record(PUT, "out", 0)
        trace.record(PUT, "out", 1)
        stats = TransferStats.from_trace(trace)
        assert stats.total == 3
        assert stats.gets == 1
        assert stats.puts == 2
        assert stats.region_total("out") == 2
        assert "total=3" in stats.describe()


class TestCluster:
    def test_partition_balance(self):
        host = HostMemory()
        cluster = Cluster(host, FastProvider(KEY), count=3)
        ranges = cluster.partition_range(10)
        assert [len(r) for r in ranges] == [4, 3, 3]
        assert [i for r in ranges for i in r] == list(range(10))

    def test_speedup_accounting(self):
        host = HostMemory()
        host.allocate("R", 8)
        cluster = Cluster(host, FastProvider(KEY), count=2)

        workers = []

        def work(t, index_range, worker):
            workers.append(worker)
            for i in index_range:
                t.put("R", i, b"x")

        cluster.run_partitioned(8, work)
        assert workers == [0, 1]
        assert cluster.total_transfers() == 8
        assert cluster.makespan_transfers() == 4
        assert cluster.speedup() == pytest.approx(2.0)

    def test_speedup_single_coprocessor(self):
        host = HostMemory()
        host.allocate("R", 3)
        cluster = Cluster(host, FastProvider(KEY), count=1)
        cluster.run_partitioned(3, lambda t, r, w: [t.put("R", i, b"x") for i in r])
        # One device: the makespan IS the total, so speedup is exactly 1.
        assert cluster.makespan_transfers() == cluster.total_transfers() == 3
        assert cluster.speedup() == pytest.approx(1.0)

    def test_speedup_zero_transfer_run(self):
        cluster = Cluster(HostMemory(), FastProvider(KEY), count=3)
        # Nothing ran: the all-idle cluster is trivially balanced — speedup
        # reports P rather than dividing by a zero makespan.
        assert cluster.makespan_transfers() == 0
        assert cluster.speedup() == pytest.approx(3.0)

    def test_speedup_unbalanced_partition(self):
        host = HostMemory()
        host.allocate("R", 6)
        cluster = Cluster(host, FastProvider(KEY), count=2)

        def lopsided(t, index_range, worker):
            # Worker 0 does triple passes over its half; worker 1 one pass.
            passes = 3 if worker == 0 else 1
            for _ in range(passes):
                for i in index_range:
                    t.put("R", i, b"x")

        cluster.run_partitioned(6, lopsided)
        assert cluster.total_transfers() == 12
        assert cluster.makespan_transfers() == 9
        assert cluster.speedup() == pytest.approx(12 / 9)

    def test_partition_range_smaller_than_cluster(self):
        cluster = Cluster(HostMemory(), FastProvider(KEY), count=4)
        ranges = cluster.partition_range(2)
        # size < count: trailing workers get empty ranges, coverage is exact.
        assert [len(r) for r in ranges] == [1, 1, 0, 0]
        assert [i for r in ranges for i in r] == [0, 1]
        assert cluster.partition_range(0) == [range(0, 0)] * 4

    def test_exhausted_transient_retries_annotated(self):
        """Regression: a TransientHostError that survives its retry budget
        must surface annotated with the worker and index range, exactly like
        any other partition failure (it used to re-raise bare)."""
        from repro.errors import TransientHostError

        host = HostMemory()
        host.allocate("R", 4)
        cluster = Cluster(host, FastProvider(KEY), count=2)
        attempts = []

        def flaky(t, index_range, worker):
            attempts.append(worker)
            if worker == 1:
                raise TransientHostError("dropped read")

        with pytest.raises(TransientHostError) as excinfo:
            cluster.run_partitioned(4, flaky, transient_retries=2)
        message = str(excinfo.value)
        assert "worker 1" in message and "[2, 4)" in message
        assert "dropped read" in message
        assert isinstance(excinfo.value.__cause__, TransientHostError)
        # Worker 0 once; worker 1 once plus two retries.
        assert attempts == [0, 1, 1, 1]

    def test_transient_retry_succeeds_within_budget(self):
        host = HostMemory()
        host.allocate("R", 2)
        cluster = Cluster(host, FastProvider(KEY), count=1)
        failures = iter([True, False])

        def flaky(t, index_range, worker):
            from repro.errors import TransientHostError

            if next(failures):
                raise TransientHostError("stall")
            for i in index_range:
                t.put("R", i, b"x")

        cluster.run_partitioned(2, flaky, transient_retries=1)
        assert cluster.total_transfers() == 2


class ForbiddenIO:
    """A footprint the inline runner must never look at."""

    def __getattribute__(self, name):
        raise AssertionError(f"inline round touched io.{name}")


class TestClusterTaskRounds:
    """``Cluster.run_tasks`` with no executor: the sequential simulation."""

    def build(self, count=2, slots=4):
        host = HostMemory()
        host.allocate("R", slots)
        return Cluster(host, FastProvider(KEY), count=count)

    def test_values_in_task_order_on_the_named_devices(self):
        cluster = self.build(count=3)

        def put_and_name(t, index, *, scale):
            t.put("R", index, b"x")
            return (t.name, index * scale)

        values = cluster.run_tasks([
            ShardTask(device=2, fn=put_and_name, io=ForbiddenIO(), args=(0,),
                      kwargs={"scale": 10}),
            ShardTask(device=0, fn=put_and_name, io=ForbiddenIO(), args=(3,),
                      kwargs={"scale": 10}),
        ])
        assert values == [("T2", 0), ("T0", 30)]
        assert [t.trace.transfer_count() for t in cluster] == [1, 0, 1]

    def test_failure_names_device_and_label_and_keeps_the_type(self):
        cluster = self.build()
        ran = []

        def work(t, index):
            ran.append(index)
            if index == 1:
                raise AuthenticationError("tag mismatch")

        with pytest.raises(AuthenticationError) as excinfo:
            cluster.run_tasks([
                ShardTask(device=0, fn=work, io=TaskIO(), args=(0,), label="first"),
                ShardTask(device=1, fn=work, io=TaskIO(), args=(1,), label="second probe"),
                ShardTask(device=0, fn=work, io=TaskIO(), args=(2,), label="third"),
            ])
        message = str(excinfo.value)
        assert "worker 1" in message and "T1" in message
        assert "second probe" in message and "tag mismatch" in message
        assert isinstance(excinfo.value.__cause__, AuthenticationError)
        assert ran == [0, 1]  # the round stops at the failure

    def test_transient_retries_honoured_per_task(self):
        from repro.errors import TransientHostError

        cluster = self.build()
        attempts = []

        def flaky(t, index):
            attempts.append(index)
            if index == 1 and attempts.count(1) < 3:
                raise TransientHostError("stall")
            return index

        tasks = [ShardTask(device=i, fn=flaky, io=TaskIO(), args=(i,), label=f"task {i}")
                 for i in range(2)]
        assert cluster.run_tasks(tasks, transient_retries=2) == [0, 1]
        assert attempts == [0, 1, 1, 1]
        attempts.clear()
        with pytest.raises(TransientHostError, match="task 1"):
            cluster.run_tasks(tasks, transient_retries=1)

    def test_iter_tasks_runs_each_task_as_its_value_is_asked_for(self):
        cluster = self.build()
        ran = []
        tasks = [ShardTask(device=0, fn=lambda t, i=i: ran.append(i) or i == 1,
                           io=ForbiddenIO()) for i in range(4)]
        assert any(cluster.iter_tasks(tasks))
        assert ran == [0, 1]


# --- host wrappers forward what they do not intercept ---------------------------

import inspect

from repro.faults.checkpoint import base_host
from repro.faults.recovery import RecoveryHost
from repro.hardware.faulty import FaultyHost

#: One call per public ``HostMemory`` method, in an order that is valid on an
#: empty host.  A method added to ``HostMemory`` must be added here.
HOST_CALLS = [
    ("allocate", ("r", 4)),
    ("allocate_from", ("s", [b"a", b"b"])),
    ("has_region", ("r",)),
    ("size", ("s",)),
    ("region_names", ()),
    ("write_slot", ("r", 0, b"w")),
    ("write_slots", ([("r", 1), ("r", 2)], [b"x", b"y"])),
    ("read_slot", ("r", 0)),
    ("read_slots", ([("r", 2), ("s", 0)],)),
    ("append_slot", ("s", b"c")),
    ("append_slots", ("s", [b"d", b"e"])),
    ("host_copy", ("r", 0, 2, "s")),
    ("host_copy_into", ("s", 0, 2, "r", 1)),
    ("region_bytes", ("r",)),
    ("snapshot_regions", ()),
    ("restore_regions", ({"r": [b"q", None]},)),
    ("free", ("r",)),
]


class TestHostWrappersForward:
    def test_every_public_host_method_crosses_the_wrapper_stack(self):
        public = {name for name, member in inspect.getmembers(HostMemory, callable)
                  if not name.startswith("_")}
        assert {name for name, _ in HOST_CALLS} == public
        raw, twin = HostMemory(), HostMemory()
        stack = RecoveryHost(FaultyHost(raw))
        for name, args in HOST_CALLS:
            assert getattr(stack, name)(*args) == getattr(twin, name)(*args), name
            assert raw.snapshot_regions() == twin.snapshot_regions(), name
        assert stack.inner.ops_attempted == 0  # host-side calls never tick

    def test_admit_is_reachable_exactly_when_a_fault_clock_is_below(self):
        faulty = FaultyHost(HostMemory())
        assert RecoveryHost(faulty).admit == faulty.admit
        RecoveryHost(faulty).admit([("read", "r"), ("write", "r")])
        assert faulty.ops_attempted == 2
        clockless = RecoveryHost(HostMemory())
        assert not hasattr(clockless, "admit")
        assert SecureCoprocessor(clockless, FastProvider(KEY))._admit is None
        with pytest.raises(AttributeError):
            clockless.no_such_host_method

    def test_base_host_peels_to_raw_storage(self):
        raw = HostMemory()
        assert base_host(RecoveryHost(FaultyHost(raw))) is raw
        assert base_host(raw) is raw
