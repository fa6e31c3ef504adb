"""One boundary crossing, one implementation.

A read, a write and an append each have one body over a list of slots, and
``get``/``put``/``put_append`` are batches of one; ``FaultyHost.admit`` is the
fault clock's only entry.  These tests pin what follows from that: the clock
counts exactly the declared boundary ops (and nothing host-side), an empty
batch touches nothing, a batch of one is not counted as a batch, and the
reference mode reaches the host one slot per ranged call.
"""

import random

import pytest

from repro.core.base import JoinContext
from repro.crypto.provider import FastProvider
from repro.faults.chaos import KEY, SAFE_ALGORITHMS, _runners
from repro.faults.checkpoint import CHECKPOINT_REGION, CheckpointStore
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory

MODES = [pytest.param(True, id="batched"), pytest.param(False, id="reference")]


@pytest.mark.parametrize("batched_io", MODES)
@pytest.mark.parametrize("name", SAFE_ALGORITHMS)
def test_fault_clock_counts_exactly_the_declared_boundary_ops(name, batched_io):
    host = FaultyHost(HostMemory())
    provider = FastProvider(KEY)
    coprocessor = SecureCoprocessor(host, provider, batched_io=batched_io)
    runner, _ = _runners(name, small=True)
    result = runner(JoinContext(host=host, coprocessor=coprocessor,
                                provider=provider, rng=random.Random(0)))
    declared = result.trace.transfer_count()
    assert declared > 0
    assert host.ops_attempted == coprocessor.ops_completed == declared


def test_host_side_calls_never_tick_the_fault_clock():
    host = FaultyHost(HostMemory())
    host.allocate_from("src", [b"a", b"b", b"c"])
    host.allocate("dst", 3)
    host.host_copy("src", 0, 2, "dst")
    host.host_copy_into("src", 1, 2, "dst", 0)
    host.write_slot("dst", 2, b"direct")
    assert host.read_slot("dst", 2) == b"direct"
    assert host.ops_attempted == 0


class SpyHost(HostMemory):
    """Honest storage that logs every ranged call as ``(kind, rows)``.

    The checkpoint store's own sealed I/O is left out of the log.
    """

    def __init__(self):
        super().__init__()
        self.calls = []

    def _log(self, kind, region, rows):
        if region != CHECKPOINT_REGION:
            self.calls.append((kind, rows))

    def read_slots(self, slots):
        self._log("read", slots[0][0] if slots else None, len(slots))
        return super().read_slots(slots)

    def write_slots(self, slots, ciphertexts):
        self._log("write", slots[0][0] if slots else None, len(slots))
        super().write_slots(slots, ciphertexts)

    def append_slots(self, name, ciphertexts):
        self._log("append", name, len(ciphertexts))
        return super().append_slots(name, ciphertexts)


def rig(batched_io):
    """A journalling coprocessor (commit after every op) on a faulty spy host."""
    spy = SpyHost()
    host = FaultyHost(spy)
    provider = FastProvider(KEY)
    spy.allocate("r", 4)
    spy.allocate("out", 0)
    seed = SecureCoprocessor(spy, provider)
    seed.put_many(("r", i, bytes([i]) * 4) for i in range(4))
    store = CheckpointStore(host, provider)
    store.initialize()
    t = SecureCoprocessor(host, provider, batched_io=batched_io,
                          checkpoint_store=store, checkpoint_interval=1)
    spy.calls.clear()
    return spy, host, store, t


def counters(t):
    return (t.ops_completed, t.encryptions, t.decryptions,
            t.physical_decryptions, t.cache_hits, t.batched_ops, t.batch_rows,
            t.cache_entries, t.checkpoints_sealed)


@pytest.mark.parametrize("batched_io", MODES)
def test_empty_batches_record_journal_admit_write_and_count_nothing(batched_io):
    spy, host, store, t = rig(batched_io)
    image = spy.snapshot_regions()
    assert t.get_many([]) == []
    assert t.put_many([]) is None
    assert t.append_many("out", []) == []
    assert t.get_range("r", 0, 0) == []
    assert t.put_range("r", 0, []) is None
    assert t.trace.transfer_count() == 0
    assert t._journal == [] and store.commits == 0
    assert host.ops_attempted == 0
    assert spy.calls == []
    assert spy.snapshot_regions() == image
    assert counters(t) == (0,) * 9


@pytest.mark.parametrize("batched_io", MODES)
def test_one_row_batches_are_batches_of_one(batched_io):
    spy, host, store, t = rig(batched_io)
    with t.hold(4):
        assert t.get_many([("r", 0)]) == [bytes([0]) * 4]
        assert t.get_range("r", 1, 1) == [bytes([1]) * 4]
        assert t.get("r", 2) == bytes([2]) * 4
    t.put_many([("r", 0, b"p0")])
    t.put_range("r", 1, [b"p1"])
    t.put("r", 2, b"p2")
    assert t.append_many("out", [b"a0"]) == [0]
    assert t.put_append("out", b"a1") == 1
    assert t.batched_ops == t.batch_rows == 0
    assert spy.calls == [("read", 1)] * 3 + [("write", 1)] * 3 + [("append", 1)] * 2
    assert host.ops_attempted == t.ops_completed == t.trace.transfer_count() == 8
    assert store.commits == t.checkpoints_sealed == 8  # one commit per op
    assert CheckpointStore(spy, t.provider).load().ops == 8


@pytest.mark.parametrize("batched_io", MODES)
def test_a_batch_reaches_the_host_whole_or_one_slot_per_call(batched_io):
    spy, host, _, t = rig(batched_io)
    slots = [("r", i) for i in range(4)]
    with t.hold(4):
        assert t.get_many(slots) == [bytes([i]) * 4 for i in range(4)]
    reads = [call for call in spy.calls if call[0] == "read"]
    assert reads == ([("read", 4)] if batched_io else [("read", 1)] * 4)
    assert (t.batched_ops, t.batch_rows) == ((1, 4) if batched_io else (0, 0))
    assert host.ops_attempted == 4
