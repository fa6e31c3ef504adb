"""One boundary crossing, one implementation.

Every crossing is a section — gathers, stages and one declared
``charge_boundary`` — and ``get``/``put``/``put_append`` and
``get_range``/``put_range`` are one-pass sections; ``FaultyHost.admit`` is
the fault clock's only entry.  These tests pin what follows from that: the
clock counts exactly the declared boundary ops (and nothing host-side), an
empty pass touches nothing, a one-row pass is a batch of one row on the
batched device and none on the reference, and ``ReferenceCoprocessor``
reaches the host one slot per ranged call.
"""

import random

import pytest

from repro.core.base import JoinContext
from repro.crypto.provider import FastProvider
from repro.faults.chaos import KEY, SAFE_ALGORITHMS, _runners
from repro.faults.checkpoint import CHECKPOINT_REGION, CheckpointStore
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.events import GET, PUT
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory

MODES = [pytest.param(SecureCoprocessor, id="batched"),
         pytest.param(ReferenceCoprocessor, id="reference")]


@pytest.mark.parametrize("device", MODES)
@pytest.mark.parametrize("name", SAFE_ALGORITHMS)
def test_fault_clock_counts_exactly_the_declared_boundary_ops(name, device):
    host = FaultyHost(HostMemory())
    provider = FastProvider(KEY)
    coprocessor = device(host, provider)
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


def rig(device):
    """A journalling coprocessor (commit after every op) on a faulty spy host."""
    spy = SpyHost()
    host = FaultyHost(spy)
    provider = FastProvider(KEY)
    spy.allocate("r", 4)
    spy.allocate("out", 0)
    seed = SecureCoprocessor(spy, provider)
    seed.put_range("r", 0, [bytes([i]) * 4 for i in range(4)])
    store = CheckpointStore(host, provider)
    store.initialize()
    t = device(host, provider, checkpoint_store=store, checkpoint_interval=1)
    spy.calls.clear()
    return spy, host, store, t


def counters(t):
    return (t.ops_completed, t.encryptions, t.decryptions,
            t.physical_decryptions, t.cache_hits, t.batched_ops, t.batch_rows,
            t.cache_entries, t.checkpoints_sealed)


@pytest.mark.parametrize("device", MODES)
def test_empty_batches_record_journal_admit_write_and_count_nothing(device):
    spy, host, store, t = rig(device)
    image = spy.snapshot_regions()
    assert t.gather_slots("r", []) == []
    assert t.scatter_slots("r", [], []) is None
    assert t.stage_append("out", []) == []
    assert t.charge_boundary([(GET, "r")], b"", []) is None
    assert t.get_range("r", 0, 0) == []
    assert t.put_range("r", 0, []) is None
    assert t.trace.transfer_count() == 0
    assert t._journal == [] and store.commits == 0
    assert host.ops_attempted == 0
    assert spy.calls == []
    assert spy.snapshot_regions() == image
    assert counters(t) == (0,) * 9


@pytest.mark.parametrize("device", MODES)
def test_one_row_batches_are_batches_of_one(device):
    spy, host, store, t = rig(device)
    with t.hold(4):
        assert t.get_range("r", 0, 1) == [bytes([0]) * 4]
        assert t.get_range("r", 1, 1) == [bytes([1]) * 4]
        assert t.get("r", 2) == bytes([2]) * 4
    t.put_range("r", 0, [b"p0"])
    t.put_range("r", 1, [b"p1"])
    t.put("r", 2, b"p2")
    assert t.put_append("out", b"a0") == 0
    assert t.put_append("out", b"a1") == 1
    # Each call is a one-pass section: its one-slot gather or stage is one
    # batch of one row on the fast path; the reference counts no batch.
    batched = device is SecureCoprocessor
    assert (t.batched_ops, t.batch_rows) == ((8, 8) if batched else (0, 0))
    assert spy.calls == [("read", 1)] * 3 + [("write", 1)] * 3 + [("append", 1)] * 2
    assert host.ops_attempted == t.ops_completed == t.trace.transfer_count() == 8
    assert store.commits == t.checkpoints_sealed == 8  # one commit per op
    assert CheckpointStore(spy, t.provider).load().ops == 8
    assert t.gather_slots("r", [3]) == [bytes([3]) * 4]
    assert (t.batched_ops, t.batch_rows) == ((9, 9) if batched else (0, 0))
    t.scatter_slots("r", [3], [b"p3"])
    assert (t.batched_ops, t.batch_rows) == ((10, 10) if batched else (0, 0))
    t.charge_boundary([(GET, "r"), (PUT, "r")], bytes([0, 1]), [3, 3])
    assert (t.batched_ops, t.batch_rows) == ((10, 10) if batched else (0, 0))
    assert host.ops_attempted == t.ops_completed == t.trace.transfer_count() == 10
    with t.hold(1):
        assert t.get("r", 3) == b"p3"


@pytest.mark.parametrize("device", MODES)
def test_a_batch_reaches_the_host_whole_or_one_slot_per_call(device):
    spy, host, _, t = rig(device)
    batched = device is SecureCoprocessor
    with t.hold(4):
        assert t.get_range("r", 0, 4) == [bytes([i]) * 4 for i in range(4)]
    reads = [call for call in spy.calls if call[0] == "read"]
    assert reads == ([("read", 4)] if batched else [("read", 1)] * 4)
    assert (t.batched_ops, t.batch_rows) == ((1, 4) if batched else (0, 0))
    assert host.ops_attempted == 4
