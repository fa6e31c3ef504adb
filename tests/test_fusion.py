"""Fused sections: several passes over one region, one physical section.

Inside :meth:`SecureCoprocessor.section` every pass still declares, admits
and charges its own run, but a gather of a slot the section already wrote is
served from enclave memory and the close encrypts each written slot's final
plaintext once.  These tests pin the physical side (cells encrypted per join,
what reaches the host and when) and that recovery stays exact when crashes,
replays and checkpoint commits land around and inside fused sections.
"""

import random

import pytest

from tests.conftest import KEY
from tests.test_boundary import SpyHost

from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext
from repro.costs.oblivious_join import exact_algorithm7
from repro.crypto.provider import FastProvider, decrypt_batch
from repro.errors import CoprocessorCrashError, HostMemoryError
from repro.faults.checkpoint import CHECKPOINT_REGION, base_host
from repro.faults.plan import crash_plan
from repro.faults.recovery import run_with_recovery
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.oblivious.expand import oblivious_fill, oblivious_linear_pass
from repro.oblivious.sort import oblivious_sort
from repro.relational.generate import equijoin_workload, keyed_schema
from repro.relational.predicates import BinaryAsMulti, Equality
from repro.relational.relation import Relation

PRED = BinaryAsMulti(Equality("key"))


def tables(left_keys, right_keys):
    return (Relation.from_values(keyed_schema("A"),
                                 [(key, p) for p, key in enumerate(left_keys)]),
            Relation.from_values(keyed_schema("B"),
                                 [(key, 100 + p) for p, key in enumerate(right_keys)]))


# -- physical encryptions per join --------------------------------------------

@pytest.mark.parametrize("device", [SecureCoprocessor, ReferenceCoprocessor],
                         ids=["batched", "reference"])
@pytest.mark.parametrize("n1, n2, results", [(8, 10, 6), (3, 7, 7), (9, 9, 0)],
                         ids=["S<n1", "S>n1", "S=0"])
def test_algorithm7_encrypts_each_written_slot_once(n1, n2, results, device):
    """The union section writes n slots, each expansion max(n_t, S) (its
    copies and fillers) and the emit S; the reference encrypts every
    declared put."""
    wl = equijoin_workload(n1, n2, results, rng=random.Random(5))
    context = JoinContext.fresh(provider=FastProvider(KEY),
                                batched_io=device is SecureCoprocessor)
    result = algorithm7(context, [wl.left, wl.right], PRED)
    t = context.coprocessor
    s = result.meta["S"]
    assert s == results
    assert t.encryptions == result.stats.puts
    if device is SecureCoprocessor:
        assert t.physical_encryptions == n1 + n2 + max(n1, s) + max(n2, s) + s
    else:
        assert t.physical_encryptions == t.encryptions


@pytest.mark.parametrize("device", [SecureCoprocessor, ReferenceCoprocessor],
                         ids=["batched", "reference"])
@pytest.mark.parametrize("mode, left_keys, right_keys", [
    ("join", [1, 2, 2, 3, 9], [2, 3, 4, 5]),
    ("semi", [1, 2, 2, 3, 9], [2, 2, 3, 3, 4, 5]),
    ("join", [1, 2], [3, 4]),
])
def test_algorithm8_encrypts_each_written_slot_once(mode, left_keys, right_keys, device):
    left, right = tables(left_keys, right_keys)
    context = JoinContext.fresh(provider=FastProvider(KEY),
                                batched_io=device is SecureCoprocessor)
    result = algorithm8(context, [left, right], PRED, mode=mode)
    t = context.coprocessor
    n, s = len(left) + len(right), result.meta["S"]
    assert t.encryptions == result.stats.puts
    if device is SecureCoprocessor:
        assert t.physical_encryptions == n + s
    else:
        assert t.physical_encryptions == t.encryptions


# -- the section itself ---------------------------------------------------------

def spied_device(size=8):
    spy = SpyHost()
    t = SecureCoprocessor(spy, FastProvider(KEY))
    spy.allocate("r", size)
    t.put_range("r", 0, [bytes([size - i]) * 4 for i in range(size)])
    spy.calls.clear()
    return spy, t


def increment(_i, plain):
    return bytes([plain[0] + 1]) * 4


def test_a_fused_section_reads_once_and_writes_each_slot_once_at_its_close():
    spy, t = spied_device()
    image = spy.snapshot_regions()
    encrypted = t.physical_encryptions
    with t.section():
        oblivious_linear_pass(t, "r", 8, increment)
        oblivious_sort(t, "r", 8, key=lambda p: p)
        oblivious_linear_pass(t, "r", 8, increment, reverse=True)
        # Every pass is declared and charged as it settles ...
        assert t.trace.transfer_count() == t.ops_completed == t.encryptions + t.decryptions
        # ... but nothing has reached the host yet.
        assert spy.calls == [("read", 8)]
        assert spy.snapshot_regions() == image
    assert spy.calls == [("read", 8), ("write", 8)]
    assert t.physical_encryptions - encrypted == 8
    assert t.physical_decryptions + t.cache_hits == t.decryptions
    with t.hold(8):
        assert t.get_range("r", 0, 8) == [bytes([i + 3]) * 4 for i in range(8)]


def test_a_gather_reads_only_the_slots_its_section_has_not_written():
    spy, t = spied_device()
    with t.section():
        oblivious_linear_pass(t, "r", 4, increment)
        oblivious_linear_pass(t, "r", 8, increment)
    assert spy.calls == [("read", 4), ("read", 4), ("write", 8)]
    with t.hold(8):
        assert t.get_range("r", 0, 8) == ([bytes([10 - i]) * 4 for i in range(4)]
                                          + [bytes([9 - i]) * 4 for i in range(4, 8)])


def test_an_exception_inside_a_section_leaves_the_host_as_it_opened():
    spy, t = spied_device()
    image = spy.snapshot_regions()
    with pytest.raises(ZeroDivisionError):
        with t.section():
            oblivious_linear_pass(t, "r", 8, increment)
            1 / 0
    assert spy.snapshot_regions() == image
    assert spy.calls == [("read", 8)]
    # Nothing staged survives into the next section.
    oblivious_linear_pass(t, "r", 8, increment)
    with t.hold(8):
        assert t.get_range("r", 0, 8) == [bytes([9 - i]) * 4 for i in range(8)]


def test_a_crash_at_a_later_pass_has_written_nothing():
    """Each pass is admitted as it settles: a crash in a later pass of a
    fused section finds the earlier passes' writes still staged."""
    host = FaultyHost(HostMemory(), crash_plan([8 + 3]))
    t = SecureCoprocessor(host, FastProvider(KEY))
    host.allocate("r", 8)
    image = base_host(host).snapshot_regions()
    with pytest.raises(CoprocessorCrashError):
        with t.section():
            oblivious_fill(t, "r", 0, 8, bytes(4))
            assert t.ops_completed == 8
            oblivious_linear_pass(t, "r", 8, increment)
    assert t.ops_completed == 8
    assert base_host(host).snapshot_regions() == image


def test_row_batches_are_refused_inside_a_fused_section():
    _, t = spied_device()
    with t.section():
        with pytest.raises(HostMemoryError):
            t.get("r", 0)
        with pytest.raises(HostMemoryError):
            t.put_range("r", 0, [b"x" * 4])
    t.get("r", 0)


def test_the_reference_fuses_nothing():
    spy = SpyHost()
    t = ReferenceCoprocessor(spy, FastProvider(KEY))
    spy.allocate("r", 4)
    t.put_range("r", 0, [bytes([i]) * 4 for i in range(4)])
    spy.calls.clear()
    with t.section() as close:
        oblivious_linear_pass(t, "r", 4, increment)
        close()
    assert spy.calls == [("read", 1)] * 4 + [("read", 1), ("write", 1)] * 4


# -- crash at every op, on the fast path ---------------------------------------

#: (algorithm, mode, left keys, right keys): Algorithm 7 with S = 6 > n1, n2
#: (fillers on both sides), Algorithm 8's join and semi-join.
CRASH_CASES = {
    "alg7-fillers": ("algorithm7", None, [5, 5, 1], [5, 5, 5, 2]),
    "alg8-join": ("algorithm8", "join", [1, 2, 2, 3, 9], [2, 3, 4, 5]),
    "alg8-semi": ("algorithm8", "semi", [1, 2, 2, 3, 9], [2, 2, 3, 3, 4, 5]),
}


def crash_runner(case):
    algorithm, mode, left_keys, right_keys = CRASH_CASES[case]
    relations = list(tables(left_keys, right_keys))
    if algorithm == "algorithm7":
        return lambda context: algorithm7(context, relations, PRED)
    return lambda context: algorithm8(context, relations, PRED, mode=mode)


def image_of(storage, provider):
    return {name: decrypt_batch(provider, storage.region_bytes(name))
            for name in storage.region_names() if name != CHECKPOINT_REGION}


def crash_everywhere(case, intervals):
    run = crash_runner(case)
    provider = FastProvider(KEY)
    context = JoinContext.fresh(provider=provider)
    baseline = run(context)
    expected = (baseline.result.records(), baseline.trace.fingerprint(),
                image_of(context.host, provider))
    total = baseline.stats.total
    for interval in intervals:
        for crash_at in range(1, total + 1):
            host = FaultyHost(HostMemory(), crash_plan([crash_at]))
            report = run_with_recovery(host, provider, run, checkpoint_interval=interval)
            assert (report.crashes, report.attempts) == (1, 2), (interval, crash_at)
            assert report.replayed_transfers < crash_at
            observed = (report.result.result.records(), report.result.trace.fingerprint(),
                        image_of(base_host(host), provider))
            assert observed == expected, (interval, crash_at)
    return baseline


@pytest.mark.parametrize("case", sorted(CRASH_CASES))
def test_fused_joins_recover_from_a_crash_at_every_op(case):
    baseline = crash_everywhere(case, [16])
    algorithm, _, left_keys, right_keys = CRASH_CASES[case]
    if algorithm == "algorithm7":
        assert baseline.meta["S"] == 6 > max(len(left_keys), len(right_keys))
        assert baseline.stats.total == exact_algorithm7(3, 4, 6).total == 381


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(CRASH_CASES))
def test_fused_joins_recover_from_a_crash_at_every_op_and_interval(case):
    crash_everywhere(case, [1, 4, 16])
