"""Fused sections: several passes over one region, one physical section.

Inside :meth:`SecureCoprocessor.section` every pass still declares, admits
and charges its own run, but a gather of a slot the section already wrote is
served from enclave memory and the close encrypts each written slot's final
plaintext once.  These tests pin the physical side (cells encrypted and
decrypted per join, what reaches the host and when), the section-aware copy
the decoy filter of Algorithms 4 and 6 refills its buffer with, and that
recovery stays exact when crashes, replays and checkpoint commits land
around and inside fused sections.
"""

import random

import pytest

from tests.conftest import KEY
from tests.test_boundary import SpyHost

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm2 import algorithm2, gamma_for
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext
from repro.costs.oblivious_join import exact_algorithm7
from repro.crypto.provider import FastProvider, decrypt_batch
from repro.errors import AuthenticationError, CoprocessorCrashError
from repro.faults.checkpoint import CHECKPOINT_REGION, base_host
from repro.faults.plan import crash_plan
from repro.faults.recovery import run_with_recovery
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.hardware.resilience import GATHER, JournalEntry, ReplayCursor
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
@pytest.mark.parametrize("n1, n2, results, n_max", [
    (8, 10, 6, 3), (1, 7, 3, 3), (5, 4, 0, 4)], ids=["S>0", "|A|=1", "S=0,N=|B|"])
def test_chapter4_joins_encrypt_each_written_slot_once_per_a_tuple(
        n1, n2, results, n_max, device):
    """Each A tuple is one section, so its close encrypts each slot it
    wrote once: Algorithm 1 scratch's 2N slots, 1v the |B|-slot block, 2
    its gamma * blk output slots and 3 scratch's N slots, after the one
    section that sorts B (|B| cells).  The reference encrypts every
    declared put."""
    wl = equijoin_workload(n1, n2, results, rng=random.Random(5))
    memory = 2
    gamma = gamma_for(n_max, memory)
    blk = -(-n_max // gamma)
    cells = {
        algorithm1: 2 * n_max * n1,
        algorithm1_variant: n2 * n1,
        algorithm2: gamma * blk * n1,
        algorithm3: n_max * n1 + n2,
    }
    for algorithm, expected in cells.items():
        context = JoinContext.fresh(provider=FastProvider(KEY),
                                    batched_io=device is SecureCoprocessor)
        kwargs = {"memory": memory} if algorithm is algorithm2 else {}
        result = algorithm(context, wl.left, wl.right, Equality("key"), n_max, **kwargs)
        t = context.coprocessor
        assert len(result.result) == results
        assert t.encryptions == result.stats.puts
        if device is SecureCoprocessor:
            assert t.physical_encryptions == expected, algorithm.__name__
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


def filter_buffer(source, keep, delta):
    """The decoy filter's buffer slots: the whole source when it keeps all."""
    return source if keep == source else min(keep + delta, source)


#: (left keys, right keys, keyword arguments) of Algorithm 4 joins: S < L,
#: S = 0, keep == L (the filter's whole-source copy), a non-power-of-two L
#: and two ``delta`` overrides (one clamped to L - S).
ALG4_CASES = {
    "S<L": ([1, 2, 2, 3, 9], [2, 3, 4, 5], {}),
    "S=0": ([1, 2, 3], [4, 5, 6, 7], {}),
    "keep=L": ([5, 5], [5, 5, 5], {}),
    "L=35": ([1, 2, 3, 4, 5, 6, 7], [1, 3, 5, 7, 9], {}),
    "delta=2": ([1, 2, 2, 3, 9], [2, 3, 4, 5], {"delta": 2}),
    "delta-clamped": ([1, 2, 2, 3, 9], [2, 3, 4, 5], {"delta": 10**6}),
}

#: Segmented Algorithm 6 joins (S > M): screened, one-pass, a ``delta``
#: override and a non-power-of-two L.
ALG6_CASES = {
    "screened": ([1, 2, 2, 3, 9, 4], [2, 3, 4, 5], {"memory": 2}),
    "one-pass": ([1, 2, 2, 3, 9, 4], [2, 3, 4, 5], {"memory": 2, "known_result_size": 4}),
    "delta=1": ([1, 2, 2, 3, 9, 4], [2, 3, 4, 5], {"memory": 2, "delta": 1}),
    "L=35": ([1, 2, 3, 4, 5, 6, 7], [1, 3, 5, 7, 9], {"memory": 1}),
}


def cartesian_join(algorithm, device, left_keys, right_keys, kwargs):
    left, right = tables(left_keys, right_keys)
    context = JoinContext.fresh(provider=FastProvider(KEY),
                                batched_io=device is SecureCoprocessor)
    result = algorithm(context, [left, right], PRED, **kwargs)
    return result, context.coprocessor, len(left) + len(right)


def assert_filter_cells(result, t, inputs, written, device):
    """The fast path encrypts each written slot once: the pass's ``written``
    oTuples, the filter buffer and the S emitted rows; both devices decrypt
    only the input cells (the buffer's copies are slot-cache hits)."""
    s = result.meta["S"]
    buffer = filter_buffer(written, s, result.meta["delta"])
    assert t.encryptions == result.stats.puts
    if device is SecureCoprocessor:
        assert t.physical_encryptions == written + buffer + s
    else:
        assert t.physical_encryptions == t.encryptions
    assert t.physical_decryptions == inputs
    assert t.physical_decryptions + t.cache_hits == t.decryptions


@pytest.mark.parametrize("device", [SecureCoprocessor, ReferenceCoprocessor],
                         ids=["batched", "reference"])
@pytest.mark.parametrize("case", sorted(ALG4_CASES))
def test_algorithm4_writes_the_filter_buffer_once(case, device):
    result, t, inputs = cartesian_join(algorithm4, device, *ALG4_CASES[case])
    assert_filter_cells(result, t, inputs, result.meta["L"], device)
    if case == "keep=L":
        assert result.meta["S"] == result.meta["L"]


@pytest.mark.parametrize("device", [SecureCoprocessor, ReferenceCoprocessor],
                         ids=["batched", "reference"])
@pytest.mark.parametrize("case", sorted(ALG6_CASES))
def test_algorithm6_writes_the_filter_buffer_once(case, device):
    result, t, inputs = cartesian_join(algorithm6, device, *ALG6_CASES[case])
    assert not result.meta["blemish"] and not result.meta["fit_in_memory"]
    assert result.meta["S"] > result.meta["M"]
    assert_filter_cells(result, t, inputs, result.meta["omega"], device)


@pytest.mark.parametrize("algorithm, n, kwargs, cells, decrypted", [
    (algorithm4, 48, {}, 2523, 96),
    (algorithm6, 128, {"memory": 16, "epsilon": 1e-6}, 1297, 256),
], ids=["alg4_48", "alg6_128"])
def test_the_benchmark_shapes_physical_counts(algorithm, n, kwargs, cells, decrypted):
    """Before the filter was fused: 5 601 cells and 2 400 decryptions for
    Algorithm 4 at 48 x 48, 1 826 and 896 for Algorithm 6 at 128 x 128."""
    wl = equijoin_workload(n, n, n, rng=random.Random(1), max_matches=1)
    context = JoinContext.fresh(provider=FastProvider(KEY))
    algorithm(context, [wl.left, wl.right], PRED, **kwargs)
    t = context.coprocessor
    assert (t.physical_encryptions, t.physical_decryptions) == (cells, decrypted)


def test_a_blemish_salvages_as_the_reference_does():
    """One segment of L rows and M = 1 blemishes; the salvage rescan runs
    with no section open and leaves the reference device's trace, result
    and host image."""
    left, right = tables([1, 2, 2, 3, 9], [2, 3, 4, 5])
    runs = []
    for device in (SecureCoprocessor, ReferenceCoprocessor):
        provider = FastProvider(KEY)
        context = JoinContext.fresh(provider=provider,
                                    batched_io=device is SecureCoprocessor)
        result = algorithm6(context, [left, right], PRED, memory=1, segment_size=20)
        assert result.meta["blemish"] and result.meta["S"] == 3
        runs.append((result.result.records(), result.trace.fingerprint(),
                     image_of(context.host, provider)))
    assert runs[0] == runs[1]


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


def test_a_get_inside_a_fused_section_joins_it():
    """``get``/``put``/``put_append`` inside a fused section are passes of
    it: a get of a slot the section wrote returns the staged plaintext and
    declares its GET, and nothing reaches the host before the close."""
    spy, t = spied_device()
    spy.allocate("out", 0)
    image = spy.snapshot_regions()
    t.reset_trace()
    before = (t.encryptions, t.decryptions, t.ops_completed)
    with t.section():
        t.put("r", 0, b"x" * 4)
        with t.hold(2):
            assert t.get("r", 0) == b"x" * 4
            assert t.get("r", 5) == bytes([3]) * 4  # unwritten: read from H
        assert [t.put_append("out", b"a"), t.put_append("out", b"b")] == [0, 1]
        assert spy.calls == [("read", 1)]
        assert spy.snapshot_regions() == image
    assert t.trace.events == [("put", "r", 0), ("get", "r", 0), ("get", "r", 5),
                              ("put", "out", 0), ("put", "out", 1)]
    assert spy.calls == [("read", 1), ("write", 1), ("append", 2)]
    assert (t.encryptions, t.decryptions, t.ops_completed) == (
        before[0] + 3, before[1] + 2, before[2] + 5)
    assert host_plains(t, "r")[0] == b"x" * 4
    assert host_plains(t, "out") == [b"a", b"b"]


class CopySpy(SpyHost):
    """A :class:`SpyHost` that logs host-side copies as ``("copy", rows)``."""

    def host_copy_into(self, src, src_start, count, dst, dst_start):
        self._log("copy", src, count)
        super().host_copy_into(src, src_start, count, dst, dst_start)


def copy_rig(device=SecureCoprocessor, replay=None):
    spy = CopySpy()
    provider = FastProvider(KEY)
    spy.allocate("r", 8)
    SecureCoprocessor(spy, provider).put_range("r", 0, [bytes([i]) * 4 for i in range(8)])
    spy.allocate("d", 4)
    spy.calls.clear()
    return spy, device(spy, provider, replay=replay)


def host_plains(t, region):
    return decrypt_batch(t.provider, t.host.region_bytes(region))


def test_a_fused_copy_of_staged_slots_stages_them_and_touches_no_host_slot():
    spy, t = copy_rig()
    with t.section():
        oblivious_linear_pass(t, "r", 8, increment)
        t.copy_slots("r", 2, 4, "d", 0)
        assert spy.calls == [("read", 8)]
        with t.hold(4):
            assert t.gather_slots("d", range(4)) == [bytes([i + 1]) * 4 for i in range(2, 6)]
    assert spy.calls == [("read", 8), ("write", 8), ("write", 4)]
    assert host_plains(t, "d") == [bytes([i + 1]) * 4 for i in range(2, 6)]


def test_a_fused_copy_reads_an_unstaged_source_like_a_gather():
    """One ranged read, authenticated: the source cells hit the slot cache
    when T wrote them, and a tampered cell aborts the copy."""
    spy, t = copy_rig()
    t.put_range("r", 0, [bytes([9 - i]) * 4 for i in range(8)])
    decrypted = t.physical_decryptions
    spy.calls.clear()
    with t.section():
        t.copy_slots("r", 4, 4, "d", 0)
        assert spy.calls == [("read", 4)]
    assert t.physical_decryptions == decrypted
    assert host_plains(t, "d") == [bytes([9 - i]) * 4 for i in range(4, 8)]
    cell = bytearray(spy.region_bytes("r")[5])
    cell[-1] ^= 1
    spy.write_slot("r", 5, bytes(cell))
    with pytest.raises(AuthenticationError):
        with t.section():
            t.copy_slots("r", 4, 4, "d", 0)


def test_a_copy_outside_a_section_is_the_hosts_and_stays_a_cache_hit():
    spy, t = copy_rig()
    t.put_range("r", 0, [bytes([9 - i]) * 4 for i in range(8)])
    decrypted = t.physical_decryptions
    spy.calls.clear()
    t.copy_slots("r", 0, 4, "d", 0)
    assert spy.calls == [("copy", 4)]
    assert spy.region_bytes("d") == spy.region_bytes("r")[:4]
    with t.hold(4):
        assert t.get_range("d", 0, 4) == [bytes([9 - i]) * 4 for i in range(4)]
    assert t.physical_decryptions == decrypted


def test_a_copy_in_a_nested_section_is_the_outer_sections():
    """A nested section fuses nothing of its own: its copy is staged by the
    open outer section and written at the outer close."""
    spy, t = copy_rig()
    with t.section():
        oblivious_linear_pass(t, "r", 8, increment)
        with t.section():
            t.copy_slots("r", 0, 4, "d", 0)
        assert ("copy", 4) not in spy.calls and ("write", 4) not in spy.calls
    assert host_plains(t, "d") == [bytes([i + 1]) * 4 for i in range(4)]


def test_a_copy_is_the_hosts_on_the_reference_and_during_replay():
    spy, t = copy_rig(ReferenceCoprocessor)
    with t.section():
        t.copy_slots("r", 0, 4, "d", 0)
    assert spy.calls == [("copy", 4)]
    tape = ReplayCursor([JournalEntry(GATHER, "r", 0, bytes(4))])
    spy, t = copy_rig(replay=tape)
    assert t.replaying
    with t.section():
        t.copy_slots("r", 0, 4, "d", 0)
    assert spy.calls == [("copy", 4)]


def test_the_reference_fuses_nothing():
    spy = SpyHost()
    t = ReferenceCoprocessor(spy, FastProvider(KEY))
    spy.allocate("r", 4)
    t.put_range("r", 0, [bytes([i]) * 4 for i in range(4)])
    spy.calls.clear()
    with t.section() as close:
        oblivious_linear_pass(t, "r", 4, increment)
        close()
    # One read per gathered slot, then the walk: a GET is the gather's
    # plaintext, a PUT one one-slot write.
    assert spy.calls == [("read", 1)] * 4 + [("write", 1)] * 4


# -- crash at every op, on the fast path ---------------------------------------

#: (algorithm, keyword arguments, left keys, right keys): Algorithm 4 at
#: 5 x 4, Algorithm 6 segmented with S = 3 > M = 2, Algorithm 7 with
#: S = 6 > n1, n2 (fillers on both sides), Algorithm 8's join and semi-join.
CRASH_CASES = {
    "alg4": (algorithm4, {}, [1, 2, 2, 3, 9], [2, 3, 4, 5]),
    "alg6-segmented": (algorithm6, {"memory": 2}, [1, 2, 2, 3, 9], [2, 3, 4, 5]),
    "alg7-fillers": (algorithm7, {}, [5, 5, 1], [5, 5, 5, 2]),
    "alg8-join": (algorithm8, {"mode": "join"}, [1, 2, 2, 3, 9], [2, 3, 4, 5]),
    "alg8-semi": (algorithm8, {"mode": "semi"}, [1, 2, 2, 3, 9], [2, 2, 3, 3, 4, 5]),
}


#: Chapter 4 at 3 x 4 with N = 2 (A tuple 2 joins two B tuples); Algorithm 2
#: at M = 1 runs two passes per A tuple.
CHAPTER4_CASES = {
    "alg1": (algorithm1, {}),
    "alg1v": (algorithm1_variant, {}),
    "alg2-two-passes": (algorithm2, {"memory": 1}),
    "alg3": (algorithm3, {}),
}


def crash_runner(case):
    if case in CHAPTER4_CASES:
        algorithm, kwargs = CHAPTER4_CASES[case]
        left, right = tables([1, 2, 3], [2, 2, 3, 5])
        return lambda context: algorithm(context, left, right, Equality("key"), 2,
                                         **kwargs)
    algorithm, kwargs, left_keys, right_keys = CRASH_CASES[case]
    relations = list(tables(left_keys, right_keys))
    return lambda context: algorithm(context, relations, PRED, **kwargs)


def image_of(storage, provider):
    """Every region's plaintexts (``None`` for a slot never written)."""
    return {name: [cell and provider.decrypt(cell) for cell in storage.region_bytes(name)]
            for name in storage.region_names() if name != CHECKPOINT_REGION}


def crash_everywhere(case, intervals, device=SecureCoprocessor):
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
            report = run_with_recovery(host, provider, run, checkpoint_interval=interval,
                                       device=device)
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
    if algorithm is algorithm7:
        assert baseline.meta["S"] == 6 > max(len(left_keys), len(right_keys))
        assert baseline.stats.total == exact_algorithm7(3, 4, 6).total == 381
    if algorithm is algorithm6:
        assert baseline.meta["S"] == 3 > baseline.meta["M"]
        assert not baseline.meta["blemish"] and not baseline.meta["fit_in_memory"]


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(CRASH_CASES))
def test_fused_joins_recover_from_a_crash_at_every_op_and_interval(case):
    crash_everywhere(case, [1, 4, 16])


DEVICES = [pytest.param(SecureCoprocessor, id="batched"),
           pytest.param(ReferenceCoprocessor, id="reference")]


@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("case", sorted(CHAPTER4_CASES))
def test_chapter4_joins_recover_from_a_crash_at_every_op(case, device):
    """One section per A tuple: its close is the resume point."""
    baseline = crash_everywhere(case, [16], device)
    if case == "alg2-two-passes":
        assert baseline.meta["gamma"] == 2


@pytest.mark.slow
@pytest.mark.parametrize("device", DEVICES)
@pytest.mark.parametrize("case", sorted(CHAPTER4_CASES))
def test_chapter4_joins_recover_from_a_crash_at_every_op_and_interval(case, device):
    crash_everywhere(case, [1, 4, 16], device)
