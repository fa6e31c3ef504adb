"""Differential tests for the crypto fast path (slot cache + batched ops).

The fast path must be *invisible* in every observable the privacy analysis
and the cost model read: traces, fingerprints, TransferStats, modeled
encryption/decryption counters, and of course the join output.  Each case
runs the same workload twice — on the scalar reference (``ReferenceCoprocessor``)
and on the fast path — from identically seeded contexts and asserts those
observables are bit-identical, then checks the physical-counter invariants
(``decryptions == physical + hits``) and that tamper detection still fires
on the fast path: a tampered slot inside a batch aborts before anything of
that batch is released, cached, recorded or written.
"""

import random

import pytest

from tests.conftest import KEY

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm2 import algorithm2
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.base import JoinContext
from repro.crypto.provider import FastProvider, OcbProvider, encrypt_batch
from repro.errors import AuthenticationError
from repro.hardware.adversary import TamperingHost
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.events import Trace
from repro.hardware.host import HostMemory
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality

PRED = BinaryAsMulti(Equality("key"))

#: name -> runner(context, workload); covers all six join algorithms.
ALGORITHMS = {
    "algorithm1": lambda ctx, wl: algorithm1(
        ctx, wl.left, wl.right, Equality("key"), max(1, wl.max_matches)),
    "algorithm1v": lambda ctx, wl: algorithm1_variant(
        ctx, wl.left, wl.right, Equality("key"), max(1, wl.max_matches)),
    "algorithm2": lambda ctx, wl: algorithm2(
        ctx, wl.left, wl.right, Equality("key"), max(1, wl.max_matches), memory=2),
    "algorithm3": lambda ctx, wl: algorithm3(
        ctx, wl.left, wl.right, "key", max(1, wl.max_matches)),
    "algorithm4": lambda ctx, wl: algorithm4(ctx, [wl.left, wl.right], PRED),
    "algorithm5": lambda ctx, wl: algorithm5(
        ctx, [wl.left, wl.right], PRED, memory=3),
    "algorithm6": lambda ctx, wl: algorithm6(
        ctx, [wl.left, wl.right], PRED, memory=3, epsilon=1e-20),
}


def run_twice(name, seed=5):
    """One algorithm over one workload, scalar reference then fast path."""
    wl = equijoin_workload(8, 10, 5, rng=random.Random(400 + seed))
    outs = []
    for batched_io in (False, True):
        context = JoinContext.fresh(provider=FastProvider(KEY), seed=seed,
                                    batched_io=batched_io)
        out = ALGORITHMS[name](context, wl)
        outs.append((out, context.coprocessor))
    return outs


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestCacheIsObservablyInvisible:
    def test_trace_and_stats_identical(self, name):
        (scalar, _), (fast, _) = run_twice(name)
        assert scalar.trace.fingerprint() == fast.trace.fingerprint()
        assert scalar.stats == fast.stats
        assert list(scalar.result) == list(fast.result)

    def test_modeled_counters_identical(self, name):
        (_, t_scalar), (_, t_fast) = run_twice(name)
        assert t_scalar.decryptions == t_fast.decryptions
        assert t_scalar.encryptions == t_fast.encryptions

    def test_physical_counter_invariants(self, name):
        # The split is exact in both modes and the cache actually fires.
        for t in (t for _, t in run_twice(name)):
            assert t.physical_decryptions + t.cache_hits == t.decryptions
            assert t.cache_hits > 0
            assert t.physical_decryptions < t.decryptions


def test_cache_differential_holds_under_ocb():
    """Same invisibility property under the faithful (slow) provider."""
    wl = equijoin_workload(6, 8, 4, rng=random.Random(77))
    outs = []
    for batched_io in (False, True):
        context = JoinContext.fresh(provider=OcbProvider(KEY), seed=3,
                                    batched_io=batched_io)
        outs.append(algorithm6(context, [wl.left, wl.right], PRED,
                               memory=3, epsilon=1e-20))
    scalar, fast = outs
    assert scalar.trace.fingerprint() == fast.trace.fingerprint()
    assert scalar.stats == fast.stats
    assert list(scalar.result) == list(fast.result)


class TestCacheSemantics:
    def rig(self):
        host = HostMemory()
        t = SecureCoprocessor(host, FastProvider(KEY))
        host.allocate("R", 4)
        return host, t

    def test_get_after_put_hits(self):
        _, t = self.rig()
        t.put("R", 0, b"tuple-0")
        assert t.get("R", 0) == b"tuple-0"
        assert t.cache_hits == 1
        assert t.physical_decryptions == 0
        assert t.decryptions == 1  # modeled count still charged

    def test_read_through_population(self):
        """Ciphertext written outside T (an upload) is cached after the first
        verified decrypt, so re-scans of input regions hit."""
        host, t = self.rig()
        host.write_slot("R", 1, FastProvider(KEY).encrypt(b"uploaded"))
        assert t.get("R", 1) == b"uploaded"
        assert (t.physical_decryptions, t.cache_hits) == (1, 0)
        assert t.get("R", 1) == b"uploaded"
        assert (t.physical_decryptions, t.cache_hits) == (1, 1)

    def test_rewrite_misses(self):
        """A slot rewritten host-side (new ciphertext) takes the physical
        decrypt+authenticate path."""
        host, t = self.rig()
        t.put("R", 0, b"old")
        host.write_slot("R", 0, FastProvider(KEY).encrypt(b"new"))
        assert t.get("R", 0) == b"new"
        assert t.cache_hits == 0
        assert t.physical_decryptions == 1

    def test_tampered_slot_still_detected(self):
        host, t = self.rig()
        t.put("R", 0, b"protected")
        corrupted = bytearray(host.read_slot("R", 0))
        corrupted[-1] ^= 0x01
        host.write_slot("R", 0, bytes(corrupted))
        with pytest.raises(AuthenticationError):
            t.get("R", 0)
        assert t.cache_hits == 0

    def test_replayed_slot_misses_cache(self):
        """Moving a valid ciphertext to another slot must not hit the moved-to
        slot's cache entry (the ciphertext differs byte-for-byte)."""
        host, t = self.rig()
        t.put("R", 0, b"slot-zero")
        t.put("R", 1, b"slot-one")
        host.write_slot("R", 1, host.read_slot("R", 0))
        assert t.get("R", 1) == b"slot-zero"  # residual gap, same as cache-off
        assert t.cache_hits == 0
        assert t.physical_decryptions == 1

    def test_clear_cache(self):
        _, t = self.rig()
        t.put("R", 0, b"kept")
        assert t.cache_entries == 1
        t.clear_cache()
        assert t.cache_entries == 0
        assert t.get("R", 0) == b"kept"
        assert (t.physical_decryptions, t.cache_hits) == (1, 0)

    def test_algorithms_abort_on_tamper_with_cache_on(self):
        """Section 3.3.1's detect-and-terminate survives the fast path."""
        wl = equijoin_workload(6, 6, 3, rng=random.Random(91))
        host = TamperingHost(tamper_at_read=7)
        provider = FastProvider(KEY)
        t = SecureCoprocessor(host, provider)
        context = JoinContext(host=host, coprocessor=t, provider=provider,
                              rng=random.Random(0))
        with pytest.raises(AuthenticationError):
            algorithm5(context, [wl.left, wl.right], PRED, memory=3)
        assert host.tampered


class TestBatchedOps:
    def test_get_many_matches_sequence_of_gets(self):
        """A ranged read of a ranged write, one event per slot."""
        host = HostMemory()
        t = SecureCoprocessor(host, FastProvider(KEY))
        host.allocate("R", 3)
        t.put_range("R", 0, [b"v%d" % i for i in range(3)])
        batched = t.get_range("R", 0, 3)
        assert batched == [b"v0", b"v1", b"v2"]
        # Trace carries one event per slot, exactly as unbatched code emits.
        trace = t.reset_trace()
        assert trace.count(op="put", region="R") == 3
        assert trace.count(op="get", region="R") == 3

    def test_append_many_returns_indices(self):
        """A staged append returns the slots the host assigns at its close."""
        host = HostMemory()
        t = SecureCoprocessor(host, FastProvider(KEY))
        host.allocate("out", 0)
        assert t.stage_append("out", [b"a", b"b", b"c"]) == [0, 1, 2]
        t.charge_boundary([("put", "out")], bytes(3), [0, 1, 2])
        assert t.get_range("out", 0, 3) == [b"a", b"b", b"c"]

    def test_batched_trace_equals_unbatched_trace(self):
        def drive(t):
            t.put("S", 0, b"x")
            t.put("S", 1, b"y")
            return t.get("S", 0), t.get("S", 1)

        def drive_batched(t):
            t.put_range("S", 0, [b"x", b"y"])
            return tuple(t.get_range("S", 0, 2))

        results = []
        for driver in (drive, drive_batched):
            host = HostMemory()
            t = SecureCoprocessor(host, FastProvider(KEY), trace_factory=Trace)
            host.allocate("S", 2)
            out = driver(t)
            results.append((out, t.reset_trace().fingerprint()))
        assert results[0] == results[1]


# --- tampering on the fast path ----------------------------------------------
#
# Every host has the ranged slot calls, so the adversary hosts run the path the
# benchmark runs and a tampered read can fall anywhere inside a batch.  The
# abort must leave nothing of that batch behind: no plaintext released or
# cached, no trace event, no host write, no retry.

import functools

from repro.core.base import OUTPUT_REGION
from repro.errors import CoprocessorCrashError
from repro.faults.chaos import _runners
from repro.faults.plan import crash_plan
from repro.faults.recovery import RecoveryHost
from repro.hardware.faulty import FaultyHost
from repro.hardware.resilience import RetryPolicy
from repro.hardware.timing import VirtualClock
from repro.oblivious.sort import oblivious_sort

#: name -> the host T is attached to, built over the tampering storage.
STACKS = {
    "bare": lambda tampering: tampering,
    "faulty": FaultyHost,
    "recovery-faulty": lambda tampering: RecoveryHost(FaultyHost(tampering)),
}
#: placement -> the coprocessor call whose batch carries the tampered read.
PLACEMENTS = {"ranged-get": "get_range", "gathered-section": "gather_slots"}


def job(name):
    """The chaos sweep's small join, then its output read back as one ranged
    get: the read-back is the one ``get_range`` all six have."""
    run, _ = _runners(name, small=True)

    def drive(context):
        run(context)
        size = context.host.size(OUTPUT_REGION)
        context.coprocessor.get_range(OUTPUT_REGION, 0, size)

    return drive


def rig(tampering, stack, provider, device=SecureCoprocessor):
    host = STACKS[stack](tampering)
    keyed = provider(KEY)
    t = device(host, keyed, retry=RetryPolicy(max_retries=3), clock=VirtualClock())
    return t, JoinContext(host=host, coprocessor=t, provider=keyed,
                          rng=random.Random(0))


def spy_on(t, tampering, call, on_entry=None, on_exit=None):
    """Report the physical-read ordinals each ``t.<call>`` spans: the first
    to ``on_entry`` before the call, ``(first, last)`` to ``on_exit`` after."""
    inner = getattr(t, call)

    def spied(*args):
        first = tampering.reads_served + 1
        if on_entry is not None:
            on_entry(first)
        out = inner(*args)
        if on_exit is not None:
            on_exit(first, tampering.reads_served)
        return out

    setattr(t, call, spied)


def observables(t, tampering):
    return (tampering.snapshot_regions(), t.cache_entries,
            t.trace.transfer_count(), t.ops_completed, t.batched_ops,
            t.decryptions, t.physical_decryptions, t.cache_hits)


@functools.lru_cache(maxsize=None)
def read_spans(name, provider, call):
    """``(first, last)`` read ordinals of every multi-slot ``call`` in an honest
    fast-path run; the pattern is data-independent, so a tampering run's
    calls span the same ordinals."""
    tampering = TamperingHost(tamper_at_read=10 ** 9)
    t, context = rig(tampering, "bare", provider)
    spans = []
    spy_on(t, tampering, call, on_exit=lambda first, last: spans.append((first, last)))
    job(name)(context)
    return [(first, last) for first, last in spans if last > first]


@pytest.mark.parametrize("placement", sorted(PLACEMENTS))
@pytest.mark.parametrize("stack", sorted(STACKS))
@pytest.mark.parametrize("provider", [FastProvider, OcbProvider],
                         ids=lambda p: p.__name__)
@pytest.mark.parametrize("name", ["algorithm3", "algorithm4", "algorithm5",
                                  "algorithm6", "algorithm7", "algorithm8"])
def test_tamper_inside_a_batch_aborts_with_nothing_of_it_left(
        name, provider, stack, placement):
    call = PLACEMENTS[placement]
    spans = read_spans(name, provider, call)
    first, last = spans[len(spans) // 2]
    tamper_at = (first + last) // 2  # inside the batch, never its last read

    tampering = TamperingHost(tamper_at_read=tamper_at)
    t, context = rig(tampering, stack, provider)
    issued_against = []

    def note_the_batch(ordinal):
        # A gather served from its fused section's plaintexts reads nothing,
        # so several calls can enter at one ordinal: the last one reads.
        if ordinal == first:
            issued_against[:] = [observables(t, tampering)]

    spy_on(t, tampering, call, on_entry=note_the_batch)
    with pytest.raises(AuthenticationError):
        job(name)(context)
    # The host served the whole ranged call: this was the fast path ...
    assert tampering.reads_served == last
    # ... and T kept nothing of it: image, cache, trace and counters are
    # what they were when the batch was issued.
    assert [observables(t, tampering)] == issued_against
    assert tampering.image_at_tamper == issued_against[0][0]
    assert t.retries == 0 and tampering.rereads == 0

    # The scalar reference aborts on the tampered read itself.
    tampering = TamperingHost(tamper_at_read=tamper_at)
    t, context = rig(tampering, stack, provider, ReferenceCoprocessor)
    with pytest.raises(AuthenticationError):
        job(name)(context)
    assert tampering.reads_served == tamper_at
    assert tampering.snapshot_regions() == tampering.image_at_tamper
    assert t.retries == 0 and t.batched_ops == 0


@pytest.mark.parametrize("call", ["get_range", "gather_slots"])
@pytest.mark.parametrize("provider", [FastProvider, OcbProvider],
                         ids=lambda p: p.__name__)
def test_cold_batch_with_a_tampered_cell_caches_and_releases_nothing(provider, call):
    """Every cell is a miss (an upload T never saw), so decrypting and caching
    cell by cell would leave the cells before the tampered one behind."""
    tampering = TamperingHost(tamper_at_read=4)
    t, context = rig(tampering, "bare", provider)
    tampering.allocate_from("R", encrypt_batch(
        context.provider, [b"cell-%d" % i for i in range(6)]))
    with pytest.raises(AuthenticationError):
        if call == "get_range":
            t.get_range("R", 0, 6)
        else:
            t.gather_slots("R", range(6))
    assert tampering.reads_served == 6
    assert (t.cache_entries, t.physical_decryptions, t.decryptions) == (0, 0, 0)
    assert t.trace.transfer_count() == 0 and t.retries == 0


def test_section_refused_by_the_fault_clock_has_flushed_nothing():
    """The crash analogue: a section's staged writes reach the host only
    after its whole declared window was admitted."""
    tampering = TamperingHost(tamper_at_read=10 ** 9)
    host = FaultyHost(tampering, crash_plan([8 + 5]))
    t = SecureCoprocessor(host, FastProvider(KEY))
    tampering.allocate("R", 8)
    t.put_range("R", 0, [bytes([9 - i]) * 4 for i in range(8)])
    image = tampering.snapshot_regions()
    with pytest.raises(CoprocessorCrashError):
        oblivious_sort(t, "R", 8, key=lambda p: p)
    assert tampering.reads_served == 8  # the section had gathered
    assert tampering.snapshot_regions() == image
