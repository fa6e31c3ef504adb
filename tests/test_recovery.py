"""Checkpoint/resume: sealed snapshots, replay, and crash recovery.

The invariant under test throughout: a run interrupted by coprocessor
crashes finishes with the same JoinResult and the same logical trace
fingerprint as an uninterrupted run — recovery is invisible at the layer
the privacy definitions quantify over.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm7 import algorithm7
from repro.core.base import JoinContext
from repro.core.service import Contract, JoinService, Party
from repro.costs.bitonic import exact_sort_transfers
from repro.costs.oblivious_join import exact_algorithm7
from repro.crypto.provider import FastProvider
from repro.errors import (
    AuthenticationError,
    CheckpointError,
    ConfigurationError,
)
from repro.faults.checkpoint import (
    CHECKPOINT_REGION,
    CHUNK_SIZE,
    CheckpointStore,
    base_host,
)
from repro.faults.plan import crash_plan
from repro.faults.recovery import run_with_recovery
from repro.hardware.coprocessor import ReferenceCoprocessor
from repro.hardware.events import GET, PUT
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.hardware.resilience import (
    APPENDED,
    CHARGE,
    GATHER,
    JournalEntry,
    ReplayCursor,
    journalled_ops,
)
from repro.obs.metrics import family_total
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality

KEY = b"recovery-test-session-key-01"
N_MAX = 2


def workload():
    return equijoin_workload(8, 10, 5, rng=random.Random(42), max_matches=2)


def join_runner(wl=None):
    wl = wl or workload()

    def run(context):
        return algorithm1(context, wl.left, wl.right, Equality("key"), N_MAX)

    return run


def plain_result(runner):
    return runner(JoinContext.fresh(provider=FastProvider(KEY), seed=0))


def one_get(region, index, payload):
    """The tape rows of one pass reading one slot: its gather and its charge."""
    return [JournalEntry(GATHER, region, index, payload), JournalEntry(CHARGE, "", 1)]


class TestCheckpointStore:
    def fresh_store(self):
        host = HostMemory()
        host.allocate_from("data", [b"cipher-0", b"cipher-1"])
        store = CheckpointStore(host, FastProvider(KEY))
        store.initialize()
        return host, store

    def test_roundtrip(self):
        host, store = self.fresh_store()
        entries = [
            JournalEntry(GATHER, "data", 0, b"plain-0"),
            JournalEntry(APPENDED, "out", 0),
            JournalEntry(CHARGE, "", 2),
        ]
        store.commit(2, entries)
        loaded = CheckpointStore(host, FastProvider(KEY)).load()
        assert loaded.ops == 2
        assert loaded.entries == entries
        assert loaded.snapshot["data"] == [b"cipher-0", b"cipher-1"]
        assert CHECKPOINT_REGION not in loaded.snapshot

    def test_restore_rolls_back_later_writes(self):
        host, store = self.fresh_store()
        store.commit(1, one_get("data", 0, b"plain-0"))
        host.write_slot("data", 0, b"overwritten-after-checkpoint")
        host.allocate("scratch", 3)
        state = store.load()
        store.restore(state)
        assert host.read_slot("data", 0) == b"cipher-0"
        assert not host.has_region("scratch")
        assert host.has_region(CHECKPOINT_REGION)  # never rolled back

    def test_commits_accumulate_journal_segments(self):
        host, store = self.fresh_store()
        store.commit(1, one_get("data", 0, b"a"))
        store.commit(2, one_get("data", 1, b"b"))
        assert store.commits == 2
        loaded = store.load()
        assert loaded.entries == one_get("data", 0, b"a") + one_get("data", 1, b"b")

    def test_load_without_checkpoint_region(self):
        store = CheckpointStore(HostMemory(), FastProvider(KEY))
        with pytest.raises(CheckpointError):
            store.load()

    def test_digest_mismatch_detected(self):
        host, store = self.fresh_store()
        store.commit(1, one_get("data", 0, b"plain-0"))
        # Swap the sealed segment for a different, validly sealed blob: the
        # authentication tag passes but the manifest digest must not.
        other = FastProvider(KEY).encrypt(b"[]")
        host.write_slot(CHECKPOINT_REGION, 2, other)
        with pytest.raises(CheckpointError):
            store.load()

    def test_tampered_seal_raises_authentication_error(self):
        host, store = self.fresh_store()
        store.commit(1, one_get("data", 0, b"plain-0"))
        raw = bytearray(host.read_slot(CHECKPOINT_REGION, store.MANIFEST_SLOT))
        raw[-1] ^= 1
        host.write_slot(CHECKPOINT_REGION, store.MANIFEST_SLOT, bytes(raw))
        with pytest.raises(AuthenticationError):
            store.load()

    def test_store_bypasses_fault_injection(self):
        """Checkpoint I/O goes to the base host beneath the fault wrapper."""
        inner = HostMemory()
        faulty = FaultyHost(inner, crash_plan(at_ops=(1, 2, 3, 4, 5)))
        store = CheckpointStore(faulty, FastProvider(KEY))
        assert store.host is inner
        store.initialize()  # would crash if routed through the wrapper
        assert faulty.ops_attempted == 0
        assert base_host(faulty) is inner


def _rows(batches):
    """Flatten journal batches into the tape rows a commit receives."""
    return [row for batch in batches for row in batch]


class TestSealedChunks:
    """Every sealed blob is a span of fixed-size chunks bound by the manifest."""

    def sealed_store(self):
        host = HostMemory()
        # Big enough that the image and the journal segment each span
        # several chunks.
        host.allocate_from("data", [bytes([i]) * 600 for i in range(12)])
        store = CheckpointStore(host, FastProvider(KEY))
        store.initialize()
        entries = [JournalEntry(GATHER, "data", i, bytes([i]) * 600)
                   for i in range(12)] + [JournalEntry(CHARGE, "", 12)]
        store.commit(12, entries)
        return host, store, entries

    def chunk_slots(self, store):
        spans = store._segments + [store._image]
        return [slot for first, count, _ in spans
                for slot in range(first, first + count)]

    def test_blobs_span_several_fixed_size_chunks(self):
        host, store, entries = self.sealed_store()
        for first, count, _ in store._segments + [store._image]:
            assert count >= 3
            sizes = {len(host.read_slot(CHECKPOINT_REGION, slot))
                     for slot in range(first, first + count - 1)}
            # All but the last chunk are full: the host sees count and size.
            assert sizes == {CHUNK_SIZE + FastProvider.overhead}
        loaded = CheckpointStore(host, FastProvider(KEY)).load()
        assert loaded.entries == entries

    def test_superseded_image_is_blanked(self):
        host, store, _ = self.sealed_store()
        live = set(self.chunk_slots(store)) | {store.MANIFEST_SLOT}
        for slot in range(host.size(CHECKPOINT_REGION)):
            if slot not in live:
                assert host.read_slot(CHECKPOINT_REGION, slot) == b""

    def test_flipped_byte_in_any_chunk_fails_authentication(self):
        host, store, _ = self.sealed_store()
        for slot in [store.MANIFEST_SLOT] + self.chunk_slots(store):
            pristine = host.read_slot(CHECKPOINT_REGION, slot)
            for position in (0, len(pristine) // 2, len(pristine) - 1):
                raw = bytearray(pristine)
                raw[position] ^= 0x40
                host.write_slot(CHECKPOINT_REGION, slot, bytes(raw))
                with pytest.raises(AuthenticationError):
                    store.load()
            host.write_slot(CHECKPOINT_REGION, slot, pristine)
        store.load()  # restored: loads cleanly again

    @pytest.mark.parametrize("blob", ["segment", "image"])
    @pytest.mark.parametrize("damage", ["drop", "duplicate", "swap", "truncate"])
    def test_reordered_or_missing_chunks_are_checkpoint_errors(self, blob, damage):
        """Each chunk still authenticates; only the manifest digest, which
        binds order and count, can tell."""
        host, store, _ = self.sealed_store()
        first, count, _ = store._segments[0] if blob == "segment" else store._image
        cells = host.region_bytes(CHECKPOINT_REGION)
        if damage == "drop":
            del cells[first + 1]
        elif damage == "duplicate":
            cells[first + 1] = cells[first]
        elif damage == "swap":
            cells[first], cells[first + 1] = cells[first + 1], cells[first]
        else:
            del cells[first + count - 1:]
        host.free(CHECKPOINT_REGION)
        host.allocate_from(CHECKPOINT_REGION, cells)
        with pytest.raises(CheckpointError):
            store.load()


_payloads = st.binary(min_size=1, max_size=40)
_regions = st.sampled_from(["X0", "X1", "out", "sort-buf"])
_indices = st.integers(0, 10_000)
_gather_batches = st.lists(
    st.builds(JournalEntry, st.just(GATHER), _regions, _indices, _payloads),
    min_size=1, max_size=6)
_append_batches = st.lists(
    st.builds(JournalEntry, st.just(APPENDED), _regions, _indices),
    min_size=1, max_size=6)
_sections = st.builds(
    lambda gathered, ops: gathered + [JournalEntry(CHARGE, "", ops)],
    _gather_batches, st.integers(0, 500))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.one_of(_gather_batches, _append_batches, _sections),
                         min_size=1, max_size=5), min_size=1, max_size=4))
def test_batch_journal_round_trips_through_commit_and_load(commits):
    """Gathers, staged appends and settled passes survive sealing unchanged."""
    host = HostMemory()
    host.allocate_from("data", [b"cipher"])
    store = CheckpointStore(host, FastProvider(KEY))
    store.initialize()
    tape, ops = [], 0
    for batches in commits:
        rows = _rows(batches)
        ops += journalled_ops(rows)
        tape += rows
        store.commit(ops, rows)
    loaded = CheckpointStore(host, FastProvider(KEY)).load()
    assert loaded.entries == tape
    assert loaded.ops == ops == journalled_ops(tape)
    cursor = ReplayCursor(loaded.entries)
    for batches in commits:
        for batch in batches:
            assert cursor.take_batch([row[:3] for row in batch]) == batch
    assert not cursor.active


class TestReplayCursor:
    def test_serves_whole_batches(self):
        rows = [JournalEntry(GET, "data", i, bytes([i])) for i in range(4)]
        cursor = ReplayCursor(rows)
        assert cursor.peek_batch([(GET, "data", 0), (GET, "data", 1)]) == rows[:2]
        assert cursor.position == 0  # peeking consumes nothing
        assert cursor.take_batch([(GET, "data", i) for i in range(3)]) == rows[:3]
        with pytest.raises(CheckpointError, match="mid-batch"):
            cursor.take_batch([(GET, "data", 3), (GET, "data", 4)])
        assert cursor.position == 3  # a refused batch consumes nothing

    def test_divergence_inside_a_batch_names_the_row(self):
        cursor = ReplayCursor([JournalEntry(PUT, "out", 0),
                               JournalEntry(PUT, "out", 1)])
        with pytest.raises(CheckpointError, match="row 2"):
            cursor.take_batch([(PUT, "out", 0), (PUT, "out", 5)])

    def test_divergence_raises(self):
        cursor = ReplayCursor([JournalEntry(GET, "data", 0, b"x")])
        with pytest.raises(CheckpointError, match="diverged"):
            cursor.take_batch([(GET, "data", 1)])

    def test_exhaustion_raises(self):
        cursor = ReplayCursor([])
        assert not cursor.active
        with pytest.raises(CheckpointError):
            cursor.take_batch([(GET, "data", 0)])

    def test_append_index_is_journal_authoritative(self):
        cursor = ReplayCursor([JournalEntry(PUT, "out", 7)])
        assert cursor.take_batch([(PUT, "out", None)])[0].index == 7
        assert not cursor.active


class TestRunWithRecovery:
    def test_parameter_validation(self):
        runner = join_runner()
        with pytest.raises(ConfigurationError):
            run_with_recovery(HostMemory(), FastProvider(KEY), runner,
                              checkpoint_interval=0)
        with pytest.raises(ConfigurationError):
            run_with_recovery(HostMemory(), FastProvider(KEY), runner,
                              max_attempts=0)

    def test_fault_free_checkpointed_run_matches_plain(self):
        runner = join_runner()
        baseline = plain_result(runner)
        report = run_with_recovery(HostMemory(), FastProvider(KEY), runner,
                                   checkpoint_interval=8)
        assert report.attempts == 1
        assert report.crashes == 0
        assert report.checkpoints_sealed > 0
        assert report.result.result.same_multiset(baseline.result)
        assert report.result.trace.fingerprint() == baseline.trace.fingerprint()

    @pytest.mark.parametrize("crash_at", [1, 17, 150])
    def test_single_crash_recovers_bit_identically(self, crash_at):
        runner = join_runner()
        baseline = plain_result(runner)
        host = FaultyHost(HostMemory(), crash_plan(at_ops=(crash_at,)))
        report = run_with_recovery(host, FastProvider(KEY), runner,
                                   checkpoint_interval=8, max_attempts=3)
        assert report.attempts == 2
        assert report.crashes == 1
        assert report.result.result.same_multiset(baseline.result)
        assert report.result.trace.fingerprint() == baseline.trace.fingerprint()
        assert report.result.meta["recovery"] == {
            "attempts": 2,
            "crashes": 1,
            "retries": report.retries,
            "replayed_transfers": report.replayed_transfers,
            "checkpoints_sealed": report.checkpoints_sealed,
        }
        # Each A tuple is one section, so the first checkpoint is sealed at
        # the first section close; a crash past it resumes off the journal.
        if crash_at > baseline.stats.total // len(workload().left):
            assert report.replayed_transfers > 0

    @pytest.mark.parametrize("phase", ["partition", "expansions"])
    def test_fault_clock_counts_boundary_ops_not_host_calls(self, phase):
        """Batched Algorithm 7 at 32x32 declares its exact-model count of
        boundary ops over far fewer physical host calls; a crash planned
        halfway through a phase must still fire — exactly once.  The
        union section (build through the partition sort) is a single batch
        that ends past the first interval multiple, so a crash inside it
        restarts from checkpoint zero; a crash inside the expansions resumes
        off the checkpoint sealed where that section ends."""
        wl = equijoin_workload(32, 32, 32, rng=random.Random(7))

        def run(context):
            return algorithm7(context, [wl.left, wl.right],
                              BinaryAsMulti(Equality("key")))

        baseline = plain_result(run)
        cost = exact_algorithm7(32, 32, len(baseline.result))
        assert baseline.stats.total == cost.total
        # Ops [start, end) of each phase, in run order: build, sort, count,
        # partition, the two expansions, emit.
        sort = exact_sort_transfers(64)
        partition = cost.terms["build"] + sort + cost.terms["count"]
        start, end = {
            "partition": (partition, partition + sort),
            "expansions": (partition + sort,
                           partition + sort + cost.terms["expansion"]),
        }[phase]
        assert partition < 4096 < partition + sort
        crash_at = (start + end) // 2
        host = FaultyHost(HostMemory(), crash_plan([crash_at]))
        report = run_with_recovery(host, FastProvider(KEY), run,
                                   checkpoint_interval=4096)
        assert host.crashes_injected == 1
        assert (report.crashes, report.attempts) == (1, 2)
        if phase == "partition":
            assert report.replayed_transfers == 0
        else:
            assert report.replayed_transfers == start
        assert all(device.batched_ops > 0 for device in report.devices)
        # The clock advanced once per declared op: the crashed attempt's
        # admitted prefix plus everything the second attempt ran live.
        assert host.ops_attempted == crash_at + (
            baseline.stats.total - report.replayed_transfers)
        assert report.result.result.same_multiset(baseline.result)
        assert report.result.trace.fingerprint() == baseline.trace.fingerprint()
        assert report.result.stats == baseline.stats

    def test_report_totals_span_every_attempt(self):
        # Algorithm 1 here is 125 ops per A tuple, one section each: both
        # crashes fall past a section close, so both attempts seal.
        runner = join_runner()
        host = FaultyHost(HostMemory(), crash_plan(at_ops=(200, 400)))
        report = run_with_recovery(host, FastProvider(KEY), runner,
                                   checkpoint_interval=8, max_attempts=4)
        assert len(report.devices) == report.attempts == 3
        assert report.coprocessor is report.devices[-1]
        assert report.checkpoints_sealed == sum(
            d.checkpoints_sealed for d in report.devices)
        assert report.replayed_transfers == sum(
            d.replayed_transfers for d in report.devices)
        assert report.devices[0].checkpoints_sealed > 0  # the crashed attempt's

    def test_repeated_crashes_exhaust_attempts(self):
        runner = join_runner()
        host = FaultyHost(HostMemory(), crash_plan(at_ops=(5, 10, 15)))
        with pytest.raises(CheckpointError, match="did not complete"):
            run_with_recovery(host, FastProvider(KEY), runner,
                              checkpoint_interval=8, max_attempts=2)

    def test_resume_continues_a_dead_processes_checkpoint(self):
        """resume=True picks up a sealed checkpoint left by an earlier
        *process*: the first life crashes terminally past a checkpoint, a
        fresh run over the same host image and provider resumes mid-join
        off the journal and finishes bit-identical to an uninterrupted
        run."""
        runner = join_runner()
        baseline = plain_result(runner)
        provider = FastProvider(KEY)
        inner = HostMemory()
        first_life = FaultyHost(inner, crash_plan(at_ops=(200,)))
        with pytest.raises(CheckpointError, match="did not complete"):
            run_with_recovery(first_life, provider, runner,
                              checkpoint_interval=8, max_attempts=1)
        report = run_with_recovery(inner, provider, runner,
                                   checkpoint_interval=8, resume=True)
        assert report.attempts == 1
        assert report.replayed_transfers > 0
        assert report.result.result.same_multiset(baseline.result)
        assert report.result.trace.fingerprint() == baseline.trace.fingerprint()

    def test_resume_on_pristine_host_starts_fresh(self):
        runner = join_runner()
        baseline = plain_result(runner)
        report = run_with_recovery(HostMemory(), FastProvider(KEY), runner,
                                   checkpoint_interval=8, resume=True)
        assert report.attempts == 1
        assert report.replayed_transfers == 0
        assert report.result.trace.fingerprint() == baseline.trace.fingerprint()

    def test_multiway_algorithm_recovers(self):
        wl = workload()

        def run(context):
            return algorithm5(context, [wl.left, wl.right],
                              BinaryAsMulti(Equality("key")), memory=3)

        baseline = plain_result(run)
        host = FaultyHost(HostMemory(), crash_plan(at_ops=(40, 90)))
        report = run_with_recovery(host, FastProvider(KEY), run,
                                   checkpoint_interval=8, max_attempts=4)
        assert report.crashes == 2
        assert report.result.result.same_multiset(baseline.result)
        assert report.result.trace.fingerprint() == baseline.trace.fingerprint()


class TestServiceRecovery:
    def build_service(self, **kwargs):
        wl = equijoin_workload(8, 10, 5, rng=random.Random(77))
        service = JoinService(memory=4, **kwargs)
        contract = Contract(
            contract_id="C-001",
            data_owners=("airline", "agency"),
            recipient="screening-office",
            permitted_predicate="key = key",
        )
        service.register_contract(contract)
        service.ingest(Party("airline"), "C-001", wl.left)
        service.ingest(Party("agency"), "C-001", wl.right)
        return service

    def test_checkpointed_join_survives_crashes(self):
        baseline = self.build_service().execute(
            "C-001", BinaryAsMulti(Equality("key")), algorithm="algorithm5")
        crashing = FaultyHost(HostMemory(), crash_plan(at_ops=(30, 70)))
        service = self.build_service(checkpoint_interval=8, host=crashing)
        result = service.execute("C-001", BinaryAsMulti(Equality("key")),
                                 algorithm="algorithm5")
        assert result.result.same_multiset(baseline.result)
        assert result.trace.fingerprint() == baseline.trace.fingerprint()
        assert result.meta["recovery"]["crashes"] == 2
        assert result.meta["recovery"]["attempts"] == 3
        rendered = service.metrics.render_prometheus()
        assert "recovery_attempts_total" in rendered
        assert "recovery_crashes_total" in rendered
        assert "checkpoints_sealed_total" in rendered

    def test_metrics_export_the_whole_job_not_the_final_attempt(self):
        crashing = FaultyHost(HostMemory(), crash_plan(at_ops=(300, 900)))
        service = self.build_service(checkpoint_interval=8, host=crashing)
        result = service.execute("C-001", BinaryAsMulti(Equality("key")),
                                 algorithm="algorithm4")
        recovery = result.meta["recovery"]
        assert recovery["crashes"] == 2
        assert recovery["replayed_transfers"] > 0
        total = lambda name: family_total(service.metrics, name)
        assert total("checkpoints_sealed_total") == recovery["checkpoints_sealed"]
        assert total("replayed_transfers_total") == recovery["replayed_transfers"]
        # Modeled crypto counts every attempt's work: the finished attempt's
        # full trace plus what the two crashed attempts got through.
        modeled = (total("crypto_encryptions_total")
                   + total("crypto_decryptions_total"))
        assert modeled > result.stats.total

    def test_uncheckpointed_service_unchanged(self):
        service = self.build_service()
        result = service.execute("C-001", BinaryAsMulti(Equality("key")),
                                 algorithm="algorithm5")
        assert "recovery" not in result.meta


def test_crash_inside_algorithm4s_scan_resumes_at_a_block_boundary():
    """Batched Algorithm 4 at 48x48 scans in nine 256-row sections of 768
    declared ops each.  A crash planned at op 5000 — inside the seventh —
    fires there, and the run resumes off the checkpoint sealed when the sixth
    section settled (4608 >= 2 x 2048), not from zero."""
    from repro.core.algorithm4 import algorithm4

    wl = equijoin_workload(48, 48, 48, rng=random.Random(5))

    def run(context):
        return algorithm4(context, [wl.left, wl.right],
                          BinaryAsMulti(Equality("key")))

    baseline = plain_result(run)
    assert baseline.meta["phases"]["scan"]["transfers"] == 3 * 48 * 48 > 5000
    host = FaultyHost(HostMemory(), crash_plan([5000]))
    report = run_with_recovery(host, FastProvider(KEY), run,
                               checkpoint_interval=2048)
    assert host.crashes_injected == 1
    assert (report.crashes, report.attempts) == (1, 2)
    assert report.replayed_transfers == 6 * 768
    assert host.ops_attempted == 5000 + baseline.stats.total - 6 * 768
    assert report.result.result.same_multiset(baseline.result)
    assert report.result.trace.fingerprint() == baseline.trace.fingerprint()
    assert report.result.stats == baseline.stats


def test_emit_section_replays_the_slots_its_appends_were_assigned():
    """Algorithm 4's emit is one section whose staged append is journalled
    as ``APPENDED`` rows.  With a checkpoint sealed after every batch, a
    crash on the op after the join resumes against a host image whose output
    already holds the emitted rows; the replayed section must still declare
    the slots the original run was assigned, not the image's next ones."""
    from repro.core.algorithm4 import algorithm4
    from repro.core.base import OUTPUT_REGION
    from repro.hardware.resilience import APPENDED

    wl = workload()

    def run(context):
        result = algorithm4(context, [wl.left, wl.right],
                            BinaryAsMulti(Equality("key")))
        context.coprocessor.get(OUTPUT_REGION, 0)
        return result

    baseline = plain_result(run)
    emitted = baseline.meta["S"]
    assert emitted > 0
    host = FaultyHost(HostMemory(), crash_plan([baseline.stats.total + 1]))
    report = run_with_recovery(host, FastProvider(KEY), run, checkpoint_interval=1)
    assert (report.crashes, report.attempts) == (1, 2)
    assert report.replayed_transfers == baseline.stats.total
    assert [entry.index for entry in CheckpointStore(base_host(host), FastProvider(KEY))
            .load().entries if entry.op == APPENDED] == list(range(emitted))
    assert report.result.result.same_multiset(baseline.result)
    assert report.result.trace.fingerprint() == baseline.trace.fingerprint()
    assert report.result.stats == baseline.stats


# --- a resume inside a reference-mode section --------------------------------
#
# The reference walks a section's declared run op by op, each op its own
# batch, so at ``checkpoint_interval=1`` a checkpoint commits after every op
# of a sort or an emit and a crash can resume with a tape that ends inside
# one: the gather replays, and the live rest of the walk writes the staged
# final plaintexts.

import struct
from types import SimpleNamespace

from repro.core.base import decoy_priority, is_real, make_decoy, make_real
from repro.crypto.provider import decrypt_batch, encrypt_batch
from repro.oblivious.filterbuf import emit_kept
from repro.oblivious.networks import comparator_count
from repro.oblivious.sort import oblivious_sort

#: Which of the 16 buffer slots hold real rows (6 of them); the emit reads 8.
FLAGS = [i % 3 == 0 for i in range(16)]


def sort_then_emit(context):
    """A 16-slot oblivious sort, reals first, then the emit of its top 8."""
    context.host.allocate_from("buf", encrypt_batch(context.provider, [
        make_real(struct.pack(">q", i)) if real else make_decoy(8)
        for i, real in enumerate(FLAGS)]))
    context.host.allocate("out", 0)
    oblivious_sort(context.coprocessor, "buf", len(FLAGS), key=decoy_priority)
    emit_kept(context.coprocessor, "buf", 8, "out", is_real=is_real, strip=1)
    return SimpleNamespace(meta={}, trace=context.coprocessor.trace)


def observed(host, provider, trace):
    """Fingerprint, decrypted host image and appended slot indices."""
    storage = base_host(host)
    image = {name: decrypt_batch(provider, storage.region_bytes(name))
             for name in storage.region_names() if name != CHECKPOINT_REGION}
    appended = [event.index for event in trace if event.region == "out"]
    return trace.fingerprint(), image, appended


def resume_at(crash_points):
    """Crash a reference-device run at each op ordinal and resume it; each
    must match the uninterrupted runs of both device types."""
    provider = FastProvider(KEY)
    uninterrupted = []
    for batched_io in (True, False):
        context = JoinContext.fresh(provider=provider, batched_io=batched_io)
        trace = sort_then_emit(context).trace
        uninterrupted.append(observed(context.host, provider, trace))
    assert uninterrupted[0] == uninterrupted[1]
    total = len(trace)
    assert total == SORT_OPS + 2 * sum(FLAGS) + (8 - sum(FLAGS))
    assert uninterrupted[0][2] == list(range(sum(FLAGS)))
    for crash_at in crash_points(total):
        host = FaultyHost(HostMemory(), crash_plan([crash_at]))
        report = run_with_recovery(host, provider, sort_then_emit,
                                   checkpoint_interval=1, device=ReferenceCoprocessor)
        assert (report.crashes, report.attempts) == (1, 2), crash_at
        # Sealed after every op: the resume replays everything before the crash.
        assert report.replayed_transfers == crash_at - 1
        assert observed(host, provider, report.result.trace) == uninterrupted[0], crash_at


#: The 16-slot sort's declared ops: four per comparator.
SORT_OPS = 4 * comparator_count(16)


def test_reference_resumes_inside_a_section():
    """Every op of the sort's first and last two comparators and of the
    emit, and every eleventh op between (all of them under ``--runslow``)."""
    resume_at(lambda total: [k for k in range(1, total + 1)
                             if k <= 8 or k > SORT_OPS - 8 or k % 11 == 0])


@pytest.mark.slow
def test_reference_resumes_inside_a_section_at_every_op():
    resume_at(lambda total: range(1, total + 1))
