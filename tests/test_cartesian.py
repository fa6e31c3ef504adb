"""Tests for the logical-index codec over D = X1 x ... x XJ (Section 5.2.1)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import fresh_context, keyed

from repro.core.cartesian import CartesianSpace, joined_values, scan_blocks, upload_tables
from repro.errors import ConfigurationError

sizes = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4)


class TestCartesianSpace:
    def test_total_is_product(self):
        assert len(CartesianSpace([3, 4, 5])) == 60

    def test_row_major_order(self):
        space = CartesianSpace([2, 3])
        decomposed = [space.decompose(i) for i in range(6)]
        assert decomposed == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]

    def test_first_table_varies_slowest(self):
        space = CartesianSpace([2, 2, 2])
        assert space.decompose(0) == (0, 0, 0)
        assert space.decompose(7) == (1, 1, 1)
        assert space.decompose(4) == (1, 0, 0)

    @settings(max_examples=60)
    @given(sizes, st.data())
    def test_compose_decompose_roundtrip(self, table_sizes, data):
        space = CartesianSpace(table_sizes)
        logical = data.draw(st.integers(min_value=0, max_value=len(space) - 1))
        assert space.compose(space.decompose(logical)) == logical

    @settings(max_examples=40)
    @given(sizes)
    def test_decompose_is_a_bijection(self, table_sizes):
        space = CartesianSpace(table_sizes)
        seen = {space.decompose(i) for i in range(len(space))}
        assert len(seen) == len(space)

    def test_out_of_range_rejected(self):
        space = CartesianSpace([2, 2])
        with pytest.raises(ConfigurationError):
            space.decompose(4)
        with pytest.raises(ConfigurationError):
            space.decompose(-1)
        with pytest.raises(ConfigurationError):
            space.compose((2, 0))
        with pytest.raises(ConfigurationError):
            space.compose((0,))

    def test_empty_and_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            CartesianSpace([])
        with pytest.raises(ConfigurationError):
            CartesianSpace([3, 0])


def read_one(reader, logical):
    """The component records of one iTuple, read as a one-row pass."""
    (block,) = scan_blocks(reader, [logical])
    ((_, records),) = block
    return records


class TestCartesianReader:
    def test_reads_the_right_component_records(self):
        a = keyed("A", [(10, 0), (11, 0)])
        b = keyed("B", [(20, 0), (21, 0), (22, 0)])
        context = fresh_context()
        reader = upload_tables(context, [a, b])
        records = read_one(reader, 4)  # logical 4 -> (1, 1)
        assert records[0]["key"] == 11
        assert records[1]["key"] == 21

    def test_each_read_is_one_get_per_table(self):
        a = keyed("A", [(1, 0)])
        b = keyed("B", [(2, 0), (3, 0)])
        c = keyed("C", [(4, 0)])
        context = fresh_context()
        reader = upload_tables(context, [a, b, c])
        before = context.coprocessor.trace.transfer_count()
        read_one(reader, 1)
        assert context.coprocessor.trace.transfer_count() - before == 3

    def test_joined_values_concatenates(self):
        a = keyed("A", [(1, 2)])
        b = keyed("B", [(3, 4)])
        context = fresh_context()
        reader = upload_tables(context, [a, b])
        assert joined_values(read_one(reader, 0)) == (1, 2, 3, 4)


# --- the cartesian pass: the fast path against the reference ------------------
#
# ``scan_blocks`` is the one scan body of Algorithms 4/5/6: a block is one
# gather per table, an optional scatter and one declared section.  On the
# fast path the section is one ranged call per slot set; a
# ``ReferenceCoprocessor`` gathers one slot per call and walks the declared
# run op by op.  Nothing observable may tell the two apart.

import random
from collections import Counter

from repro.core.algorithm4 import OTUPLE_REGION, algorithm4, scan_otuples
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.base import JoinContext, decoy_priority, multi_party_output_schema
from repro.core.cartesian import SCAN_BLOCK, scan_blocks, scan_matches
from repro.core.parallel import parallel_algorithm6
from repro.crypto.mlfsr import RandomOrder
from repro.crypto.provider import FastProvider, NullProvider, OcbProvider
from repro.errors import AuthenticationError, BlemishError
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.counters import TransferStats
from repro.hardware.host import HostMemory
from repro.oblivious.filterbuf import oblivious_filter
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, CustomMulti, Equality
from repro.relational.tuples import TupleCodec

from tests.conftest import KEY
from tests.test_trace_columns import CountingTrace

PROVIDERS = [FastProvider, OcbProvider, NullProvider]
EQUAL_KEYS = CustomMulti(lambda records: len({r["key"] for r in records}) == 1)

#: Table sizes: J in {1, 2, 3}; n = 1; L below, above and not a multiple of
#: SCAN_BLOCK; 17 x 17 puts a left-row change (and a block edge) mid-block.
SHAPES = [(5,), (300,), (1, 1), (17, 17), (3, 4, 5), (7, 6, 7)]


def tables(sizes, seed=0):
    rng = random.Random(seed)
    return [keyed(f"T{t}", [(rng.randrange(4), rng.randrange(100)) for _ in range(n)])
            for t, n in enumerate(sizes)]


def context_on(host, provider, device=SecureCoprocessor, trace_factory=None):
    coprocessor = device(host, provider, trace_factory=trace_factory)
    return JoinContext(host=host, coprocessor=coprocessor, provider=provider)


def plain_image(context):
    """Every host region, decrypted: what the two runs must agree on."""
    host, provider = context.host, context.provider
    return {name: [None if cell is None else provider.decrypt(cell)
                   for cell in host.region_bytes(name)]
            for name in host.region_names()}


def run_pass(sizes, provider, device, order, output):
    """One pass over ``order`` (None = every index in turn), marking matches."""
    context = context_on(HostMemory(), provider(KEY), device)
    reader = upload_tables(context, tables(sizes))
    total = len(reader.space)
    logicals = range(total) if order is None else order(total)
    if output is not None:
        context.host.allocate(output, total)
    seen = []
    for block in scan_blocks(reader, logicals, output=output):
        rows = list(block)
        seen.extend((logical, tuple(r.values for r in records))
                    for logical, records in rows)
        if output is not None:
            block.write([bytes([EQUAL_KEYS.satisfies(records)]) * 3
                         for _, records in rows])
    return context, seen


def lfsr_slice(total):
    """A non-contiguous stretch of the LFSR order, as Algorithm 6 walks it."""
    order = RandomOrder(total, seed=3).permutation()
    return order[total // 5:]


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.__name__)
@pytest.mark.parametrize("output", [None, "marks"])
@pytest.mark.parametrize("order", [None, lfsr_slice], ids=["range", "lfsr"])
@pytest.mark.parametrize("sizes", SHAPES, ids=str)
def test_vectorized_pass_is_the_scalar_pass(sizes, order, output, provider):
    (scalar, rows_scalar), (batched, rows_batched) = (
        run_pass(sizes, provider, device, order, output)
        for device in (ReferenceCoprocessor, SecureCoprocessor))
    assert rows_batched == rows_scalar
    s, b = scalar.coprocessor, batched.coprocessor
    assert b.trace == s.trace
    assert b.trace.fingerprint() == s.trace.fingerprint()
    assert TransferStats.from_trace(b.trace) == TransferStats.from_trace(s.trace)
    assert (b.decryptions, b.encryptions, b.ops_completed) == (
        s.decryptions, s.encryptions, s.ops_completed)
    assert (b.physical_decryptions, b.cache_hits) == (s.physical_decryptions, s.cache_hits)
    assert b.physical_decryptions + b.cache_hits == b.decryptions
    assert plain_image(batched) == plain_image(scalar)
    assert s.batched_ops == 0 and b.batched_ops > 0


def test_blocks_follow_scan_block_and_the_row_layout():
    """289 rows of 17 x 17: one full block, then the 33-row remainder; the
    first block crosses fifteen left-row changes and stops inside a left row."""
    context = context_on(HostMemory(), FastProvider(KEY))
    reader = upload_tables(context, tables((17, 17)))
    blocks = [block.logicals for block in scan_blocks(reader, range(289))]
    assert [len(b) for b in blocks] == [SCAN_BLOCK, 289 - SCAN_BLOCK]
    assert blocks[0][-1] // 17 == blocks[1][0] // 17 == 15  # same left row
    with pytest.raises(ConfigurationError):
        next(scan_blocks(reader, [288, 289]))


def run_algorithm(name, batched, wl, provider=FastProvider, **kwargs):
    context = JoinContext.fresh(provider=provider(KEY), batched_io=batched)
    runner = {"algorithm4": algorithm4, "algorithm5": algorithm5,
              "algorithm6": algorithm6}[name]
    out = runner(context, [wl.left, wl.right], BinaryAsMulti(Equality("key")), **kwargs)
    return out, context.coprocessor


@pytest.mark.parametrize("name,kwargs", [
    ("algorithm4", {}),
    ("algorithm5", {"memory": 2}),
    ("algorithm6", {"memory": 2, "epsilon": 1e-6}),
])
@pytest.mark.parametrize("shape", [(1, 1, 0), (1, 1, 1), (17, 17, 0), (17, 17, 9)],
                         ids=["n1-S0", "n1-S1", "S0", "S9"])
def test_algorithms_at_the_edges_agree_with_the_scalar_reference(name, kwargs, shape):
    left, right, results = shape
    wl = equijoin_workload(left, right, results, rng=random.Random(5))
    (scalar, t_scalar), (batched, t_batched) = (
        run_algorithm(name, flag, wl, **kwargs) for flag in (False, True))
    assert len(batched.result) == results
    assert list(batched.result) == list(scalar.result)
    assert batched.trace == scalar.trace
    assert batched.stats == scalar.stats
    assert (t_batched.physical_decryptions, t_batched.cache_hits) == (
        t_scalar.physical_decryptions, t_scalar.cache_hits)
    assert t_batched.peak_in_use == t_scalar.peak_in_use


@pytest.mark.parametrize("provider", PROVIDERS, ids=lambda p: p.__name__)
def test_tampered_input_slot_aborts_the_block_before_anything_is_emitted(provider):
    context = context_on(HostMemory(), provider(KEY))
    reader = upload_tables(context, tables((17, 17)))
    context.host.allocate("marks", 289)
    cell = bytearray(context.host.read_slot("X1", 11))
    cell[len(cell) // 2] ^= 0x01
    context.host.write_slot("X1", 11, bytes(cell))
    with pytest.raises(AuthenticationError):
        for block in scan_blocks(reader, range(289), output="marks"):
            block.write([b"\x00"] * len(block.logicals))
    assert len(context.coprocessor.trace) == 0
    assert context.host.region_bytes("marks") == [None] * 289
    assert context.coprocessor.encryptions == 0


# --- the random-order pass reads fixed blocks -----------------------------------

class ReadLoggingHost(HostMemory):
    """Honest ranged storage that logs every physical slot read, and every
    region allocation as a phase marker."""

    def __init__(self):
        super().__init__()
        self.log = []

    def allocate(self, name, size):
        self.log.append(("allocate", name))
        super().allocate(name, size)

    def read_slot(self, name, index):
        self.log.append((name, index))
        return super().read_slot(name, index)

    def reads_between(self, start_marker, stop_marker):
        """Input-table reads after the last ``start_marker`` allocation and
        before the next ``stop_marker`` one (or the end of the log)."""
        start = len(self.log) - 1 - self.log[::-1].index(("allocate", start_marker))
        rest = self.log[start + 1:]
        if ("allocate", stop_marker) in rest:
            rest = rest[:rest.index(("allocate", stop_marker))]
        return Counter(entry for entry in rest if entry[0].startswith("X"))


def blemishing_workload():
    """16 x 16 over four key values, about 64 results: at M = 1 the second
    match of a segment blemishes it, a handful of rows into its first block."""
    relations = tables((16, 16), seed=9)
    results = sum(a["key"] == b["key"] for a in relations[0] for b in relations[1])
    assert results > 32
    return relations, results


class TestFixedBlocks:
    """A forced blemish: both physical modes read the break's whole block,
    declare it, and stop at its end — never at the break row."""

    def sequential(self, device, salvage):
        relations, results = blemishing_workload()
        host = ReadLoggingHost()
        context = context_on(host, FastProvider(KEY), device)
        def run():
            return algorithm6(
                context, relations, BinaryAsMulti(Equality("key")), memory=1,
                segment_size=256, salvage=salvage, known_result_size=results)

        # One-pass mode has no screening scan: the random pass is everything
        # between allocating the segment region and (salvage) the new output.
        if salvage == "raise":
            with pytest.raises(BlemishError):
                run()
            trace = context.coprocessor.trace
            random_gets = TransferStats.from_trace(trace).gets
        else:
            out = run()
            assert out.meta["blemish"] and len(out.result) == results
            trace = out.trace
            random_gets = out.meta["phases"]["random_scan"]["gets"]
        return host.reads_between("segments", "output"), trace, random_gets

    @pytest.mark.parametrize("salvage", ["raise", "algorithm5"])
    def test_sequential_pass_reads_the_break_block(self, salvage):
        scalar_reads, scalar_trace, scalar_gets = self.sequential(ReferenceCoprocessor, salvage)
        batched_reads, batched_trace, batched_gets = self.sequential(SecureCoprocessor, salvage)
        assert batched_trace == scalar_trace
        # The one 256-row segment is one block: the break, a few rows in,
        # still reads and declares all of it, two GETs a row, on both modes.
        assert scalar_gets == batched_gets == 2 * 256
        # The batched pass read no slot the scalar pass did not, nor any slot
        # more often.
        assert batched_reads and not batched_reads - scalar_reads

    def share(self, device):
        relations, _ = blemishing_workload()
        host = ReadLoggingHost()
        provider = FastProvider(KEY)
        context = context_on(host, provider, device)
        cluster = Cluster(host, provider, count=2, device=device)
        with pytest.raises(BlemishError):
            parallel_algorithm6(context, cluster, relations,
                                BinaryAsMulti(Equality("key")), memory=1,
                                segment_size=128)
        # The coordinator's screen reads every slot; the shares run after the
        # segment region is allocated.
        return host.reads_between("psegments", "output"), [t.trace for t in cluster]

    def test_parallel_share_reads_the_break_block(self):
        scalar_reads, scalar_traces = self.share(ReferenceCoprocessor)
        batched_reads, batched_traces = self.share(SecureCoprocessor)
        assert batched_traces == scalar_traces
        # Device 0 screens all 256 rows, then its first 128-row segment (one
        # block) breaks and is read to its end; inline, device 1 never runs.
        assert [TransferStats.from_trace(trace).gets for trace in scalar_traces] == [
            2 * 256 + 2 * 128, 0]
        assert batched_reads and not batched_reads - scalar_reads


# --- golden pins for the segmented random-order pass ----------------------------
#
# Taken with ``equijoin_workload(n, n, n, rng=random.Random(5))``,
# ``Equality("key")`` and epsilon = 1e-6: M < S, so the pass is segmented
# (``test_trace_golden.py``'s Algorithm 6 pin takes the fit-in-memory exit).

RANDOM_PASS_PINS = {
    # n, M: (segments, n*, transfers, fingerprint)
    (24, 4): (144, 4, 35180,
              "ad6c7c038c54479632f3d3a7394223cf44673c7517fb415f3fa99cc90ad437f0"),
    (64, 8): (98, 42, 88436,
              "7ce6148b0a9f2f16e3615bcbff8d970420f6eb9e28267d69a31611077144b3c6"),
}

PARALLEL_RANDOM_PASS_PINS = [
    "a86a7bd17c3085ea7b0c516293250344ccb3bc1fdaac0e195afb440575c6075e",
    "416e6ca13f348ababaf3564f90ab3aa0989626285fc7d26387c28729d1fe950d",
]


def pinned_instance(n):
    wl = equijoin_workload(n, n, n, rng=random.Random(5))
    return [wl.left, wl.right], BinaryAsMulti(Equality("key"))


@pytest.mark.parametrize("n,memory", sorted(RANDOM_PASS_PINS), ids=str)
def test_random_pass_trace_is_pinned(n, memory):
    relations, predicate = pinned_instance(n)
    out = algorithm6(JoinContext.fresh(provider=FastProvider(KEY)), relations,
                     predicate, memory=memory, epsilon=1e-6)
    segments, n_star, transfers, fingerprint = RANDOM_PASS_PINS[n, memory]
    assert not out.meta["fit_in_memory"] and not out.meta["blemish"]
    assert (out.meta["segments"], out.meta["segment_size"]) == (segments, n_star)
    assert out.stats.total == transfers
    assert out.trace.fingerprint() == fingerprint
    assert len(out.result) == n


def test_parallel_random_pass_traces_are_pinned():
    relations, predicate = pinned_instance(64)
    context = JoinContext.fresh(provider=FastProvider(KEY))
    cluster = Cluster(context.host, context.provider, count=2)
    out = parallel_algorithm6(context, cluster, relations, predicate,
                              memory=8, epsilon=1e-6)
    assert (out.meta["segments"], out.meta["segment_size"]) == (98, 42)
    assert [t.trace.fingerprint() for t in cluster] == PARALLEL_RANDOM_PASS_PINS
    assert len(out.result) == 64


# --- regression guards: the saving, without reading a clock ---------------------

class CountingProvider(FastProvider):
    def __init__(self, key):
        super().__init__(key)
        self.scalar_encrypts = 0
        self.batch_encrypts = 0

    def encrypt(self, plaintext):
        self.scalar_encrypts += 1
        return super().encrypt(plaintext)

    def encrypt_many(self, plaintexts):
        self.batch_encrypts += 1
        return super().encrypt_many(plaintexts)


class GatherCountingCoprocessor(SecureCoprocessor):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gathers = []

    def gather_slots(self, region, indices):
        self.gathers.append((region, list(indices)))
        return super().gather_slots(region, indices)


class TestTheScanIsOneSectionPerBlock:
    def test_algorithm4_scan_is_nine_runs_and_nine_batch_encrypts(self):
        wl = equijoin_workload(48, 48, 48, rng=random.Random(5))
        provider = CountingProvider(KEY)
        context = context_on(HostMemory(), provider, trace_factory=CountingTrace)
        relations = [wl.left, wl.right]
        reader = upload_tables(context, relations)
        total = len(reader.space)
        context.host.allocate(OTUPLE_REGION, total)
        provider.batch_encrypts = 0  # the uploads
        blocks = -(-total // SCAN_BLOCK)
        assert blocks == 9

        found = scan_otuples(context.coprocessor, range(total), 0, tables=reader.tables,
                             predicate=BinaryAsMulti(Equality("key")),
                             out_codec=TupleCodec(multi_party_output_schema(relations)))
        assert found == 48
        trace = context.coprocessor.trace
        assert (trace.runs, trace.singles) == (blocks, 0)
        assert len(trace) == 3 * total
        assert (provider.batch_encrypts, provider.scalar_encrypts) == (blocks, 0)

        oblivious_filter(context.coprocessor, OTUPLE_REGION, total, keep=found,
                         delta=16, priority=decoy_priority)
        assert provider.scalar_encrypts == 0
        assert context.coprocessor.trace.singles == 0

    def test_algorithm5_scan_gathers_each_distinct_slot_once_per_block(self):
        wl = equijoin_workload(128, 128, 128, rng=random.Random(5))
        context = context_on(HostMemory(), FastProvider(KEY), GatherCountingCoprocessor)
        reader = upload_tables(context, [wl.left, wl.right])
        total = len(reader.space)
        matches = sum(1 for _ in scan_matches(
            reader, range(total), BinaryAsMulti(Equality("key"))))
        assert matches == 128
        gathers = context.coprocessor.gathers
        blocks = total // SCAN_BLOCK
        assert len(gathers) == 2 * blocks
        for region, indices in gathers:
            assert len(indices) == len(set(indices))  # distinct slots only
            assert len(indices) == (2 if region == "X0" else 128)
        t = context.coprocessor
        assert t.batch_rows == blocks * (2 + 128) and t.decryptions == 2 * total
        assert t.physical_decryptions == 128 + 128  # each input tuple, once


# --- block plans: built once per reader, keyed by the block and its output ------

from repro.core.cartesian import PLAN_ROWS, CartesianReader
from repro.errors import HostMemoryError


class TestBlockPlans:
    """A range block's plan (slot columns, distinct slots, declared run) is
    built once per reader and reused on every rescan, up to ``PLAN_ROWS``.
    One reader running three passes — read-only, writing ``marks``, read-only
    again — is indistinguishable from a fresh reader per pass and from the
    reference device."""

    OUTPUTS = (None, "marks", None)

    def passes(self, sizes, device, fresh):
        context = context_on(HostMemory(), FastProvider(KEY), device)
        reader = upload_tables(context, tables(sizes))
        total = len(reader.space)
        context.host.allocate("marks", total)
        seen = []
        for output in self.OUTPUTS:
            if fresh:
                reader = CartesianReader(context.coprocessor, reader.regions,
                                         reader.codecs, reader.space)
            for block in scan_blocks(reader, range(total), output=output):
                rows = list(block)
                seen.extend((logical, tuple(r.values for r in records))
                            for logical, records in rows)
                if output is not None:
                    block.write([bytes([EQUAL_KEYS.satisfies(records)]) * 3
                                 for _, records in rows])
        return context, reader, seen

    @pytest.mark.parametrize("sizes", [(17, 17), (300,), (PLAN_ROWS + 100,)], ids=str)
    def test_one_reader_over_three_passes_is_three_fresh_readers(self, sizes):
        reused, reader, reused_rows = self.passes(sizes, SecureCoprocessor, fresh=False)
        for device in (SecureCoprocessor, ReferenceCoprocessor):
            other, _, other_rows = self.passes(sizes, device, fresh=True)
            assert reused_rows == other_rows
            r, o = reused.coprocessor, other.coprocessor
            assert r.trace == o.trace
            assert r.trace.fingerprint() == o.trace.fingerprint()
            assert TransferStats.from_trace(r.trace) == TransferStats.from_trace(o.trace)
            assert (r.decryptions, r.encryptions, r.ops_completed) == (
                o.decryptions, o.encryptions, o.ops_completed)
            assert (r.physical_decryptions, r.cache_hits) == (
                o.physical_decryptions, o.cache_hits)
            assert plain_image(reused) == plain_image(other)
        # The first block's plan is kept; past the cap, blocks are re-planned.
        first = range(SCAN_BLOCK)
        assert reader.plan(first, None) is reader.plan(first, None)
        assert reader.plan(first, None) is not reader.plan(first, "marks")
        total = len(reader.space)
        if total > PLAN_ROWS:
            last = range(total - SCAN_BLOCK, total)
            assert reader.plan(last, None) is not reader.plan(last, None)

    def test_an_lfsr_block_is_planned_per_call(self):
        context = context_on(HostMemory(), FastProvider(KEY))
        reader = upload_tables(context, tables((17, 17)))
        segment = lfsr_slice(len(reader.space))[:SCAN_BLOCK]
        assert reader.plan(segment, None) is not reader.plan(segment, None)
        assert reader.plan(segment, None) == reader.plan(segment, None)


class TestHostReadSlots:
    """The honest host serves a batch in one pass, and refuses exactly the
    batches its per-slot ``read_slot`` refuses, with the same error."""

    @staticmethod
    def host():
        host = HostMemory()
        host.allocate_from("A", [b"a0", b"a1", b"a2"])
        host.allocate("B", 3)
        host.write_slot("B", 1, b"b1")
        return host

    @pytest.mark.parametrize("slots", [
        [("A", 0), ("C", 0)],
        [("A", 1), ("A", 3)],
        [("A", 2), ("A", -1)],
        [("B", -3)],
        [("A", 0), ("B", 0)],
        [("B", 1), ("B", 2), ("Z", 0)],
    ], ids=["unknown-region", "past-the-end", "negative", "negative-in-range",
            "never-written", "first-refusal-wins"])
    def test_read_slots_refuses_where_read_slot_does(self, slots):
        host = self.host()
        with pytest.raises(HostMemoryError) as one_by_one:
            [host.read_slot(*slot) for slot in slots]
        with pytest.raises(HostMemoryError) as batch:
            host.read_slots(slots)
        assert str(batch.value) == str(one_by_one.value)

    def test_read_slots_serves_what_read_slot_does(self):
        host = self.host()
        slots = [("A", 2), ("B", 1), ("A", 0), ("A", 2)]
        assert host.read_slots(slots) == [host.read_slot(*slot) for slot in slots]
        assert host.read_slots([]) == []

    def test_a_host_that_overrides_read_slot_sees_every_slot(self):
        host = ReadLoggingHost()
        host.allocate_from("X0", [b"x0", b"x1"])
        assert host.read_slots([("X0", 1), ("X0", 0), ("X0", 1)]) == [b"x1", b"x0", b"x1"]
        assert host.log[-3:] == [("X0", 1), ("X0", 0), ("X0", 1)]
