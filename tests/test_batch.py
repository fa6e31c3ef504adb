"""Vectorized hot path: batch codec, batch crypto, batched-vs-scalar runs.

Three layers of guarantees:

* ``BatchCodec`` is byte-identical per row to ``TupleCodec`` (hypothesis
  round-trips over random schemas, plus the empty / single-row / max-width /
  unicode corners).
* ``encrypt_many``/``decrypt_many`` interoperate with the scalar surface on
  every provider, reject tampering, and never reuse nonces — including across
  ``clone()``d instances (the regression that motivated per-clone prefixes).
* Whole-algorithm differential runs: with batching on vs off, all nine safe
  algorithms produce bit-identical trace fingerprints, identical results,
  identical *modeled* counters, and the privacy checker still passes — while
  the batched run actually exercises the batched machinery.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm2 import algorithm2
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext
from repro.crypto.provider import (
    FastProvider,
    NullProvider,
    OcbProvider,
    decrypt_batch,
    encrypt_batch,
)
from repro.errors import AuthenticationError, CodecError
from repro.privacy.checker import check_definition3
from repro.privacy.definitions import Definition3Experiment, Definition3Instance
from repro.relational.batch import BatchCodec
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality
from repro.relational.schema import Schema, blob, integer, intset, real, text
from repro.relational.tuples import Record, TupleCodec

KEY = b"batch-tests-session-key-00001"

SCHEMA = Schema.of(
    integer("id"), real("score"), text("name", 12), blob("raw", 6), intset("tags", 4)
)


# --- strategies -------------------------------------------------------------

def schemas():
    attribute = st.one_of(
        st.builds(lambda i: integer(f"i{i}"), st.integers(0, 9)),
        st.builds(lambda i: real(f"f{i}"), st.integers(0, 9)),
        st.builds(lambda i, w: text(f"s{i}", w), st.integers(0, 9),
                  st.integers(1, 16)),
        st.builds(lambda i, w: blob(f"b{i}", w), st.integers(0, 9),
                  st.integers(1, 8)),
        st.builds(lambda i, c: intset(f"t{i}", c), st.integers(0, 9),
                  st.integers(1, 4)),
    )
    return st.lists(
        attribute, min_size=1, max_size=5,
        unique_by=lambda a: a.name,
    ).map(lambda attrs: Schema.of(*attrs))


def value_for(attr, draw):
    kind = attr.type.value
    if kind == "int":
        return draw(st.integers(-(2 ** 63), 2 ** 63 - 1))
    if kind == "float":
        return draw(st.floats(allow_nan=False))
    if kind == "str":
        return draw(
            st.text(max_size=attr.width).filter(
                lambda s: len(s.encode("utf-8")) <= attr.width
                and not s.rstrip("\x00") != s  # codec strips trailing NULs
            )
        )
    if kind == "bytes":
        return draw(
            st.binary(max_size=attr.width).filter(
                lambda b: not b.endswith(b"\x00")
            )
        )
    return frozenset(
        draw(st.sets(st.integers(0, 2 ** 32 - 1), max_size=attr.width // 4))
    )


@st.composite
def relations(draw):
    schema = draw(schemas())
    rows = draw(st.integers(0, 12))
    return schema, [
        Record(schema, tuple(value_for(a, draw) for a in schema.attributes))
        for _ in range(rows)
    ]


# --- BatchCodec -------------------------------------------------------------

class TestBatchCodec:
    @settings(max_examples=60, deadline=None)
    @given(relations())
    def test_rows_byte_identical_to_tuple_codec(self, schema_and_records):
        schema, records = schema_and_records
        scalar = TupleCodec(schema)
        batch = BatchCodec(schema)
        assert batch.encode_rows(records) == [scalar.encode(r) for r in records]

    @settings(max_examples=60, deadline=None)
    @given(relations())
    def test_decode_roundtrip(self, schema_and_records):
        schema, records = schema_and_records
        batch = BatchCodec(schema)
        assert batch.decode_rows(batch.encode_rows(records)) == records

    @settings(max_examples=60, deadline=None)
    @given(relations())
    def test_decoded_records_are_constructed_records(self, schema_and_records):
        """Decoded records skip ``__post_init__``; they must still equal, and
        hash like, the record the validating constructor builds."""
        schema, records = schema_and_records
        batch = BatchCodec(schema)
        for record in batch.decode_rows(batch.encode_rows(records)):
            built = Record(schema, record.values)
            assert record == built and hash(record) == hash(built)
            assert type(record.values) is tuple

    def test_decoded_records_of_every_attribute_type(self):
        records = [Record.of(SCHEMA, -42, 3.25, "bob", b"\x01\x02", {5, 9}),
                   Record.of(SCHEMA, 0, -0.0, "", b"", set())]
        batch = BatchCodec(SCHEMA)
        decoded = batch.decode_rows(batch.encode_rows(records))
        assert decoded == records
        assert [hash(r) for r in decoded] == [hash(r) for r in records]
        assert decoded == [Record(SCHEMA, r.values) for r in decoded]
        assert all(type(r.values[4]) is frozenset for r in decoded)

    @settings(max_examples=30, deadline=None)
    @given(relations())
    def test_column_transpose_roundtrip(self, schema_and_records):
        schema, records = schema_and_records
        batch = BatchCodec(schema)
        rows = batch.encode_rows(records)
        assert batch.rows_from_columns(
            batch.columns_from_rows(rows), len(rows)
        ) == rows

    def test_empty_batch(self):
        batch = BatchCodec(SCHEMA)
        assert batch.encode_rows([]) == []
        assert batch.decode_rows([]) == []
        assert batch.encode_columns([]) == [b""] * len(SCHEMA)

    def test_single_row(self):
        record = Record.of(SCHEMA, -42, 3.25, "bob", b"\x01\x02", {5, 9})
        batch = BatchCodec(SCHEMA)
        assert batch.encode_rows([record]) == [TupleCodec(SCHEMA).encode(record)]
        assert batch.decode_rows(batch.encode_rows([record])) == [record]

    def test_max_width_values(self):
        record = Record.of(
            SCHEMA, 2 ** 63 - 1, -1.5, "abcdefghijkl", b"abcdef", {1, 2, 3, 4}
        )
        batch = BatchCodec(SCHEMA)
        assert batch.encode_rows([record]) == [TupleCodec(SCHEMA).encode(record)]
        assert batch.decode_rows(batch.encode_rows([record])) == [record]

    def test_unicode_strings(self):
        records = [
            Record.of(SCHEMA, i, 0.0, name, b"", set())
            for i, name in enumerate(["héllo", "日本語", "żółć", ""])
        ]
        batch = BatchCodec(SCHEMA)
        scalar = TupleCodec(SCHEMA)
        assert batch.encode_rows(records) == [scalar.encode(r) for r in records]
        assert batch.decode_rows(batch.encode_rows(records)) == records

    def test_oversized_value_raises(self):
        record = Record.of(SCHEMA, 0, 0.0, "x" * 13, b"", set())
        with pytest.raises(CodecError):
            BatchCodec(SCHEMA).encode_rows([record])

    def test_incompatible_schema_rejected(self):
        other = Schema.of(integer("x"))
        with pytest.raises(CodecError):
            BatchCodec(SCHEMA).encode_rows([Record.of(other, 1)])

    def test_wrong_payload_size_rejected(self):
        with pytest.raises(CodecError):
            BatchCodec(SCHEMA).decode_rows([b"\x00"])

    def test_decode_unique_decodes_distinct_payloads_once(self):
        records = [Record.of(SCHEMA, i, 0.0, "", b"", set()) for i in range(3)]
        batch = BatchCodec(SCHEMA)
        rows = batch.encode_rows(records)
        mapping = batch.decode_unique(rows + rows)
        assert sorted(mapping.values(), key=lambda r: r["id"]) == records

    def test_shares_layout_with_tuple_codec(self):
        batch = BatchCodec(SCHEMA)
        assert batch.layout == TupleCodec(SCHEMA).layout
        offsets = [off for _, off, _ in batch.layout]
        assert offsets == sorted(offsets)
        assert sum(slot for _, _, slot in batch.layout) == SCHEMA.record_size


# --- batch crypto -----------------------------------------------------------

PROVIDERS = [OcbProvider, FastProvider, NullProvider]


class TestBatchCrypto:
    @pytest.mark.parametrize("cls", PROVIDERS)
    def test_roundtrip_and_scalar_interop(self, cls):
        provider = cls(KEY)
        messages = [b"a", b"x" * 40, b"\x00" * 17, b"yz"]
        cells = provider.encrypt_many(messages)
        assert provider.decrypt_many(cells) == messages
        assert [provider.decrypt(c) for c in cells] == messages
        scalar_cells = [provider.encrypt(m) for m in messages]
        assert provider.decrypt_many(scalar_cells) == messages

    @pytest.mark.parametrize("cls", PROVIDERS)
    def test_expansion_matches_scalar(self, cls):
        provider = cls(KEY)
        (batched,) = provider.encrypt_many([b"m" * 24])[:1]
        scalar = provider.encrypt(b"m" * 24)
        assert len(batched) == len(scalar)

    @pytest.mark.parametrize("cls", [OcbProvider, FastProvider])
    def test_tamper_detected(self, cls):
        provider = cls(KEY)
        for cell in provider.encrypt_many([b"secret message!!", b"another"]):
            for position in (0, len(cell) // 2, len(cell) - 1):
                damaged = bytearray(cell)
                damaged[position] ^= 1
                with pytest.raises(AuthenticationError):
                    provider.decrypt(bytes(damaged))

    @pytest.mark.parametrize("cls", [OcbProvider, FastProvider])
    def test_truncated_cell_rejected(self, cls):
        provider = cls(KEY)
        cell = provider.encrypt_many([b"hello world"])[0]
        with pytest.raises(AuthenticationError):
            provider.decrypt(cell[: len(cell) - 1])

    @pytest.mark.parametrize("cls", [OcbProvider, FastProvider])
    def test_nonce_uniqueness_across_clones(self, cls):
        """Regression: clones must draw from disjoint nonce sequences.

        A deep copy replays prefix *and* counter, so the span (or cell)
        nonces of a copied provider would collide with the original's;
        ``clone()`` re-randomizes the prefix.  Every nonce across original,
        clone, and a second generation must be distinct.
        """
        provider = cls(KEY)
        first = provider.clone()
        second = first.clone()
        nonces = set()
        for instance in (provider, first, second):
            for _ in range(3):
                for cell in instance.encrypt_many([b"m"] * 4):
                    nonces.add(cell[:16])
                nonces.add(instance.encrypt(b"m")[:16])
        expected_spans = 3 * 3  # OCB: one fresh span nonce per encrypt_many
        expected = (
            expected_spans + 9 if cls is OcbProvider else 9 * 4 + 9
        )
        assert len(nonces) == expected

    def test_deepcopy_reuses_nonces_clone_does_not(self):
        provider = OcbProvider(KEY)
        copied = copy.deepcopy(provider)
        assert (
            copied.encrypt_many([b"m"])[0][:16]
            == provider.encrypt_many([b"m"])[0][:16]
        )
        assert (
            provider.clone().encrypt_many([b"m"])[0][:16]
            != provider.encrypt_many([b"m"])[0][:16]
        )

    @pytest.mark.parametrize("cls", PROVIDERS)
    def test_empty_message_rejected(self, cls):
        provider = cls(KEY)
        with pytest.raises(Exception):
            provider.encrypt_many([b"ok", b""])

    def test_adapter_falls_back_for_scalar_only_providers(self):
        class ScalarOnly:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def encrypt(self, plaintext):
                self.calls += 1
                return self._inner.encrypt(plaintext)

            def decrypt(self, ciphertext):
                self.calls += 1
                return self._inner.decrypt(ciphertext)

        provider = ScalarOnly(FastProvider(KEY))
        cells = encrypt_batch(provider, [b"a", b"bb"])
        assert decrypt_batch(provider, cells) == [b"a", b"bb"]
        assert provider.calls == 4

    def test_adapter_uses_batch_surface_when_present(self):
        provider = FastProvider(KEY)
        cells = encrypt_batch(provider, [b"a", b"bb"])
        assert decrypt_batch(provider, cells) == [b"a", b"bb"]


# --- batched-vs-scalar differential runs ------------------------------------

import random

PRED = BinaryAsMulti(Equality("key"))

#: name -> runner(context, workload); all nine safe algorithms.
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
    "algorithm7": lambda ctx, wl: algorithm7(ctx, [wl.left, wl.right], PRED),
    # semi mode: the generated right tables may repeat join keys.
    "algorithm8": lambda ctx, wl: algorithm8(
        ctx, [wl.left, wl.right], PRED, mode="semi"),
}

MODELED = ("encryptions", "decryptions", "ops_completed")


def run_both(name, seed=5):
    """One algorithm over one workload, batching off then on."""
    wl = equijoin_workload(8, 10, 5, rng=random.Random(700 + seed))
    outs = []
    for batched in (False, True):
        context = JoinContext.fresh(
            provider=FastProvider(KEY), seed=seed, batched_io=batched
        )
        out = ALGORITHMS[name](context, wl)
        outs.append((out, context.coprocessor))
    return outs


@pytest.mark.parametrize("name", sorted(ALGORITHMS))
class TestBatchingIsObservablyInvisible:
    def test_trace_stats_and_results_identical(self, name):
        (scalar, _), (batched, _) = run_both(name)
        assert scalar.trace.fingerprint() == batched.trace.fingerprint()
        assert scalar.stats == batched.stats
        assert list(scalar.result) == list(batched.result)

    def test_modeled_counters_identical(self, name):
        (_, t_scalar), (_, t_batched) = run_both(name)
        for counter in MODELED:
            assert getattr(t_scalar, counter) == getattr(t_batched, counter), counter

    def test_physical_ledger_balances_on_both_paths(self, name):
        (_, t_scalar), (_, t_batched) = run_both(name)
        for cop in (t_scalar, t_batched):
            assert cop.physical_decryptions + cop.cache_hits == cop.decryptions
        assert t_scalar.batched_ops == 0
        assert t_scalar.batch_rows == 0


@pytest.mark.parametrize("name", ["algorithm4", "algorithm5", "algorithm6",
                                  "algorithm7", "algorithm8"])
def test_batched_machinery_actually_engages(name):
    (_, _), (_, t_batched) = run_both(name)
    assert t_batched.batched_ops > 0
    assert t_batched.batch_rows > t_batched.batched_ops  # real multi-row batches


def test_batched_differential_holds_under_ocb():
    """Same invisibility property under the faithful span-format provider."""
    wl = equijoin_workload(6, 8, 4, rng=random.Random(78))
    outs = []
    for batched in (False, True):
        context = JoinContext.fresh(provider=OcbProvider(KEY), seed=3,
                                    batched_io=batched)
        outs.append(algorithm6(context, [wl.left, wl.right], PRED,
                               memory=3, epsilon=1e-20))
    scalar, batched_out = outs
    assert scalar.trace.fingerprint() == batched_out.trace.fingerprint()
    assert scalar.stats == batched_out.stats
    assert list(scalar.result) == list(batched_out.result)


def test_privacy_checker_passes_on_batched_runs():
    """Definition 3 holds for batched Algorithm 4/6 runs.

    ``check_definition3`` builds its contexts with the library defaults, so
    batching is live inside every checked run.
    """
    instances = []
    for seed in (10, 20, 30):
        wl = equijoin_workload(8, 10, 5, rng=random.Random(seed))
        instances.append(Definition3Instance((wl.left, wl.right), PRED))
    family = Definition3Experiment.build(instances)
    for runner in (
        lambda ctx, inst: algorithm4(ctx, list(inst.relations), inst.predicate),
        lambda ctx, inst: algorithm6(ctx, list(inst.relations), inst.predicate,
                                     memory=3, epsilon=1e-20),
    ):
        report = check_definition3(family, runner)
        assert report.safe, report.describe()


def _contexts(seed=0):
    return (
        JoinContext.fresh(provider=FastProvider(KEY), seed=seed, batched_io=False),
        JoinContext.fresh(provider=FastProvider(KEY), seed=seed, batched_io=True),
    )


class TestRangedOps:
    def test_get_range_matches_scalar_gets(self):
        scalar_ctx, batched_ctx = _contexts()
        payloads = [bytes([i]) * 8 for i in range(10)]
        for ctx in (scalar_ctx, batched_ctx):
            ctx.host.allocate_from(
                "r", [ctx.provider.encrypt(p) for p in payloads]
            )
        with scalar_ctx.coprocessor.hold(2):
            expected = [scalar_ctx.coprocessor.get("r", i) for i in range(10)]
        with batched_ctx.coprocessor.hold(2):
            got = batched_ctx.coprocessor.get_range("r", 0, 10)
        assert got == expected == payloads
        assert (
            batched_ctx.coprocessor.trace.fingerprint()
            == scalar_ctx.coprocessor.trace.fingerprint()
        )
        assert batched_ctx.coprocessor.decryptions == 10
        assert batched_ctx.coprocessor.batched_ops == 1
        assert batched_ctx.coprocessor.batch_rows == 10

    def test_put_range_matches_scalar_puts(self):
        scalar_ctx, batched_ctx = _contexts()
        payloads = [bytes([i]) * 8 for i in range(6)]
        for ctx in (scalar_ctx, batched_ctx):
            ctx.host.allocate("r", 6)
        for i, p in enumerate(payloads):
            scalar_ctx.coprocessor.put("r", i, p)
        batched_ctx.coprocessor.put_range("r", 0, payloads)
        assert (
            batched_ctx.coprocessor.trace.fingerprint()
            == scalar_ctx.coprocessor.trace.fingerprint()
        )
        for i, p in enumerate(payloads):
            cell = batched_ctx.host.read_slot("r", i)
            assert batched_ctx.provider.decrypt(cell) == p
        assert batched_ctx.coprocessor.encryptions == 6

    def test_duplicate_slots_in_batch_hit_cache_like_scalar(self):
        scalar_ctx, batched_ctx = _contexts()
        for ctx in (scalar_ctx, batched_ctx):
            ctx.host.allocate_from("r", [ctx.provider.encrypt(b"p" * 8)])
        for ctx in (scalar_ctx, batched_ctx):
            cop = ctx.coprocessor
            with cop.hold(3):
                assert cop.gather_slots("r", [0, 0, 0]) == [b"p" * 8] * 3
                cop.charge_boundary([("get", "r")], bytes(3), [0, 0, 0])
            assert cop.decryptions == 3
            assert cop.physical_decryptions == 1
            assert cop.cache_hits == 2


# --- batches under retry, tampering and replay -------------------------------

from collections import Counter

from repro.errors import TransientHostError
from repro.faults.plan import FaultPlan, FaultSpec, transient_plan
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.hardware.resilience import RetryPolicy
from repro.oblivious.sort import oblivious_sort


class CountingHost(HostMemory):
    """Honest ranged storage that counts how often each slot is written."""

    def __init__(self):
        super().__init__()
        self.writes = Counter()
        self.appends = 0

    def write_slot(self, name, index, ciphertext):
        self.writes[name, index] += 1
        super().write_slot(name, index, ciphertext)

    def append_slots(self, name, ciphertexts):
        self.appends += len(ciphertexts)
        return super().append_slots(name, ciphertexts)


def faulty_coprocessor(plan, storage=None):
    storage = storage if storage is not None else CountingHost()
    host = FaultyHost(storage, plan)
    coprocessor = SecureCoprocessor(host, FastProvider(KEY),
                                    retry=RetryPolicy(max_retries=2))
    return storage, host, coprocessor


class TestBatchIsTheUnitOfRetry:
    def test_transient_fault_inside_a_write_batch_is_one_retry(self):
        storage, host, t = faulty_coprocessor(
            transient_plan(at_ops=(5,), kind="transient-write"))
        storage.allocate("r", 8)
        t.put_range("r", 0, [bytes([i]) * 4 for i in range(8)])
        assert t.retries == host.transient_faults_injected == 1
        assert set(storage.writes.values()) == {1}  # no slot written twice
        assert host.ops_attempted == 5 + 8  # the whole window is re-presented
        assert t.get_range("r", 0, 8) == [bytes([i]) * 4 for i in range(8)]
        assert (t.batched_ops, t.encryptions, t.decryptions) == (2, 8, 8)

    def test_transient_fault_inside_an_append_batch_applies_once(self):
        storage, host, t = faulty_coprocessor(
            transient_plan(at_ops=(3,), kind="transient-write"))
        storage.allocate("out", 0)
        assert t.stage_append("out", [b"a", b"b", b"c", b"d"]) == [0, 1, 2, 3]
        t.charge_boundary([("put", "out")], bytes(4), range(4))
        assert t.retries == 1
        assert (storage.appends, storage.size("out")) == (4, 4)

    def test_transient_fault_inside_a_read_batch_is_one_retry(self):
        storage, host, t = faulty_coprocessor(transient_plan(at_ops=(6,)))
        storage.allocate_from("r", [t.provider.encrypt(bytes([i])) for i in range(4)])
        plain = SecureCoprocessor(HostMemory(), FastProvider(KEY))
        plain.host.allocate_from("r", storage.region_bytes("r"))
        assert t.get_range("r", 0, 4) == plain.get_range("r", 0, 4)
        assert t.get_range("r", 0, 4) == plain.get_range("r", 0, 4)  # op 6 faults
        assert t.retries == 1
        assert t.trace.fingerprint() == plain.trace.fingerprint()
        assert host.ops_attempted == 4 + 2 + 4

    def test_section_is_admitted_before_its_first_write(self):
        """A fault anywhere in a sort's declared window fires before the
        staged cells are flushed: one retry, every slot written once."""
        payloads = [bytes([9 - i]) * 4 for i in range(8)]
        reference = SecureCoprocessor(HostMemory(), FastProvider(KEY))
        reference.host.allocate("r", 8)
        reference.put_range("r", 0, payloads)
        oblivious_sort(reference, "r", 8, key=lambda p: p)
        window = reference.ops_completed - 8

        storage, host, t = faulty_coprocessor(FaultPlan(specs=(
            FaultSpec(kind="transient-write", at_ops=(8 + window - 1,)),)))
        storage.allocate("r", 8)
        t.put_range("r", 0, payloads)
        storage.writes.clear()
        oblivious_sort(t, "r", 8, key=lambda p: p)
        assert t.retries == 1
        assert set(storage.writes.values()) == {1}
        assert host.ops_attempted == 8 + (window - 1) + window
        assert t.trace.fingerprint() == reference.trace.fingerprint()
        assert t.get_range("r", 0, 8) == sorted(payloads)

    def test_exhausted_retries_surface_with_nothing_written(self):
        storage, host, t = faulty_coprocessor(FaultPlan(specs=(
            FaultSpec(kind="transient-write", every=1),)))
        storage.allocate("r", 4)
        with pytest.raises(TransientHostError):
            t.put_range("r", 0, [b"a", b"b", b"c", b"d"])
        assert t.retries == 2 and not storage.writes
        assert t.trace.transfer_count() == 0
