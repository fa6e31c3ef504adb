"""Tests for the shared core machinery in repro.core.base."""

import pytest

from tests.conftest import fresh_context, keyed

from repro.core.base import (
    DECOY_FLAG,
    REAL_FLAG,
    JoinContext,
    decoy_priority,
    is_real,
    joined_payload,
    make_decoy,
    make_real,
    two_party_output_schema,
    validate_two_party_inputs,
)
from repro.core.algorithm7 import algorithm7
from repro.errors import CodecError, ConfigurationError
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import Equality
from repro.relational.relation import Relation
from repro.relational.schema import Schema, blob, integer, text
from repro.relational.tuples import Record, TupleCodec


class TestOTupleFormat:
    def test_real_wraps_payload(self):
        plain = make_real(b"payload")
        assert plain[0] == REAL_FLAG
        assert plain[1:] == b"payload"
        assert is_real(plain)

    def test_decoy_is_fixed_pattern(self):
        plain = make_decoy(5)
        assert plain[0] == DECOY_FLAG
        assert plain[1:] == b"\xff" * 5
        assert not is_real(plain)

    def test_decoy_and_real_same_length(self):
        assert len(make_real(b"abcde")) == len(make_decoy(5))

    def test_priority_orders_reals_first(self):
        assert decoy_priority(make_real(b"x")) < decoy_priority(make_decoy(1))


class TestJoinContext:
    def test_fresh_has_coprocessor_on_host(self):
        context = JoinContext.fresh()
        assert context.coprocessor.host is context.host

    def test_upload_replaces_existing_region(self):
        context = fresh_context()
        first = keyed("A", [(1, 0), (2, 0)])
        second = keyed("A", [(9, 9)])
        context.upload_relation("A", first)
        context.upload_relation("A", second)
        assert context.host.size("A") == 1

    def test_upload_stores_ciphertext_only(self):
        context = fresh_context()
        relation = keyed("A", [(123456789, 7)])
        codec = context.upload_relation("A", relation)
        raw = context.host.read_slot("A", 0)
        assert codec.encode(relation[0]) not in raw

    @pytest.mark.parametrize("kind", ["bytes", "str"])
    def test_upload_refuses_a_value_that_ends_in_nul(self, kind):
        """The codec's NUL padding would strip it: Algorithm 7 used to join
        b"a" with b"a\\x00" and return b"a" in place of b"a\\x00"."""
        attr = blob("key", 4) if kind == "bytes" else text("key", 4)
        nul, plain = (b"\x00", b"a") if kind == "bytes" else ("\x00", "a")
        left = Relation(Schema.of(attr, integer("a"), name="A"))
        left.append(Record.of(left.schema, plain, 1))
        right = Relation(Schema.of(attr, integer("b"), name="B"))
        right.append(Record.of(right.schema, plain + nul, 2))
        assert len(nested_loop_join(left, right, Equality("key"))) == 0
        context = JoinContext.fresh()
        with pytest.raises(CodecError, match="'key'"):
            context.upload_relation("B", right)
        assert not context.host.has_region("B")
        with pytest.raises(CodecError, match="'key'"):
            algorithm7(JoinContext.fresh(), [left, right], Equality("key"))

    def test_download_output_filters_decoys(self):
        context = fresh_context()
        relation = keyed("A", [(1, 2)])
        codec = relation.codec()
        context.allocate_output()
        context.coprocessor.put_append("output", make_real(codec.encode(relation[0])))
        context.coprocessor.put_append("output", make_decoy(codec.record_size))
        out = context.download_output(relation.schema)
        assert len(out) == 1
        assert out[0]["key"] == 1

    def test_download_output_unflagged(self):
        context = fresh_context()
        relation = keyed("A", [(5, 6)])
        codec = relation.codec()
        context.allocate_output()
        context.coprocessor.put_append("output", codec.encode(relation[0]))
        out = context.download_output(relation.schema, flagged=False)
        assert out[0]["payload"] == 6

    def test_allocate_output_resets(self):
        context = fresh_context()
        context.allocate_output()
        context.coprocessor.put_append("output", b"x")
        context.allocate_output()
        assert context.host.size("output") == 0


class TestHelpers:
    def test_two_party_output_schema(self):
        left = keyed("A", [(1, 2)])
        right = keyed("B", [(3, 4)])
        schema = two_party_output_schema(left, right)
        assert [a.name for a in schema] == ["key", "payload", "B_key", "B_payload"]

    def test_joined_payload_roundtrips(self):
        left = keyed("A", [(1, 2)])
        right = keyed("B", [(3, 4)])
        schema = two_party_output_schema(left, right)
        codec = TupleCodec(schema)
        payload = joined_payload(left[0], right[0], schema, codec)
        assert codec.decode(payload).values == (1, 2, 3, 4)

    def test_validate_rejects_empty_relations(self):
        left = keyed("A", [(1, 2)])
        empty = Relation(left.schema)
        with pytest.raises(ConfigurationError):
            validate_two_party_inputs(left, empty)
        with pytest.raises(ConfigurationError):
            validate_two_party_inputs(empty, left)
