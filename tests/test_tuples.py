"""Unit and property tests for the fixed-width tuple codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError, SchemaError
from repro.relational.schema import (
    Attribute,
    AttrType,
    Schema,
    blob,
    integer,
    intset,
    real,
    text,
)
from repro.relational.tuples import Record, TupleCodec

SCHEMA = Schema.of(
    integer("id"), real("score"), text("name", 12), blob("raw", 6), intset("tags", 4)
)
CODEC = TupleCodec(SCHEMA)


class TestRecord:
    def test_value_count_must_match(self):
        with pytest.raises(SchemaError):
            Record(SCHEMA, (1, 2.0, "x"))

    def test_getitem_by_name(self):
        record = Record.of(SCHEMA, 7, 0.5, "alice", b"ab", {1, 2})
        assert record["id"] == 7
        assert record["name"] == "alice"

    def test_intset_normalized_to_frozenset(self):
        record = Record.of(SCHEMA, 7, 0.5, "a", b"", [3, 1, 3])
        assert record["tags"] == frozenset({1, 3})

    def test_as_dict(self):
        record = Record.of(SCHEMA, 7, 0.5, "a", b"x", set())
        assert record.as_dict()["id"] == 7

    def test_joined_with(self):
        left_schema = Schema.of(integer("a"), name="L")
        right_schema = Schema.of(integer("b"), name="R")
        joined = Record.of(left_schema, 1).joined_with(Record.of(right_schema, 2))
        assert joined.values == (1, 2)


class TestCodec:
    def test_roundtrip(self):
        record = Record.of(SCHEMA, -42, 3.25, "bob", b"\x01\x02", {5, 9, 100})
        assert CODEC.decode(CODEC.encode(record)) == record

    def test_encoded_size_is_fixed(self):
        r1 = Record.of(SCHEMA, 0, 0.0, "", b"", set())
        r2 = Record.of(SCHEMA, 2**62, -1.5, "abcdefghijkl", b"abcdef", {1, 2, 3, 4})
        assert len(CODEC.encode(r1)) == len(CODEC.encode(r2)) == SCHEMA.record_size

    def test_string_too_long_raises(self):
        with pytest.raises(CodecError):
            CODEC.encode(Record.of(SCHEMA, 0, 0.0, "x" * 13, b"", set()))

    def test_bytes_too_long_raises(self):
        with pytest.raises(CodecError):
            CODEC.encode(Record.of(SCHEMA, 0, 0.0, "", b"1234567", set()))

    def test_intset_too_large_raises(self):
        with pytest.raises(CodecError):
            CODEC.encode(Record.of(SCHEMA, 0, 0.0, "", b"", {1, 2, 3, 4, 5}))

    def test_int_out_of_range_raises(self):
        with pytest.raises(CodecError):
            CODEC.encode(Record.of(SCHEMA, 2**63, 0.0, "", b"", set()))

    def test_decode_wrong_size_raises(self):
        with pytest.raises(CodecError):
            CODEC.decode(b"\x00" * (SCHEMA.record_size + 1))

    def test_incompatible_record_rejected(self):
        other = Schema.of(integer("x"))
        with pytest.raises(CodecError):
            CODEC.encode(Record.of(other, 1))

    def test_encode_all(self):
        records = [Record.of(SCHEMA, i, 0.0, "", b"", set()) for i in range(3)]
        assert len(CODEC.encode_all(records)) == 3


@settings(max_examples=150)
@given(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(
        alphabet=st.characters(codec="ascii", exclude_characters="\x00"), max_size=12
    ),
    st.binary(max_size=6).filter(lambda b: not b.endswith(b"\x00")),
    st.sets(st.integers(min_value=0, max_value=2**32 - 1), max_size=4),
)
def test_codec_roundtrip_property(i, f, s, raw, tags):
    """Every representable record survives encode/decode exactly."""
    record = Record.of(SCHEMA, i, f, s, raw, tags)
    assert CODEC.decode(CODEC.encode(record)) == record


# -- the joined row is the concatenation of the two encoded rows ---------------
#
# Algorithms 7 and 8 build a joined row by concatenating the two uploaded
# payloads instead of decoding both and re-encoding the pair; that is exact
# because the joined schema's codec lays out the left attributes, then the
# right ones, each encoded as in its own schema.

#: Few attribute names, so the two sides collide and the join renames.
NAMES = ("key", "a", "b")


@st.composite
def attributes(draw):
    kind = draw(st.sampled_from(list(AttrType)))
    name = draw(st.sampled_from(NAMES))
    if kind is AttrType.INTSET:
        return Attribute(name, kind, 4 * draw(st.integers(1, 3)))
    if kind in (AttrType.STR, AttrType.BYTES):
        return Attribute(name, kind, draw(st.integers(1, 8)))
    return Attribute(name, kind)


def values_for(attr):
    if attr.type is AttrType.INT:
        return st.integers(min_value=-(2**63), max_value=2**63 - 1)
    if attr.type is AttrType.FLOAT:
        return st.floats()
    if attr.type is AttrType.STR:
        return st.text(max_size=attr.width).filter(
            lambda s: len(s.encode("utf-8")) <= attr.width)
    if attr.type is AttrType.BYTES:
        return st.binary(max_size=attr.width)
    return st.sets(st.integers(min_value=0, max_value=2**32 - 1),
                   max_size=attr.width // 4)


@st.composite
def schemas_with_records(draw, name):
    attrs = draw(st.lists(attributes(), min_size=1, max_size=4,
                          unique_by=lambda a: a.name))
    schema = Schema(tuple(attrs), name=name)
    values = tuple(draw(values_for(attr)) for attr in attrs)
    return schema, Record(schema, values)


def assert_joined_row_is_the_concatenation(left, a, right, b):
    joined = left.joined_with(right)
    left_codec, right_codec = TupleCodec(left), TupleCodec(right)
    payloads = left_codec.encode(a), right_codec.encode(b)
    assert (payloads[0] + payloads[1]
            == TupleCodec(joined).encode(Record(joined, a.values + b.values)))
    # Codec output is a fixed point of decode-then-encode, so concatenating
    # uploaded payloads equals decoding them and encoding the joined record.
    for codec, payload in zip((left_codec, right_codec), payloads):
        assert codec.encode(codec.decode(payload)) == payload


@settings(max_examples=300)
@given(schemas_with_records("L"), schemas_with_records("R"))
def test_joined_row_is_the_concatenation_property(left_case, right_case):
    (left, a), (right, b) = left_case, right_case
    assert_joined_row_is_the_concatenation(left, a, right, b)


def test_joined_row_is_the_concatenation_on_edge_values():
    """Trailing NULs, an empty intset, -0.0, NaN and non-ASCII text, under
    colliding attribute names."""
    left = Schema.of(integer("key"), blob("a", 6), intset("b", 2), name="L")
    right = Schema.of(integer("key"), real("a"), real("x"), text("b", 9), name="R")
    a = Record.of(left, -1, b"ab\x00\x00", set())
    for b in (Record.of(right, 0, -0.0, float("nan"), "né\x00ü"),
              Record.of(right, 2**63 - 1, float("-inf"), 5e-324, "日本\x00")):
        assert_joined_row_is_the_concatenation(left, a, right, b)
