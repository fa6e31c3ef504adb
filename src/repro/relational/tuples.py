"""Records and the fixed-width tuple codec.

A :class:`Record` is an immutable value tuple bound to a :class:`Schema`.  The
:class:`TupleCodec` serializes records into exactly ``schema.record_size``
bytes and back.  All plaintexts that flow between the host and the secure
coprocessor are codec output, so tuples of the same schema are always the same
physical size — the *Fixed Size* principle of Section 3.4.3.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Iterable

from repro.errors import CodecError, SchemaError
from repro.relational.schema import AttrType, Schema


@dataclass(frozen=True)
class Record:
    """One tuple of a relation: a schema plus one value per attribute."""

    schema: Schema
    values: tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.schema):
            raise SchemaError(
                f"record has {len(self.values)} values but schema "
                f"{self.schema.name!r} has {len(self.schema)} attributes"
            )
        normalized = tuple(
            frozenset(v) if a.type is AttrType.INTSET else v
            for a, v in zip(self.schema.attributes, self.values)
        )
        object.__setattr__(self, "values", normalized)

    @classmethod
    def _decoded(cls, schema: Schema, values: tuple[Any, ...]) -> "Record":
        """A record from codec output, built without ``__post_init__``.

        Trusted: ``values`` is a tuple of the schema's arity whose INTSET
        values are already frozensets, which is what the codec decodes.
        """
        record = object.__new__(cls)
        object.__setattr__(record, "schema", schema)
        object.__setattr__(record, "values", values)
        return record

    @classmethod
    def of(cls, schema: Schema, *values: Any) -> "Record":
        """Build a record from positional values."""
        return cls(schema, tuple(values))

    def __getitem__(self, attr_name: str) -> Any:
        return self.values[self.schema.position(attr_name)]

    def as_dict(self) -> dict[str, Any]:
        """The record as an attribute-name -> value mapping."""
        return {a.name: v for a, v in zip(self.schema.attributes, self.values)}

    def joined_with(self, other: "Record", schema: Schema | None = None) -> "Record":
        """Concatenate two records under the corresponding joined schema."""
        if schema is None:
            schema = self.schema.joined_with(other.schema)
        return Record(schema, self.values + other.values)


def _encode_value(attr, value: Any) -> bytes:
    kind = attr.type
    try:
        if kind is AttrType.INT:
            return struct.pack(">q", value)
        if kind is AttrType.FLOAT:
            return struct.pack(">d", float(value))
        if kind is AttrType.STR:
            raw = value.encode("utf-8")
            if len(raw) > attr.width:
                raise CodecError(
                    f"string {value!r} needs {len(raw)} bytes, slot is {attr.width}"
                )
            return raw.ljust(attr.width, b"\x00")
        if kind is AttrType.BYTES:
            if len(value) > attr.width:
                raise CodecError(f"bytes value of {len(value)} exceeds slot {attr.width}")
            return bytes(value).ljust(attr.width, b"\x00")
        if kind is AttrType.INTSET:
            elements = sorted(value)
            if 4 * len(elements) > attr.width:
                raise CodecError(
                    f"intset of {len(elements)} elements exceeds capacity {attr.width // 4}"
                )
            body = b"".join(struct.pack(">I", e) for e in elements)
            return struct.pack(">I", len(elements)) + body.ljust(attr.width, b"\x00")
    except (struct.error, AttributeError, TypeError) as exc:
        raise CodecError(f"cannot encode {value!r} as {kind.value}") from exc
    raise CodecError(f"unknown attribute type {kind}")


def _decode_value(attr, raw: bytes) -> Any:
    kind = attr.type
    if kind is AttrType.INT:
        return struct.unpack(">q", raw)[0]
    if kind is AttrType.FLOAT:
        return struct.unpack(">d", raw)[0]
    if kind is AttrType.STR:
        return raw.rstrip(b"\x00").decode("utf-8")
    if kind is AttrType.BYTES:
        return raw.rstrip(b"\x00")
    if kind is AttrType.INTSET:
        count = struct.unpack(">I", raw[:4])[0]
        body = raw[4:4 + 4 * count]
        return frozenset(struct.unpack(f">{count}I", body)) if count else frozenset()
    raise CodecError(f"unknown attribute type {kind}")


class TupleCodec:
    """Fixed-width serializer for records of one schema.

    The per-attribute layout — byte offset and slot width of every attribute —
    is a pure function of the schema, so it is derived once here instead of on
    every ``encode``/``decode`` call.  :class:`~repro.relational.batch.BatchCodec`
    shares the same cached layout for its columnar form.
    """

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self.record_size = schema.record_size
        offsets = []
        offset = 0
        for attr in schema.attributes:
            offsets.append(offset)
            offset += attr.slot_size
        #: (attribute, byte offset, slot width) per attribute, in schema order.
        self.layout = tuple(
            (attr, off, attr.slot_size)
            for attr, off in zip(schema.attributes, offsets)
        )

    def encode(self, record: Record) -> bytes:
        """Serialize ``record`` into exactly :attr:`record_size` bytes."""
        if record.schema is not self.schema and not record.schema.compatible_with(self.schema):
            raise CodecError("record schema is incompatible with this codec")
        parts = [
            _encode_value(attr, value)
            for (attr, _, _), value in zip(self.layout, record.values)
        ]
        payload = b"".join(parts)
        if len(payload) != self.record_size:
            raise CodecError(
                f"internal error: encoded {len(payload)} bytes, expected {self.record_size}"
            )
        return payload

    def decode(self, payload: bytes) -> Record:
        """Deserialize a byte string previously produced by :meth:`encode`."""
        if len(payload) != self.record_size:
            raise CodecError(
                f"payload is {len(payload)} bytes, schema needs {self.record_size}"
            )
        values = tuple(
            _decode_value(attr, payload[offset:offset + slot])
            for attr, offset, slot in self.layout
        )
        return Record(self.schema, values)

    def encode_all(self, records: Iterable[Record]) -> list[bytes]:
        """Encode every record in an iterable."""
        return [self.encode(r) for r in records]
