"""Columnar batch codec: N records as contiguous per-attribute byte columns.

The per-tuple :class:`~repro.relational.tuples.TupleCodec` serializes one
record at a time, re-entering the Python interpreter per attribute per row.
:class:`BatchCodec` operates on whole batches instead.  Encoding packs the
values of one attribute across N records into one contiguous byte column of
``N * slot_size`` bytes, with fixed-width types going through a single
``struct`` call for the entire column; each column is split by its stride
once and the rows are joined from the pieces.  Decoding unpacks the joined
payloads with one row ``struct`` (the fixed-width values decoded, every other
slot left raw and decoded column by column) and builds each record through
the trusted :meth:`Record._decoded`, since decoded values already have the
schema's arity and normal form.

Byte identity is the contract: for every record, the row produced by
:meth:`encode_rows` equals ``TupleCodec(schema).encode(record)`` bit for bit,
and :meth:`decode_rows` accepts exactly the payloads ``TupleCodec`` emits.
The Fixed Size principle (Section 3.4.3) is therefore untouched — batching is
purely a physical-execution optimization, which is what lets the vectorized
hot path swap codecs without perturbing any trace or fingerprint.
"""

from __future__ import annotations

import struct
from typing import Iterable, Sequence

from repro.errors import CodecError
from repro.relational.schema import AttrType, Schema
from repro.relational.tuples import Record, TupleCodec, _decode_value, _encode_value


#: ``struct`` codes of the fixed-width types; a row struct reads every other
#: type as its raw slot, which is then decoded value by value.
_STRUCT_CODES = {AttrType.INT: "q", AttrType.FLOAT: "d"}
#: The NUL-padded types, each with its own type's NUL.
_NUL = {AttrType.STR: "\x00", AttrType.BYTES: b"\x00"}


class BatchCodec:
    """Columnar serializer for batches of records of one schema."""

    def __init__(self, schema: Schema) -> None:
        self.schema = schema
        self._row_codec = TupleCodec(schema)
        self.record_size = self._row_codec.record_size
        self.layout = self._row_codec.layout
        self._row_struct = struct.Struct(">" + "".join(
            _STRUCT_CODES.get(attr.type, f"{slot}s") for attr, _, slot in self.layout))
        #: (position, attribute) of every slot the row struct leaves raw.
        self._raw_slots = [
            (position, attr) for position, (attr, _, _) in enumerate(self.layout)
            if attr.type not in _STRUCT_CODES
        ]

    # -- encoding ----------------------------------------------------------
    def encode_columns(self, records: Sequence[Record]) -> list[bytes]:
        """Encode ``records`` into one contiguous byte column per attribute.

        Column ``j`` holds the j-th attribute of every record back to back
        (``len(records) * slot_size`` bytes), in record order.
        """
        if not records:
            return [b"" for _ in self.layout]
        schema = self.schema
        for record in records:
            if record.schema is not schema and not record.schema.compatible_with(schema):
                raise CodecError("record schema is incompatible with this codec")
        columns: list[bytes] = []
        n = len(records)
        for position, (attr, _, slot) in enumerate(self.layout):
            kind = attr.type
            values = [record.values[position] for record in records]
            if kind is AttrType.INT:
                try:
                    columns.append(struct.pack(f">{n}q", *values))
                except struct.error as exc:
                    raise CodecError(f"cannot encode INT column: {exc}") from exc
            elif kind is AttrType.FLOAT:
                try:
                    columns.append(struct.pack(f">{n}d", *map(float, values)))
                except (struct.error, TypeError, ValueError) as exc:
                    raise CodecError(f"cannot encode FLOAT column: {exc}") from exc
            else:
                column = b"".join(_encode_value(attr, value) for value in values)
                if len(column) != n * slot:
                    raise CodecError(
                        f"internal error: column for {attr.name!r} is "
                        f"{len(column)} bytes, expected {n * slot}"
                    )
                columns.append(column)
        return columns

    def rows_from_columns(self, columns: Sequence[bytes], count: int) -> list[bytes]:
        """Stitch per-attribute columns back into ``count`` row payloads."""
        if len(columns) != len(self.layout):
            raise CodecError(
                f"expected {len(self.layout)} columns, got {len(columns)}"
            )
        for (attr, _, slot), column in zip(self.layout, columns):
            if len(column) != count * slot:
                raise CodecError(
                    f"column for {attr.name!r} is {len(column)} bytes, "
                    f"expected {count * slot}"
                )
        split = [
            [column[start:start + slot] for start in range(0, len(column), slot)]
            for (_, _, slot), column in zip(self.layout, columns)
        ]
        return list(map(b"".join, zip(*split)))

    def encode_rows(self, records: Sequence[Record]) -> list[bytes]:
        """Encode a batch into per-row payloads, byte-identical to
        ``TupleCodec.encode`` applied record by record."""
        return self.rows_from_columns(self.encode_columns(records), len(records))

    def encode_upload(self, records: Sequence[Record]) -> list[bytes]:
        """:meth:`encode_rows` for a data provider's upload, which refuses a
        STR or BYTES value that ends in NUL.

        Those slots are padded with NULs that decoding strips, so such a value
        would come back shorter and a join over it would return rows the
        plaintext reference does not.
        """
        rows = self.encode_rows(records)
        for position, (attr, _, _) in enumerate(self.layout):
            nul = _NUL.get(attr.type)
            if nul is not None and any(
                    record.values[position][-1:] == nul for record in records):
                raise CodecError(
                    f"attribute {attr.name!r} has a value that ends in NUL, "
                    "which the codec's NUL padding would strip"
                )
        return rows

    # -- decoding ----------------------------------------------------------
    def columns_from_rows(self, payloads: Sequence[bytes]) -> list[bytes]:
        """Transpose row payloads into per-attribute columns."""
        size = self.record_size
        for payload in payloads:
            if len(payload) != size:
                raise CodecError(
                    f"payload is {len(payload)} bytes, schema needs {size}"
                )
        return [
            b"".join(payload[offset:offset + slot] for payload in payloads)
            for _, offset, slot in self.layout
        ]

    def decode_rows(self, payloads: Sequence[bytes]) -> list[Record]:
        """Decode a batch of row payloads into records.

        One row struct unpacks every fixed-width value of the batch; the
        slots it leaves raw are decoded column by column.  Decoded values
        have the schema's arity and normal form, so the records are built
        with :meth:`Record._decoded`.
        """
        payloads = list(payloads)
        if not payloads:
            return []
        size = self.record_size
        for payload in payloads:
            if len(payload) != size:
                raise CodecError(
                    f"payload is {len(payload)} bytes, schema needs {size}"
                )
        rows = self._row_struct.iter_unpack(b"".join(payloads))
        if self._raw_slots:
            columns = list(zip(*rows))
            for position, attr in self._raw_slots:
                columns[position] = [_decode_value(attr, raw) for raw in columns[position]]
            rows = zip(*columns)
        schema = self.schema
        decoded = Record._decoded
        return [decoded(schema, values) for values in rows]

    def decode_unique(
        self, payloads: Iterable[bytes]
    ) -> dict[bytes, Record]:
        """Decode each *distinct* payload once; map payload -> record.

        Cartesian block scans fetch the same component tuples over and over
        (each of the J tables repeats with its mixed-radix stride); decoding
        per distinct payload instead of per product row removes that
        redundancy without changing any decoded value.
        """
        distinct: list[bytes] = []
        seen: set[bytes] = set()
        for payload in payloads:
            if payload not in seen:
                seen.add(payload)
                distinct.append(payload)
        records = self.decode_rows(distinct)
        return dict(zip(distinct, records))
