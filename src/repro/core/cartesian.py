"""Logical indexing of the cartesian product D = X1 x ... x XJ (Section 5.2.1).

Chapter 5's algorithms conceptually scan every iTuple of D, but "in real
implementation, a logical index can be easily converted into the individual
index of each of the J tuples and D need not be materialized".
:class:`CartesianSpace` is that conversion: a mixed-radix codec between a
logical index in {0, ..., L-1} and a J-tuple of per-table indices.

:class:`CartesianReader` fetches the component tuples of iTuples through
the coprocessor, a block at a time (:func:`scan_blocks`; J gets declared
per iTuple).  The paper's cost formulas charge one
transfer per iTuple; our exact models charge J per iTuple — a constant-factor
difference recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from repro.errors import ConfigurationError
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.events import GET, PUT
from repro.relational.batch import BatchCodec
from repro.relational.predicates import MultiPredicate
from repro.relational.relation import Relation
from repro.relational.tuples import Record, TupleCodec


class CartesianSpace:
    """Mixed-radix codec between logical indices and per-table indices."""

    def __init__(self, sizes: Sequence[int]) -> None:
        if not sizes:
            raise ConfigurationError("cartesian space needs at least one table")
        if any(s < 1 for s in sizes):
            raise ConfigurationError("all table sizes must be at least 1")
        self.sizes = tuple(sizes)
        self.total = math.prod(sizes)
        # Strides for row-major order: the first table varies slowest.
        strides = []
        stride = self.total
        for size in sizes:
            stride //= size
            strides.append(stride)
        self.strides = tuple(strides)

    def __len__(self) -> int:
        return self.total

    def decompose(self, logical: int) -> tuple[int, ...]:
        """Logical index -> per-table indices."""
        if not 0 <= logical < self.total:
            raise ConfigurationError(f"logical index {logical} out of range [0, {self.total})")
        out = []
        for stride, size in zip(self.strides, self.sizes):
            out.append((logical // stride) % size)
        return tuple(out)

    def compose(self, indices: Sequence[int]) -> int:
        """Per-table indices -> logical index."""
        if len(indices) != len(self.sizes):
            raise ConfigurationError("index arity does not match table count")
        logical = 0
        for index, stride, size in zip(indices, self.strides, self.sizes):
            if not 0 <= index < size:
                raise ConfigurationError(f"component index {index} out of range [0, {size})")
            logical += index * stride
        return logical


#: Most rows of block plans one :class:`CartesianReader` keeps (about 40
#: bytes a row at J = 2): a 128 x 128 pass, read-only and writing.  Range
#: blocks past it are planned on every call.
PLAN_ROWS = 1 << 15


@dataclass(slots=True, frozen=True)
class BlockPlan:
    """What a block's logical indices decide alone, whatever the rows hold:
    per table the slot column and its distinct slots (in first-use order),
    and the declared run — ``G(X0) .. G(XJ-1) [P(output)]`` per row."""

    columns: tuple[array, ...]
    distinct: tuple[array, ...]
    table: tuple[tuple[str, str], ...]
    codes: bytes
    indices: array


class CartesianReader:
    """Reads iTuples of the (virtual) product table through the coprocessor."""

    def __init__(
        self,
        coprocessor: SecureCoprocessor,
        regions: Sequence[str],
        codecs: Sequence[TupleCodec],
        space: CartesianSpace,
    ) -> None:
        if not len(regions) == len(codecs) == len(space.sizes):
            raise ConfigurationError("regions, codecs and space arity must agree")
        self.coprocessor = coprocessor
        self.regions = tuple(regions)
        self.codecs = tuple(codecs)
        self.schemas = tuple(codec.schema for codec in codecs)
        self._batch_codecs = tuple(BatchCodec(codec.schema) for codec in codecs)
        #: Per table, plaintext -> decoded record: a component tuple is decoded
        #: once per reader however many product rows repeat it.  The inputs
        #: are never rewritten during a join, so table i holds at most |Xi|.
        self._records: tuple[dict[bytes, Record], ...] = tuple({} for _ in regions)
        self.space = space
        #: ``(range, output)`` -> plan, for at most :data:`PLAN_ROWS` rows:
        #: every rescan of a pass reuses its blocks' plans.
        self._plans: dict[tuple[range, str | None], BlockPlan] = {}
        self._planned_rows = 0

    @property
    def tables(self) -> tuple[tuple[str, ...], tuple[TupleCodec, ...], CartesianSpace]:
        """``(regions, codecs, space)``: what a scan body builds its own
        reader from, on whichever coprocessor (or process) runs it."""
        return self.regions, self.codecs, self.space

    def plan(self, logicals: Sequence[int], output: str | None) -> BlockPlan:
        """A block's plan: built once per ``range`` block (up to the cap),
        per call for any other sequence (an LFSR segment)."""
        if type(logicals) is not range:
            return self._build_plan(logicals, output)
        key = (logicals, output)
        plan = self._plans.get(key)
        if plan is None:
            plan = self._build_plan(logicals, output)
            if self._planned_rows + len(logicals) <= PLAN_ROWS:
                self._plans[key] = plan
                self._planned_rows += len(logicals)
        return plan

    def _build_plan(self, logicals: Sequence[int], output: str | None) -> BlockPlan:
        if min(logicals) < 0 or max(logicals) >= self.space.total:
            raise ConfigurationError(
                f"logical indices must lie in [0, {self.space.total})")
        columns = tuple(
            array("q", [(logical // stride) % size for logical in logicals])
            for stride, size in zip(self.space.strides, self.space.sizes)
        )
        table = [(GET, region) for region in self.regions]
        declared = list(columns)
        if output is not None:
            table.append((PUT, output))
            declared.append(array("q", logicals))
        # The run interleaves the declared columns: row k's J (+1) events.
        width = len(table)
        indices = array("q", bytes(8 * width * len(logicals)))
        for position, column in enumerate(declared):
            indices[position::width] = column
        return BlockPlan(
            columns=columns,
            distinct=tuple(array("q", dict.fromkeys(column)) for column in columns),
            table=tuple(table),
            codes=bytes(range(width)) * len(logicals),
            indices=indices,
        )

    def gather(self, logicals: Sequence[int], output: str | None) -> "ScanBlock":
        """One vectorized block of :func:`scan_blocks`.

        Row k reads slot ``(logicals[k] // stride) % size`` of each table;
        each table's *distinct* slots are gathered once.  A read-only block is
        settled here, a writing one by its ``write``, after the scatter.
        """
        plan = self.plan(logicals, output)
        coprocessor = self.coprocessor
        gathered = [coprocessor.gather_slots(region, distinct)
                    for region, distinct in zip(self.regions, plan.distinct)]

        def rows():
            components = []
            for memo, codec, column, distinct, plains in zip(
                    self._records, self._batch_codecs, plan.columns, plan.distinct,
                    gathered):
                memo.update(codec.decode_unique(
                    plain for plain in plains if plain not in memo))
                by_slot = dict(zip(distinct, map(memo.__getitem__, plains)))
                components.append(map(by_slot.__getitem__, column))
            return zip(*components)

        def settle() -> None:
            coprocessor.charge_boundary(plan.table, plan.codes, plan.indices)

        if output is None:
            settle()
            return ScanBlock(logicals, rows)

        def write(otuples: Sequence[bytes]) -> None:
            coprocessor.scatter_slots(output, logicals, otuples)
            settle()

        return ScanBlock(logicals, rows, write)


#: Most logical rows one block of a cartesian pass gathers and settles.
SCAN_BLOCK = 256


@dataclass(slots=True)
class ScanBlock:
    """One block of a cartesian pass: its ``logicals``, and ``(logical,
    records)`` per row on iteration — decoding happens there, so a block the
    caller skips costs its gather and its ledger only.  A pass with an output
    region hands the block's oTuples, in row order, to ``write``."""

    logicals: Sequence[int]
    rows: Callable[[], Iterable[tuple[Record, ...]]]
    write: Callable[[Sequence[bytes]], None] | None = None

    def __iter__(self) -> Iterator[tuple[int, tuple[Record, ...]]]:
        return zip(self.logicals, self.rows())


def scan_blocks(
    reader: CartesianReader,
    logicals: Sequence[int],
    output: str | None = None,
) -> Iterator[ScanBlock]:
    """The cartesian pass: visit the iTuples at ``logicals``, in that order.

    The one scan body of Algorithms 4/5/6 (sequential and parallel) and the
    aggregation scans.  ``logicals`` is any sequence — a ``range``, a slice
    of the LFSR order.  With ``output``, row k also writes
    ``output[logicals[k]]`` from the oTuples the caller hands to
    :attr:`ScanBlock.write` before asking for the next block.  The declared
    events are ``G(X0) .. G(XJ-1) [P(output)]`` per row: up to
    :data:`SCAN_BLOCK` rows are one gather per table, one scatter when the
    pass writes, and one ``charge_boundary`` whose interleaved index column
    is that per-row sequence (which ``ReferenceCoprocessor`` walks op by
    op).  Block boundaries are a function of ``len(logicals)`` alone,
    never of what the rows hold.
    """
    for start in range(0, len(logicals), SCAN_BLOCK):
        yield reader.gather(logicals[start:start + SCAN_BLOCK], output)


def scan_matches(
    reader: CartesianReader,
    logicals: Sequence[int],
    predicate: MultiPredicate,
) -> Iterator[tuple[int, tuple[Record, ...]]]:
    """The ``(logical, records)`` rows of a read-only pass satisfying ``predicate``."""
    test = predicate.bind(reader.schemas)
    for block in scan_blocks(reader, logicals):
        for row in block:
            if test(row[1]):
                yield row


def upload_tables(context, relations: Sequence[Relation]) -> CartesianReader:
    """Upload every participating table and build a reader over their product."""
    regions = []
    codecs = []
    for i, relation in enumerate(relations):
        region = f"X{i}"
        codecs.append(context.upload_relation(region, relation))
        regions.append(region)
    space = CartesianSpace([len(r) for r in relations])
    return CartesianReader(context.coprocessor, regions, codecs, space)


def upload_join(context, relations: Sequence[Relation],
                predicate: MultiPredicate) -> CartesianReader:
    """Upload a cartesian join's tables, refusing first what cannot run.

    The refuse-before-upload point of every cartesian driver: an empty
    relation list, or a predicate that cannot apply to the relations'
    schemas (:meth:`MultiPredicate.bind`), raises before anything reaches
    the host.
    """
    if not relations:
        raise ConfigurationError("at least one relation is required")
    predicate.bind([relation.schema for relation in relations])
    return upload_tables(context, relations)


def joined_values(records: Sequence[Record]) -> tuple:
    """Concatenated value tuple of an iTuple's component records."""
    return tuple(v for record in records for v in record.values)


def encode_joined(out_codec: TupleCodec, records: Sequence[Record]) -> bytes:
    """An iTuple's joined record, encoded as an oTuple payload."""
    return out_codec.encode(Record(out_codec.schema, joined_values(records)))
