"""Join predicates: the ``match()`` functions of the paper.

The paper's central selling point is support for joins with *arbitrary*
predicates (Section 1.1), not just equality.  A :class:`Predicate` evaluates a
pair of records to a boolean.  Built-ins cover the predicates the paper names:
equality (equijoins, Section 4.5), comparison/theta predicates ("joins
involving arbitrary predicates, e.g. <"), the Jaccard similarity predicate on
set-valued attributes (Chapter 1), L1-norm proximity (the SFE comparison of
Section 4.6.5 costs "two tuples match if their L1 Norm is smaller than some
threshold"), and arbitrary user functions.

Multi-way predicates (:class:`MultiPredicate`) evaluate one record per
participating table, as required by the m-way join function of Definition 3.
"""

from __future__ import annotations

import operator
from itertools import pairwise
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.relational.schema import Schema
from repro.relational.tuples import Record

#: A predicate bound to its input schemas: the row test a pass calls.
RowTest = Callable[..., bool]


class Predicate:
    """A binary join predicate over (left record, right record)."""

    #: Human-readable description used in reports and contract text.
    description: str = "predicate"

    def matches(self, left: Record, right: Record) -> bool:
        raise NotImplementedError

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        """The test over records of these schemas, attributes resolved once.

        Agrees with :meth:`matches` on every such pair, and raises
        :class:`~repro.errors.SchemaError` here for an attribute a schema
        lacks.  The default is :meth:`matches` itself.
        """
        return self.matches

    def __call__(self, left: Record, right: Record) -> bool:
        return self.matches(left, right)

    def __and__(self, other: "Predicate") -> "Predicate":
        return Conjunction(self, other)

    def __or__(self, other: "Predicate") -> "Predicate":
        return Disjunction(self, other)


class Equality(Predicate):
    """Equijoin predicate: ``left.attr == right.attr``."""

    def __init__(self, left_attr: str, right_attr: str | None = None) -> None:
        self.left_attr = left_attr
        self.right_attr = right_attr if right_attr is not None else left_attr
        self.description = f"{self.left_attr} = {self.right_attr}"

    def matches(self, left: Record, right: Record) -> bool:
        return left[self.left_attr] == right[self.right_attr]

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        i, j = left_schema.position(self.left_attr), right_schema.position(self.right_attr)
        return lambda left, right: left.values[i] == right.values[j]


_THETA_OPS: dict[str, Callable] = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}


class Theta(Predicate):
    """Comparison predicate ``left.attr OP right.attr`` for OP in < <= > >= == !=."""

    def __init__(self, left_attr: str, op: str, right_attr: str | None = None) -> None:
        if op not in _THETA_OPS:
            raise ConfigurationError(f"unsupported theta operator {op!r}")
        self.left_attr = left_attr
        self.right_attr = right_attr if right_attr is not None else left_attr
        self.op = op
        self._fn = _THETA_OPS[op]
        self.description = f"{self.left_attr} {op} {self.right_attr}"

    def matches(self, left: Record, right: Record) -> bool:
        return self._fn(left[self.left_attr], right[self.right_attr])

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        i, j = left_schema.position(self.left_attr), right_schema.position(self.right_attr)
        fn = self._fn
        return lambda left, right: fn(left.values[i], right.values[j])


class BandJoin(Predicate):
    """Proximity predicate ``|left.attr - right.attr| <= width`` on numeric attributes."""

    def __init__(self, left_attr: str, width: float, right_attr: str | None = None) -> None:
        if width < 0:
            raise ConfigurationError("band width must be non-negative")
        self.left_attr = left_attr
        self.right_attr = right_attr if right_attr is not None else left_attr
        self.width = width
        self.description = f"|{self.left_attr} - {self.right_attr}| <= {width}"

    def matches(self, left: Record, right: Record) -> bool:
        return abs(left[self.left_attr] - right[self.right_attr]) <= self.width

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        i, j = left_schema.position(self.left_attr), right_schema.position(self.right_attr)
        width = self.width
        return lambda left, right: abs(left.values[i] - right.values[j]) <= width


def jaccard(left: frozenset, right: frozenset) -> float:
    """Jaccard coefficient |x ∩ y| / |x ∪ y| with J(∅, ∅) defined as 1.0."""
    if not left and not right:
        return 1.0
    union = len(left | right)
    return len(left & right) / union


class JaccardSimilarity(Predicate):
    """Similarity predicate: Jaccard coefficient of two set attributes > f.

    This is the paper's Chapter 1 example of a similarity predicate for
    set-valued attributes: "find all set pairs where the ratio of the
    intersection size to union size is greater than a fraction f".
    """

    def __init__(self, left_attr: str, threshold: float, right_attr: str | None = None) -> None:
        if not 0.0 <= threshold <= 1.0:
            raise ConfigurationError("Jaccard threshold must be in [0, 1]")
        self.left_attr = left_attr
        self.right_attr = right_attr if right_attr is not None else left_attr
        self.threshold = threshold
        self.description = f"jaccard({self.left_attr}, {self.right_attr}) > {threshold}"

    def matches(self, left: Record, right: Record) -> bool:
        return jaccard(left[self.left_attr], right[self.right_attr]) > self.threshold

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        i, j = left_schema.position(self.left_attr), right_schema.position(self.right_attr)
        threshold = self.threshold
        return lambda left, right: jaccard(left.values[i], right.values[j]) > threshold


class L1Proximity(Predicate):
    """Match when the L1 norm of the attribute-wise difference is below a threshold.

    Used by the SFE cost comparison in Section 4.6.5 as the canonical "simple"
    fuzzy match circuit.
    """

    def __init__(self, attrs: Sequence[str], threshold: float) -> None:
        if not attrs:
            raise ConfigurationError("L1 proximity needs at least one attribute")
        self.attrs = tuple(attrs)
        self.threshold = threshold
        self.description = f"L1({', '.join(attrs)}) < {threshold}"

    def matches(self, left: Record, right: Record) -> bool:
        distance = sum(abs(left[a] - right[a]) for a in self.attrs)
        return distance < self.threshold

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        positions = [(left_schema.position(a), right_schema.position(a)) for a in self.attrs]
        threshold = self.threshold
        return lambda left, right: sum(
            abs(left.values[i] - right.values[j]) for i, j in positions) < threshold


class Custom(Predicate):
    """Arbitrary user match function — the general join of Section 4.4."""

    def __init__(self, fn: Callable[[Record, Record], bool], description: str = "custom") -> None:
        self._fn = fn
        self.description = description

    def matches(self, left: Record, right: Record) -> bool:
        return bool(self._fn(left, right))


class Conjunction(Predicate):
    """Logical AND of two predicates."""

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right
        self.description = f"({left.description}) AND ({right.description})"

    def matches(self, left: Record, right: Record) -> bool:
        return self.left.matches(left, right) and self.right.matches(left, right)

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        first = self.left.bind(left_schema, right_schema)
        second = self.right.bind(left_schema, right_schema)
        return lambda left, right: first(left, right) and second(left, right)


class Disjunction(Predicate):
    """Logical OR of two predicates."""

    def __init__(self, left: Predicate, right: Predicate) -> None:
        self.left = left
        self.right = right
        self.description = f"({left.description}) OR ({right.description})"

    def matches(self, left: Record, right: Record) -> bool:
        return self.left.matches(left, right) or self.right.matches(left, right)

    def bind(self, left_schema: Schema, right_schema: Schema) -> RowTest:
        first = self.left.bind(left_schema, right_schema)
        second = self.right.bind(left_schema, right_schema)
        return lambda left, right: first(left, right) or second(left, right)


class MultiPredicate:
    """An m-way join predicate over one record per participating table.

    This is the ``satisfy(iTuple)`` function of Section 5.3: it receives the
    component records of one element of D = X1 x ... x XJ.
    """

    description: str = "multi-predicate"

    def satisfies(self, records: Sequence[Record]) -> bool:
        raise NotImplementedError

    def bind(self, schemas: Sequence[Schema]) -> RowTest:
        """The test over one record per schema, attributes resolved once.

        Agrees with :meth:`satisfies` on every such row; a predicate that
        cannot apply to these tables raises here (:class:`ConfigurationError`
        for the wrong table count, :class:`~repro.errors.SchemaError` for a
        missing attribute), before a join uploads anything.  The default is
        :meth:`satisfies` itself.
        """
        return self.satisfies

    def __call__(self, records: Sequence[Record]) -> bool:
        return self.satisfies(records)


class PairwiseAll(MultiPredicate):
    """All adjacent pairs must satisfy a binary predicate (chain join)."""

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate
        self.description = f"chain[{predicate.description}]"

    def satisfies(self, records: Sequence[Record]) -> bool:
        return all(
            self.predicate.matches(records[i], records[i + 1])
            for i in range(len(records) - 1)
        )

    def bind(self, schemas: Sequence[Schema]) -> RowTest:
        tests = [self.predicate.bind(a, b) for a, b in pairwise(schemas)]
        return lambda records: all(
            test(a, b) for test, (a, b) in zip(tests, pairwise(records)))


class BinaryAsMulti(MultiPredicate):
    """Adapt a binary predicate to the two-table multi-way interface."""

    def __init__(self, predicate: Predicate) -> None:
        self.predicate = predicate
        self.description = predicate.description

    def satisfies(self, records: Sequence[Record]) -> bool:
        if len(records) != 2:
            raise ConfigurationError("BinaryAsMulti expects exactly two records")
        return self.predicate.matches(records[0], records[1])

    def bind(self, schemas: Sequence[Schema]) -> RowTest:
        if len(schemas) != 2:
            raise ConfigurationError("BinaryAsMulti expects exactly two records")
        test = self.predicate.bind(*schemas)
        return lambda records: test(*records)


class CustomMulti(MultiPredicate):
    """Arbitrary m-way satisfy() function."""

    def __init__(self, fn: Callable[[Sequence[Record]], bool], description: str = "custom") -> None:
        self._fn = fn
        self.description = description

    def satisfies(self, records: Sequence[Record]) -> bool:
        return bool(self._fn(records))
