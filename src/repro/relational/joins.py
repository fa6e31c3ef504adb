"""Reference plaintext join operators.

These classical operators define *ground truth* for the privacy preserving
algorithms: every secure algorithm's output (after the recipient filters
decoys) must be the same multiset of records that :func:`nested_loop_join`
produces.  ``sort_merge_join`` and ``hash_join`` are the classical equijoin
algorithms whose privacy-preserving adaptations the paper shows to be unsafe
(Section 4.5.1); we keep them as plaintext baselines and for the leakage
demonstrations in :mod:`repro.privacy.attacks`.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Sequence

from repro.errors import ConfigurationError
from repro.relational.predicates import Equality, MultiPredicate, Predicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.relational.tuples import Record


def joined_schema(left: Schema, right: Schema, name: str = "joined") -> Schema:
    """The output schema of joining two input schemas."""
    return left.joined_with(right, name=name)


def nested_loop_join(left: Relation, right: Relation, predicate: Predicate) -> Relation:
    """The classical nested loop join: compare every pair, keep the matches.

    A join in the general (arbitrary-predicate) setting requires every tuple of
    the outer relation to be compared with every tuple of the inner relation
    (Section 4.4), so this is both the reference semantics and the cost floor
    the paper's algorithms are built around.  The predicate is bound once:
    :meth:`Predicate.bind` agrees with ``matches`` on every pair.
    """
    out_schema = joined_schema(left.schema, right.schema)
    test = predicate.bind(left.schema, right.schema)
    return Relation(out_schema, (a.joined_with(b, out_schema)
                                 for a in left for b in right if test(a, b)))


def sort_merge_join(left: Relation, right: Relation, on: str | Equality) -> Relation:
    """Classical sort-merge equijoin (plaintext reference)."""
    eq = on if isinstance(on, Equality) else Equality(on)
    out_schema = joined_schema(left.schema, right.schema)
    out = Relation(out_schema)
    left_pos = left.schema.position(eq.left_attr)
    right_pos = right.schema.position(eq.right_attr)
    ls = sorted(left, key=lambda r: r.values[left_pos])
    rs = sorted(right, key=lambda r: r.values[right_pos])
    i = j = 0
    while i < len(ls) and j < len(rs):
        lv = ls[i].values[left_pos]
        rv = rs[j].values[right_pos]
        if lv < rv:
            i += 1
        elif lv > rv:
            j += 1
        else:
            # Emit the full cross product of the equal-key runs.
            j_end = j
            while j_end < len(rs) and rs[j_end].values[right_pos] == lv:
                j_end += 1
            i_end = i
            while i_end < len(ls) and ls[i_end].values[left_pos] == lv:
                i_end += 1
            for a in ls[i:i_end]:
                for b in rs[j:j_end]:
                    out.append(a.joined_with(b, out_schema))
            i, j = i_end, j_end
    return out


def hash_join(left: Relation, right: Relation, on: str | Equality) -> Relation:
    """Classical hash equijoin (plaintext reference)."""
    eq = on if isinstance(on, Equality) else Equality(on)
    out_schema = joined_schema(left.schema, right.schema)
    out = Relation(out_schema)
    right_pos = right.schema.position(eq.right_attr)
    buckets: dict[object, list[Record]] = {}
    for b in right:
        buckets.setdefault(b.values[right_pos], []).append(b)
    left_pos = left.schema.position(eq.left_attr)
    for a in left:
        for b in buckets.get(a.values[left_pos], ()):
            out.append(a.joined_with(b, out_schema))
    return out


def multiway_schema(schemas: Sequence[Schema], name: str = "joined") -> Schema:
    """Output schema of an m-way join (left-fold of pairwise joined schemas)."""
    if not schemas:
        raise ConfigurationError("multiway join needs at least one schema")
    out = schemas[0]
    for schema in schemas[1:]:
        out = out.joined_with(schema, name=name)
    return out


def multiway_nested_loop_join(
    relations: Sequence[Relation], predicate: MultiPredicate
) -> Relation:
    """Reference m-way join over the full cartesian product D = X1 x ... x XJ,
    in product order, the predicate bound once."""
    if not relations:
        raise ConfigurationError("multiway join needs at least one relation")
    out_schema = multiway_schema([r.schema for r in relations])
    test = predicate.bind([r.schema for r in relations])
    return Relation(out_schema, (
        Record(out_schema, tuple(chain.from_iterable(r.values for r in row)))
        for row in product(*relations) if test(row)))


def max_matches_per_left_tuple(
    left: Relation, right: Relation, predicate: Predicate
) -> int:
    """Compute N: the maximum number of B tuples matching any single A tuple.

    Section 4.3 ("Setting N"): "A safe way to compute exact N would be to run a
    nested loop join, but without outputting any result tuple."  This is that
    preprocessing pass, in plaintext form; the traced version lives in
    :mod:`repro.core.base`.
    """
    test = predicate.bind(left.schema, right.schema)
    return max((sum(1 for b in right if test(a, b)) for a in left), default=0)
