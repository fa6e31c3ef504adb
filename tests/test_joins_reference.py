"""Tests for the reference plaintext joins (the ground truth)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.generate import equijoin_workload, keyed_schema
from repro.relational.joins import (
    hash_join,
    max_matches_per_left_tuple,
    multiway_nested_loop_join,
    nested_loop_join,
    sort_merge_join,
)
from repro.relational.predicates import (
    BandJoin,
    BinaryAsMulti,
    Custom,
    CustomMulti,
    Equality,
    JaccardSimilarity,
    L1Proximity,
    PairwiseAll,
    Theta,
)
from repro.relational.relation import Relation
from repro.relational.schema import Schema, integer, intset

SCHEMA_A = keyed_schema("A")
SCHEMA_B = keyed_schema("B")


def make(schema, rows):
    return Relation.from_values(schema, rows)


class TestNestedLoop:
    def test_simple_equijoin(self):
        a = make(SCHEMA_A, [(1, 10), (2, 20)])
        b = make(SCHEMA_B, [(1, 11), (3, 33)])
        out = nested_loop_join(a, b, Equality("key"))
        assert len(out) == 1
        assert out[0].values == (1, 10, 1, 11)

    def test_theta_join(self):
        a = make(SCHEMA_A, [(1, 0), (5, 0)])
        b = make(SCHEMA_B, [(3, 0)])
        out = nested_loop_join(a, b, Theta("key", "<"))
        assert len(out) == 1
        assert out[0].values[0] == 1

    def test_duplicates_multiply(self):
        a = make(SCHEMA_A, [(1, 0), (1, 1)])
        b = make(SCHEMA_B, [(1, 2), (1, 3)])
        assert len(nested_loop_join(a, b, Equality("key"))) == 4

    def test_empty_result(self):
        a = make(SCHEMA_A, [(1, 0)])
        b = make(SCHEMA_B, [(2, 0)])
        assert len(nested_loop_join(a, b, Equality("key"))) == 0


keys = st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=12)


@settings(max_examples=100)
@given(keys, keys)
def test_equijoin_algorithms_agree(left_keys, right_keys):
    """Nested loop, sort-merge, and hash join compute the same multiset."""
    a = make(SCHEMA_A, [(k, i) for i, k in enumerate(left_keys)])
    b = make(SCHEMA_B, [(k, 100 + i) for i, k in enumerate(right_keys)])
    reference = nested_loop_join(a, b, Equality("key"))
    assert sort_merge_join(a, b, "key").same_multiset(reference)
    assert hash_join(a, b, "key").same_multiset(reference)


class TestMultiway:
    def test_three_way_chain(self):
        a = make(SCHEMA_A, [(1, 0), (2, 0)])
        b = make(SCHEMA_B, [(2, 0), (3, 0)])
        c = make(keyed_schema("C"), [(3, 0), (4, 0)])
        out = multiway_nested_loop_join([a, b, c], PairwiseAll(Theta("key", "<")))
        # Increasing chains: (1,2,3), (1,2,4), (1,3,4), (2,3,4)
        assert len(out) == 4

    def test_two_way_matches_binary(self):
        a = make(SCHEMA_A, [(1, 0), (2, 0)])
        b = make(SCHEMA_B, [(1, 5), (2, 6)])
        multi = multiway_nested_loop_join([a, b], BinaryAsMulti(Equality("key")))
        binary = nested_loop_join(a, b, Equality("key"))
        assert multi.same_multiset(binary)


class TestMaxMatches:
    def test_counts_max_run(self):
        a = make(SCHEMA_A, [(1, 0), (2, 0)])
        b = make(SCHEMA_B, [(1, 0), (1, 1), (1, 2), (2, 0)])
        assert max_matches_per_left_tuple(a, b, Equality("key")) == 3

    def test_zero_when_no_matches(self):
        a = make(SCHEMA_A, [(1, 0)])
        b = make(SCHEMA_B, [(9, 0)])
        assert max_matches_per_left_tuple(a, b, Equality("key")) == 0


class TestWorkloadGenerator:
    @pytest.mark.parametrize("left,right,result", [(10, 10, 5), (20, 30, 18), (8, 8, 0)])
    def test_exact_result_size(self, left, right, result):
        wl = equijoin_workload(left, right, result, rng=random.Random(1))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        assert len(reference) == result == wl.result_size

    def test_max_matches_controls_n(self):
        wl = equijoin_workload(4, 20, 12, rng=random.Random(2), max_matches=3)
        n = max_matches_per_left_tuple(wl.left, wl.right, Equality("key"))
        assert n == wl.max_matches == 3

    def test_impossible_requests_rejected(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            equijoin_workload(2, 2, 5, rng=random.Random(0))


# --- the bound reference joins against the per-pair loops they replace -------

MIXED = Schema.of(integer("k"), integer("v"), intset("s", 4))

#: Binary predicates over MIXED; the last two match every pair and none.
BINARY = [
    Equality("k"),
    Equality("k", "v"),
    *(Theta("k", op, "v") for op in ("<", "<=", ">", ">=", "==", "!=")),
    BandJoin("v", 1),
    JaccardSimilarity("s", 0.3),
    L1Proximity(["k", "v"], 3),
    Custom(lambda a, b: (a["k"] + b["v"]) % 3 == 0),
    Equality("k") & Theta("v", "<"),
    Equality("k") | BandJoin("v", 0),
    BandJoin("k", 10),
    Equality("k") & Theta("k", "!="),
]

MULTI = [
    BinaryAsMulti(Theta("k", "<=")),
    PairwiseAll(BandJoin("v", 1)),
    PairwiseAll(Equality("k") | JaccardSimilarity("s", 0.5)),
    CustomMulti(lambda rs: sum(r["k"] for r in rs) % 2 == 0),
]

mixed_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4),
              st.frozensets(st.integers(0, 3), max_size=4)),
    max_size=6)


def mixed(name, rows):
    return Relation.from_values(Schema.of(*MIXED.attributes, name=name), rows)


def per_pair_join(left, right, predicate):
    """The reference join as one ``matches`` call per pair."""
    return [a.values + b.values for a in left for b in right
            if predicate.matches(a, b)]


def per_row_multiway(relations, predicate):
    """The m-way reference join as one ``satisfies`` call per row."""
    out = []

    def recurse(chosen):
        if len(chosen) == len(relations):
            if predicate.satisfies(chosen):
                out.append(tuple(v for record in chosen for v in record.values))
            return
        for record in relations[len(chosen)]:
            recurse(chosen + [record])

    recurse([])
    return out


@settings(max_examples=60, deadline=None)
@given(mixed_rows, mixed_rows, st.sampled_from(BINARY))
def test_bound_nested_loop_is_the_per_pair_loop(left_rows, right_rows, predicate):
    left, right = mixed("A", left_rows), mixed("B", right_rows)
    out = nested_loop_join(left, right, predicate)
    assert [r.values for r in out] == per_pair_join(left, right, predicate)
    assert max_matches_per_left_tuple(left, right, predicate) == max(
        (sum(1 for b in right if predicate.matches(a, b)) for a in left), default=0)


@settings(max_examples=40, deadline=None)
@given(st.lists(mixed_rows, min_size=2, max_size=3), st.sampled_from(MULTI))
def test_bound_multiway_is_the_per_row_loop(tables, predicate):
    if isinstance(predicate, BinaryAsMulti):
        tables = tables[:2]
    relations = [mixed(f"T{i}", rows) for i, rows in enumerate(tables)]
    out = multiway_nested_loop_join(relations, predicate)
    assert [r.values for r in out] == per_row_multiway(relations, predicate)


@pytest.mark.parametrize("predicate", BINARY, ids=lambda p: p.description)
@pytest.mark.parametrize("sizes", [(0, 0), (0, 3), (3, 0), (1, 1), (1, 5), (5, 1)])
def test_bound_reference_joins_at_the_edges(predicate, sizes):
    rows = [(i % 5, (3 * i) % 5, frozenset({i % 4})) for i in range(5)]
    left, right = mixed("A", rows[:sizes[0]]), mixed("B", rows[::-1][:sizes[1]])
    assert [r.values for r in nested_loop_join(left, right, predicate)] \
        == per_pair_join(left, right, predicate)
    assert max_matches_per_left_tuple(left, right, predicate) == max(
        (sum(1 for b in right if predicate.matches(a, b)) for a in left), default=0)
    pairwise = BinaryAsMulti(predicate)
    assert [r.values for r in multiway_nested_loop_join([left, right], pairwise)] \
        == per_row_multiway([left, right], pairwise)


def test_all_match_and_no_match_are_the_whole_product_and_nothing():
    rows = [(i % 5, i, frozenset()) for i in range(4)]
    left, right = mixed("A", rows), mixed("B", rows)
    assert len(nested_loop_join(left, right, BINARY[-2])) == 16
    assert len(nested_loop_join(left, right, BINARY[-1])) == 0
    assert max_matches_per_left_tuple(left, right, BINARY[-2]) == 4
    assert max_matches_per_left_tuple(left, right, BINARY[-1]) == 0
