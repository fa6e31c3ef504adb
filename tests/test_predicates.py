"""Unit tests for the join predicates."""

from itertools import product

import pytest

from repro.errors import ConfigurationError, SchemaError
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
    jaccard,
)
from repro.relational.schema import Schema, integer, intset, real
from repro.relational.tuples import Record

NUM = Schema.of(integer("k"), real("v"))
SETS = Schema.of(integer("id"), intset("s", 8))


def num(k, v=0.0):
    return Record.of(NUM, k, v)


def sets(id_, elements):
    return Record.of(SETS, id_, elements)


class TestEquality:
    def test_match_and_mismatch(self):
        eq = Equality("k")
        assert eq.matches(num(3), num(3))
        assert not eq.matches(num(3), num(4))

    def test_cross_attribute(self):
        eq = Equality("k", "v")
        assert eq.matches(num(3), num(99, 3.0))

    def test_description(self):
        assert Equality("k").description == "k = k"


class TestTheta:
    @pytest.mark.parametrize(
        "op,left,right,expected",
        [
            ("<", 1, 2, True), ("<", 2, 1, False),
            ("<=", 2, 2, True), (">", 3, 2, True),
            (">=", 2, 3, False), ("==", 5, 5, True), ("!=", 5, 5, False),
        ],
    )
    def test_operators(self, op, left, right, expected):
        assert Theta("k", op).matches(num(left), num(right)) is expected

    def test_bad_operator(self):
        with pytest.raises(ConfigurationError):
            Theta("k", "<>")


class TestBandJoin:
    def test_within_band(self):
        assert BandJoin("v", 1.5).matches(num(0, 1.0), num(0, 2.4))

    def test_outside_band(self):
        assert not BandJoin("v", 1.5).matches(num(0, 1.0), num(0, 3.0))

    def test_negative_width_rejected(self):
        with pytest.raises(ConfigurationError):
            BandJoin("v", -1)


class TestJaccard:
    def test_jaccard_function(self):
        assert jaccard(frozenset({1, 2}), frozenset({2, 3})) == pytest.approx(1 / 3)
        assert jaccard(frozenset(), frozenset()) == 1.0
        assert jaccard(frozenset({1}), frozenset()) == 0.0

    def test_predicate_threshold(self):
        pred = JaccardSimilarity("s", 0.3)
        assert pred.matches(sets(1, {1, 2}), sets(2, {2, 3}))
        assert not pred.matches(sets(1, {1, 2}), sets(2, {3, 4}))

    def test_threshold_is_strict(self):
        pred = JaccardSimilarity("s", 1 / 3)
        assert not pred.matches(sets(1, {1, 2}), sets(2, {2, 3}))

    def test_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            JaccardSimilarity("s", 1.5)


class TestL1Proximity:
    def test_match(self):
        pred = L1Proximity(["k", "v"], threshold=3.0)
        assert pred.matches(num(1, 1.0), num(2, 2.5))
        assert not pred.matches(num(1, 1.0), num(3, 3.0))

    def test_needs_attributes(self):
        with pytest.raises(ConfigurationError):
            L1Proximity([], 1.0)


class TestCombinators:
    def test_conjunction(self):
        pred = Equality("k") & Theta("v", "<")
        assert pred.matches(num(1, 1.0), num(1, 2.0))
        assert not pred.matches(num(1, 2.0), num(1, 1.0))

    def test_disjunction(self):
        pred = Equality("k") | Theta("v", "<")
        assert pred.matches(num(1, 5.0), num(1, 0.0))
        assert pred.matches(num(1, 0.0), num(2, 5.0))
        assert not pred.matches(num(1, 5.0), num(2, 0.0))

    def test_custom(self):
        pred = Custom(lambda a, b: a["k"] + b["k"] == 10)
        assert pred.matches(num(4), num(6))


class TestMultiPredicates:
    def test_binary_as_multi(self):
        pred = BinaryAsMulti(Equality("k"))
        assert pred.satisfies([num(1), num(1)])
        with pytest.raises(ConfigurationError):
            pred.satisfies([num(1)])

    def test_pairwise_all(self):
        chain = PairwiseAll(Theta("k", "<"))
        assert chain.satisfies([num(1), num(2), num(3)])
        assert not chain.satisfies([num(1), num(3), num(2)])

    def test_custom_multi(self):
        pred = CustomMulti(lambda rs: sum(r["k"] for r in rs) == 6)
        assert pred.satisfies([num(1), num(2), num(3)])


class TestBind:
    """``bind`` resolves attribute positions once; the bound test agrees with
    ``matches``/``satisfies`` on every row of the bound schemas."""

    GRID = [num(k, v) for k in (1, 2, 3) for v in (0.0, 1.5, 2.0)]
    BINARY = [
        Equality("k"),
        Equality("k", "v"),
        *(Theta("v", op, "k") for op in ("<", "<=", ">", ">=", "==", "!=")),
        BandJoin("v", 0.5),
        BandJoin("k", 1, "v"),
        L1Proximity(["k", "v"], 2.0),
        Equality("k") & Theta("v", "<"),
        Equality("k") | BandJoin("v", 0.5),
        Custom(lambda a, b: a["k"] + b["k"] == 4),
    ]

    @pytest.mark.parametrize("pred", BINARY, ids=lambda p: p.description)
    def test_bound_binary_test_agrees_with_matches(self, pred):
        test = pred.bind(NUM, NUM)
        for a in self.GRID:
            for b in self.GRID:
                assert test(a, b) == pred.matches(a, b)

    def test_bound_jaccard_agrees_with_matches(self):
        pred = JaccardSimilarity("s", 0.3)
        test = pred.bind(SETS, SETS)
        rows = [sets(0, set()), sets(1, {1, 2}), sets(2, {2, 3}), sets(3, {1, 2, 3})]
        assert [test(a, b) for a in rows for b in rows] == [
            pred.matches(a, b) for a in rows for b in rows]

    @pytest.mark.parametrize("multi", [
        BinaryAsMulti(BandJoin("v", 0.5)),
        PairwiseAll(Theta("k", "<=")),
        CustomMulti(lambda rs: sum(r["k"] for r in rs) == 6),
    ], ids=["binary", "chain", "custom"])
    def test_bound_multi_test_agrees_with_satisfies(self, multi):
        arity = 2 if isinstance(multi, BinaryAsMulti) else 3
        test = multi.bind([NUM] * arity)
        for row in product(self.GRID, repeat=arity):
            assert test(row) == multi.satisfies(row)

    def test_missing_attribute_is_refused_at_bind(self):
        for pred in (Equality("nokey"), Theta("k", "<", "nokey"), BandJoin("nokey", 1),
                     L1Proximity(["k", "nokey"], 1), JaccardSimilarity("nokey", 0.5),
                     Equality("k") & Equality("nokey")):
            with pytest.raises(SchemaError):
                pred.bind(NUM, NUM)
        with pytest.raises(SchemaError):
            PairwiseAll(Equality("nokey")).bind([NUM, NUM, NUM])

    def test_binary_as_multi_binds_exactly_two_tables(self):
        pred = BinaryAsMulti(Equality("k"))
        for arity in (1, 3):
            with pytest.raises(ConfigurationError):
                pred.bind([NUM] * arity)

    def test_default_bind_is_the_unbound_test(self):
        custom = Custom(lambda a, b: True)
        multi = CustomMulti(lambda rs: True)
        assert custom.bind(NUM, NUM) == custom.matches
        assert multi.bind([NUM]) == multi.satisfies
