"""Correctness tests for Algorithms 1, 1-variant, 2, and 3 (Chapter 4)."""

import random

import pytest

from tests.conftest import fresh_context, keyed

from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm2 import algorithm2
from repro.core.algorithm3 import algorithm3
from repro.core.base import compute_n_exactly
from repro.core.parallel import parallel_algorithm2, parallel_algorithm3
from repro.errors import ConfigurationError, SchemaError
from repro.hardware.cluster import Cluster
from repro.relational.generate import equijoin_workload
from repro.relational.joins import max_matches_per_left_tuple, nested_loop_join
from repro.relational.predicates import Custom, Equality, Theta


def workload(seed=5, left=8, right=10, results=6, max_matches=3):
    wl = equijoin_workload(left, right, results, rng=random.Random(seed),
                           max_matches=max_matches)
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))
    return wl, reference


class TestAlgorithm1:
    def test_equijoin_correct(self):
        wl, reference = workload()
        out = algorithm1(fresh_context(), wl.left, wl.right, Equality("key"), wl.max_matches)
        assert out.result.same_multiset(reference)

    def test_theta_join_correct(self):
        a = keyed("A", [(1, 0), (5, 0), (9, 0)])
        b = keyed("B", [(2, 0), (6, 0), (6, 1)])
        pred = Theta("key", "<")
        n = max_matches_per_left_tuple(a, b, pred)
        out = algorithm1(fresh_context(), a, b, pred, n)
        assert out.result.same_multiset(nested_loop_join(a, b, pred))

    def test_custom_predicate_correct(self):
        a = keyed("A", [(3, 0), (4, 0)])
        b = keyed("B", [(7, 0), (6, 0), (5, 0)])
        pred = Custom(lambda x, y: x["key"] + y["key"] == 10)
        out = algorithm1(fresh_context(), a, b, pred, 2)
        assert out.result.same_multiset(nested_loop_join(a, b, pred))

    def test_output_always_n_times_a(self):
        wl, _ = workload()
        out = algorithm1(fresh_context(), wl.left, wl.right, Equality("key"), wl.max_matches)
        assert out.meta["output_slots"] == wl.max_matches * len(wl.left)

    def test_overestimated_n_still_correct(self):
        wl, reference = workload()
        out = algorithm1(fresh_context(), wl.left, wl.right, Equality("key"),
                         wl.max_matches + 3)
        assert out.result.same_multiset(reference)

    def test_no_matches(self):
        a = keyed("A", [(1, 0)])
        b = keyed("B", [(2, 0), (3, 0)])
        out = algorithm1(fresh_context(), a, b, Equality("key"), 1)
        assert len(out.result) == 0

    def test_invalid_n(self):
        a, b = keyed("A", [(1, 0)]), keyed("B", [(1, 0)])
        with pytest.raises(ConfigurationError):
            algorithm1(fresh_context(), a, b, Equality("key"), 0)
        with pytest.raises(ConfigurationError):
            algorithm1(fresh_context(), a, b, Equality("key"), 2)


class TestAlgorithm1Variant:
    def test_equijoin_correct(self):
        wl, reference = workload(seed=6)
        out = algorithm1_variant(fresh_context(), wl.left, wl.right, Equality("key"),
                                 wl.max_matches)
        assert out.result.same_multiset(reference)

    def test_theta_join_correct(self):
        a = keyed("A", [(5, 0), (1, 0)])
        b = keyed("B", [(3, 0), (4, 0), (0, 0)])
        pred = Theta("key", ">")
        n = max_matches_per_left_tuple(a, b, pred)
        out = algorithm1_variant(fresh_context(), a, b, pred, n)
        assert out.result.same_multiset(nested_loop_join(a, b, pred))


class TestAlgorithm2:
    @pytest.mark.parametrize("memory", [1, 2, 3, 10])
    def test_correct_across_memory_sizes(self, memory):
        wl, reference = workload(seed=7)
        out = algorithm2(fresh_context(), wl.left, wl.right, Equality("key"),
                         wl.max_matches, memory=memory)
        assert out.result.same_multiset(reference)
        assert out.meta["gamma"] >= 1

    def test_gamma_passes(self):
        wl, _ = workload(seed=8, left=6, right=9, results=6, max_matches=3)
        out = algorithm2(fresh_context(), wl.left, wl.right, Equality("key"),
                         n_max=3, memory=1)
        assert out.meta["gamma"] == 3
        assert out.meta["blk"] == 1

    def test_output_slots_are_gamma_blk_per_a(self):
        wl, _ = workload(seed=9)
        out = algorithm2(fresh_context(), wl.left, wl.right, Equality("key"),
                         wl.max_matches, memory=2)
        gamma, blk = out.meta["gamma"], out.meta["blk"]
        assert out.meta["output_slots"] == gamma * blk * len(wl.left)

    def test_match_at_first_b_position_not_skipped(self):
        """Regression for the paper's last := 0 initialization erratum."""
        a = keyed("A", [(1, 0)])
        b = keyed("B", [(1, 99), (2, 0)])
        out = algorithm2(fresh_context(), a, b, Equality("key"), 1, memory=1)
        assert len(out.result) == 1
        assert out.result[0].values[3] == 99

    def test_theta_join_correct(self):
        a = keyed("A", [(4, 0), (2, 0)])
        b = keyed("B", [(1, 0), (3, 0), (5, 0)])
        pred = Theta("key", ">")
        out = algorithm2(fresh_context(), a, b, pred, 2, memory=1)
        assert out.result.same_multiset(nested_loop_join(a, b, pred))


class TestAlgorithm3:
    def test_equijoin_correct(self):
        wl, reference = workload(seed=10)
        out = algorithm3(fresh_context(), wl.left, wl.right, "key", wl.max_matches)
        assert out.result.same_multiset(reference)

    def test_presorted_skips_sort_and_is_correct(self):
        wl, reference = workload(seed=12)
        out = algorithm3(fresh_context(), wl.left, wl.right, "key", wl.max_matches,
                         presorted=True)
        assert out.result.same_multiset(reference)

    def test_duplicates_in_both_relations(self):
        a = keyed("A", [(1, 0), (1, 1), (2, 2)])
        b = keyed("B", [(1, 7), (1, 8), (2, 9), (3, 0)])
        reference = nested_loop_join(a, b, Equality("key"))
        out = algorithm3(fresh_context(), a, b, "key", 2)
        assert out.result.same_multiset(reference)

    def test_circular_scratch_never_overwrites_results(self):
        """Matches land in <= N consecutive sorted positions (the key insight)."""
        a = keyed("A", [(5, 0)])
        b = keyed("B", [(5, i) for i in range(4)] + [(7, 9), (3, 9), (1, 9)])
        out = algorithm3(fresh_context(), a, b, "key", 4)
        assert len(out.result) == 4


class TestComputeNExactly:
    def test_matches_plaintext_computation(self, small_workload=None):
        wl, _ = workload(seed=13)
        context = fresh_context()
        left_codec = context.upload_relation("A", wl.left)
        right_codec = context.upload_relation("B", wl.right)
        n = compute_n_exactly(
            context, "A", "B", len(wl.left), len(wl.right), left_codec, right_codec,
            Equality("key"),
        )
        assert n == max_matches_per_left_tuple(wl.left, wl.right, Equality("key"))

    def test_preprocessing_pass_makes_no_writes(self):
        wl, _ = workload(seed=14)
        context = fresh_context()
        left_codec = context.upload_relation("A", wl.left)
        right_codec = context.upload_relation("B", wl.right)
        compute_n_exactly(
            context, "A", "B", len(wl.left), len(wl.right), left_codec, right_codec,
            Equality("key"),
        )
        assert context.coprocessor.trace.count(op="put") == 0


class TestNonIntegerKeys:
    def test_algorithm3_sorts_string_keys(self):
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema, integer, text

        schema_a = Schema.of(text("name", 8), integer("v"), name="A")
        schema_b = Schema.of(text("name", 8), integer("v"), name="B")
        a = Relation.from_values(schema_a, [("carol", 1), ("alice", 2)])
        b = Relation.from_values(
            schema_b, [("dave", 9), ("alice", 7), ("carol", 8), ("alice", 6)]
        )
        reference = nested_loop_join(a, b, Equality("name"))
        out = algorithm3(fresh_context(), a, b, "name", 2)
        assert out.result.same_multiset(reference)

    def test_algorithm1_with_similarity_predicate(self):
        import random as _random

        from repro.relational.generate import similarity_workload
        from repro.relational.predicates import JaccardSimilarity

        left, right, planted = similarity_workload(
            5, 5, 3, rng=_random.Random(3), threshold=0.5
        )
        predicate = JaccardSimilarity("markers", 0.5)
        reference = nested_loop_join(left, right, predicate)
        out = algorithm1(fresh_context(), left, right, predicate, 1)
        assert out.result.same_multiset(reference)
        assert len(out.result) == planted



def _parallel(driver):
    """A parallel twin on a two-device cluster over the context's host."""
    def run(context, *args, **kwargs):
        cluster = Cluster(context.host, context.provider, count=2)
        return driver(context, cluster, *args, **kwargs)
    return run


CANNOT_APPLY = [
    pytest.param(algorithm1, Theta("key", "<", "nope"), {}, id="algorithm1"),
    pytest.param(algorithm1_variant, Equality("nope"), {}, id="algorithm1v"),
    pytest.param(algorithm2, Equality("nope"), {"memory": 2}, id="algorithm2"),
    pytest.param(algorithm3, "nope", {}, id="algorithm3"),
    pytest.param(_parallel(parallel_algorithm2), Theta("nope", "<"), {"memory": 2},
                 id="parallel_algorithm2"),
    pytest.param(_parallel(parallel_algorithm3), Equality("key", "nope"), {},
                 id="parallel_algorithm3"),
]


@pytest.mark.parametrize("algorithm, predicate, kwargs", CANNOT_APPLY)
def test_a_predicate_that_cannot_apply_is_refused_before_upload(
        algorithm, predicate, kwargs):
    """Algorithm 3's predicate is its ``on`` attribute or equality."""
    a = keyed("A", [(1, 0), (2, 0)])
    b = keyed("B", [(1, 0), (3, 0)])
    context = fresh_context()
    with pytest.raises(SchemaError):
        algorithm(context, a, b, predicate, 2, **kwargs)
    assert context.host.region_names() == []
    assert len(context.coprocessor.trace) == 0
