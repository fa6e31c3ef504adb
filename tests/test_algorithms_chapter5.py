"""Correctness tests for Algorithms 4, 5, and 6 (Chapter 5)."""

import random

import pytest

from tests.conftest import fresh_context, keyed

from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.errors import BlemishError, ConfigurationError, SchemaError
from repro.relational.generate import equijoin_workload
from repro.relational.joins import multiway_nested_loop_join, nested_loop_join
from repro.relational.predicates import (
    BinaryAsMulti,
    CustomMulti,
    Equality,
    PairwiseAll,
    Theta,
)

PRED = BinaryAsMulti(Equality("key"))


def workload(seed=21, left=8, right=9, results=6):
    wl = equijoin_workload(left, right, results, rng=random.Random(seed))
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))
    return [wl.left, wl.right], reference


class TestAlgorithm4:
    def test_equijoin_correct(self):
        tables, reference = workload()
        out = algorithm4(fresh_context(), tables, PRED)
        assert out.result.same_multiset(reference)
        assert out.meta["S"] == len(reference)
        assert out.meta["L"] == len(tables[0]) * len(tables[1])

    def test_no_results(self):
        a, b = keyed("A", [(1, 0), (2, 0)]), keyed("B", [(3, 0)])
        out = algorithm4(fresh_context(), [a, b], PRED)
        assert len(out.result) == 0

    def test_everything_matches(self):
        a, b = keyed("A", [(1, 0), (1, 1)]), keyed("B", [(1, 2), (1, 3)])
        out = algorithm4(fresh_context(), [a, b], PRED)
        assert len(out.result) == 4

    def test_three_way_join(self):
        a = keyed("A", [(1, 0), (2, 0)])
        b = keyed("B", [(2, 0), (3, 0)])
        c = keyed("C", [(3, 0), (4, 0)])
        pred = PairwiseAll(Theta("key", "<"))
        reference = multiway_nested_loop_join([a, b, c], pred)
        out = algorithm4(fresh_context(), [a, b, c], pred)
        assert out.result.same_multiset(reference)

    def test_custom_delta_still_correct(self):
        tables, reference = workload(seed=22)
        out = algorithm4(fresh_context(), tables, PRED, delta=3)
        assert out.result.same_multiset(reference)

    @pytest.mark.parametrize("requested, effective", [(0, 1), (10**6, 33)])
    def test_meta_records_the_delta_the_filter_ran_with(self, requested, effective):
        """The filter clamps delta to [1, L - S]; meta reports the clamp."""
        tables, reference = workload(seed=22, left=6, right=6, results=3)
        out = algorithm4(fresh_context(), tables, PRED, delta=requested)
        assert (out.meta["L"], out.meta["S"]) == (36, 3)
        assert out.meta["delta"] == effective
        assert out.result.same_multiset(reference)

    def test_minimal_memory_footprint(self):
        tables, _ = workload(seed=23)
        context = fresh_context(memory_limit=2)
        out = algorithm4(context, tables, PRED)
        assert context.coprocessor.peak_in_use <= 2
        assert len(out.result) == out.meta["S"]

    def test_empty_input_rejected(self):
        with pytest.raises(ConfigurationError):
            algorithm4(fresh_context(), [], PRED)


class TestAlgorithm5:
    @pytest.mark.parametrize("memory", [1, 2, 3, 7, 100])
    def test_correct_across_memory_sizes(self, memory):
        tables, reference = workload(seed=24)
        out = algorithm5(fresh_context(), tables, PRED, memory=memory)
        assert out.result.same_multiset(reference)

    def test_scan_count_without_known_s(self):
        tables, reference = workload(seed=25, results=6)
        out = algorithm5(fresh_context(), tables, PRED, memory=3)
        # floor(6/3) + 1 = 3 scans when S is an exact multiple of M.
        assert out.meta["scans"] == 3

    def test_scan_count_with_known_s(self):
        tables, reference = workload(seed=25, results=6)
        out = algorithm5(fresh_context(), tables, PRED, memory=3,
                         known_result_size=len(reference))
        assert out.meta["scans"] == 2  # the paper's ceil(S/M)
        assert out.result.same_multiset(reference)

    def test_s_zero_terminates_with_one_scan(self):
        a, b = keyed("A", [(1, 0)]), keyed("B", [(2, 0), (3, 0)])
        out = algorithm5(fresh_context(), [a, b], PRED, memory=4)
        assert out.meta["scans"] == 1
        assert len(out.result) == 0

    def test_writes_exactly_s_tuples_no_decoys(self):
        tables, reference = workload(seed=26)
        out = algorithm5(fresh_context(), tables, PRED, memory=2)
        assert out.stats.by_region.get(("put", "output"), 0) == len(reference)
        assert out.stats.puts == len(reference)

    def test_three_way_join(self):
        a = keyed("A", [(1, 0), (4, 0)])
        b = keyed("B", [(2, 0), (5, 0)])
        c = keyed("C", [(3, 0), (6, 0)])
        pred = PairwiseAll(Theta("key", "<"))
        reference = multiway_nested_loop_join([a, b, c], pred)
        out = algorithm5(fresh_context(), [a, b, c], pred, memory=2)
        assert out.result.same_multiset(reference)

    def test_memory_enforced(self):
        tables, _ = workload(seed=27)
        context = fresh_context(memory_limit=5)
        out = algorithm5(context, tables, PRED, memory=4)  # 4 buffer + 1 iTuple
        assert context.coprocessor.peak_in_use <= 5
        assert out.meta["S"] >= 0

    def test_invalid_memory(self):
        tables, _ = workload(seed=28)
        with pytest.raises(ConfigurationError):
            algorithm5(fresh_context(), tables, PRED, memory=0)


class TestAlgorithm6:
    def test_correct_when_results_fit_in_memory(self):
        tables, reference = workload(seed=29, results=4)
        out = algorithm6(fresh_context(), tables, PRED, memory=16)
        assert out.meta["fit_in_memory"] is True
        assert out.result.same_multiset(reference)

    def test_correct_with_segmentation(self):
        tables, reference = workload(seed=30, left=10, right=10, results=8)
        out = algorithm6(fresh_context(), tables, PRED, memory=4, epsilon=1e-6)
        assert out.meta["fit_in_memory"] is False
        assert out.result.same_multiset(reference)
        assert out.meta["segments"] >= 2

    @pytest.mark.parametrize("requested", [0, 10**6])
    def test_meta_records_the_delta_the_filter_ran_with(self, requested):
        """The filter clamps delta to [1, omega - S]; meta reports the clamp."""
        tables, reference = workload(seed=30, left=10, right=10, results=8)
        out = algorithm6(fresh_context(), tables, PRED, memory=4, epsilon=1e-6,
                         delta=requested)
        assert out.meta["fit_in_memory"] is False
        effective = 1 if requested == 0 else out.meta["omega"] - out.meta["S"]
        assert out.meta["delta"] == effective
        assert out.result.same_multiset(reference)

    @pytest.mark.parametrize("epsilon", [1e-2, 1e-10, 0.0])
    def test_correct_across_epsilons(self, epsilon):
        tables, reference = workload(seed=31, left=9, right=9, results=7)
        out = algorithm6(fresh_context(), tables, PRED, memory=3, epsilon=epsilon)
        if not out.meta["blemish"]:
            assert out.result.same_multiset(reference)

    def test_epsilon_zero_never_blemishes(self):
        """n* = M makes a blemish impossible by construction."""
        for seed in range(4):
            tables, reference = workload(seed=40 + seed, left=8, right=8, results=6)
            out = algorithm6(fresh_context(seed=seed), tables, PRED, memory=2,
                             epsilon=0.0, seed=seed + 1)
            assert out.meta["blemish"] is False
            assert out.meta["segment_size"] == 2
            assert out.result.same_multiset(reference)

    def test_forced_blemish_salvage_recovers_results(self):
        """An adversarial segment size forces a blemish; salvage still answers."""
        a = keyed("A", [(1, i) for i in range(4)])
        b = keyed("B", [(1, i) for i in range(4)])  # S = 16 = L: every pair joins
        reference = nested_loop_join(a, b, Equality("key"))
        out = algorithm6(fresh_context(), [a, b], PRED, memory=2, segment_size=16)
        assert out.meta["blemish"] is True
        assert out.meta["salvage_scans"] == 8  # ceil(16/2)
        assert out.result.same_multiset(reference)

    def test_forced_blemish_raise_mode(self):
        a = keyed("A", [(1, i) for i in range(4)])
        b = keyed("B", [(1, i) for i in range(4)])
        with pytest.raises(BlemishError):
            algorithm6(fresh_context(), [a, b], PRED, memory=2, segment_size=16,
                       salvage="raise")

    def test_segment_output_is_m_per_segment(self):
        tables, _ = workload(seed=33, left=10, right=10, results=8)
        out = algorithm6(fresh_context(), tables, PRED, memory=4, epsilon=1e-6)
        assert out.meta["omega"] == out.meta["segments"] * 4

    def test_three_way_join(self):
        a = keyed("A", [(1, 0), (9, 0)])
        b = keyed("B", [(2, 0), (8, 0)])
        c = keyed("C", [(3, 0), (7, 0)])
        pred = PairwiseAll(Theta("key", "<"))
        reference = multiway_nested_loop_join([a, b, c], pred)
        out = algorithm6(fresh_context(), [a, b, c], pred, memory=2, epsilon=0.0)
        if not out.meta["blemish"]:
            assert out.result.same_multiset(reference)

    def test_different_seeds_same_result(self):
        tables, reference = workload(seed=34, left=9, right=9, results=6)
        for lfsr_seed in (1, 7, 99):
            out = algorithm6(fresh_context(), tables, PRED, memory=3, epsilon=0.0,
                             seed=lfsr_seed)
            assert out.result.same_multiset(reference)


class TestMultiwayPredicates:
    def test_sum_predicate_over_three_tables(self):
        a = keyed("A", [(1, 0), (2, 0)])
        b = keyed("B", [(3, 0), (4, 0)])
        c = keyed("C", [(5, 0), (6, 0)])
        pred = CustomMulti(lambda rs: sum(r["key"] for r in rs) == 10,
                           description="sum == 10")
        reference = multiway_nested_loop_join([a, b, c], pred)
        out = algorithm4(fresh_context(), [a, b, c], pred)
        assert out.result.same_multiset(reference)
        assert len(reference) > 0


CANNOT_APPLY = [
    pytest.param(3, BinaryAsMulti(Equality("key")), ConfigurationError, id="binary-over-3"),
    pytest.param(2, BinaryAsMulti(Equality("nokey")), SchemaError, id="missing-attribute"),
]


@pytest.mark.parametrize("count, predicate, error", CANNOT_APPLY)
@pytest.mark.parametrize("algorithm, kwargs", [
    (algorithm4, {}), (algorithm5, {"memory": 2}), (algorithm6, {"memory": 2}),
], ids=["algorithm4", "algorithm5", "algorithm6"])
def test_a_predicate_that_cannot_apply_is_refused_before_upload(
        algorithm, kwargs, count, predicate, error):
    tables = [keyed(f"T{t}", [(k, 0) for k in range(4)]) for t in range(count)]
    context = fresh_context()
    with pytest.raises(error):
        algorithm(context, tables, predicate, **kwargs)
    assert context.host.region_names() == []
    assert len(context.coprocessor.trace) == 0
