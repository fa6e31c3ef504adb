"""Differential battery for the oblivious sort-merge joins (algorithms 7/8).

Algorithm 7 (Krastnikov/Kerschbaum/Stebila-style expansion join) and
Algorithm 8 (Arasu-Kaushik-style foreign-key / semi-join fast path) must be
*byte-equal in effect* to the plaintext reference join and to Algorithm 4 on
randomized equi-join instances — across seeds, skew, match multiplicity,
edge cases (empty output, all-match), and all three crypto providers — while
their transfer counts match the closed-form exact cost models and their
enclave footprint stays constant.
"""

import random

import pytest

from tests.conftest import KEY, fresh_context

from repro.core.algorithm4 import algorithm4
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8, validate_foreign_key
from repro.core.base import JoinContext
from repro.core.parallel import parallel_algorithm7
from repro.core.planner import execute_plan, plan_join
from repro.costs.bitonic import (
    exact_route_transfers,
    exact_sort_transfers,
    paper_route_transfers,
    paper_sort_transfers,
)
from repro.costs.oblivious_join import (
    exact_algorithm7,
    exact_algorithm8,
    paper_algorithm7,
    paper_algorithm8,
)
from repro.crypto.provider import FastProvider, NullProvider, OcbProvider
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.relational.generate import (
    equijoin_workload,
    keyed_schema,
    people_schema,
    uniform_keyed,
    zipf_keyed,
)
from repro.relational.joins import nested_loop_join, sort_merge_join
from repro.relational.predicates import BinaryAsMulti, Equality, PairwiseAll, Theta
from repro.relational.relation import Relation

PRED = BinaryAsMulti(Equality("key"))


def run7(left, right, **context_kwargs):
    context = fresh_context(**context_kwargs)
    return algorithm7(context, [left, right], PRED)


def run8(left, right, mode="join", **context_kwargs):
    context = fresh_context(**context_kwargs)
    return algorithm8(context, [left, right], PRED, mode=mode)


def semi_reference(left, right):
    """The matching left tuples, multiset semantics (any witness serves)."""
    right_keys = {record["key"] for record in right}
    return left.filter(lambda record: record["key"] in right_keys)


def one_key(n1, n2, key=7):
    """Two tables whose every row shares one join key: S = n1 * n2."""
    return (Relation.from_values(keyed_schema("A"), [(key, p) for p in range(n1)]),
            Relation.from_values(keyed_schema("B"), [(key, 100 + p) for p in range(n2)]))


# ---------------------------------------------------------------------------
# Algorithm 7 — differential correctness
# ---------------------------------------------------------------------------

class TestAlgorithm7Differential:
    @pytest.mark.parametrize("seed", [1, 2, 3, 7, 11])
    def test_matches_plaintext_reference(self, seed):
        wl = equijoin_workload(8, 10, 6, rng=random.Random(seed),
                               max_matches=2)
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        out = run7(wl.left, wl.right)
        assert len(out.result) == len(reference) == wl.result_size
        assert out.result.same_multiset(reference)
        assert out.meta["S"] == wl.result_size
        assert out.meta["algorithm"] == "algorithm7"

    @pytest.mark.parametrize("seed", [4, 9])
    def test_matches_both_plaintext_join_orders(self, seed):
        """nested-loop and sort-merge references agree with the oblivious run."""
        wl = equijoin_workload(7, 9, 8, rng=random.Random(seed))
        out = run7(wl.left, wl.right)
        assert out.result.same_multiset(
            nested_loop_join(wl.left, wl.right, Equality("key")))
        assert out.result.same_multiset(
            sort_merge_join(wl.left, wl.right, Equality("key")))

    @pytest.mark.parametrize("seed", [5, 6, 8])
    def test_matches_algorithm4(self, seed):
        wl = equijoin_workload(8, 8, 7, rng=random.Random(seed))
        via7 = run7(wl.left, wl.right)
        via4 = algorithm4(fresh_context(), [wl.left, wl.right], PRED)
        assert via7.result.same_multiset(via4.result)

    @pytest.mark.parametrize("seed", [12, 13, 14])
    def test_skewed_zipf_keys(self, seed):
        """Heavy many-to-many skew: hot keys on both sides."""
        rng = random.Random(seed)
        left = zipf_keyed(9, 5, rng, exponent=1.5, name="A")
        right = zipf_keyed(11, 5, rng, exponent=1.5, name="B")
        reference = nested_loop_join(left, right, Equality("key"))
        out = run7(left, right)
        assert out.result.same_multiset(reference)

    def test_empty_output(self):
        wl = equijoin_workload(6, 7, 0, rng=random.Random(21))
        out = run7(wl.left, wl.right)
        assert len(out.result) == 0
        assert out.meta["S"] == 0

    def test_all_match_single_key(self):
        """Every pair joins: S = n1 * n2, the maximal expansion."""
        schema_a, schema_b = keyed_schema("A"), keyed_schema("B")
        left = Relation.from_values(schema_a, [(1, p) for p in range(4)])
        right = Relation.from_values(schema_b, [(1, p) for p in range(5)])
        reference = nested_loop_join(left, right, Equality("key"))
        out = run7(left, right)
        assert len(out.result) == 20
        assert out.result.same_multiset(reference)

    def test_single_tuple_tables(self):
        schema_a, schema_b = keyed_schema("A"), keyed_schema("B")
        left = Relation.from_values(schema_a, [(3, 10)])
        for right_rows, expected in ([(3, 20)], 1), ([(4, 20)], 0):
            right = Relation.from_values(schema_b, right_rows)
            assert len(run7(left, right).result) == expected

    @pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider,
                                              NullProvider])
    def test_all_crypto_providers(self, provider_cls):
        wl = equijoin_workload(6, 8, 5, rng=random.Random(31))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        context = JoinContext.fresh(provider=provider_cls(KEY))
        out = algorithm7(context, [wl.left, wl.right], PRED)
        assert out.result.same_multiset(reference)

    def test_unwraps_pairwise_all(self):
        wl = equijoin_workload(5, 5, 3, rng=random.Random(41))
        out = algorithm7(fresh_context(), [wl.left, wl.right],
                         PairwiseAll(Equality("key")))
        assert len(out.result) == 3


# ---------------------------------------------------------------------------
# Algorithm 8 — foreign-key join and semi-join
# ---------------------------------------------------------------------------

class TestAlgorithm8Differential:
    @pytest.mark.parametrize("seed", [1, 2, 3, 7])
    def test_join_mode_matches_reference(self, seed):
        # max_matches=1 makes every key globally unique except one-to-one
        # plants, so the right table satisfies the foreign-key contract.
        wl = equijoin_workload(8, 10, 5, rng=random.Random(seed),
                               max_matches=1)
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        out = run8(wl.left, wl.right, mode="join")
        assert out.result.same_multiset(reference)
        assert out.meta["mode"] == "join"
        assert out.meta["S"] == wl.result_size

    @pytest.mark.parametrize("seed", [1, 5])
    def test_join_mode_matches_algorithm7(self, seed):
        wl = equijoin_workload(8, 10, 6, rng=random.Random(seed),
                               max_matches=1)
        via8 = run8(wl.left, wl.right, mode="join")
        via7 = run7(wl.left, wl.right)
        assert via8.result.same_multiset(via7.result)

    @pytest.mark.parametrize("seed", [1, 2, 6])
    def test_semi_mode_matches_reference(self, seed):
        # Semi mode tolerates duplicate right keys: any witness serves.
        wl = equijoin_workload(8, 10, 6, rng=random.Random(seed),
                               max_matches=2)
        reference = semi_reference(wl.left, wl.right)
        out = run8(wl.left, wl.right, mode="semi")
        assert out.result.same_multiset(reference)
        assert ([a.name for a in out.result.schema]
                == [a.name for a in wl.left.schema])

    def test_semi_empty_and_all_match(self):
        schema_a, schema_b = keyed_schema("A"), keyed_schema("B")
        left = Relation.from_values(schema_a, [(i, i) for i in range(5)])
        none = Relation.from_values(schema_b, [(99, 0)])
        assert len(run8(left, none, mode="semi").result) == 0
        all_of_them = Relation.from_values(
            schema_b, [(i, 7) for i in range(5)])
        out = run8(left, all_of_them, mode="semi")
        assert out.result.same_multiset(left)

    @pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider,
                                              NullProvider])
    def test_all_crypto_providers(self, provider_cls):
        wl = equijoin_workload(6, 8, 4, rng=random.Random(32), max_matches=1)
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        context = JoinContext.fresh(provider=provider_cls(KEY))
        out = algorithm8(context, [wl.left, wl.right], PRED)
        assert out.result.same_multiset(reference)

    def test_duplicate_right_keys_rejected_in_join_mode(self):
        schema_a, schema_b = keyed_schema("A"), keyed_schema("B")
        left = Relation.from_values(schema_a, [(1, 0)])
        dup_right = Relation.from_values(schema_b, [(1, 0), (1, 1)])
        with pytest.raises(ConfigurationError):
            run8(left, dup_right, mode="join")
        validate_foreign_key(left, "key")  # unique keys pass

    def test_unknown_mode_rejected(self):
        wl = equijoin_workload(3, 3, 1, rng=random.Random(1))
        with pytest.raises(ConfigurationError):
            run8(wl.left, wl.right, mode="anti")


# ---------------------------------------------------------------------------
# edge battery: both physical modes, Fast and OCB, plaintext reference
# ---------------------------------------------------------------------------

#: case -> (n1, n2, S, max_matches, Algorithm 8 mode); FK joins where valid.
EDGE_CASES = {
    "S=0": (6, 5, 0, 1, "join"),
    "S=1": (6, 5, 1, 1, "join"),
    "all-duplicate": (5, 3, 15, None, "semi"),     # S > n_t: fillers on both sides
    "mostly-unmatched": (13, 11, 3, 1, "join"),    # n_t > S
    "n1=1": (1, 6, 4, None, "semi"),
    "non-power-of-two": (7, 11, 9, 3, "semi"),
}


@pytest.mark.parametrize("provider_cls", [FastProvider, OcbProvider],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_cases_in_both_modes(case, provider_cls):
    n1, n2, s, matches, mode = EDGE_CASES[case]
    if case == "all-duplicate":
        left, right = one_key(n1, n2)
    else:
        wl = equijoin_workload(n1, n2, s, rng=random.Random(case),
                               max_matches=matches)
        left, right = wl.left, wl.right
    joined = nested_loop_join(left, right, Equality("key"))
    assert len(joined) == s
    cases = {
        "algorithm7": (lambda c: algorithm7(c, [left, right], PRED),
                       joined, exact_algorithm7),
        "algorithm8": (lambda c: algorithm8(c, [left, right], PRED, mode=mode),
                       joined if mode == "join" else semi_reference(left, right),
                       exact_algorithm8),
    }
    for name, (run, reference, model) in cases.items():
        runs = []
        for batched_io in (True, False):
            out = run(JoinContext.fresh(provider=provider_cls(KEY),
                                        batched_io=batched_io))
            assert out.result.same_multiset(reference), (name, batched_io)
            assert out.transfers == model(n1, n2, len(reference)).total, name
            runs.append((list(out.result), out.trace.fingerprint()))
        assert runs[0] == runs[1], name


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------

class TestValidation:
    def test_two_tables_only(self):
        wl = equijoin_workload(3, 3, 1, rng=random.Random(1))
        for fn in (algorithm7, algorithm8):
            with pytest.raises(ConfigurationError):
                fn(fresh_context(), [wl.left, wl.right, wl.left], PRED)

    def test_non_equality_predicate_rejected(self):
        wl = equijoin_workload(3, 3, 1, rng=random.Random(2))
        theta = BinaryAsMulti(Theta("key", "<"))
        for fn in (algorithm7, algorithm8):
            with pytest.raises(ConfigurationError):
                fn(fresh_context(), [wl.left, wl.right], theta)

    def test_unknown_attribute_rejected(self):
        wl = equijoin_workload(3, 3, 1, rng=random.Random(3))
        with pytest.raises(ConfigurationError):
            run7_with_predicate(wl.left, wl.right,
                                BinaryAsMulti(Equality("no_such_column")))

    def test_incompatible_key_widths_rejected(self):
        """Joining an int key against a text attribute cannot group by bytes."""
        left = uniform_keyed(3, 5, random.Random(4), name="A")
        people = Relation.from_values(
            people_schema("B"), [(1, "ann", 1980), (2, "bob", 1990)])
        predicate = BinaryAsMulti(Equality("key", "name"))
        with pytest.raises(ConfigurationError):
            algorithm7(fresh_context(), [left, people], predicate)


def run7_with_predicate(left, right, predicate):
    return algorithm7(fresh_context(), [left, right], predicate)


# ---------------------------------------------------------------------------
# cost models: exact == traced, paper tracks the asymptotics
# ---------------------------------------------------------------------------

class TestCostModels:
    @pytest.mark.parametrize("sizes", [(4, 5, 3), (8, 10, 6), (9, 7, 0),
                                       (6, 6, 6), (4, 4, 16), (5, 3, 15),
                                       (12, 4, 2), (1, 7, 7)])
    def test_exact_algorithm7_equals_traced_transfers(self, sizes):
        n1, n2, s = sizes
        if n1 > 1 and s == n1 * n2 > n2:  # every pair joins: one shared key
            left, right = one_key(n1, n2)
        else:
            wl = equijoin_workload(n1, n2, s, rng=random.Random(sum(sizes)))
            left, right = wl.left, wl.right
        out = run7(left, right)
        assert len(out.result) == s
        assert out.transfers == exact_algorithm7(n1, n2, s).total

    @pytest.mark.parametrize("sizes", [(4, 5, 3), (8, 10, 5), (7, 9, 0),
                                       (12, 4, 2)])
    def test_exact_algorithm8_equals_traced_transfers(self, sizes):
        n1, n2, s = sizes
        wl = equijoin_workload(n1, n2, s, rng=random.Random(sum(sizes)),
                               max_matches=1)
        out = run8(wl.left, wl.right)
        assert out.transfers == exact_algorithm8(n1, n2, s).total

    @pytest.mark.parametrize("sizes", [(4, 5, 3), (9, 7, 0), (4, 4, 16),
                                       (1, 7, 7), (12, 4, 2), (100, 30, 100),
                                       (512, 512, 512), (1024, 1024, 1024)])
    def test_paper_is_exact_with_every_network_swapped(self, sizes):
        """``paper - exact`` is exactly the sum of the network swaps:
        ``n log2^2 n`` for each sort, ``4 m log2 m`` for each route."""
        n1, n2, s = sizes
        n = n1 + n2

        def sort(m):
            return paper_sort_transfers(m) - exact_sort_transfers(m)

        def route(m):
            return paper_route_transfers(m) - exact_route_transfers(m)

        assert (paper_algorithm7(n1, n2, s).total - exact_algorithm7(n1, n2, s).total
                == pytest.approx(2 * sort(n) + 2 * route(s) + sort(s)))
        if s <= n1:
            assert (paper_algorithm8(n1, n2, s).total - exact_algorithm8(n1, n2, s).total
                    == pytest.approx(sort(n) + route(n)))

    def test_paper_models_validate_inputs(self):
        with pytest.raises(ConfigurationError):
            paper_algorithm7(0, 5, 1)
        with pytest.raises(ConfigurationError):
            paper_algorithm7(2, 2, 5)  # S > n1 * n2
        with pytest.raises(ConfigurationError):
            paper_algorithm8(4, 4, 5)  # S > n1

    def test_crossover_against_algorithm4(self):
        """The modeled sort-merge bill grows ~n log^2 n while the cartesian
        scan grows n^2: the ratio must improve monotonically with n."""
        from repro.costs.chapter5 import paper_algorithm4

        ratios = []
        for n in (32, 128, 512, 2048):
            s = n  # a selective equi-join: S ~ n
            alg4 = paper_algorithm4(n * n, s).total
            alg7 = paper_algorithm7(n, n, s).total
            ratios.append(alg4 / alg7)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 1.0  # algorithm7 wins outright at scale


# ---------------------------------------------------------------------------
# enclave footprint: O(1) trusted memory
# ---------------------------------------------------------------------------

class TestEnclaveFootprint:
    def test_algorithm7_peak_three_slots(self):
        wl = equijoin_workload(8, 10, 6, rng=random.Random(51))
        context = fresh_context(memory_limit=3)
        out = algorithm7(context, [wl.left, wl.right], PRED)
        assert context.coprocessor.peak_in_use == 3  # the emit zip
        assert len(out.result) == 6

    def test_algorithm8_peak_three_slots(self):
        wl = equijoin_workload(8, 10, 5, rng=random.Random(52), max_matches=1)
        context = fresh_context(memory_limit=3)
        out = algorithm8(context, [wl.left, wl.right], PRED)
        assert context.coprocessor.peak_in_use <= 3
        assert len(out.result) == 5


# ---------------------------------------------------------------------------
# parallel variant
# ---------------------------------------------------------------------------

class TestParallelAlgorithm7:
    def _rig(self, processors):
        provider = FastProvider(KEY)
        context = JoinContext.fresh(provider=provider)
        cluster = Cluster(context.host, provider, count=processors)
        return context, cluster

    @pytest.mark.parametrize("processors", [1, 2, 3, 4])
    def test_correct_and_reports_per_device(self, processors):
        wl = equijoin_workload(8, 10, 6, rng=random.Random(61))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        context, cluster = self._rig(processors)
        out = parallel_algorithm7(context, cluster, [wl.left, wl.right], PRED)
        assert out.result.same_multiset(reference)
        assert len(out.per_coprocessor) == processors
        assert out.meta["P"] == processors
        assert out.meta["S"] == 6

    def test_expansion_stages_split_across_devices(self):
        wl = equijoin_workload(8, 10, 6, rng=random.Random(62))
        context, cluster = self._rig(2)
        out = parallel_algorithm7(context, cluster, [wl.left, wl.right], PRED)
        # Both devices did real work (the right expansion runs on device 1).
        assert all(stats.total > 0 for stats in out.per_coprocessor)
        assert out.meta["parallel_sorts"] == 2  # n = 18 divides across P = 2
        assert out.speedup > 1.0

    def test_matches_serial_results(self):
        wl = equijoin_workload(9, 9, 7, rng=random.Random(63))
        serial = run7(wl.left, wl.right)
        context, cluster = self._rig(3)
        out = parallel_algorithm7(context, cluster, [wl.left, wl.right], PRED)
        assert out.result.same_multiset(serial.result)

    @pytest.mark.parametrize("processors,transfers,prints", [
        (2, [682, 332], ["cd068a87b096481f", "a7c628a0c439700b"]),
        (3, [602, 356, 96],
         ["91015b0dd4aff3c2", "5369ceb92edbeab7", "889d67d25f91e597"]),
    ])
    def test_per_device_traces_pinned(self, processors, transfers, prints):
        """Golden pins, taken when the sorts' declaration became Batcher's
        merge-exchange from two fresh contexts that agree and reproduced
        with ``batched_io=False``.  The union sorts (closure key, no executor)
        run as task rounds."""
        wl = equijoin_workload(8, 10, 6, rng=random.Random(62))
        context, cluster = self._rig(processors)
        out = parallel_algorithm7(context, cluster, [wl.left, wl.right], PRED)
        assert out.meta["parallel_sorts"] == 2
        assert [t.trace.transfer_count() for t in cluster] == transfers
        assert [t.trace.fingerprint()[:16] for t in cluster] == prints


# ---------------------------------------------------------------------------
# planner integration
# ---------------------------------------------------------------------------

class TestPlannerIntegration:
    def test_equality_admits_algorithm7(self):
        plan = plan_join(100, 100, 100, memory=8,
                         predicate_class="equality")
        assert "algorithm7" in plan.alternatives

    def test_general_predicates_exclude_algorithm7(self):
        plan = plan_join(100, 100, 100, memory=8)
        assert "algorithm7" not in plan.alternatives

    def test_large_equijoin_plans_and_executes_algorithm7(self):
        # At n1 = n2 = 1000 the cartesian scan costs ~10^6 while the
        # sort-merge join costs ~10^5: algorithm7 must win the plan.
        plan = plan_join(1000, 1000, 500, memory=8,
                         predicate_class="equality")
        assert plan.algorithm == "algorithm7"
        wl = equijoin_workload(8, 10, 5, rng=random.Random(71))
        out = execute_plan(plan, fresh_context(), [wl.left, wl.right], PRED)
        assert out.meta["algorithm"] == "algorithm7"
        assert out.result.same_multiset(
            nested_loop_join(wl.left, wl.right, Equality("key")))


# ---------------------------------------------------------------------------
# service integration
# ---------------------------------------------------------------------------

def test_join_service_runs_the_sort_merge_algorithms():
    from repro.core.service import Contract, JoinService, Party

    wl = equijoin_workload(6, 8, 4, rng=random.Random(81), max_matches=1)
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))
    with JoinService(memory=8) as service:
        contract = Contract(
            contract_id="c-smj", data_owners=("alice", "bob"),
            recipient="carol", permitted_predicate="key = key",
        )
        service.register_contract(contract)
        service.ingest(Party("alice"), "c-smj", wl.left)
        service.ingest(Party("bob"), "c-smj", wl.right)
        for algorithm in ("algorithm7", "algorithm8"):
            result = service.execute("c-smj", PRED, algorithm=algorithm)
            assert result.result.same_multiset(reference), algorithm
