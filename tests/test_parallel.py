"""Tests for the parallel variants (Sections 4.4.4 and 5.3.5)."""

import random

import pytest

from tests.conftest import KEY
from tests.test_cartesian import blemishing_workload

from repro.core.algorithm2 import algorithm2
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.base import JoinContext
from repro.core.parallel import (
    parallel_algorithm2,
    parallel_algorithm3,
    parallel_algorithm4,
    parallel_algorithm5,
    parallel_algorithm6,
    parallel_algorithm7,
)
from repro.crypto.provider import FastProvider
from repro.errors import BlemishError, ConfigurationError, SchemaError
from repro.hardware.cluster import Cluster
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality
from repro.relational.relation import Relation


def rig(processors: int):
    provider = FastProvider(KEY)
    context = JoinContext.fresh(provider=provider)
    cluster = Cluster(context.host, provider, count=processors)
    return context, cluster


def workload(seed=50, left=8, right=10, results=6):
    wl = equijoin_workload(left, right, results, rng=random.Random(seed))
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))
    return wl, reference


class TestParallelAlgorithm2:
    @pytest.mark.parametrize("processors", [1, 2, 4])
    def test_correct(self, processors):
        wl, reference = workload()
        context, cluster = rig(processors)
        out = parallel_algorithm2(context, cluster, wl.left, wl.right,
                                  Equality("key"), wl.max_matches, memory=2)
        assert out.result.same_multiset(reference)

    def test_linear_speedup(self):
        """Section 4.4.4: "easy to parallelize with a linear speed-up"."""
        wl, _ = workload(left=8, right=10)
        context, cluster = rig(4)
        out = parallel_algorithm2(context, cluster, wl.left, wl.right,
                                  Equality("key"), wl.max_matches, memory=2)
        assert out.speedup == pytest.approx(4.0, rel=0.05)


class TestParallelAlgorithm4:
    @pytest.mark.parametrize("processors", [1, 2, 3])
    def test_correct(self, processors):
        wl, reference = workload(seed=51)
        context, cluster = rig(processors)
        out = parallel_algorithm4(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")))
        assert out.result.same_multiset(reference)
        assert out.meta["S"] == len(reference)
        if processors == 1:  # the serial filter: its makespan is its phase row
            assert out.meta["filter_makespan"] == out.meta["phases"]["filter"]["transfers"]

    def test_scan_phase_balanced(self):
        wl, _ = workload(seed=52, left=8, right=8)
        context, cluster = rig(4)
        out = parallel_algorithm4(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")))
        scan_totals = [s.total for s in out.per_coprocessor]
        assert max(scan_totals) - min(scan_totals) <= 3  # near-equal shares


class TestParallelAlgorithm5:
    @pytest.mark.parametrize("processors", [1, 2, 3])
    def test_correct(self, processors):
        wl, reference = workload(seed=53)
        context, cluster = rig(processors)
        out = parallel_algorithm5(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")), memory=2)
        assert out.result.same_multiset(reference)

    def test_output_ranges_disjoint_and_complete(self):
        wl, reference = workload(seed=54, results=9)
        context, cluster = rig(3)
        out = parallel_algorithm5(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")), memory=2)
        assert len(out.result) == len(reference)
        assert out.meta["share"] == 3

    def test_empty_result(self):
        from tests.conftest import keyed

        a, b = keyed("A", [(1, 0)]), keyed("B", [(2, 0)])
        context, cluster = rig(2)
        out = parallel_algorithm5(context, cluster, [a, b],
                                  BinaryAsMulti(Equality("key")), memory=2)
        assert len(out.result) == 0


class TestValidationBeforeUpload:
    """The parallel variants reject what their sequential twins reject, and
    do so before anything reaches the host."""

    @pytest.mark.parametrize("algorithm, memory, empty", [
        *(pytest.param(algorithm, memory, None, id=f"{algorithm}-{memory}")
          for algorithm in (2, 5, 6) for memory in (0, -1)),
        # An empty input is refused too (memory is valid here).
        *(pytest.param(algorithm, 2, side, id=f"{algorithm}-empty{side}")
          for algorithm in (2, 3) for side in "AB"),
    ])
    def test_memory_below_one_is_a_configuration_error(self, algorithm, memory, empty):
        wl, _ = workload()
        left = Relation(wl.left.schema) if empty == "A" else wl.left
        right = Relation(wl.right.schema) if empty == "B" else wl.right
        context, cluster = rig(2)
        multi = BinaryAsMulti(Equality("key"))
        with pytest.raises(ConfigurationError):
            if algorithm == 2:
                parallel_algorithm2(context, cluster, left, right,
                                    Equality("key"), wl.max_matches, memory)
            elif algorithm == 3:
                parallel_algorithm3(context, cluster, left, right, "key",
                                    wl.max_matches)
            elif algorithm == 5:
                parallel_algorithm5(context, cluster, [left, right],
                                    multi, memory)
            else:
                parallel_algorithm6(context, cluster, [left, right],
                                    multi, memory)
        assert context.host.region_names() == []
        assert cluster.total_transfers() == 0

    @pytest.mark.parametrize("count, predicate, error", [
        pytest.param(3, BinaryAsMulti(Equality("key")), ConfigurationError,
                     id="binary-over-3"),
        pytest.param(2, BinaryAsMulti(Equality("nokey")), SchemaError,
                     id="missing-attribute"),
    ])
    @pytest.mark.parametrize("algorithm", [4, 5, 6])
    def test_a_predicate_that_cannot_apply_is_refused_before_upload(
            self, algorithm, count, predicate, error):
        wl, _ = workload()
        tables = [wl.left, wl.right, wl.left][:count]
        context, cluster = rig(2)
        with pytest.raises(error):
            if algorithm == 4:
                parallel_algorithm4(context, cluster, tables, predicate)
            elif algorithm == 5:
                parallel_algorithm5(context, cluster, tables, predicate, 2)
            else:
                parallel_algorithm6(context, cluster, tables, predicate, 2)
        assert context.host.region_names() == []
        assert cluster.total_transfers() == 0
        assert len(context.coprocessor.trace) == 0


def renamed(trace, parallel_region, region):
    """A parallel device's events with its own region named as the sequential
    algorithm names it."""
    return [event._replace(region=region) if event.region == parallel_region else event
            for event in trace.events]


@pytest.mark.parametrize("algorithm, memory, n_max, presorted", [
    pytest.param(2, 1, 3, False, id="alg2-gamma=3"),
    pytest.param(2, 20, 10, False, id="alg2-N=|B|"),
    pytest.param(3, None, 3, False, id="alg3"),
    pytest.param(3, None, 10, False, id="alg3-N=|B|"),
    pytest.param(3, None, 3, True, id="alg3-presorted"),
])
def test_one_device_cluster_runs_the_sequential_algorithm(
        algorithm, memory, n_max, presorted):
    """Section 4.4.4 parallelizes Algorithms 2 and 3 by partitioning A, so
    with P = 1 the parallel variant *is* the sequential algorithm: the same
    trace event for event (Algorithm 3's per-worker scratch region renamed)
    and the same result rows in the same order."""
    wl, _ = workload()
    sequential_context = JoinContext.fresh(provider=FastProvider(KEY))
    context, cluster = rig(1)
    if algorithm == 2:
        sequential = algorithm2(sequential_context, wl.left, wl.right,
                                Equality("key"), n_max, memory)
        parallel = parallel_algorithm2(context, cluster, wl.left, wl.right,
                                       Equality("key"), n_max, memory)
    else:
        sequential = algorithm3(sequential_context, wl.left, wl.right, "key",
                                n_max, presorted=presorted)
        parallel = parallel_algorithm3(context, cluster, wl.left, wl.right,
                                       "key", n_max, presorted=presorted)
    assert (renamed(cluster[0].trace, "scratch3w0", "scratch3")
            == list(sequential.trace.events))
    assert parallel.result.records() == sequential.result.records()


@pytest.mark.parametrize("case", ["alg4", "alg6", "alg6-blemish"])
def test_one_device_cluster_runs_the_sequential_cartesian_join(case):
    """Section 5.3.5 splits Algorithms 4 and 6 across devices, so with P = 1
    the parallel variant is the sequential algorithm: the same trace event
    for event (the parallel regions renamed) and the same result rows.  A
    blemish ends both at the same event: neither writes the blemished
    segment before it raises."""
    multi = BinaryAsMulti(Equality("key"))
    sequential_context = JoinContext.fresh(provider=FastProvider(KEY))
    context, cluster = rig(1)
    if case == "alg4":
        wl, _ = workload()
        sequential = algorithm4(sequential_context, [wl.left, wl.right], multi)
        parallel = parallel_algorithm4(context, cluster, [wl.left, wl.right], multi)
        parallel_region, region = "__pfilter", "__filter"
    elif case == "alg6":
        wl, _ = workload()
        sequential = algorithm6(sequential_context, [wl.left, wl.right], multi,
                                memory=2, epsilon=1e-6, seed=3)
        parallel = parallel_algorithm6(context, cluster, [wl.left, wl.right], multi,
                                       memory=2, epsilon=1e-6, seed=3)
        assert sequential.meta["S"] > 2 and not sequential.meta["blemish"]
        parallel_region, region = "psegments", "segments"
    else:
        relations, _ = blemishing_workload()
        with pytest.raises(BlemishError):
            algorithm6(sequential_context, relations, multi, memory=1,
                       segment_size=64, salvage="raise")
        with pytest.raises(BlemishError):
            parallel_algorithm6(context, cluster, relations, multi, memory=1,
                                segment_size=64)
        assert (renamed(cluster[0].trace, "psegments", "segments")
                == list(sequential_context.coprocessor.trace.events))
        return
    assert (renamed(cluster[0].trace, parallel_region, region)
            == list(sequential.trace.events))
    assert parallel.result.records() == sequential.result.records()


@pytest.mark.parametrize("left, right, results", [(8, 10, 6), (3, 7, 7), (9, 9, 0)],
                         ids=["S<n1", "S>n1", "S=0"])
def test_one_device_cluster_runs_the_sequential_sort_merge_join(left, right, results):
    """With P = 1 parallel Algorithm 7 runs every phase on the one device,
    its union phases fused as the sequential algorithm fuses them: the same
    trace event for event and the same result rows in the same order."""
    wl = equijoin_workload(left, right, results, rng=random.Random(9))
    multi = BinaryAsMulti(Equality("key"))
    sequential = algorithm7(JoinContext.fresh(provider=FastProvider(KEY)),
                            [wl.left, wl.right], multi)
    context, cluster = rig(1)
    parallel = parallel_algorithm7(context, cluster, [wl.left, wl.right], multi)
    assert sequential.meta["S"] == parallel.meta["S"] == results
    assert list(cluster[0].trace.events) == list(sequential.trace.events)
    assert parallel.result.records() == sequential.result.records()
    assert (cluster[0].physical_encryptions
            == sequential.meta["n"] + max(left, results) + max(right, results) + results)


@pytest.mark.parametrize("processors", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(6))
def test_parallel_algorithm5_keeps_the_sequential_order(seed, processors):
    """Each device emits a contiguous range of result ordinals at its own
    output offset, so the rows come out in Algorithm 5's order, for every
    split of S into shares of M-result scans."""
    multi = BinaryAsMulti(Equality("key"))
    for memory in (1, 2, 3, 5):
        for results in (0, 1, 2, 5, 7, 12):
            wl = equijoin_workload(8, 12, results, rng=random.Random(seed))
            relations = [wl.left, wl.right]
            sequential = algorithm5(JoinContext.fresh(provider=FastProvider(KEY)),
                                    relations, multi, memory)
            context, cluster = rig(processors)
            parallel = parallel_algorithm5(context, cluster, relations, multi, memory)
            assert parallel.result.records() == sequential.result.records()
            assert len(sequential.result) == results


def test_every_parallel_algorithm_is_exported_from_repro_core():
    """Introspective sweep: a ``parallel_algorithmN`` added to core/parallel.py
    cannot be left out of the package surface (3 was, for 15 PRs)."""
    import repro.core
    from repro.core import parallel

    defined = [
        name for name, obj in vars(parallel).items()
        if name.startswith("parallel_algorithm") and callable(obj)
        and obj.__module__ == parallel.__name__
    ]
    assert len(defined) >= 6
    for name in defined:
        assert getattr(repro.core, name) is getattr(parallel, name)
        assert name in repro.core.__all__
