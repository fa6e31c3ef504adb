"""Tests for privacy preserving aggregation (the Chapter 6 extension)."""

import random

import pytest

from tests.conftest import fresh_context, keyed

from repro.core.aggregation import (
    agg_max,
    agg_min,
    agg_sum,
    aggregate_join,
    avg,
    count,
    group_by_aggregate,
    paper_aggregation_cost,
)
from repro.errors import ConfigurationError, SchemaError
from repro.privacy.checker import check_runs
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality

PRED = BinaryAsMulti(Equality("key"))


def workload(seed=61, results=7):
    wl = equijoin_workload(8, 9, results, rng=random.Random(seed))
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))
    return [wl.left, wl.right], reference


class TestAggregateJoin:
    def test_count_matches_join_size(self):
        tables, reference = workload()
        out = aggregate_join(fresh_context(), tables, PRED, [count()])
        assert out.values["count"] == len(reference)

    def test_sum_avg_min_max(self):
        tables, reference = workload(seed=62)
        out = aggregate_join(
            fresh_context(), tables, PRED,
            [agg_sum(1, "payload"), avg(1, "payload"),
             agg_min(1, "payload"), agg_max(1, "payload")],
        )
        payloads = [r.values[3] for r in reference]  # right payload column
        assert out.values["sum(X1.payload)"] == pytest.approx(sum(payloads))
        assert out.values["avg(X1.payload)"] == pytest.approx(
            sum(payloads) / len(payloads)
        )
        assert out.values["min(X1.payload)"] == min(payloads)
        assert out.values["max(X1.payload)"] == max(payloads)

    def test_empty_join(self):
        a, b = keyed("A", [(1, 0)]), keyed("B", [(2, 0)])
        out = aggregate_join(fresh_context(), [a, b], PRED,
                             [count(), avg(0, "payload")])
        assert out.values["count"] == 0
        assert out.values["avg(X0.payload)"] is None

    def test_cost_is_one_scan_plus_one_write(self):
        tables, _ = workload(seed=63)
        out = aggregate_join(fresh_context(), tables, PRED, [count()])
        assert out.transfers == paper_aggregation_cost(out.meta["L"], tables=2)
        assert out.stats.puts == 1

    def test_cheaper_than_any_join_materialization(self):
        """The Chapter 6 answer: no dependence on S at all."""
        from repro.costs.chapter5 import exact_algorithm5

        tables, reference = workload(seed=64)
        out = aggregate_join(fresh_context(), tables, PRED, [count()])
        cheapest_join = exact_algorithm5(
            out.meta["L"], len(reference), memory=len(reference), tables=2
        ).total
        assert out.transfers < cheapest_join

    def test_definition3_style_trace_equality(self):
        """Same sizes -> identical traces, even for different S (stronger
        than Definition 3: the aggregate trace does not even depend on S)."""
        runs = []
        for seed, results in ((1, 2), (2, 7)):
            wl = equijoin_workload(8, 9, results, rng=random.Random(seed))

            def thunk(tables=[wl.left, wl.right]):
                context = fresh_context()
                out = aggregate_join(context, tables, PRED, [count()])
                # Adapt AggregateResult to the checker's JoinResult protocol.
                return out

            runs.append(thunk)
        traces = [thunk().trace for thunk in runs]
        assert traces[0] == traces[1]

    def test_validation(self):
        tables, _ = workload(seed=65)
        with pytest.raises(ConfigurationError):
            aggregate_join(fresh_context(), tables, PRED, [])
        with pytest.raises(ConfigurationError):
            aggregate_join(fresh_context(), [], PRED, [count()])
        with pytest.raises(ConfigurationError):
            agg_sum(0, "")


class TestGroupBy:
    def test_group_counts(self):
        a = keyed("A", [(1, 10), (1, 11), (2, 20), (3, 30)])
        b = keyed("B", [(1, 0), (2, 0), (2, 1)])
        out = group_by_aggregate(
            fresh_context(), [a, b], PRED,
            group_table=0, group_attr="key", groups=[1, 2, 3, 4],
            aggregate=count(),
        )
        assert out.values == {1: 2, 2: 2, 3: 0, 4: 0}

    def test_group_sum(self):
        a = keyed("A", [(1, 10), (1, 30), (2, 5)])
        b = keyed("B", [(1, 0), (2, 0)])
        out = group_by_aggregate(
            fresh_context(), [a, b], PRED,
            group_table=0, group_attr="key", groups=[1, 2],
            aggregate=agg_sum(0, "payload"),
        )
        assert out.values[1] == pytest.approx(40.0)
        assert out.values[2] == pytest.approx(5.0)

    def test_output_size_is_group_universe(self):
        a = keyed("A", [(1, 0)])
        b = keyed("B", [(1, 0)])
        out = group_by_aggregate(
            fresh_context(), [a, b], PRED,
            group_table=0, group_attr="key", groups=[1, 2, 3],
            aggregate=count(),
        )
        assert out.stats.puts == 3  # one write per declared group, always

    def test_trace_independent_of_group_contents(self):
        traces = []
        for rows in ([(1, 0), (2, 0)], [(2, 0), (2, 1)]):
            a = keyed("A", rows)
            b = keyed("B", [(2, 0), (9, 0)])
            out = group_by_aggregate(
                fresh_context(), [a, b], PRED,
                group_table=0, group_attr="key", groups=[1, 2],
                aggregate=count(),
            )
            traces.append(out.trace)
        assert traces[0] == traces[1]

    def test_duplicate_groups_rejected(self):
        a, b = keyed("A", [(1, 0)]), keyed("B", [(1, 0)])
        with pytest.raises(ConfigurationError):
            group_by_aggregate(fresh_context(), [a, b], PRED, 0, "key", [1, 1],
                               count())


class TestValidationBeforeUpload:
    """Both aggregations refuse an aggregate, a group or a predicate that
    cannot apply before anything reaches the host — not mid-scan, at a
    point that depends on where the first match lies."""

    CASES = {
        # case: (relation count, predicate, aggregate, group, error)
        "bad-table": (2, PRED, agg_sum(5, "key"), (5, "key"), ConfigurationError),
        "bad-attribute": (2, PRED, agg_sum(1, "nokey"), (0, "nokey"), SchemaError),
        "predicate-missing-attribute": (
            2, BinaryAsMulti(Equality("nokey")), count(), (0, "key"), SchemaError),
        "binary-over-3": (3, PRED, count(), (0, "key"), ConfigurationError),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("function", ["aggregate_join", "group_by_aggregate"])
    def test_refused_before_upload(self, function, case):
        joined, predicate, aggregate, (group_table, group_attr), error = self.CASES[case]
        tables, _ = workload()
        tables = (tables + tables)[:joined]
        context = fresh_context()
        with pytest.raises(error):
            if function == "aggregate_join":
                aggregate_join(context, tables, predicate, [count(), aggregate])
            else:
                group_by_aggregate(context, tables, predicate, group_table,
                                   group_attr, [1, 2], aggregate)
        assert context.host.region_names() == []
        assert len(context.coprocessor.trace) == 0

    def test_group_by_checks_its_aggregate_too(self):
        tables, _ = workload()
        context = fresh_context()
        with pytest.raises(ConfigurationError):
            group_by_aggregate(context, tables, PRED, 0, "key", [1, 2],
                               agg_max(7, "payload"))
        assert context.host.region_names() == []
