"""Tests for the parallel oblivious decoy filter (Section 5.3.5)."""

import struct

import pytest

from tests.conftest import KEY

from repro.core.base import decoy_priority, is_real, make_decoy, make_real
from repro.crypto.provider import FastProvider
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.host import HostMemory
from repro.oblivious.parallel_filter import parallel_oblivious_filter


def rig(processors):
    host = HostMemory()
    cluster = Cluster(host, FastProvider(KEY), count=processors)
    return host, cluster


def load(host, cluster, flags):
    host.allocate("src", len(flags))
    loader = cluster[0]
    reals = 0
    for i, flag in enumerate(flags):
        if flag:
            loader.put("src", i, make_real(struct.pack(">q", i)))
            reals += 1
        else:
            loader.put("src", i, make_decoy(8))
    for t in cluster:
        t.reset_trace()
    return reals


def kept_payloads(cluster, region, keep):
    return {cluster[0].get(region, i)[1:] for i in range(keep)}


class TestParallelFilter:
    @pytest.mark.parametrize("processors", [1, 2, 4])
    @pytest.mark.parametrize(
        "flags", [
            [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0],
            [0] * 16,
            [1] * 8 + [0] * 8,
        ],
    )
    def test_keeps_all_reals(self, processors, flags):
        host, cluster = rig(processors)
        reals = load(host, cluster, flags)
        report = parallel_oblivious_filter(
            cluster, "src", len(flags), keep=reals, delta=3,
            priority=decoy_priority,
        )
        expected = {struct.pack(">q", i) for i, f in enumerate(flags) if f}
        assert kept_payloads(cluster, report.buffer_region, reals) == expected
        for i in range(reals):
            assert is_real(cluster[0].get(report.buffer_region, i))

    def test_parallel_mode_engaged(self):
        host, cluster = rig(2)
        reals = load(host, cluster, [1, 0] * 10)
        report = parallel_oblivious_filter(
            cluster, "src", 20, keep=reals, delta=2, priority=decoy_priority,
        )
        assert report.parallel
        assert report.buffer_size % 2 == 0
        assert report.sorts >= 2
        # Both coprocessors did filter work.
        assert all(t.trace.transfer_count() > 0 for t in cluster)

    def test_serial_fallback_when_unsatisfiable(self):
        host, cluster = rig(4)
        reals = load(host, cluster, [1, 0, 0])  # buffer can't reach a multiple of 4
        report = parallel_oblivious_filter(
            cluster, "src", 3, keep=reals, delta=1, priority=decoy_priority,
        )
        assert not report.parallel
        # Buffer of 2, one refill: two sorts of one comparator (4 transfers).
        assert report.sorts == 2
        assert report.makespan == cluster[0].trace.transfer_count() == 8
        assert kept_payloads(cluster, report.buffer_region, reals) == {
            struct.pack(">q", 0)
        }

    def test_trace_is_data_independent(self):
        observed = []
        for flags in ([1, 1, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 1, 1]):
            host, cluster = rig(2)
            reals = load(host, cluster, flags)
            parallel_oblivious_filter(cluster, "src", len(flags), keep=reals,
                                      delta=2, priority=decoy_priority)
            observed.append([list(t.trace.events) for t in cluster])
        assert observed[0] == observed[1]

    def test_invalid_keep(self):
        host, cluster = rig(2)
        load(host, cluster, [1, 0])
        with pytest.raises(ConfigurationError):
            parallel_oblivious_filter(cluster, "src", 2, keep=3, delta=1,
                                      priority=decoy_priority)


class TestParallelAlgorithm4Integration:
    def test_filter_runs_in_parallel_inside_algorithm4(self):
        import random

        from repro.core.base import JoinContext
        from repro.core.parallel import parallel_algorithm4
        from repro.relational.generate import equijoin_workload
        from repro.relational.joins import nested_loop_join
        from repro.relational.predicates import BinaryAsMulti, Equality

        wl = equijoin_workload(8, 8, 6, rng=random.Random(66))
        provider = FastProvider(KEY)
        context = JoinContext.fresh(provider=provider)
        cluster = Cluster(context.host, provider, count=2)
        out = parallel_algorithm4(context, cluster, [wl.left, wl.right],
                                  BinaryAsMulti(Equality("key")))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        assert out.result.same_multiset(reference)
        assert out.meta["filter_parallel"] is True
