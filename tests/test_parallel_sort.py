"""Tests for the parallel oblivious sort (Section 5.3.5 / Chapter 6)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import KEY

from repro.crypto.provider import FastProvider
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.host import HostMemory
from repro.oblivious.networks import comparator_count, sorting_network
from repro.oblivious.parallel_sort import (
    network_stages,
    parallel_oblivious_sort,
    parallel_sort_makespan,
)


def rig(processors):
    host = HostMemory()
    cluster = Cluster(host, FastProvider(KEY), count=processors)
    return host, cluster


def load(host, cluster, values):
    host.allocate("R", len(values))
    loader = cluster[0]
    for i, v in enumerate(values):
        loader.put("R", i, struct.pack(">q", v))
    for t in cluster:
        t.reset_trace()


def read(cluster, n):
    return [struct.unpack(">q", cluster[0].get("R", i))[0] for i in range(n)]


def key(plaintext):
    return struct.unpack(">q", plaintext)[0]


#: P -> (per-device trace fingerprints, sorted image) of a size-P sort of
#: ``7P, 7(P-1), ..., 7``; the last device runs nothing (the empty trace).
CHUNK_OF_ONE_PINS = {
    2: (["63f804780dc2344d", "e3b0c44298fc1c14"], [7, 14]),
    4: (["960646603f75f323", "91b74627b75cb939", "d3dcceb26c2e58bd",
         "e3b0c44298fc1c14"], [7, 14, 21, 28]),
}


class TestNetworkStages:
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 16])
    def test_stages_preserve_per_wire_order(self, n):
        """ASAP may reorder independent comparators, but the per-wire order —
        the only order a comparator network's function depends on — must be
        preserved."""
        stages = network_stages(n)
        flattened = [c for stage in stages for c in stage]
        assert sorted(flattened) == sorted(sorting_network(n))

        def wire_sequence(comps):
            per_wire = {}
            for low, high in comps:
                per_wire.setdefault(low, []).append((low, high))
                per_wire.setdefault(high, []).append((low, high))
            return per_wire

        assert wire_sequence(flattened) == wire_sequence(sorting_network(n))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_stage_comparators_are_disjoint(self, n):
        for stage in network_stages(n):
            touched = [i for c in stage for i in c]
            assert len(touched) == len(set(touched))

    def test_power_of_two_stage_count(self):
        # Merge-exchange on 2^k inputs has k(k+1)/2 stages.
        for k in range(1, 6):
            assert len(network_stages(1 << k)) == k * (k + 1) // 2


class TestParallelSort:
    @pytest.mark.parametrize("processors,size", [(1, 8), (2, 8), (4, 16), (3, 12)])
    def test_sorts_correctly(self, processors, size):
        host, cluster = rig(processors)
        values = [((i * 37) % 19) - 9 for i in range(size)]
        load(host, cluster, values)
        report = parallel_oblivious_sort(cluster, "R", size, key)
        assert read(cluster, size) == sorted(values)
        assert report.processors == processors

    def test_indivisible_size_rejected(self):
        host, cluster = rig(3)
        load(host, cluster, list(range(8)))
        with pytest.raises(ConfigurationError):
            parallel_oblivious_sort(cluster, "R", 8, key)

    def test_trace_is_data_independent(self):
        traces = []
        for base in (0, 500):
            host, cluster = rig(2)
            load(host, cluster, [base + ((i * 7) % 5) for i in range(8)])
            parallel_oblivious_sort(cluster, "R", 8, key)
            traces.append([t.trace.events[:] for t in cluster])
        assert traces[0] == traces[1]

    def test_makespan_beats_sequential(self):
        """The Chapter 6 goal: parallel sorting is faster than one device."""
        from repro.oblivious.networks import exact_transfers

        size = 64
        for processors in (2, 4, 8):
            makespan = parallel_sort_makespan(size, processors)
            assert makespan < exact_transfers(size)

    def test_report_accounting_matches_traces(self):
        """P in {2, 3, 4}, odd chunks included: the report's total is the
        traced sum, and no device is busier than the modelled makespan (its
        local sort plus at most one merge per stage)."""
        for processors, chunk in [(2, 3), (2, 5), (3, 3), (3, 7), (4, 1), (4, 4), (4, 5)]:
            size = processors * chunk
            host, cluster = rig(processors)
            load(host, cluster, list(range(size, 0, -1)))
            report = parallel_oblivious_sort(cluster, "R", size, key)
            traced = [t.trace.transfer_count() for t in cluster]
            assert report.total == sum(traced)
            assert report.total == (processors * report.local_transfers
                                    + comparator_count(processors)
                                    * report.exchange_transfers)
            assert report.makespan == parallel_sort_makespan(size, processors)
            assert max(traced) <= report.makespan
            assert read(cluster, size) == list(range(1, size + 1))

    @pytest.mark.parametrize("device", [SecureCoprocessor, ReferenceCoprocessor],
                             ids=["batched", "reference"])
    @pytest.mark.parametrize("processors", sorted(CHUNK_OF_ONE_PINS))
    def test_a_chunk_of_one_is_pinned(self, processors, device):
        """size == P: every chunk is one slot and every block merge is one
        comparator of the chunk-level network.  Pinned in both modes."""
        host = HostMemory()
        cluster = Cluster(host, FastProvider(KEY), count=processors, device=device)
        load(host, cluster, [7 * (processors - i) for i in range(processors)])
        parallel_oblivious_sort(cluster, "R", processors, key)
        fingerprints, image = CHUNK_OF_ONE_PINS[processors]
        assert [t.trace.fingerprint()[:16] for t in cluster] == fingerprints
        assert read(cluster, processors) == image

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(min_value=1, max_value=4),
        st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=24),
    )
    def test_sort_property(self, processors, values):
        size = len(values) - (len(values) % processors)
        if size < processors:
            return
        values = values[:size]
        host, cluster = rig(processors)
        load(host, cluster, values)
        parallel_oblivious_sort(cluster, "R", size, key)
        assert read(cluster, size) == sorted(values)
