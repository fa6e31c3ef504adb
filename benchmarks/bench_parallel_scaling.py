"""Parallel scaling: the Sections 4.4.4 / 5.3.5 linear-speedup claims.

Measures real traced executions across 1/2/4 coprocessors for Algorithm 2
(A partitioned), Algorithm 4's scan phase (iTuples partitioned), and the
parallel sort (local sorts + staged block merge-splits), publishing the
speedup table and asserting near-linear scaling where the paper claims it.
"""

import random
import struct

from _bench_utils import publish

from repro.analysis.report import render_table
from repro.core.base import JoinContext
from repro.core.parallel import parallel_algorithm2, parallel_algorithm4
from repro.crypto.provider import FastProvider
from repro.hardware.cluster import Cluster
from repro.hardware.host import HostMemory
from repro.oblivious.networks import exact_transfers
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality

KEY = b"parallel-bench-key-0123456789"


def _rig(processors):
    provider = FastProvider(KEY)
    context = JoinContext.fresh(provider=provider)
    return context, Cluster(context.host, provider, count=processors)


def test_parallel_scaling(benchmark):
    workload = equijoin_workload(16, 16, 10, rng=random.Random(11), max_matches=2)
    predicate = BinaryAsMulti(Equality("key"))

    def run():
        rows = []
        for processors in (1, 2, 4):
            context, cluster = _rig(processors)
            out2 = parallel_algorithm2(context, cluster, workload.left, workload.right,
                                       Equality("key"), workload.max_matches, memory=2)
            context, cluster = _rig(processors)
            out4 = parallel_algorithm4(context, cluster,
                                       [workload.left, workload.right], predicate)
            # Parallel sort on 64 encrypted slots.
            host = HostMemory()
            sort_cluster = Cluster(host, FastProvider(KEY), count=processors)
            host.allocate("R", 64)
            for i in range(64):
                sort_cluster[0].put("R", i, struct.pack(">q", 64 - i))
            for t in sort_cluster:
                t.reset_trace()
            report = parallel_oblivious_sort(
                sort_cluster, "R", 64, key=lambda p: struct.unpack(">q", p)[0]
            )
            rows.append({
                "P": processors,
                "alg2 speedup": out2.speedup,
                "alg4 scan speedup": out4.speedup,
                "sort makespan": report.makespan,
                "sort vs 1 coprocessor": exact_transfers(64) / report.makespan,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    publish("parallel_scaling",
            render_table(rows, title="Parallel scaling (measured speedups)"))
    by_p = {row["P"]: row for row in rows}
    # Section 4.4.4: Algorithm 2 parallelizes with linear speedup.
    assert by_p[2]["alg2 speedup"] > 1.9
    assert by_p[4]["alg2 speedup"] > 3.8
    # Algorithm 4's scan phase partitions evenly.
    assert by_p[4]["alg4 scan speedup"] > 3.5
    # The parallel sort beats a single device once P >= 2.
    assert by_p[2]["sort vs 1 coprocessor"] > 1.0
    assert by_p[4]["sort vs 1 coprocessor"] > by_p[2]["sort vs 1 coprocessor"]
