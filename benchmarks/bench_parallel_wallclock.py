"""Wall-clock parallel speedup benchmark; emits BENCH_parallel.json.

Standalone (not a pytest-benchmark module) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_parallel_wallclock.py --smoke --check

Measures, for the parallel sort and Algorithms 2-6, the wall-clock
time of the sequential cluster simulation against the multiprocess
:class:`~repro.parallel.executor.ClusterExecutor` at several worker counts,
verifying on every run that the executor is *observationally identical* to
the simulation: same per-coprocessor trace fingerprints, same results, and a
data-independent (privacy-accepted) access pattern.

Every section also measures the sequential simulation on the reference
device (a ``ReferenceCoprocessor`` for every coprocessor): the vectorized hot
path must be trace-identical to the scalar one, and its wall-clock win is
reported as ``batched_vs_scalar``.  The worker runs use the production
configuration (batching on, in the parent and in every pool worker).

``--check`` enforces identity (executor vs simulation, batched vs scalar) and
privacy acceptance, on every host.  Speedups are recorded, next to
``host_cpus`` (``os.cpu_count()`` where the numbers were produced), but not
gated here: the wall-clock verdict on the pool belongs to the benchmark of
record (``parallel.speedup_vs_sequential`` of ``benchmarks/e2e``'s
``parallel_pool`` workload), which measures medians of repeated runs.

Each worker entry also records the executor's IPC accounting
(``bytes_shared`` mapped through shared-memory arenas vs ``bytes_pickled``
through the pickle channel, plus ``tasks_submitted``/``flushes``) so a
regression back toward pickled whole-shard transfers is visible in the JSON.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

from _bench_utils import host_cpus

from repro.core.base import JoinContext
from repro.core.parallel import (
    parallel_algorithm2,
    parallel_algorithm3,
    parallel_algorithm4,
    parallel_algorithm5,
    parallel_algorithm6,
)
from repro.crypto.provider import FastProvider, OcbProvider
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.parallel import ClusterExecutor
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.relational.generate import equijoin_workload
from repro.relational.predicates import BinaryAsMulti, Equality

KEY = b"bench-parallel-wallclock-key"
DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "results" / "BENCH_parallel.json"
WORKER_COUNTS = (1, 2, 4)


def make_provider(name: str):
    return OcbProvider(KEY) if name == "ocb" else FastProvider(KEY)


def rig(processors: int, provider_name: str, batched: bool = True):
    provider = make_provider(provider_name)
    context = JoinContext.fresh(provider=provider, batched_io=batched)
    cluster = Cluster(context.host, provider, count=processors,
                      device=SecureCoprocessor if batched else ReferenceCoprocessor)
    return context, cluster


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def int_key(plaintext: bytes) -> int:
    return int.from_bytes(plaintext, "big")


def load_values(cluster, values):
    cluster.host.allocate("R", len(values))
    for i, v in enumerate(values):
        cluster[0].put("R", i, v.to_bytes(8, "big"))
    for t in cluster:
        t.reset_trace()


def fingerprints(cluster):
    return [t.trace.fingerprint() for t in cluster]


def executor_counters(executor) -> dict:
    return {
        "bytes_shared": executor.bytes_shared,
        "bytes_pickled": executor.bytes_pickled,
        "tasks_submitted": executor.tasks_submitted,
        "flushes": executor.flushes,
    }


def bench_sort(size: int, provider_name: str, processors: int = 4) -> dict:
    """Sequential simulation vs executor wall clock for the parallel sort."""
    values = random.Random(7).sample(range(1 << 30), size)

    _, cluster = rig(processors, provider_name, batched=False)
    load_values(cluster, values)
    scalar_seconds, _ = _timed(
        lambda: parallel_oblivious_sort(cluster, "R", size, int_key)
    )
    scalar_prints = fingerprints(cluster)

    _, cluster = rig(processors, provider_name)
    load_values(cluster, values)
    seq_seconds, seq_report = _timed(
        lambda: parallel_oblivious_sort(cluster, "R", size, int_key)
    )
    seq_prints = fingerprints(cluster)

    runs = {}
    for workers in WORKER_COUNTS:
        _, cluster = rig(processors, provider_name)
        load_values(cluster, values)
        with ClusterExecutor(workers=workers) as executor:
            seconds, report = _timed(lambda: parallel_oblivious_sort(
                cluster, "R", size, int_key, executor=executor
            ))
            counters = executor_counters(executor)
        identical = (
            report == seq_report and fingerprints(cluster) == seq_prints
        )
        runs[str(workers)] = {
            "seconds": round(seconds, 4),
            "speedup": round(seq_seconds / seconds, 3) if seconds else None,
            "identical_to_sequential": identical,
            **counters,
        }
    return {
        "size": size,
        "cluster_processors": processors,
        "sequential_seconds": round(seq_seconds, 4),
        "scalar_sequential_seconds": round(scalar_seconds, 4),
        "batched_vs_scalar": round(scalar_seconds / seq_seconds, 2)
        if seq_seconds else None,
        "batched_identical_to_scalar": seq_prints == scalar_prints,
        "modeled_speedup": round(seq_report.speedup, 2),
        "workers": runs,
    }


def _join_case(name: str, sizes: tuple[int, int], memory: int):
    wl = equijoin_workload(sizes[0], sizes[1], max(2, sizes[0] // 4),
                           rng=random.Random(41))
    predicate = BinaryAsMulti(Equality("key"))
    if name == "algorithm2":
        return lambda context, cluster, executor=None: parallel_algorithm2(
            context, cluster, wl.left, wl.right, Equality("key"),
            n_max=wl.max_matches, memory=memory, executor=executor,
        )
    if name == "algorithm3":
        return lambda context, cluster, executor=None: parallel_algorithm3(
            context, cluster, wl.left, wl.right, "key",
            n_max=wl.max_matches, executor=executor,
        )
    if name == "algorithm4":
        return lambda context, cluster, executor=None: parallel_algorithm4(
            context, cluster, [wl.left, wl.right], predicate,
            executor=executor,
        )
    if name == "algorithm5":
        return lambda context, cluster, executor=None: parallel_algorithm5(
            context, cluster, [wl.left, wl.right], predicate,
            memory=memory, executor=executor,
        )
    return lambda context, cluster, executor=None: parallel_algorithm6(
        context, cluster, [wl.left, wl.right], predicate,
        memory=memory, seed=5, executor=executor,
    )


def bench_join(name: str, sizes: tuple[int, int], memory: int,
               provider_name: str, processors: int = 4) -> dict:
    run_join = _join_case(name, sizes, memory)

    context, cluster = rig(processors, provider_name, batched=False)
    scalar_seconds, scalar_out = _timed(lambda: run_join(context, cluster))
    scalar_prints = fingerprints(cluster)

    context, cluster = rig(processors, provider_name)
    seq_seconds, seq_out = _timed(lambda: run_join(context, cluster))
    seq_prints = fingerprints(cluster)
    batched_identical = (
        seq_prints == scalar_prints
        and seq_out.result.same_multiset(scalar_out.result)
        and seq_out.makespan_transfers == scalar_out.makespan_transfers
    )

    runs = {}
    for workers in WORKER_COUNTS:
        context, cluster = rig(processors, provider_name)
        with ClusterExecutor(workers=workers) as executor:
            seconds, out = _timed(
                lambda: run_join(context, cluster, executor=executor)
            )
            counters = executor_counters(executor)
        identical = (
            out.result.same_multiset(seq_out.result)
            and fingerprints(cluster) == seq_prints
            and out.makespan_transfers == seq_out.makespan_transfers
        )
        runs[str(workers)] = {
            "seconds": round(seconds, 4),
            "speedup": round(seq_seconds / seconds, 3) if seconds else None,
            "identical_to_sequential": identical,
            **counters,
        }
    return {
        "left": sizes[0],
        "right": sizes[1],
        "memory": memory,
        "cluster_processors": processors,
        "sequential_seconds": round(seq_seconds, 4),
        "scalar_sequential_seconds": round(scalar_seconds, 4),
        "batched_vs_scalar": round(scalar_seconds / seq_seconds, 2)
        if seq_seconds else None,
        "batched_identical_to_scalar": batched_identical,
        "modeled_speedup": round(seq_out.speedup, 2),
        "workers": runs,
    }


def check_privacy(provider_name: str, processors: int = 2) -> dict:
    """Per-device traces under the executor must be data-independent."""
    verdicts = {}
    with ClusterExecutor(workers=2) as executor:
        for name in ("algorithm2", "algorithm3", "algorithm4",
                     "algorithm5", "algorithm6"):
            observed = []
            for seed in (301, 302):
                wl = equijoin_workload(8, 8, 4, rng=random.Random(seed))
                predicate = BinaryAsMulti(Equality("key"))
                context, cluster = rig(processors, provider_name)
                if name == "algorithm2":
                    # n_max/memory fixed across data families: public shape
                    # parameters the trace may legitimately depend on.
                    parallel_algorithm2(context, cluster, wl.left, wl.right,
                                        Equality("key"), n_max=4, memory=4,
                                        executor=executor)
                elif name == "algorithm3":
                    # n_max fixed across data families: it is a public shape
                    # parameter, and the trace may legitimately depend on it.
                    parallel_algorithm3(context, cluster, wl.left, wl.right,
                                        "key", n_max=4, executor=executor)
                elif name == "algorithm4":
                    parallel_algorithm4(context, cluster,
                                        [wl.left, wl.right], predicate,
                                        executor=executor)
                elif name == "algorithm5":
                    parallel_algorithm5(context, cluster, [wl.left, wl.right],
                                        predicate, memory=4, executor=executor)
                else:
                    parallel_algorithm6(context, cluster, [wl.left, wl.right],
                                        predicate, memory=4, seed=5,
                                        executor=executor)
                observed.append([list(t.trace.events) for t in cluster])
            verdicts[name] = observed[0] == observed[1]
    return verdicts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--check", action="store_true",
                        help="exit non-zero on identity/privacy failures")
    parser.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUTPUT)
    parser.add_argument("--provider", choices=("ocb", "fast"), default="ocb",
                        help="crypto provider for the measured runs")
    args = parser.parse_args(argv)

    if args.smoke:
        sort_size = 256
        join_sizes = {"algorithm2": (16, 16), "algorithm3": (24, 24),
                      "algorithm4": (12, 12), "algorithm5": (16, 16),
                      "algorithm6": (16, 16)}
    else:
        sort_size = 1024
        join_sizes = {"algorithm2": (48, 48), "algorithm3": (64, 64),
                      "algorithm4": (24, 24), "algorithm5": (48, 48),
                      "algorithm6": (48, 48)}

    cpus = host_cpus()
    report = {
        "benchmark": "parallel wall-clock speedup",
        "host_cpus": cpus,
        "provider": args.provider,
        "smoke": args.smoke,
        "sort": bench_sort(sort_size, args.provider),
        "algorithms": {
            name: bench_join(name, sizes, memory=8,
                             provider_name=args.provider)
            for name, sizes in join_sizes.items()
        },
        "privacy_accepted": check_privacy(args.provider),
    }

    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(report, indent=2) + "\n")
    print(json.dumps(report, indent=2))

    failures = []
    sections = [("sort", report["sort"])] + [
        (name, data) for name, data in report["algorithms"].items()
    ]
    for name, data in sections:
        if not data["batched_identical_to_scalar"]:
            failures.append(
                f"{name} batched sequential run diverged from the scalar one"
            )
        for workers, run in data["workers"].items():
            if not run["identical_to_sequential"]:
                failures.append(
                    f"{name} with {workers} workers diverged from the "
                    "sequential simulation"
                )
    for name, accepted in report["privacy_accepted"].items():
        if not accepted:
            failures.append(f"{name} parallel trace depends on the data")

    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        return 1 if args.check else 0
    print("all checks passed" if args.check else "done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
