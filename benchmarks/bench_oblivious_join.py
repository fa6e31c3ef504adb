"""Benchmark the oblivious sort-merge joins; emit BENCH_oblivious_join.json.

Standalone (not a pytest-benchmark module) so CI can run it as a smoke step::

    PYTHONPATH=src python benchmarks/bench_oblivious_join.py --small --check

Walks a ladder of equi-join sizes (n1 = n2 = n, S = n) and measures, under
the SHAKE fast provider:

* Algorithm 4 (sorted cartesian scan, O(n^2 log^2 n^2)) wall-clock and
  transfers;
* Algorithm 7 (expansion sort-merge join, O(n log^2 n + S log^2 S))
  wall-clock and transfers, plus Algorithm 8's foreign-key fast path for
  context;
* the runtime ratio t(alg4) / t(alg7), which the asymptotics say must
  improve as n grows and exceed 1 at the top of the ladder.

Every rung is verified, not just timed: the joined multisets must match the
plaintext reference, traced transfer counts must equal the closed-form
``exact_algorithm7``/``exact_algorithm8`` models, and each oblivious run is
repeated on a second same-(sizes, S) workload to confirm the trace
fingerprint depends only on the public parameters (the Definition 3
obligation).

``--check`` exits non-zero when any verification fails and — on multi-CPU
hosts — when the alg4/alg7 ratio is not (noise-tolerantly) monotone
increasing or Algorithm 7 fails to beat Algorithm 4 outright at the largest
size; single-CPU runners skip the speed gates but still verify correctness,
costs, and privacy. The report records ``host_cpus`` so readers can judge
the numbers in context.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import random
import sys
import time

from _bench_utils import host_cpus

from repro.core.algorithm4 import algorithm4
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext
from repro.costs.oblivious_join import exact_algorithm7, exact_algorithm8
from repro.crypto.provider import FastProvider
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality

KEY = b"bench-oblivious-join-key-001"
PRED = BinaryAsMulti(Equality("key"))
DEFAULT_OUTPUT = (pathlib.Path(__file__).parent / "results"
                  / "BENCH_oblivious_join.json")

SMALL_LADDER = (8, 12, 16, 24)
FULL_LADDER = (8, 16, 24, 32, 48)

#: Tolerated rung-to-rung ratio noise: each ratio may dip to 0.85x the
#: previous one before the monotonicity gate calls it a regression.
NOISE_FLOOR = 0.85


#: Samples per timing, fastest kept: a rung runs in milliseconds, where one
#: sample is mostly scheduler noise and the ratio gate would read that noise.
SAMPLES = 5


def _timed(fn):
    best = float("inf")
    for _ in range(SAMPLES):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _context(seed: int = 0) -> JoinContext:
    return JoinContext.fresh(provider=FastProvider(KEY), seed=seed)


def _verify_privacy(runner, n: int, s: int, max_matches=None) -> str:
    """Two same-(sizes, S) workloads must produce bit-identical traces."""
    fingerprints = []
    for seed in (501, 502):
        wl = equijoin_workload(n, n, s, rng=random.Random(seed),
                               max_matches=max_matches)
        out = runner(_context(), wl)
        fingerprints.append(out.trace.fingerprint())
    if fingerprints[0] != fingerprints[1]:
        raise AssertionError(
            f"privacy violation at n={n}: trace fingerprint depends on "
            "content, not just (n1, n2, S)")
    return fingerprints[0]


def bench_rung(n: int) -> dict:
    """One ladder rung: time + verify all three algorithms at n1=n2=S=n."""
    s = n  # a selective equi-join: one match per left tuple
    wl = equijoin_workload(n, n, s, rng=random.Random(900 + n), max_matches=1)
    reference = nested_loop_join(wl.left, wl.right, Equality("key"))

    t4, out4 = _timed(lambda: algorithm4(_context(), [wl.left, wl.right], PRED))
    t7, out7 = _timed(lambda: algorithm7(_context(), [wl.left, wl.right], PRED))
    t8, out8 = _timed(lambda: algorithm8(_context(), [wl.left, wl.right], PRED))

    for name, out in (("algorithm4", out4), ("algorithm7", out7),
                      ("algorithm8", out8)):
        if not out.result.same_multiset(reference):
            raise AssertionError(f"{name} wrong at n={n}")
    if out7.transfers != exact_algorithm7(n, n, s).total:
        raise AssertionError(f"algorithm7 transfers diverge from the exact "
                             f"model at n={n}")
    if out8.transfers != exact_algorithm8(n, n, s).total:
        raise AssertionError(f"algorithm8 transfers diverge from the exact "
                             f"model at n={n}")

    fingerprint7 = _verify_privacy(
        lambda ctx, w: algorithm7(ctx, [w.left, w.right], PRED), n, s)
    fingerprint8 = _verify_privacy(
        lambda ctx, w: algorithm8(ctx, [w.left, w.right], PRED), n, s,
        max_matches=1)

    return {
        "n": n,
        "S": s,
        "result_tuples": len(reference),
        "algorithm4": {"seconds": round(t4, 4), "transfers": out4.transfers},
        "algorithm7": {"seconds": round(t7, 4), "transfers": out7.transfers,
                       "trace_fingerprint": fingerprint7},
        "algorithm8": {"seconds": round(t8, 4), "transfers": out8.transfers,
                       "trace_fingerprint": fingerprint8},
        "ratio_t4_over_t7": round(t4 / t7, 3),
        "transfer_ratio_4_over_7": round(out4.transfers / out7.transfers, 3),
    }


def run(small: bool) -> dict:
    ladder = SMALL_LADDER if small else FULL_LADDER
    rungs = [bench_rung(n) for n in ladder]
    ratios = [r["ratio_t4_over_t7"] for r in rungs]
    return {
        "benchmark": "oblivious sort-merge join (algorithms 7/8) vs "
                     "sorted cartesian scan (algorithm 4)",
        "scale": "small" if small else "full",
        "provider": "FastProvider",
        "host_cpus": host_cpus(),
        "ladder": rungs,
        "ratios_t4_over_t7": ratios,
        "verified": {
            "results_match_plaintext_reference": True,
            "transfers_match_exact_models": True,
            "traces_content_independent": True,
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--small", action="store_true",
                        help="CI smoke scale (seconds, not minutes)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the alg4/alg7 runtime ratio is "
                             "monotone (with noise tolerance) and > 1 at the "
                             "largest size; speed gates skip on 1-CPU hosts")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_OUTPUT)
    args = parser.parse_args(argv)

    # Correctness, cost-model, and privacy verification happen inside run()
    # and raise on any divergence, with or without --check.
    report = run(small=args.small)
    args.output.parent.mkdir(exist_ok=True)
    args.output.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    for rung in report["ladder"]:
        print(f"n={rung['n']:>3}  alg4 {rung['algorithm4']['seconds']}s "
              f"({rung['algorithm4']['transfers']} tx)  "
              f"alg7 {rung['algorithm7']['seconds']}s "
              f"({rung['algorithm7']['transfers']} tx)  "
              f"alg8 {rung['algorithm8']['seconds']}s  "
              f"ratio t4/t7 = {rung['ratio_t4_over_t7']}")
    print("verified: results == plaintext reference, transfers == exact "
          "models, traces content-independent")
    print(f"report written to {args.output}")

    if args.check:
        if report["host_cpus"] < 2:
            print(f"check passed: correctness/cost/privacy verified "
                  f"(speed gates skipped on a {report['host_cpus']}-CPU host)")
            return 0
        ratios = report["ratios_t4_over_t7"]
        dips = [i for i in range(1, len(ratios))
                if ratios[i] < ratios[i - 1] * NOISE_FLOOR]
        if dips:
            print(f"FAIL: alg4/alg7 runtime ratio not monotone at rung(s) "
                  f"{dips}: {ratios}", file=sys.stderr)
            return 1
        if ratios[-1] <= 1.0:
            print(f"FAIL: algorithm7 did not beat algorithm4 at the largest "
                  f"size (ratio {ratios[-1]})", file=sys.stderr)
            return 1
        print(f"check passed: ratio climbs {ratios[0]} -> {ratios[-1]} and "
              f"algorithm7 wins at n={report['ladder'][-1]['n']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
