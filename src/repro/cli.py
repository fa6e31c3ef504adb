"""Command-line interface: regenerate paper exhibits and run demo joins.

Usage::

    python -m repro table5.1            # print a reproduced table
    python -m repro table5.3
    python -m repro fig4.1 fig5.1 fig5.2 fig5.3 fig5.4
    python -m repro costs --total 640000 --results 6400 --memory 64
    python -m repro demo --algorithm algorithm6 --left 20 --right 20 --results 8
    python -m repro errata              # the paper errata found while reproducing
    python -m repro report              # run the full reproduction report card
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from repro.analysis.figures import figure_4_1, figure_5_1, figure_5_2, figure_5_3, figure_5_4
from repro.analysis.report import render_many_series, render_series, render_table
from repro.analysis.tables import table_5_1_rows, table_5_3_rows

ERRATA = """Paper errata found during reproduction (details in EXPERIMENTS.md):
 1. Algorithm 2: `last := 0` skips a match at B position 0 (we use -1).
 2. Algorithm 5: pseudocode flushes mid-scan, contradicting its own proof;
    the while-loop does not terminate for S = 0 or after the last scan.
 3. Algorithm 6: per-segment flush is M oTuples, not "max(S, M)".
 4. Eq. 5.6: `arg min n` should be the LARGEST feasible n.
 5. Eq. 5.7: the filter log term must be squared (as in Eq. 5.2).
 6. Eq. 5.1: the printed stationarity condition uses log2 where the true
    optimum of the printed cost uses ln (off by a factor ln 2)."""


def _exhibit(name: str) -> str:
    if name == "table5.1":
        return render_table(table_5_1_rows(), title="Table 5.1 (reproduced)")
    if name == "table5.3":
        return render_table(table_5_3_rows(), title="Table 5.3 (reproduced)")
    if name == "fig4.1":
        cells = figure_4_1()
        rows = [
            {"alpha": c.alpha, "gamma": c.gamma, "general": c.general_winner,
             "equijoin": c.equijoin_winner}
            for c in cells
        ]
        return render_table(rows, title="Figure 4.1 winner regions (|B|=10,000)")
    if name == "fig5.1":
        return render_series(figure_5_1(), title="Figure 5.1 (reproduced)")
    if name == "fig5.2":
        return render_series(figure_5_2(), title="Figure 5.2 (reproduced)")
    if name == "fig5.3":
        return render_series(figure_5_3(), title="Figure 5.3 (reproduced)")
    if name == "fig5.4":
        return render_many_series(figure_5_4(), title="Figure 5.4 (reproduced)")
    raise SystemExit(f"unknown exhibit {name!r}")


EXHIBITS = ("table5.1", "table5.3", "fig4.1", "fig5.1", "fig5.2", "fig5.3", "fig5.4")


def _cmd_costs(args: argparse.Namespace) -> None:
    from repro.costs.chapter5 import (
        minimum_cost,
        paper_algorithm4,
        paper_algorithm5,
        paper_algorithm6,
    )
    from repro.costs.smc import smc_cost_tuples

    rows = [
        {"method": "SMC [32]", "transfers": smc_cost_tuples(args.total, args.results).total},
        {"method": "algorithm 4", "transfers": paper_algorithm4(args.total, args.results).total},
        {"method": "algorithm 5",
         "transfers": paper_algorithm5(args.total, args.results, args.memory).total},
        {"method": f"algorithm 6 (eps={args.epsilon:.0e})",
         "transfers": paper_algorithm6(args.total, args.results, args.memory,
                                       args.epsilon).total},
        {"method": "floor (L + S)",
         "transfers": float(minimum_cost(args.total, args.results))},
    ]
    print(render_table(rows, title=(
        f"predicted costs: L={args.total:,}, S={args.results:,}, M={args.memory}"
    )))


def _cmd_demo(args: argparse.Namespace) -> None:
    from repro.core.algorithm4 import algorithm4
    from repro.core.algorithm5 import algorithm5
    from repro.core.algorithm6 import algorithm6
    from repro.core.algorithm7 import algorithm7
    from repro.core.algorithm8 import algorithm8
    from repro.core.base import JoinContext
    from repro.relational.generate import equijoin_workload
    from repro.relational.predicates import BinaryAsMulti, Equality

    workload = equijoin_workload(args.left, args.right, args.results,
                                 rng=random.Random(args.seed))
    predicate = BinaryAsMulti(Equality("key"))
    context = JoinContext.fresh(seed=args.seed)
    if args.algorithm == "algorithm4":
        out = algorithm4(context, [workload.left, workload.right], predicate)
    elif args.algorithm == "algorithm5":
        out = algorithm5(context, [workload.left, workload.right], predicate,
                         memory=args.memory)
    elif args.algorithm == "algorithm7":
        out = algorithm7(context, [workload.left, workload.right], predicate)
    elif args.algorithm == "algorithm8":
        out = algorithm8(context, [workload.left, workload.right], predicate,
                         mode="semi")
    else:
        out = algorithm6(context, [workload.left, workload.right], predicate,
                         memory=args.memory, epsilon=args.epsilon)
    print(f"{args.algorithm}: {len(out.result)} join tuples, "
          f"{out.transfers} T/H transfers")
    # phases carry wall-clock seconds, so they would break the demo's
    # byte-for-byte reproducibility; `repro trace` renders them instead.
    interesting = {k: v for k, v in out.meta.items()
                   if k not in ("algorithm", "phases")}
    print(f"meta: {interesting}")
    print(f"trace fingerprint: {out.trace.fingerprint()[:16]}... "
          f"(depends only on public parameters)")


def _run_workload_join(args: argparse.Namespace, trace_factory=None):
    """Run the demo workload join once; shared by trace/metrics commands."""
    from repro.core.algorithm4 import algorithm4
    from repro.core.algorithm5 import algorithm5
    from repro.core.algorithm6 import algorithm6
    from repro.core.algorithm7 import algorithm7
    from repro.core.base import JoinContext
    from repro.relational.generate import equijoin_workload
    from repro.relational.predicates import BinaryAsMulti, Equality

    workload = equijoin_workload(args.left, args.right, args.results,
                                 rng=random.Random(args.seed))
    predicate = BinaryAsMulti(Equality("key"))
    context = JoinContext.fresh(seed=args.seed, trace_factory=trace_factory)
    if args.algorithm == "algorithm4":
        return algorithm4(context, [workload.left, workload.right], predicate), context
    if args.algorithm == "algorithm5":
        return algorithm5(context, [workload.left, workload.right], predicate,
                          memory=args.memory), context
    if args.algorithm == "algorithm7":
        return algorithm7(context, [workload.left, workload.right], predicate), context
    return algorithm6(context, [workload.left, workload.right], predicate,
                      memory=args.memory, epsilon=args.epsilon), context


def _cmd_trace(args: argparse.Namespace) -> None:
    from repro.analysis.report import render_phase_table, render_table
    from repro.hardware.events import GET, PUT
    from repro.obs.sinks import JsonlTrace, StreamingTrace, one_shot

    factory = None
    if args.sink == "streaming":
        factory = StreamingTrace
    elif args.sink == "jsonl":
        factory = one_shot(lambda: JsonlTrace(args.output))
    out, context = _run_workload_join(args, trace_factory=factory)
    if args.sink == "jsonl":
        out.trace.close()
        print(f"trace written to {args.output}")
    print(f"{args.algorithm}: {len(out.result)} join tuples, sink={args.sink}")
    print(f"fingerprint: {out.trace.fingerprint()}")
    print(f"events: {out.trace.transfer_count()} "
          f"(gets={out.stats.gets}, puts={out.stats.puts})")
    coprocessor = context.coprocessor
    print(f"crypto fast path: {coprocessor.physical_decryptions} physical "
          f"decryptions for {coprocessor.decryptions} modeled "
          f"({coprocessor.cache_hits} cache hits), "
          f"{coprocessor.physical_encryptions} physical encryptions for "
          f"{coprocessor.encryptions} modeled")
    regions = sorted({region for (_, region) in out.stats.by_region})
    region_rows = [
        {
            "region": region,
            "gets": out.stats.by_region.get((GET, region), 0),
            "puts": out.stats.by_region.get((PUT, region), 0),
        }
        for region in regions
    ]
    print(render_table(region_rows, title="transfers by region"))
    phases = out.meta.get("phases")
    if phases:
        print(render_phase_table(phases, title="phase breakdown"))


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import render_table
    from repro.crypto.provider import FastProvider, OcbProvider
    from repro.faults.chaos import run_chaos

    names = args.algorithms.split(",") if args.algorithms else None
    provider = OcbProvider if args.provider == "ocb" else FastProvider
    report = run_chaos(algorithms=names, seed=args.seed, crashes=args.crashes,
                       interval=args.interval, small=args.small,
                       provider=provider)
    if args.json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        rows = [
            {
                "algorithm": a.algorithm,
                "transfers": a.transfers,
                "crashes": len(a.crash_points),
                "attempts": a.attempts,
                "checkpoints": a.checkpoints_sealed,
                "replayed": a.replayed_transfers,
                "verdict": "ok" if a.ok else "FAIL",
            }
            for a in report.algorithms
        ]
        print(render_table(rows, title=(
            f"chaos sweep (seed={report.seed}, interval={report.interval}, "
            f"{'small' if report.small else 'full'})"
        )))
        print("recovered runs match fault-free results, trace fingerprints, "
              "and privacy checks" if report.ok
              else "CHAOS FAILURES — see verdict column")
    if args.check and not report.ok:
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.core.service import JoinService
    from repro.net.server import JoinServer, ServerThread

    service = JoinService(pool_size=args.pool_size,
                          queue_depth=args.queue_depth, memory=args.memory)
    server = JoinServer(
        service, host=args.host, port=args.port,
        max_connections=args.max_connections,
        max_in_flight=args.max_in_flight,
        idle_timeout=args.idle_timeout,
        max_joins=args.max_joins if args.max_joins > 0 else None,
        journal=args.journal or None,
    )
    handle = ServerThread(server).start()
    recovered = int(server.metrics.counter("server_jobs_recovered_total").value)
    journal_note = ""
    if args.journal:
        journal_note = (f", journal={args.journal}"
                        + (f", recovered={recovered}" if recovered else ""))
    print(f"join service listening on {server.host}:{server.port} "
          f"(pool={args.pool_size}, queue={args.queue_depth}"
          f"{journal_note})", flush=True)
    try:
        if args.max_joins > 0:
            handle.join()
            print(f"served {args.max_joins} joins, draining")
        else:
            while True:
                handle.join(timeout=3600)
    except KeyboardInterrupt:
        print("interrupted, shutting down")
    finally:
        handle.stop()
        service.close()
    if args.metrics:
        print(service.metrics.render_prometheus(), end="")
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.core.service import Contract, JoinService, Party
    from repro.net.client import JoinClient
    from repro.net.server import result_fingerprint
    from repro.net.wire import PredicateSpec, encode_relation
    from repro.relational.generate import equijoin_workload

    workload = equijoin_workload(args.left, args.right, args.results,
                                 rng=random.Random(args.seed))
    spec = PredicateSpec.equality("key")
    with JoinClient(args.host, args.port,
                    connect_timeout=args.timeout,
                    request_timeout=args.timeout) as client:
        job = client.submit_join(
            args.contract,
            {"alice": workload.left, "bob": workload.right},
            spec, recipient="carol", algorithm=args.algorithm,
            epsilon=args.epsilon, page_size=args.page_size,
        )
        status = job.wait(timeout=args.timeout)
        delivered = job.result(timeout=args.timeout)
    print(f"{args.algorithm} over the wire: {status.rows} join tuples in "
          f"{status.pages} pages, {status.transfers} T/H transfers")
    print(f"trace fingerprint:  {status.trace_fingerprint}")
    print(f"result fingerprint: {status.result_fingerprint}")
    if not args.verify:
        return 0

    # Re-run the identical join fully in process and require bit-identical
    # fingerprints: the network boundary must not change the join.
    service = JoinService(pool_size=1)
    predicate = spec.build()
    service.register_contract(Contract(
        args.contract, ("alice", "bob"), "carol", predicate.description,
    ))
    service.ingest(Party("alice"), args.contract, workload.left)
    service.ingest(Party("bob"), args.contract, workload.right)
    local = service.execute(args.contract, predicate,
                            algorithm=args.algorithm, epsilon=args.epsilon)
    local_delivered = service.deliver(local, Party("carol"), args.contract)
    service.close()
    _, rows = encode_relation(local_delivered)
    checks = (
        status.trace_fingerprint == local.trace.fingerprint()
        and status.result_fingerprint == result_fingerprint(rows)
        and delivered.same_multiset(local_delivered)
    )
    print("verify: networked result is bit-identical to in-process execute()"
          if checks else "verify: MISMATCH against in-process execute()")
    return 0 if checks else 1


def _cmd_workload(args: argparse.Namespace) -> int:
    import json

    from repro.analysis.report import render_table
    from repro.workloads import WorkloadRunner, get_scenario, list_scenarios

    if args.list:
        rows = [
            {
                "scenario": spec.name,
                "owners": "+".join(spec.owners),
                "queries": ",".join(q.name for q in spec.queries),
                "algorithms": ",".join(sorted({q.algorithm for q in spec.queries})),
                "requests": spec.requests,
                "slo p50/p95 (s)": f"{spec.slo.p50_seconds:g}/{spec.slo.p95_seconds:g}",
            }
            for spec in list_scenarios()
        ]
        print(render_table(rows, title="workload scenario catalog"))
        return 0

    specs = (list_scenarios() if args.scenario == "all"
             else (get_scenario(args.scenario),))
    reports = []
    failures: list[str] = []
    for spec in specs:
        requests = args.requests
        if requests == 0:
            requests = spec.smoke_requests if args.smoke else spec.requests
        # Each scenario journals into its own subdirectory: a restarted
        # server must never replay another scenario's jobs.
        journal_dir = (str(Path(args.journal_dir) / spec.code)
                       if args.journal_dir else None)
        runner = WorkloadRunner(
            spec, mode=args.mode, seed=args.seed, requests=requests,
            pool_size=args.pool_size, queue_depth=args.queue_depth,
            kills=args.kills, journal_dir=journal_dir,
        )
        try:
            report = runner.run(enforce_latency=args.enforce_slo)
        except AssertionError as exc:
            failures.append(str(exc))
            continue
        reports.append(report)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2,
                         sort_keys=True))
    else:
        rows = [
            {
                "scenario": r.scenario,
                "mode": r.mode,
                "ok": r.completed,
                "lost": r.lost,
                "bad": r.incorrect,
                "repeat": r.repeated,
                "p50 (s)": f"{r.latency(0.50):.3f}" if r.completed else "-",
                "p95 (s)": f"{r.latency(0.95):.3f}" if r.completed else "-",
                "rps": f"{r.throughput_rps:.1f}",
                "retries": r.retries,
                **({"kills": r.kills, "recovered": r.recovered_jobs,
                    "faults": r.proxy_faults}
                   if args.mode == "chaosnet" else {}),
            }
            for r in reports
        ]
        if rows:
            print(render_table(rows, title=(
                f"workload run (mode={args.mode}, seed={args.seed})"
            )))
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _cmd_metrics(args: argparse.Namespace) -> None:
    import json

    from repro.obs.metrics import MetricsRegistry, instrument_coprocessor, instrument_join

    registry = MetricsRegistry()
    for _ in range(args.runs):
        out, context = _run_workload_join(args)
        instrument_join(registry, args.algorithm, out)
        instrument_coprocessor(registry, context.coprocessor)
    if args.format == "json":
        print(json.dumps(registry.to_dict(), indent=2, sort_keys=True))
    else:
        print(registry.render_prometheus(), end="")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="Privacy Preserving Joins (ICDE 2008) reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in EXHIBITS:
        sub.add_parser(name, help=f"print the reproduced {name}")

    costs = sub.add_parser("costs", help="predicted costs for a deployment")
    costs.add_argument("--total", type=int, default=640_000, help="L")
    costs.add_argument("--results", type=int, default=6_400, help="S")
    costs.add_argument("--memory", type=int, default=64, help="M")
    costs.add_argument("--epsilon", type=float, default=1e-20)

    demo = sub.add_parser("demo", help="run a real traced join")
    demo.add_argument("--algorithm", default="algorithm5",
                      choices=["algorithm4", "algorithm5", "algorithm6",
                               "algorithm7", "algorithm8"])
    demo.add_argument("--left", type=int, default=20)
    demo.add_argument("--right", type=int, default=20)
    demo.add_argument("--results", type=int, default=8)
    demo.add_argument("--memory", type=int, default=4)
    demo.add_argument("--epsilon", type=float, default=1e-6)
    demo.add_argument("--seed", type=int, default=1)

    def add_workload_args(command: argparse.ArgumentParser) -> None:
        command.add_argument("--algorithm", default="algorithm5",
                             choices=["algorithm4", "algorithm5", "algorithm6",
                                      "algorithm7"])
        command.add_argument("--left", type=int, default=20)
        command.add_argument("--right", type=int, default=20)
        command.add_argument("--results", type=int, default=8)
        command.add_argument("--memory", type=int, default=4)
        command.add_argument("--epsilon", type=float, default=1e-6)
        command.add_argument("--seed", type=int, default=1)

    trace = sub.add_parser(
        "trace", help="run a join and inspect its access trace through a chosen sink"
    )
    add_workload_args(trace)
    trace.add_argument("--sink", default="streaming",
                       choices=["list", "streaming", "jsonl"],
                       help="list: materialized; streaming: O(1) fingerprint; "
                            "jsonl: stream events to --output")
    trace.add_argument("--output", default="trace.jsonl",
                       help="event file path for --sink jsonl")

    metrics = sub.add_parser(
        "metrics", help="run instrumented joins and export the metrics registry"
    )
    add_workload_args(metrics)
    metrics.add_argument("--runs", type=int, default=1)
    metrics.add_argument("--format", default="json", choices=["json", "prom"])

    chaos = sub.add_parser(
        "chaos",
        help="seeded fault sweep: crash every safe algorithm and verify recovery",
    )
    chaos.add_argument("--small", action="store_true",
                       help="CI smoke scale (seconds, not minutes)")
    chaos.add_argument("--check", action="store_true",
                       help="exit 1 unless every algorithm recovers cleanly")
    chaos.add_argument("--json", action="store_true",
                       help="emit the full report as JSON")
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--crashes", type=int, default=3,
                       help="crash points sampled per algorithm")
    chaos.add_argument("--interval", type=int, default=8,
                       help="checkpoint every this many boundary ops")
    chaos.add_argument("--algorithms", default="",
                       help="comma-separated subset (default: all safe algorithms)")
    chaos.add_argument("--provider", default="fast", choices=["fast", "ocb"],
                       help="crypto provider under test (ocb crashes the "
                            "span-cell path)")

    serve = sub.add_parser(
        "serve", help="run the networked join service on a TCP port"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7734,
                       help="TCP port (0 picks a free one)")
    serve.add_argument("--pool-size", type=int, default=4)
    serve.add_argument("--queue-depth", type=int, default=8)
    serve.add_argument("--memory", type=int, default=64,
                       help="coprocessor memory M per join")
    serve.add_argument("--max-connections", type=int, default=64)
    serve.add_argument("--max-in-flight", type=int, default=16)
    serve.add_argument("--idle-timeout", type=float, default=30.0)
    serve.add_argument("--max-joins", type=int, default=0,
                       help="exit after serving this many joins (0: forever)")
    serve.add_argument("--journal", default="",
                       help="directory for the durable job journal; on "
                            "start, unfinished journalled jobs are replayed "
                            "and re-executed bit-identically")
    serve.add_argument("--metrics", action="store_true",
                       help="print the Prometheus registry on exit")

    workload = sub.add_parser(
        "workload",
        help="list or run the production workload scenarios closed-loop",
    )
    workload.add_argument("--list", action="store_true",
                          help="print the scenario catalog and exit")
    workload.add_argument("--scenario", default="all",
                          help="scenario name, or 'all' (default)")
    workload.add_argument("--mode", default="service",
                          choices=["service", "net", "chaosnet"],
                          help="service: in-process fast mode; net: loopback "
                               "TCP; chaosnet: TCP through a fault-injecting "
                               "proxy with mid-run server kill/restart")
    workload.add_argument("--requests", type=int, default=0,
                          help="request count (0: the scenario's own)")
    workload.add_argument("--smoke", action="store_true",
                          help="use each scenario's CI smoke request count")
    workload.add_argument("--seed", type=int, default=0)
    workload.add_argument("--pool-size", type=int, default=4)
    workload.add_argument("--queue-depth", type=int, default=8)
    workload.add_argument("--kills", type=int, default=1,
                          help="chaosnet only: mid-run server kill/restart "
                               "count (journal-backed recovery each time)")
    workload.add_argument("--journal-dir", default="",
                          help="chaosnet only: job journal directory "
                               "(default: a fresh temporary directory)")
    workload.add_argument("--enforce-slo", action="store_true",
                          help="exit 1 on latency SLO breach (zero lost/"
                               "incorrect is always enforced)")
    workload.add_argument("--json", action="store_true",
                          help="emit full per-scenario reports as JSON")

    submit = sub.add_parser(
        "submit", help="submit a demo workload join to a running server"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7734)
    submit.add_argument("--algorithm", default="algorithm5",
                        choices=["algorithm4", "algorithm5", "algorithm6",
                                 "algorithm7"])
    submit.add_argument("--left", type=int, default=20)
    submit.add_argument("--right", type=int, default=20)
    submit.add_argument("--results", type=int, default=8)
    submit.add_argument("--seed", type=int, default=1)
    submit.add_argument("--epsilon", type=float, default=1e-20)
    submit.add_argument("--page-size", type=int, default=16)
    submit.add_argument("--contract", default="c-cli-demo")
    submit.add_argument("--timeout", type=float, default=60.0)
    submit.add_argument("--verify", action="store_true",
                        help="re-run in process and require bit-identical "
                             "fingerprints")

    sub.add_parser("errata", help="paper errata found during reproduction")
    sub.add_parser("report", help="run the full reproduction report card")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in EXHIBITS:
            print(_exhibit(args.command))
        elif args.command == "costs":
            _cmd_costs(args)
        elif args.command == "demo":
            _cmd_demo(args)
        elif args.command == "trace":
            _cmd_trace(args)
        elif args.command == "metrics":
            _cmd_metrics(args)
        elif args.command == "chaos":
            return _cmd_chaos(args)
        elif args.command == "serve":
            return _cmd_serve(args)
        elif args.command == "workload":
            return _cmd_workload(args)
        elif args.command == "submit":
            return _cmd_submit(args)
        elif args.command == "errata":
            print(ERRATA)
        elif args.command == "report":
            from repro.analysis.verification import render_report, verify_reproduction

            statuses = verify_reproduction()
            print(render_report(statuses))
            if not all(s.ok for s in statuses):
                return 1
    except BrokenPipeError:  # e.g. piping into `head`
        return 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
