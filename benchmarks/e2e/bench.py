"""The end-to-end benchmark of record: five workloads, one command.

    python3 benchmarks/e2e/bench.py --workload all --seed 0
    python3 benchmarks/e2e/bench.py --workload sort_bound --seed 3 --seconds 10 --trace 1

One workload per process: seeded inputs, a cold set-up, a closed-loop timed
section with tracing off, every answer verified, every metric printed by name
with its unit, one JSON report, and as the last line of stdout the result
object the acceptance driver reads.  ``--trace 1`` runs the separate traced
pass instead (spans into ``trace.json``, the per-layer metrics).  ``--workload
all`` and ``--repeat N`` run that single-workload command in child processes
and fold the reports into one.  See README.md in this directory.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()       # set-up time is counted from process start

import argparse
import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"bench.py: no program to measure: {REPO_ROOT / 'src' / 'repro'} "
             "is missing")
sys.path[:0] = [str(HERE), str(REPO_ROOT / "src")]

from repro.parallel import SEGMENT_PREFIX

import harness
import probes
import workloads
from harness import Ledger, Tracer, median
from workloads import PHASE_ALIASES, SORT_PHASES, Tally, Workload

#: A cycle slower than this multiple of the median is flagged as noise.
NOISY_CYCLE = 1.5
#: Cold set-ups measured per run: this process plus this many children.
EXTRA_SETUPS = 1


# -- end-to-end ---------------------------------------------------------------------

def cold_setup_seconds(args: argparse.Namespace) -> float:
    """Set-up time of a fresh process: imports and caches start cold."""
    done = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"cold set-up failed: {done.stderr[-500:]}")
    return json.loads(done.stdout.splitlines()[-1])["setup_s"]


# -- per-layer ----------------------------------------------------------------------

def on_clock(tally: Tally) -> float:
    return sum(sum(samples) for samples in tally.latencies.values())


def book_requests(ledger: Ledger, tracer: Tracer, outcomes: list,
                  execute_span: str) -> None:
    """core.*, hardware.* and faults.* from one traced pass's spans, the
    ``meta["phases"]`` of its answers and the counters sampled beside them."""
    joins = sum(1 for s in tracer.spans if s["layer"] == "request")
    execute_s = tracer.mean_seconds(execute_span, joins)
    ledger.set("core.service.ingest_s", tracer.mean_seconds("core.service.ingest", joins))
    ledger.set("core.service.execute_s", execute_s)
    ledger.set("core.service.deliver_s", tracer.mean_seconds("core.service.deliver", joins))
    phase_s = sort_s = 0.0
    runs: dict[str, int] = {}
    for outcome in outcomes:
        runs[outcome.shape.algorithm] = runs.get(outcome.shape.algorithm, 0) + 1
    for outcome in outcomes:
        algorithm = outcome.shape.algorithm
        for phase, row in outcome.phases.items():
            # An undeclared phase name makes the ledger raise: the contract
            # lists every phase each algorithm reports.
            phase = PHASE_ALIASES.get((algorithm, phase), phase)
            ledger.add(f"core.{algorithm}.{phase}_s", row["seconds"] / runs[algorithm])
            ledger.add(f"core.{algorithm}.{phase}_transfers",
                       row["transfers"] / runs[algorithm])
            phase_s += row["seconds"]
            if (algorithm, phase) in SORT_PHASES:
                sort_s += row["seconds"]
    ledger.set("core.service.overhead_s", execute_s - phase_s / joins)
    ledger.set("oblivious.sort_share", sort_s / (execute_s * joins))

    total: dict[str, float] = {}
    for sample in tracer.counters:
        for name, value in sample.items():
            if name != "request_id":
                total[name] = total.get(name, 0.0) + value
    get = lambda name: total.get(name, 0.0)
    ledger.set("core.service.rejected_total", get("service_jobs_rejected_total"))
    ledger.set("hardware.batched_ops", get("crypto_batched_ops_total") / joins)
    ledger.set("hardware.batch_rows", get("crypto_batch_rows_total") / joins)
    if get("crypto_batched_ops_total"):
        ledger.set("hardware.rows_per_batch",
                   get("crypto_batch_rows_total") / get("crypto_batched_ops_total"))
    if get("crypto_decryptions_total"):
        ledger.set("hardware.cache_hit_ratio",
                   get("crypto_cache_hits_total") / get("crypto_decryptions_total"))
    ledger.set("hardware.physical_decryptions",
               get("crypto_physical_decryptions_total") / joins)
    ledger.set("hardware.transfers_per_s",
               (get("crypto_encryptions_total") + get("crypto_decryptions_total"))
               / (execute_s * joins))
    ledger.set("faults.checkpoints_sealed", get("checkpoints_sealed_total") / joins)
    ledger.set("faults.replayed_transfers", get("replayed_transfers_total") / joins)
    ledger.set("faults.recovery_attempts", get("recovery_attempts_total") / joins)
    ledger.set("faults.crashes", get("recovery_crashes_total") / joins)
    if get("tasks_submitted"):
        moved = get("bytes_shared") + get("bytes_pickled")
        ledger.set("parallel.bytes_shared", get("bytes_shared") / joins)
        ledger.set("parallel.bytes_pickled", get("bytes_pickled") / joins)
        ledger.set("parallel.shared_ratio", get("bytes_shared") / moved if moved else 0.0)
        ledger.set("parallel.tasks_submitted", get("tasks_submitted") / joins)
        ledger.set("parallel.flushes", get("flushes") / joins)


def book_net(ledger: Ledger, workload: workloads.NetSmallJobs, tracer: Tracer,
             untraced: Tally) -> None:
    """net.* from the traced pass, the clients' own counters and one probe."""
    joins = sum(1 for s in tracer.spans if s["layer"] == "request")
    ledger.set("net.client.submit_s", tracer.mean_seconds("net.client.submit", joins))
    ledger.set("net.client.wait_s", tracer.mean_seconds("net.client.wait", joins))
    ledger.set("net.client.fetch_s", tracer.mean_seconds("net.client.fetch", joins))
    samples = [x for v in untraced.latencies.values() for x in v]
    ledger.set("net.client.latency_p95_s", harness.percentile(samples, 0.95))
    client = {}
    for connection in workload.clients:
        for name, value in workloads.family_totals(connection.metrics).items():
            client[name] = client.get(name, 0.0) + value
        for family, kind, key, metric in connection.metrics:
            if family == "client_requests_total" and ("type", "Status") in key:
                client["status_polls"] = client.get("status_polls", 0.0) + metric.value
    submitted = client.get("client_joins_submitted_total", 0.0) + joins
    ledger.set("net.client.polls_per_join", client.get("status_polls", 0.0) / submitted)
    ledger.set("net.client.retries_total", client.get("client_retries_total", 0.0))
    ledger.set("net.client.bytes_written_per_join",
               client.get("client_bytes_written_total", 0.0) / submitted)
    ledger.set("net.client.bytes_read_per_join",
               client.get("client_bytes_read_total", 0.0) / submitted)
    ledger.set("net.server.request_rtt_s", workload.probe_request_rtt(probes.MICRO_CALLS))


def book_server_dump(ledger: Ledger, workload: workloads.NetSmallJobs) -> None:
    """net.server.* counters, known only once the server has shut down."""
    dump = workload.server_metrics
    completed = dump.get("server_joins_completed_total", 0.0)
    ledger.set("net.server.joins_completed_total", completed)
    ledger.set("net.server.saturated_total",
               dump.get('server_errors_total{code="saturated"}', 0.0))
    if completed:
        ledger.set("net.server.frames_per_join",
                   dump.get("server_frames_total", 0.0) / completed)
        ledger.set("net.journal.bytes_per_join", workload.journal_bytes / completed)


def dominance(workload: Workload, ledger_view: dict) -> dict:
    """Does the layer each *why* names as dominant hold >= 60 % of traced
    time, and the layer named as bypassed <= 15 %?"""
    share = ledger_view["layer_share"]
    dominant = sum(share.get(layer, 0.0) for layer in workload.dominant)
    bypassed = sum(share.get(layer, 0.0) for layer in workload.bypassed)
    return {"dominant_layers": workload.dominant, "dominant_share": dominant,
            "bypassed_layers": workload.bypassed, "bypassed_share": bypassed,
            "holds": dominant >= 0.60 and bypassed <= 0.15}


def traced_pass(workload: Workload, ledger: Ledger, tally: Tally) -> dict:
    """One untraced cycle, the same cycle traced, then the layer probes."""
    untraced = Tally()
    workload.cycle(untraced)
    tracer, traced = Tracer(), Tally()
    outcomes = workload.cycle(traced, tracer=tracer)
    for part in (untraced, traced):
        tally.attempted += part.attempted
        tally.failed += part.failed
        tally.failures += part.failures
    ledger.set("obs.trace_overhead_ratio", on_clock(traced) / on_clock(untraced))

    if isinstance(workload, workloads.NetSmallJobs):
        book_net(ledger, workload, tracer, untraced)
        replay, replay_tracer = workload.replay(), Tracer()
        replays = [replay.attempt(replay.requests[0], tally, False, replay_tracer)
                   for _ in range(probes.MICRO_CALLS)]
        book_requests(ledger, replay_tracer, [o for o in replays if o],
                      replay.execute_span)
    else:
        book_requests(ledger, tracer, outcomes, workload.execute_span)
    if isinstance(workload, workloads.ParallelPool):
        ledger.set("parallel.pool_start_s", workload.pool_start_s)
        ledger.set("parallel.speedup_vs_sequential",
                   workload.sequential_cycle(tally) / on_clock(untraced))
    probes.run_probes(workload, ledger)
    if getattr(workload, "checkpoint_interval", None):
        # The exec probe replays this workload's first shape, so the first
        # execute span is the same request under checkpointing and a crash.
        checkpointed = next(
            s["end"] - s["start"] for s in tracer.spans
            if s["name"] == workload.execute_span)
        ledger.set("faults.checkpoint_overhead_ratio",
                   checkpointed / ledger.get("hardware.scalar_exec_s"))
    view = tracer.ledger()
    view["dominance"] = dominance(workload, view)
    view["untraced_on_clock_s"] = on_clock(untraced)
    view["traced_on_clock_s"] = on_clock(traced)
    return {"tracer": tracer, "ledger": view}


# -- one workload, one process ------------------------------------------------------

def run_single(args: argparse.Namespace) -> int:
    contract = harness.load_contract()
    cls = workloads.WORKLOADS[args.workload]
    host = harness.host_record(args.seed)
    warnings = []
    if cls.needs_two_cpus and host["host_cpus"] < 2:
        warnings.append(f"{cls.name} needs >= 2 CPUs to mean anything; this host "
                        f"has {host['host_cpus']}")
    declared = contract["per_layer"] if args.trace else contract["end_to_end"]
    ledger = Ledger(declared)
    tally = Tally()
    workload = cls(args.seed)
    traced: dict = {}
    try:
        workload.setup(tally)
        setup_samples = [time.perf_counter() - _T0]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        # A warm-up that fails verification leaves nothing worth measuring.
        measurable = not tally.failed
        if measurable and args.trace:
            traced = traced_pass(workload, ledger, tally)
        elif measurable:
            workload.timed(args.seconds, tally)
            measurable = all(tally.latencies.get(s.label) for s in workload.shapes)
    finally:
        workload.teardown()
    if not measurable:
        for line in tally.failures:
            print(f"FAILED: {line}", file=sys.stderr)
        return 1

    harness.stop_resource_tracker()
    leaks = [f"child process {pid} still alive" for pid in harness.live_children()]
    leaks += [f"shared-memory segment {name} left in /dev/shm"
              for name in harness.leaked_segments(SEGMENT_PREFIX)]
    report = {
        "schema": 1, "workload": workload.name, "why": workload.why,
        "trace": args.trace, "seconds": args.seconds, "host": host,
    }
    if args.trace:
        if isinstance(workload, workloads.NetSmallJobs):
            book_server_dump(ledger, workload)
        report["ledger"] = traced["ledger"]
        trace_path = harness.OUT_DIR / f"trace-{workload.name}.json"
        harness.OUT_DIR.mkdir(exist_ok=True)
        trace_path.write_text(json.dumps({
            "workload": workload.name, "seed": args.seed,
            "spans": traced["tracer"].spans,
            "counters": traced["tracer"].counters,
            "ledger": traced["ledger"]}, indent=1))
        report["trace_json"] = str(trace_path.relative_to(REPO_ROOT))
    else:
        # Sampled before the extra cold set-ups run as children of their own.
        ledger.set("peak_rss_mb", harness.peak_rss_mib())
        setup_samples += [cold_setup_seconds(args) for _ in range(EXTRA_SETUPS)]
        ledger.set("setup_s", median(setup_samples))
        ledger.set("joins_per_s", workload.joins_per_s(tally))
        ledger.set("latency_p50_s", workload.latency_s(tally))
        ledger.set("transfers_per_join", workload.transfers_per_join(tally))
        typical = median(tally.cycle_walls) if tally.cycle_walls else 0.0
        report.update({
            "timed_wall_s": tally.timed_wall, "setup_samples_s": setup_samples,
            "cycle_walls_s": tally.cycle_walls,
            "samples": {k: len(v) for k, v in tally.latencies.items()},
            "latency_quartiles_s": {k: harness.quartiles(v)
                                    for k, v in tally.latencies.items()},
            "noisy_cycles": [i for i, wall in enumerate(tally.cycle_walls)
                             if wall > NOISY_CYCLE * typical],
        })
        if report["noisy_cycles"]:
            warnings.append(f"cycles {report['noisy_cycles']} ran over "
                            f"{NOISY_CYCLE}x the median cycle: noisy neighbour?")
    host["load_after"] = harness.load_average()
    failures = tally.failures + leaks
    failed = tally.failed + len(leaks)
    report.update({
        "ops_attempted": tally.attempted, "ops_failed": failed,
        "failed_share": failed / tally.attempted, "failures": failures,
        "warnings": warnings, "metrics": ledger.as_metrics(),
    })
    output = pathlib.Path(args.output) if args.output else (
        harness.OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(report, indent=1) + "\n")

    print(f"# {workload.name}  seed={args.seed}  trace={args.trace}  "
          f"host_cpus={host['host_cpus']}  python={host['python']}")
    for name, metric in report["metrics"].items():
        print(f"{name:<44} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{'ops_attempted':<44} {tally.attempted:>16d} count")
    print(f"{'ops_failed':<44} {failed:>16d} count")
    print(f"{'failed_share':<44} {report['failed_share']:>16.6g} ratio")
    if args.trace:
        view = report["ledger"]
        for layer, share in view["layer_share"].items():
            print(f"ledger {layer:<37} {share:>16.4f} share of traced wall")
        print(f"ledger {'unaccounted':<37} {view['unaccounted_share']:>16.4f} "
              "share of traced wall")
        print(f"dominance: {json.dumps(view['dominance'])}")
    for line in warnings:
        print(f"WARNING: {line}", file=sys.stderr)
    for line in failures:
        print(f"FAILED: {line}", file=sys.stderr)
    print(f"report: {output}")
    print(json.dumps({"correct": failed == 0, "attempted": tally.attempted,
                      "failed": failed, "metrics": report["metrics"]}))
    return 0 if failed == 0 else 1


# -- all workloads, repeats ---------------------------------------------------------

def run_many(args: argparse.Namespace, names: list[str]) -> int:
    """Run each workload in its own process ``--repeat`` times; fold the reports."""
    harness.OUT_DIR.mkdir(exist_ok=True)
    combined = {"schema": 1, "seed": args.seed, "repeat": args.repeat,
                "trace": args.trace, "seconds": args.seconds,
                "host": harness.host_record(args.seed), "workloads": {}}
    status = 0
    for name in names:
        runs = []
        for repeat in range(args.repeat):
            path = harness.OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}-run{repeat}.json"
            done = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace), "--output", str(path)],
                stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write("\n".join(done.stdout.splitlines()[:-1]) + "\n")
            if not path.exists():
                print(f"FAILED: {name} run {repeat} produced no report", file=sys.stderr)
                status = 1
                continue
            status = status or done.returncode
            runs.append(json.loads(path.read_text()))
        summary = {}
        for metric in (runs[0]["metrics"] if runs else {}):
            values = [run["metrics"][metric]["value"] for run in runs]
            q1, q2, q3 = harness.quartiles(values)
            summary[metric] = {"unit": runs[0]["metrics"][metric]["unit"],
                               "median": q2, "q1": q1, "q3": q3, "values": values}
        combined["workloads"][name] = {
            "metrics": summary,
            "ops_attempted": sum(run["ops_attempted"] for run in runs),
            "ops_failed": sum(run["ops_failed"] for run in runs),
            "runs": runs,
        }
    combined["host"]["load_after"] = harness.load_average()
    output = pathlib.Path(args.output) if args.output else (
        harness.OUT_DIR / f"e2e-seed{args.seed}-trace{args.trace}.json")
    output.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"combined report: {output}")
    attempted = sum(w["ops_attempted"] for w in combined["workloads"].values())
    failed = sum(w["ops_failed"] for w in combined["workloads"].values())
    print(json.dumps({
        "correct": status == 0 and failed == 0, "attempted": attempted,
        "failed": failed,
        "metrics": {f"{name}.{metric}": {"value": row["median"], "unit": row["unit"]}
                    for name, w in combined["workloads"].items()
                    for metric, row in w["metrics"].items()}}))
    return status


def main(argv: list[str] | None = None) -> int:
    contract = harness.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"],
                        help="length of the timed section")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced pass: per-layer metrics and trace.json")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload; the report keeps median and quartiles")
    parser.add_argument("--output", default="", help="report path (default: out/)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all" or args.repeat > 1:
        return run_many(args, names if args.workload == "all" else [args.workload])
    return run_single(args)


if __name__ == "__main__":
    sys.exit(main())
