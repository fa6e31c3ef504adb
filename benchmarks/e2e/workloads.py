"""The five workloads: seeded inputs, one request driver each, verification.

Every workload is a fixed, seeded request sequence driven closed-loop.  The
untraced driver calls the API a user of the system would call
(``JoinService.ingest``/``execute``/``deliver``, ``JoinClient.submit_join``,
``parallel_algorithmN``); the traced driver makes the same request stage by
stage so a span can be recorded around each call into a layer.  Either way
every answer is verified, off the clock, before the next request starts.
"""

from __future__ import annotations

import itertools
import os
import random
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.core.base import JoinContext
from repro.core.parallel import (
    parallel_algorithm4,
    parallel_algorithm5,
    parallel_algorithm6,
)
from repro.core.service import Contract, JoinService, Party
from repro.costs.oblivious_join import exact_algorithm7, exact_algorithm8
from repro.crypto.provider import OcbProvider
from repro.errors import ReproError
from repro.faults.plan import crash_plan
from repro.hardware.cluster import Cluster
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.net.client import JoinClient, RemoteJob
from repro.net.server import result_fingerprint
from repro.net.wire import (
    PredicateSpec,
    SubmitJoin,
    Submitted,
    Upload,
    encode_relation,
)
from repro.obs.metrics import MetricsRegistry, instrument_coprocessor
from repro.parallel import ClusterExecutor
from repro.parallel.shard import TaskIO
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import Equality
from repro.relational.relation import Relation

from harness import OUT_DIR, REPO_ROOT, Tracer, median

OWNERS = ("alice", "bob")
RECIPIENT = "carol"
#: Keys of the unmatched left rows that pad a grouped workload; far above
#: anything ``equijoin_workload`` hands out, and even like its unique keys.
_PAD_KEY = 1 << 40

#: Phases that are comparator networks (ledger layer ``oblivious``); every
#: other phase is scan/emit work (ledger layer ``core.algorithm``).
SORT_PHASES = frozenset({
    ("algorithm4", "filter"), ("algorithm6", "filter"),
    ("algorithm7", "sort"), ("algorithm7", "partition"),
    ("algorithm7", "expand_left"), ("algorithm7", "expand_right"),
    ("algorithm8", "sort"), ("algorithm8", "align"),
})
#: The parallel Algorithm 5 counts S in a separate ``screen`` pass; it is a
#: cartesian scan, so it is booked with ``scan``.
PHASE_ALIASES = {("algorithm5", "screen"): "scan"}

EXACT_MODELS = {"algorithm7": exact_algorithm7, "algorithm8": exact_algorithm8}

#: Counter families sampled at request boundaries in the traced pass.
COUNTER_FAMILIES = (
    "crypto_encryptions_total", "crypto_decryptions_total",
    "crypto_physical_decryptions_total", "crypto_cache_hits_total",
    "crypto_batched_ops_total", "crypto_batch_rows_total",
    "checkpoints_sealed_total", "replayed_transfers_total",
    "recovery_attempts_total", "recovery_crashes_total",
    "service_jobs_rejected_total",
)


def family_totals(registry: MetricsRegistry) -> dict[str, float]:
    """Every counter/gauge family of a registry summed over its labels."""
    totals: dict[str, float] = {}
    for family, kind, _key, metric in registry:
        if kind in ("counter", "gauge"):
            totals[family] = totals.get(family, 0.0) + metric.value
    return totals


def parse_prometheus(text: str, prefix: str = "repro_") -> dict[str, float]:
    """A ``--metrics`` dump as family totals plus each labelled series.

    ``server_frames_total`` is the sum over its labels;
    ``server_errors_total{code="saturated"}`` is that one series.  Histogram
    series are skipped.
    """
    totals: dict[str, float] = {}
    for line in text.splitlines():
        if not line.startswith(prefix):
            continue
        series, _, value = line[len(prefix):].rpartition(" ")
        family = series.split("{", 1)[0]
        if family.endswith(("_bucket", "_sum", "_count")):
            continue
        try:
            number = float(value)
        except ValueError:
            continue
        totals[family] = totals.get(family, 0.0) + number
        if series != family:
            totals[series] = number
    return totals


# -- shapes, requests, verification ------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """The public parameters of one request: all a trace may depend on."""

    label: str
    algorithm: str
    n1: int
    n2: int
    results: int
    group: int = 1          # right rows sharing each matching left key
    memory: int = 64
    epsilon: float = 1e-20
    crash_at: int = 0       # host op index of the injected crash (0 = none)


@dataclass(frozen=True)
class Pins:
    """What every run of one request must reproduce bit for bit.

    ``result_fp`` is ``None`` while only the content-perturbed sibling has
    run: it pins the trace and the transfers, never the result.
    """

    result_fp: str | None
    trace_fp: Any
    transfers: int


@dataclass
class Request:
    shape: Shape
    left: Relation
    right: Relation
    reference: Relation
    pins: Pins | None = None


@dataclass
class Outcome:
    shape: Shape
    latency: float
    delivered: Relation
    observed: Pins
    phases: dict[str, dict[str, Any]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def make_inputs(shape: Shape, rng: random.Random,
                group: int | None = None) -> tuple[Relation, Relation]:
    """Two keyed relations whose equi-join has exactly ``shape.results`` rows."""
    group = group or shape.group
    if group == 1:
        wl = equijoin_workload(shape.n1, shape.n2, shape.results, rng=rng,
                               max_matches=1)
        return wl.left, wl.right
    matched = shape.results // group
    wl = equijoin_workload(matched, shape.n2, shape.results, rng=rng,
                           max_matches=group)
    rows = [record.values for record in wl.left]
    rows += [(_PAD_KEY + 2 * i, rng.randrange(1 << 30))
             for i in range(shape.n1 - matched)]
    rng.shuffle(rows)
    return Relation.from_values(wl.left.schema, rows), wl.right


def make_request(shape: Shape, stream: str, group: int | None = None) -> Request:
    left, right = make_inputs(shape, random.Random(stream), group)
    return Request(shape, left, right,
                   nested_loop_join(left, right, Equality("key")))


def submit_frame(request: Request, spec: PredicateSpec, contract_id: str,
                 page_size: int, token: str) -> SubmitJoin:
    """What ``JoinClient.submit_join`` frames: uploads encrypted client side."""
    return SubmitJoin(
        contract_id=contract_id, data_owners=OWNERS, recipient=RECIPIENT,
        predicate=spec,
        uploads=tuple(
            Upload(owner, relation.schema,
                   tuple(Party(owner).encrypt_upload(contract_id, relation)))
            for owner, relation in zip(OWNERS, (request.left, request.right))),
        algorithm=request.shape.algorithm, epsilon=request.shape.epsilon,
        page_size=page_size, token=token)


def fingerprint_relation(relation: Relation) -> str:
    return result_fingerprint(encode_relation(relation)[1])


def verify(request: Request, outcome: Outcome) -> list[str]:
    """Reasons this answer is wrong; the first verified run pins the rest."""
    shape = request.shape
    problems = list(outcome.problems)
    if not outcome.delivered.same_multiset(request.reference):
        problems.append("result differs from the plaintext nested-loop join")
    model = EXACT_MODELS.get(shape.algorithm)
    if model is not None and outcome.observed.transfers != model(
            shape.n1, shape.n2, shape.results).total:
        problems.append("transfers differ from the exact cost model")
    if problems:
        return problems
    if request.pins is None:
        request.pins = outcome.observed
    elif request.pins.result_fp is None:
        request.pins = replace(request.pins,
                               result_fp=outcome.observed.result_fp)
    if outcome.observed != request.pins:
        problems.append(
            f"not bit-identical to the pinned run: {outcome.observed} "
            f"vs {request.pins}")
    return problems


class Tally:
    """Attempted/failed counts and the timed samples of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies: dict[str, list[float]] = {}
        #: (completion time, latency) of every timed, verified request.
        self.stamps: list[tuple[float, float]] = []
        self.cycle_walls: list[float] = []
        self.transfers: dict[str, int] = {}
        self.started = 0.0
        self.timed_wall = 0.0
        self._lock = threading.Lock()

    def record(self, request: Request, outcome: Outcome | None,
               problems: list[str], timed: bool) -> None:
        label = request.shape.label
        with self._lock:
            self.attempted += 1
            if problems:
                self.failed += 1
                self.failures.append(f"{label}: {'; '.join(problems)}")
            if outcome is not None:
                self.transfers[label] = outcome.observed.transfers
                if timed and not problems:
                    self.latencies.setdefault(label, []).append(outcome.latency)
                    self.stamps.append((time.perf_counter(), outcome.latency))


# -- workloads -----------------------------------------------------------------------

class Workload:
    """One fixed request sequence; subclasses supply the request driver."""

    name = ""
    why = ""
    shapes: tuple[Shape, ...] = ()
    #: The request replayed on ``JoinContext.fresh(batched_io=False/True)``
    #: for ``hardware.*_exec_s`` — reduced where a full-size scalar run would
    #: not fit the traced pass.
    exec_probe: Shape
    #: Ledger layers the *why* names as dominant / as bypassed.
    dominant: tuple[str, ...] = ()
    bypassed: tuple[str, ...] = ()
    needs_two_cpus = False
    predicate_spec = PredicateSpec.equality("key")
    #: Name of the span around the call that runs the join.
    execute_span = "core.service.execute"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.predicate = self.predicate_spec.build()
        self.requests: list[Request] = []
        self._contracts = 0

    # -- lifecycle --------------------------------------------------------------
    def setup(self, tally: Tally) -> None:
        """Inputs, plaintext references, program start, one warm-up cycle."""
        self.requests = [
            make_request(shape, f"{self.seed}/{self.name}/{shape.label}")
            for shape in self.shapes
        ]
        self.start()
        self.warm_up(tally)

    def warm_up(self, tally: Tally) -> None:
        """The warm-up cycle runs a content-perturbed sibling of each shape.

        Same (n1, n2, S), other keys, other payloads, for alg 7 another match
        grouping.  The sibling's trace fingerprint and transfer count become
        the request's pins, so every timed run also shows that the trace
        depends on the public parameters alone.
        """
        for request in self.requests:
            shape = request.shape
            sibling = make_request(
                shape, f"{self.seed}/{self.name}/{shape.label}/sibling", group=1)
            if self.attempt(sibling, tally, timed=False) and sibling.pins:
                request.pins = replace(sibling.pins, result_fp=None)

    def start(self) -> None:
        """Start whatever the program needs running (service, pool, server)."""

    def teardown(self) -> None:
        """Stop it again; safe to call after a failed setup."""

    # -- driving ----------------------------------------------------------------
    def request(self, request: Request, tracer: Tracer | None) -> Outcome:
        raise NotImplementedError

    def attempt(self, request: Request, tally: Tally, timed: bool,
                tracer: Tracer | None = None, **driver: Any) -> Outcome | None:
        """One request plus its off-the-clock verification."""
        try:
            outcome = self.request(request, tracer, **driver)
        except (ReproError, OSError) as exc:
            tally.record(request, None, [f"{type(exc).__name__}: {exc}"], timed)
            return None
        if tracer is None:
            problems = verify(request, outcome)
        else:
            with tracer.span("bench.verify", "bench"):
                problems = verify(request, outcome)
        tally.record(request, outcome, problems, timed)
        return outcome

    def cycle(self, tally: Tally, timed: bool = True,
              tracer: Tracer | None = None) -> list[Outcome]:
        """Every shape once, in order; books the on-the-clock cycle wall."""
        outcomes = [self.attempt(r, tally, timed, tracer) for r in self.requests]
        done = [o for o in outcomes if o is not None]
        if timed and len(done) == len(outcomes):
            tally.cycle_walls.append(sum(o.latency for o in done))
        return done

    def timed(self, seconds: float, tally: Tally) -> None:
        """Closed loop, one caller: whole cycles until ``seconds`` have passed."""
        tally.started = time.perf_counter()
        while True:
            self.cycle(tally)
            tally.timed_wall = time.perf_counter() - tally.started
            if tally.timed_wall >= seconds:
                return

    # -- results ----------------------------------------------------------------
    # Interference on a shared host only ever adds time, and it comes in
    # phases of seconds to tens of seconds; the fastest sample of each shape
    # is the steadiest estimate of what the program itself costs.
    def joins_per_s(self, tally: Tally) -> float:
        """Shapes per cycle over a cycle made of each shape's fastest request."""
        return len(self.shapes) / sum(
            min(tally.latencies[s.label]) for s in self.shapes)

    def latency_s(self, tally: Tally) -> float:
        """The median over shapes of each shape's fastest request."""
        return median(min(samples) for samples in tally.latencies.values())

    def transfers_per_join(self, tally: Tally) -> float:
        return sum(tally.transfers[s.label] for s in self.shapes) / len(self.shapes)

    def next_contract(self) -> str:
        self._contracts += 1
        return f"c{self._contracts}"      # at most 16 bytes: the upload header


def _phase_children(algorithm: str, phases: dict[str, dict[str, Any]],
                    layer: str | None = None) -> list[tuple[str, str, float]]:
    """meta["phases"] as derived child spans of the execute span."""
    children = []
    for phase, row in phases.items():
        phase = PHASE_ALIASES.get((algorithm, phase), phase)
        span_layer = layer or (
            "oblivious" if (algorithm, phase) in SORT_PHASES else "core.algorithm")
        children.append((f"core.{algorithm}.{phase}", span_layer, row["seconds"]))
    return children


class ServiceWorkload(Workload):
    """In-process ``JoinService``: register → ingest → execute → deliver → release."""

    memory = 64

    def start(self) -> None:
        self.service = JoinService(memory=self.memory, pool_size=1)

    def service_for(self, shape: Shape) -> JoinService:
        return self.service

    def request(self, request: Request, tracer: Tracer | None) -> Outcome:
        shape = request.shape
        relations = dict(zip(OWNERS, (request.left, request.right)))
        contract_id = self.next_contract()
        if tracer is None:
            start = time.perf_counter()
            service = self.service_for(shape)
            service.register_contract(Contract(
                contract_id, OWNERS, RECIPIENT, self.predicate.description))
            for owner, relation in relations.items():
                service.ingest(Party(owner), contract_id, relation)
            result = service.execute(contract_id, self.predicate,
                                     algorithm=shape.algorithm,
                                     epsilon=shape.epsilon)
            delivered = service.deliver(result, Party(RECIPIENT), contract_id)
            service.release_contract(contract_id)
            latency = time.perf_counter() - start
        else:
            request_id = f"{self.name}/{contract_id}"
            with tracer.span("request", "request", request_id) as root:
                service = self.service_for(shape)
                before = family_totals(service.metrics)
                service.register_contract(Contract(
                    contract_id, OWNERS, RECIPIENT, self.predicate.description))
                with tracer.span("net.client.encrypt_upload", "net.client"):
                    uploads = {owner: Party(owner).encrypt_upload(contract_id, rel)
                               for owner, rel in relations.items()}
                with tracer.span("core.service.ingest", "core.service"):
                    for owner, relation in relations.items():
                        service.ingest_upload(owner, contract_id,
                                              relation.schema, uploads[owner])
                with tracer.span("core.service.execute", "core.service") as span:
                    result = service.execute(contract_id, self.predicate,
                                             algorithm=shape.algorithm,
                                             epsilon=shape.epsilon)
                with tracer.span("core.service.deliver", "core.service"):
                    delivered = service.deliver(result, Party(RECIPIENT),
                                                contract_id)
                service.release_contract(contract_id)
            latency = root["end"] - root["start"]
            after = family_totals(service.metrics)
            tracer.sample(request_id, {
                name: after.get(name, 0.0) - before.get(name, 0.0)
                for name in COUNTER_FAMILIES})
            self.derive_execute(tracer, span, shape, result.meta.get("phases", {}))
        outcome = Outcome(
            shape=shape, latency=latency, delivered=delivered,
            observed=Pins(fingerprint_relation(delivered),
                          result.trace.fingerprint(), result.transfers),
            phases=result.meta.get("phases", {}),
        )
        self.inspect(service, shape, outcome)
        return outcome

    def derive_execute(self, tracer: Tracer, span: dict[str, Any], shape: Shape,
                       phases: dict[str, dict[str, Any]]) -> None:
        tracer.derive(span, _phase_children(shape.algorithm, phases))

    def inspect(self, service: JoinService, shape: Shape, outcome: Outcome) -> None:
        """Workload-specific checks on the service that ran the request."""


class SortBound(ServiceWorkload):
    name = "sort_bound"
    why = ("About 3/4 of the time is comparator networks (oblivious sort, alg 7 "
           "partition/expansion sorts, alg 8 union sort, alg 4 filter); cartesian "
           "scan work is under 10 %.")
    shapes = (
        Shape("alg7_512", "algorithm7", 512, 512, 512, group=4),
        Shape("alg8_1024", "algorithm8", 1024, 1024, 1024),
        Shape("alg4_48", "algorithm4", 48, 48, 48),
    )
    exec_probe = Shape("alg7_32", "algorithm7", 32, 32, 32)
    dominant = ("oblivious",)
    bypassed = ("core.algorithm",)


class ScanBound(ServiceWorkload):
    name = "scan_bound"
    why = ("General predicate, so only the cartesian algorithms apply: scan and "
           "random_scan (ranged gets, columnar decode, predicate evaluation) "
           "dominate and the sort network does under 15 %.")
    memory = 16
    predicate_spec = PredicateSpec("band", ("key",), threshold=0.0)
    shapes = (
        Shape("alg5_128", "algorithm5", 128, 128, 128, memory=16),
        Shape("alg6_128", "algorithm6", 128, 128, 128, memory=16, epsilon=1e-6),
    )
    exec_probe = shapes[0]
    dominant = ("core.algorithm",)
    bypassed = ("oblivious",)


class CheckpointedRecovery(ServiceWorkload):
    name = "checkpointed_recovery"
    why = ("The same hardware/crypto layer on its other path: scalar get/put, "
           "sealed checkpoints and journal replay after one seeded crash per "
           "join; inputs are 16x smaller because this path is 25-150x slower "
           "per transfer.")
    memory = 16
    shapes = (
        Shape("alg7_32", "algorithm7", 32, 32, 32, memory=16, crash_at=5000),
        Shape("alg5_48", "algorithm5", 48, 48, 48, memory=16, crash_at=9000),
    )
    exec_probe = shapes[0]
    dominant = ("faults", "oblivious", "core.algorithm")
    bypassed = ("net.client", "net.server")
    checkpoint_interval = 4096

    def start(self) -> None:
        """Nothing persistent: every request gets a fresh crashing service."""

    def service_for(self, shape: Shape) -> JoinService:
        host = FaultyHost(HostMemory(), crash_plan([shape.crash_at]))
        return JoinService(memory=self.memory, host=host, pool_size=1,
                           checkpoint_interval=self.checkpoint_interval)

    def derive_execute(self, tracer, span, shape, phases) -> None:
        # meta["phases"] covers only the attempt that finished; the rest of
        # execute() is the crashed attempt, checkpoint sealing and replay.
        children = _phase_children(shape.algorithm, phases)
        survived = sum(seconds for _, _, seconds in children)
        lost = max(0.0, span["end"] - span["start"] - survived)
        tracer.derive(span, [("faults.recovery", "faults", lost)] + children)

    def inspect(self, service, shape, outcome) -> None:
        crashes = family_totals(service.metrics).get("recovery_crashes_total", 0)
        if crashes != 1:
            outcome.problems.append(
                f"expected exactly one injected crash, saw {crashes:g}")


def _no_work(coprocessor, index_range, worker) -> None:
    """The empty shard task that makes the executor fork its workers."""


class ParallelPool(Workload):
    name = "parallel_pool"
    why = ("The only workload that crosses repro.parallel: shared-memory arenas, "
           "packed result blobs and pool IPC on one warm two-worker executor.")
    shapes = (
        Shape("palg4_64", "algorithm4", 64, 64, 16),
        Shape("palg5_96", "algorithm5", 96, 96, 24, memory=8),
        Shape("palg6_96", "algorithm6", 96, 96, 24, memory=8),
    )
    exec_probe = Shape("alg4_24", "algorithm4", 24, 24, 6)
    dominant = ("parallel",)
    bypassed = ("net.client", "net.server", "core.service")
    needs_two_cpus = True
    execute_span = "core.parallel.execute"
    workers = 2
    key = b"bench-e2e-parallel-key"

    def start(self) -> None:
        """Create the executor and time an empty round: the pool's start."""
        provider = OcbProvider(self.key)
        cluster = Cluster(HostMemory(), provider, count=self.workers)
        start = time.perf_counter()
        self.executor = ClusterExecutor(workers=self.workers)
        self.executor.run_partitioned(
            cluster, self.workers, _no_work, lambda span, worker: TaskIO(reads={}))
        self.pool_start_s = time.perf_counter() - start

    def teardown(self) -> None:
        executor = getattr(self, "executor", None)
        if executor is not None:
            executor.close()

    def run_join(self, request: Request, executor: ClusterExecutor | None):
        shape = request.shape
        provider = OcbProvider(self.key)
        context = JoinContext.fresh(provider=provider)
        cluster = Cluster(context.host, provider, count=self.workers)
        relations = [request.left, request.right]
        if shape.algorithm == "algorithm4":
            out = parallel_algorithm4(context, cluster, relations,
                                      self.predicate, executor=executor)
        elif shape.algorithm == "algorithm5":
            out = parallel_algorithm5(context, cluster, relations, self.predicate,
                                      memory=shape.memory, executor=executor)
        else:
            out = parallel_algorithm6(context, cluster, relations, self.predicate,
                                      memory=shape.memory, executor=executor)
        return out, cluster

    def request(self, request: Request, tracer: Tracer | None,
                pooled: bool = True) -> Outcome:
        executor = self.executor if pooled else None
        if tracer is None:
            start = time.perf_counter()
            out, cluster = self.run_join(request, executor)
            latency = time.perf_counter() - start
        else:
            request_id = f"{self.name}/{self.next_contract()}"
            before = self.executor_counters()
            with tracer.span("request", "request", request_id) as root:
                with tracer.span(self.execute_span, "core.service") as span:
                    out, cluster = self.run_join(request, executor)
            latency = root["end"] - root["start"]
            registry = MetricsRegistry()
            for device in cluster:
                instrument_coprocessor(registry, device)
            totals = family_totals(registry)
            after = self.executor_counters()
            tracer.sample(request_id, {
                **{name: totals.get(name, 0.0) for name in COUNTER_FAMILIES},
                **{name: after[name] - before[name] for name in after}})
            tracer.derive(span, _phase_children(
                request.shape.algorithm, out.meta.get("phases", {}),
                layer="parallel" if pooled else None))
        return Outcome(
            shape=request.shape, latency=latency, delivered=out.result,
            observed=Pins(fingerprint_relation(out.result),
                          tuple(t.trace.fingerprint() for t in cluster),
                          out.total_transfers),
            phases=out.meta.get("phases", {}),
        )

    def executor_counters(self) -> dict[str, float]:
        e = self.executor
        return {"bytes_shared": e.bytes_shared, "bytes_pickled": e.bytes_pickled,
                "tasks_submitted": e.tasks_submitted, "flushes": e.flushes}

    def sequential_cycle(self, tally: Tally) -> float:
        """The cycle on the sequential simulation (``executor=None``).

        Verified against the pooled runs' pins, so it also shows the executor
        and the simulation to be bit-identical; returns its on-the-clock wall.
        """
        outcomes = [self.attempt(request, tally, False, pooled=False)
                    for request in self.requests]
        return sum(outcome.latency for outcome in outcomes if outcome)


class NetSmallJobs(Workload):
    name = "net_small_jobs"
    why = ("The join is under 1 ms, so client encrypt, wire codec, admission, "
           "journal fsync, status polling and paging are nearly all of the "
           "latency: the front five layers the in-process workloads bypass.")
    shapes = (Shape("alg5_16", "algorithm5", 16, 16, 8, memory=16),)
    exec_probe = shapes[0]
    dominant = ("net.client", "net.server")
    bypassed = ("core.algorithm", "oblivious")
    needs_two_cpus = True
    connections = 2
    distinct = 4            # distinct inputs per connection, cycled
    warmup_jobs = 15        # per connection
    page_size = 4           # S = 8 rows come back as two pages
    traced_jobs = 100       # per connection, in the traced pass
    window_jobs = 100       # the timed section is judged window by window

    def setup(self, tally: Tally) -> None:
        shape = self.shapes[0]
        self.requests = []
        self.by_client: list[list[Request]] = []
        self.execute_estimates: list[float] = []
        for index in range(self.connections):
            mine = [make_request(
                shape, f"{self.seed}/{self.name}/{index}/{k}")
                for k in range(self.distinct)]
            for request in mine:
                request.pins = self.reference_pins(request)
            self.by_client.append(mine)
            self.requests.extend(mine)
        self.execute_estimate = median(self.execute_estimates)
        self.start()
        self.warm_up(tally)

    def warm_up(self, tally: Tally) -> None:
        """Warm-up jobs, then one content-perturbed sibling over the wire: same
        (n1, n2, S), other content, so the in-process pins must still hold."""
        self.closed_loop(lambda done: done >= self.warmup_jobs, tally, timed=False)
        pinned = self.requests[0]
        sibling = make_request(pinned.shape, f"{self.seed}/{self.name}/sibling")
        sibling.pins = replace(pinned.pins, result_fp=None)
        self.attempt(sibling, tally, timed=False)

    def reference_pins(self, request: Request) -> Pins:
        """The same join run fully in process: the fingerprints to match."""
        shape = request.shape
        service = JoinService(memory=shape.memory, pool_size=1)
        service.register_contract(Contract(
            "ref", OWNERS, RECIPIENT, self.predicate.description))
        service.ingest(Party(OWNERS[0]), "ref", request.left)
        service.ingest(Party(OWNERS[1]), "ref", request.right)
        start = time.perf_counter()
        result = service.execute("ref", self.predicate, algorithm=shape.algorithm,
                                 epsilon=shape.epsilon)
        self.execute_estimates.append(time.perf_counter() - start)
        delivered = service.deliver(result, Party(RECIPIENT), "ref")
        return Pins(fingerprint_relation(delivered), result.trace.fingerprint(),
                    result.transfers)

    def start(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        self.journal_dir = tempfile.mkdtemp(prefix="journal-", dir=OUT_DIR)
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--journal", self.journal_dir, "--pool-size", "2",
             "--memory", str(self.shapes[0].memory), "--metrics"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env, cwd=str(OUT_DIR),
        )
        ready, _, _ = select.select([self.server.stdout], [], [], 60)
        banner = self.server.stdout.readline() if ready else ""
        if "listening on" not in banner:
            raise RuntimeError(f"join server did not start: {banner!r}")
        port = int(banner.split("listening on ")[1].split()[0].rsplit(":", 1)[1])
        self.clients = [JoinClient("127.0.0.1", port)
                        for _ in range(self.connections)]
        self.serials = [itertools.count() for _ in range(self.connections)]

    def teardown(self) -> None:
        """SIGINT the server, parse its ``--metrics`` dump, drop the journal."""
        for client in getattr(self, "clients", []):
            client.close()
        server = getattr(self, "server", None)
        if server is not None and not hasattr(self, "server_metrics"):
            if server.poll() is None:
                server.send_signal(signal.SIGINT)
            try:
                output, _ = server.communicate(timeout=60)
            except subprocess.TimeoutExpired:
                server.kill()
                output, _ = server.communicate()
            self.server_metrics = parse_prometheus(output)
        journal_dir = getattr(self, "journal_dir", None)
        if journal_dir and os.path.isdir(journal_dir):
            self.journal_bytes = sum(
                entry.stat().st_size for entry in os.scandir(journal_dir))
            shutil.rmtree(journal_dir)

    # -- driving ----------------------------------------------------------------
    def request(self, request: Request, tracer: Tracer | None,
                index: int = 0) -> Outcome:
        shape = request.shape
        client = self.clients[index]
        contract_id = f"net{index}"
        relations = dict(zip(OWNERS, (request.left, request.right)))
        if tracer is None:
            start = time.perf_counter()
            job = client.submit_join(
                contract_id, relations, self.predicate_spec, RECIPIENT,
                algorithm=shape.algorithm, epsilon=shape.epsilon,
                page_size=self.page_size)
            status = job.wait(timeout=60)
            pages = list(job.pages(timeout=60))
            latency = time.perf_counter() - start
        else:
            # Doubles as the idempotency token, so it must never repeat.
            request_id = f"{self.name}/{index}/{next(self.serials[index])}"
            with tracer.span("request", "request", request_id) as root:
                with tracer.span("net.client.encrypt_upload", "net.client"):
                    frame = submit_frame(request, self.predicate_spec, contract_id,
                                         self.page_size, request_id)
                with tracer.span("net.client.submit", "net.server"):
                    reply = client.request(frame)
                if not isinstance(reply, Submitted):
                    raise ReproError(f"expected Submitted, got {reply!r}")
                job = RemoteJob(client=client, job_id=reply.job_id,
                                token=request_id, submit_frame=frame)
                with tracer.span("net.client.wait", "net.client") as wait:
                    status = job.wait(timeout=60)
                with tracer.span("net.client.fetch", "net.client"):
                    pages = list(job.pages(timeout=60))
            latency = root["end"] - root["start"]
            # The join itself runs server-side while the client polls; its
            # share of the wait is estimated from the in-process replay.
            estimate = min(self.execute_estimate, wait["end"] - wait["start"])
            tracer.derive(wait, [("core.service.execute~", "core.algorithm",
                                  estimate)])
        rows = tuple(row for page in pages for row in page.rows)
        delivered = Relation(pages[0].schema)
        for page in pages:
            delivered.extend(page.relation())
        outcome = Outcome(
            shape=shape, latency=latency, delivered=delivered,
            observed=Pins(result_fingerprint(rows), status.trace_fingerprint,
                          status.transfers))
        if status.result_fingerprint != outcome.observed.result_fp:
            outcome.problems.append(
                "pages do not re-assemble to the server's result fingerprint")
        return outcome

    def replay(self) -> ServiceWorkload:
        """The net shape on an in-process service, for the layers the wire hides."""
        replay = ServiceWorkload(self.seed)
        replay.name = f"{self.name}.replay"
        replay.memory = self.shapes[0].memory
        replay.requests = self.requests[:1]
        replay.start()
        return replay

    def probe_request_rtt(self, calls: int) -> float:
        """Median round trip of a prebuilt ``SubmitJoin`` on an idle server."""
        request, client = self.requests[0], self.clients[0]
        samples = []
        for call in range(calls):
            token = f"{self.name}/rtt/{call}"
            frame = submit_frame(request, self.predicate_spec, "net0",
                                 self.page_size, token)
            start = time.perf_counter()
            reply = client.request(frame)
            samples.append(time.perf_counter() - start)
            job = RemoteJob(client=client, job_id=reply.job_id, token=token,
                            submit_frame=frame)
            list(job.pages(timeout=60))     # drain, so the job is delivered
        return median(samples)

    def closed_loop(self, stop: Callable[[int], bool], tally: Tally,
                    timed: bool = True, tracer: Tracer | None = None) -> float:
        """One closed-loop thread per connection until ``stop(done)``."""
        crashes: list[BaseException] = []

        def run(index: int) -> None:
            done = 0
            try:
                while not stop(done):
                    self.attempt(self.by_client[index][done % self.distinct],
                                 tally, timed, tracer, index=index)
                    done += 1
            except BaseException as exc:  # re-raised on the caller's thread
                crashes.append(exc)

        threads = [threading.Thread(target=run, args=(index,))
                   for index in range(self.connections)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        if crashes:
            raise crashes[0]
        return wall

    def cycle(self, tally: Tally, timed: bool = True,
              tracer: Tracer | None = None) -> list[Outcome]:
        """The traced pass's unit of work: ``traced_jobs`` per connection."""
        self.closed_loop(lambda done: done >= self.traced_jobs, tally, timed,
                         tracer)
        return []

    def timed(self, seconds: float, tally: Tally) -> None:
        tally.started = time.perf_counter()
        deadline = tally.started + seconds
        tally.timed_wall = self.closed_loop(
            lambda done: time.perf_counter() >= deadline, tally)

    def windows(self, tally: Tally) -> list[tuple[float, list[float]]]:
        """The timed section in windows of ``window_jobs`` consecutive
        completions: (wall from the previous window's end, latencies)."""
        stamps = sorted(tally.stamps)
        size = min(self.window_jobs, len(stamps))
        cut, opened = [], tally.started
        for first in range(0, len(stamps) - size + 1, size):
            window = stamps[first:first + size]
            cut.append((window[-1][0] - opened, [lat for _, lat in window]))
            opened = window[-1][0]
        return cut

    # The same best-sample rule as the in-process workloads, with a window of
    # closed-loop traffic in the place of a cycle.
    def joins_per_s(self, tally: Tally) -> float:
        """Completed joins per second in the fastest window."""
        return max(len(latencies) / wall for wall, latencies in self.windows(tally))

    def latency_s(self, tally: Tally) -> float:
        """The median latency of the window where it is lowest."""
        return min(median(latencies) for _, latencies in self.windows(tally))


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (
        SortBound, ScanBound, NetSmallJobs, CheckpointedRecovery, ParallelPool)
}
