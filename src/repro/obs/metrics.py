"""A small metrics registry: counters, gauges, histograms.

Where trace sinks answer *what did T touch, in what order*, metrics answer
*where do transfers and time go* across many runs: joins served, transfers
per algorithm, per-phase timings.  No external dependencies — the registry
exports plain dicts (JSON) and the Prometheus text exposition format, so a
deployment can scrape it with standard tooling or snapshot it in tests.

Label handling follows the Prometheus model: a metric name plus a sorted
label set identifies one time series; ``registry.counter("x", algo="a")`` and
``registry.counter("x", algo="b")`` are distinct series under one family.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import ConfigurationError

#: Default histogram buckets, tuned for transfer counts and sub-second spans.
DEFAULT_BUCKETS = (
    0.005, 0.05, 0.5, 1.0, 10.0, 100.0, 1_000.0, 10_000.0,
    100_000.0, 1_000_000.0, 10_000_000.0,
)

LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, str]) -> LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _render_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = key + extra
    if not pairs:
        return ""
    inner = ",".join(f'{name}="{value}"' for name, value in pairs)
    return "{" + inner + "}"


@dataclass
class Counter:
    """A monotonically increasing count (transfers, runs, events).

    Mutations take a per-series lock so concurrent joins (the service's
    coprocessor pool) never lose increments.
    """

    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ConfigurationError("counters only go up; use a gauge")
        with self._lock:
            self.value += amount


@dataclass
class Gauge:
    """A value that can go up and down (slots in use, last result size)."""

    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self.value -= amount


@dataclass
class Histogram:
    """Observations bucketed by upper bound, with running sum and count."""

    buckets: tuple[float, ...] = DEFAULT_BUCKETS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    observations: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if list(self.buckets) != sorted(self.buckets):
            raise ConfigurationError("histogram bucket bounds must be sorted")
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)  # + overflow bucket

    def observe(self, value: float) -> None:
        with self._lock:
            self.counts[bisect_left(self.buckets, value)] += 1
            self.total += value
            self.observations += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper_bound, cumulative_count) pairs, ending with +Inf."""
        out = []
        running = 0
        for bound, count in zip(self.buckets, self.counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.counts[-1]))
        return out


class MetricsRegistry:
    """Named, labelled metric families with JSON and Prometheus export."""

    def __init__(self, prefix: str = "repro") -> None:
        self.prefix = prefix
        self._families: dict[str, tuple[str, str, dict[LabelKey, Any]]] = {}
        # Guards family/series creation; series mutations take per-series
        # locks, so registry lookups and increments from concurrent joins
        # are both safe.
        self._registry_lock = threading.Lock()

    # -- creation / lookup ---------------------------------------------------
    def _series(self, kind: str, name: str, help_text: str, labels: dict[str, str],
                factory) -> Any:
        with self._registry_lock:
            family = self._families.get(name)
            if family is None:
                family = (kind, help_text, {})
                self._families[name] = family
            elif family[0] != kind:
                raise ConfigurationError(
                    f"metric {name!r} already registered as a {family[0]}"
                )
            series = family[2]
            key = _label_key(labels)
            if key not in series:
                series[key] = factory()
            return series[key]

    def counter(self, name: str, help_text: str = "", **labels: str) -> Counter:
        return self._series("counter", name, help_text, labels, Counter)

    def gauge(self, name: str, help_text: str = "", **labels: str) -> Gauge:
        return self._series("gauge", name, help_text, labels, Gauge)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._series(
            "histogram", name, help_text, labels, lambda: Histogram(buckets=buckets)
        )

    def __iter__(self) -> Iterator[tuple[str, str, LabelKey, Any]]:
        for name, (kind, _, series) in sorted(self._families.items()):
            for key, metric in sorted(series.items()):
                yield name, kind, key, metric

    # -- export --------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """A JSON-friendly snapshot of every series."""
        out: dict[str, Any] = {}
        for name, kind, key, metric in self:
            entry = out.setdefault(name, {"type": kind, "series": []})
            labels = dict(key)
            if kind == "histogram":
                entry["series"].append({
                    "labels": labels,
                    "sum": metric.total,
                    "count": metric.observations,
                    "buckets": [
                        {"le": bound, "count": cum}
                        for bound, cum in metric.cumulative()
                    ],
                })
            else:
                entry["series"].append({"labels": labels, "value": metric.value})
        return out

    def render_prometheus(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        lines: list[str] = []
        for name, (kind, help_text, series) in sorted(self._families.items()):
            full = f"{self.prefix}_{name}" if self.prefix else name
            if help_text:
                lines.append(f"# HELP {full} {help_text}")
            lines.append(f"# TYPE {full} {kind}")
            for key, metric in sorted(series.items()):
                if kind == "histogram":
                    for bound, cum in metric.cumulative():
                        le = "+Inf" if bound == float("inf") else f"{bound:g}"
                        labels = _render_labels(key, (("le", le),))
                        lines.append(f"{full}_bucket{labels} {cum}")
                    labels = _render_labels(key)
                    lines.append(f"{full}_sum{labels} {metric.total:g}")
                    lines.append(f"{full}_count{labels} {metric.observations}")
                else:
                    labels = _render_labels(key)
                    lines.append(f"{full}{labels} {metric.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


def family_total(registry: MetricsRegistry, name: str) -> float:
    """Sum every series' value in one counter/gauge family.

    Labelled families (``proxy_faults_total{kind=...}``,
    ``server_errors_total{code=...}``) spread one logical quantity over many
    series; chaos harnesses and benches want the total without enumerating
    label values.  Returns 0.0 for an unknown family; histograms are not
    summable this way and contribute nothing.
    """
    total = 0.0
    for family, kind, _key, metric in registry:
        if family == name and kind in ("counter", "gauge"):
            total += metric.value
    return total


def instrument_join(registry: MetricsRegistry, algorithm: str, result) -> None:
    """Record the standard per-join metrics from a Join/ParallelJoinResult.

    Feeds the counters the service and CLI export: runs, transfers, result
    sizes, and — when the run carried a phase breakdown — per-phase time and
    transfer totals.
    """
    registry.counter("joins_total", "join runs executed",
                     algorithm=algorithm).inc()
    transfers = getattr(result, "transfers", None)
    if transfers is None:
        transfers = result.total_transfers
    registry.counter("transfers_total", "T/H tuple transfers",
                     algorithm=algorithm).inc(transfers)
    registry.histogram("join_transfers", "transfers per join run",
                       algorithm=algorithm).observe(transfers)
    registry.gauge("last_result_size", "tuples in the most recent join result",
                   algorithm=algorithm).set(len(result.result))
    for phase, totals in result.meta.get("phases", {}).items():
        registry.counter("phase_seconds_total", "wall time per phase",
                         algorithm=algorithm, phase=phase).inc(totals["seconds"])
        registry.counter("phase_transfers_total", "transfers per phase",
                         algorithm=algorithm, phase=phase).inc(totals["transfers"])


#: Histogram bounds for end-to-end request latency (seconds) — tuned for the
#: workload suite's sub-second joins up through SLO-violating stragglers.
LATENCY_BUCKETS = (
    0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def instrument_workload(registry: MetricsRegistry, report) -> None:
    """Record one finished workload run (a ScenarioReport) into a registry.

    Gives deployments the same per-scenario series the benchmark JSON
    carries — request/loss/retry counters and a latency histogram — labelled
    by scenario and mode, so a dashboard can watch SLO drift across runs.
    """
    labels = {"scenario": report.scenario, "mode": report.mode}
    registry.counter("workload_requests_total", "workload requests issued",
                     **labels).inc(report.requests)
    registry.counter("workload_repeated_total",
                     "requests that re-issued an earlier contract",
                     **labels).inc(report.repeated)
    registry.counter("workload_lost_total",
                     "workload requests that never completed",
                     **labels).inc(report.lost)
    registry.counter("workload_incorrect_total",
                     "completed requests that diverged from the reference",
                     **labels).inc(report.incorrect)
    registry.counter("workload_retries_total",
                     "transient failures retried by the closed loop",
                     **labels).inc(report.retries)
    registry.counter("workload_saturation_rejections_total",
                     "requests refused by admission control before retry",
                     **labels).inc(report.saturation_rejections)
    registry.gauge("workload_throughput_rps",
                   "completed requests per second, most recent run",
                   **labels).set(report.throughput_rps)
    histogram = registry.histogram(
        "workload_latency_seconds", "end-to-end request latency",
        buckets=LATENCY_BUCKETS, **labels,
    )
    for outcome in report.outcomes:
        if outcome.ok:
            histogram.observe(outcome.latency_seconds)
    # Chaos-mode extras: zero outside chaosnet runs, but recorded
    # unconditionally so dashboards keep a stable series set.
    registry.counter("workload_kills_total",
                     "server kill+restart cycles injected mid-run",
                     **labels).inc(getattr(report, "kills", 0))
    registry.counter("workload_recovered_jobs_total",
                     "journalled jobs re-admitted after a mid-run restart",
                     **labels).inc(getattr(report, "recovered_jobs", 0))
    registry.counter("workload_deduped_submissions_total",
                     "resubmissions answered from the idempotency-token table",
                     **labels).inc(getattr(report, "deduped_submissions", 0))
    registry.counter("workload_proxy_faults_total",
                     "wire faults injected by the chaos proxy",
                     **labels).inc(getattr(report, "proxy_faults", 0))


def instrument_executor(registry: MetricsRegistry, executor,
                        **labels: str) -> None:
    """Export a ClusterExecutor's IPC-boundary counters as metric series.

    ``executor_bytes_shared_total`` counts payload bytes workers mapped
    zero-copy from shared-memory arena segments; ``executor_bytes_pickled_total``
    counts packed payload bytes that crossed the process boundary through
    pickle (task results, plus dictionary-shard payloads when shared memory
    is unavailable).  Together with ``executor_tasks_submitted_total`` and
    ``executor_flushes_total`` (contiguous region write-backs applied at
    merge time) they show where a parallel run's boundary time went — the
    split BENCH_parallel.json records per configuration.  Counters are
    cumulative on the executor, so this records deltas since the previous
    call, like :func:`instrument_coprocessor`.
    """
    pairs = (
        ("executor_bytes_pickled_total",
         "payload bytes crossing worker IPC via pickle",
         executor.bytes_pickled),
        ("executor_bytes_shared_total",
         "payload bytes mapped via shared-memory arenas",
         executor.bytes_shared),
        ("executor_tasks_submitted_total",
         "shard tasks submitted to the executor",
         executor.tasks_submitted),
        ("executor_tasks_pooled_total",
         "shard tasks that ran on pool processes",
         executor.tasks_pooled),
        ("executor_flushes_total",
         "contiguous write-back flushes merged into the parent host",
         executor.flushes),
        ("executor_rounds_total",
         "barrier rounds executed",
         executor.rounds),
    )
    snapshot = getattr(executor, "_metrics_snapshot", {})
    for name, help_text, value in pairs:
        registry.counter(name, help_text, **labels).inc(value - snapshot.get(name, 0))
    executor._metrics_snapshot = {name: value for name, _, value in pairs}


def instrument_coprocessor(registry: MetricsRegistry, coprocessor,
                           **labels: str) -> None:
    """Export a coprocessor's crypto-boundary counters as metric series.

    ``crypto_encryptions_total`` / ``crypto_decryptions_total`` are the
    *modeled* counts every cost formula charges (one per boundary crossing);
    ``crypto_physical_decryptions_total`` and ``crypto_cache_hits_total``
    split the modeled decryptions into work actually executed vs. gets served
    by the write-back slot cache, so dashboards can watch the fast path's hit
    rate without touching the cost model; ``crypto_physical_encryptions_total``
    counts the cells actually encrypted (a fused section encrypts each slot
    it wrote once).  The fault-tolerance counters —
    ``fault_retries_total``, ``checkpoints_sealed_total``,
    ``replayed_transfers_total`` — expose how often the boundary re-issued a
    transient-faulted host call, sealed a recovery checkpoint, and served
    boundary ops from a replay journal after a crash (all data-independent;
    see docs/THREAT_MODEL.md).  Counters are cumulative on the coprocessor,
    so this records deltas since the previous call.
    """
    labels.setdefault("coprocessor", getattr(coprocessor, "name", "T0"))
    pairs = (
        ("crypto_encryptions_total", "modeled encryptions (puts)",
         coprocessor.encryptions),
        ("crypto_decryptions_total", "modeled decryptions (gets)",
         coprocessor.decryptions),
        ("crypto_physical_decryptions_total",
         "decryptions physically executed (cache misses)",
         coprocessor.physical_decryptions),
        ("crypto_cache_hits_total", "gets served by the write-back slot cache",
         coprocessor.cache_hits),
        ("crypto_physical_encryptions_total",
         "cells physically encrypted (each slot once per section)",
         getattr(coprocessor, "physical_encryptions", 0)),
        ("crypto_batched_ops_total",
         "batched boundary calls executed by the vectorized hot path",
         getattr(coprocessor, "batched_ops", 0)),
        ("crypto_batch_rows_total",
         "slots moved by batched boundary calls",
         getattr(coprocessor, "batch_rows", 0)),
        ("fault_retries_total", "transient host faults retried at the boundary",
         getattr(coprocessor, "retries", 0)),
        ("checkpoints_sealed_total", "sealed recovery checkpoints committed",
         getattr(coprocessor, "checkpoints_sealed", 0)),
        ("replayed_transfers_total",
         "boundary ops served from a recovery journal",
         getattr(coprocessor, "replayed_transfers", 0)),
    )
    # Per-coprocessor snapshot so repeated instrumentation of one device adds
    # only its delta, while a fresh device contributes its full counts.
    snapshot = getattr(coprocessor, "_metrics_snapshot", {})
    for name, help_text, value in pairs:
        registry.counter(name, help_text, **labels).inc(value - snapshot.get(name, 0))
    coprocessor._metrics_snapshot = {name: value for name, _, value in pairs}
    registry.gauge("crypto_cache_entries", "slots held in the plaintext cache",
                   **labels).set(coprocessor.cache_entries)
