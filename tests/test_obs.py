"""Unit tests for the observability subsystem: sinks, metrics, spans."""

import json
import math
import random

import pytest

from tests.conftest import KEY, fresh_context

from repro.core.algorithm5 import algorithm5
from repro.core.base import JoinContext
from repro.core.parallel import ParallelJoinResult, parallel_algorithm4
from repro.crypto.provider import FastProvider
from repro.errors import ConfigurationError
from repro.hardware.cluster import Cluster
from repro.hardware.counters import TransferStats
from repro.hardware.events import GET, PUT, AccessEvent, Trace
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    instrument_join,
)
from repro.obs.sinks import (
    DivergenceTrace,
    JsonlTrace,
    StreamingTrace,
    TeeTrace,
    TraceSink,
    one_shot,
    read_jsonl_events,
)
from repro.obs.spans import PhaseProfile
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality

PRED = BinaryAsMulti(Equality("key"))

EVENTS = [
    (GET, "A", 0), (PUT, "out", 0), (GET, "A", 1), (GET, "B", 7), (PUT, "out", 1),
]


def record_all(sink, events=EVENTS):
    for op, region, index in events:
        sink.record(op, region, index)
    return sink


class TestStreamingTrace:
    def test_fingerprint_matches_materialized_trace(self):
        trace = record_all(Trace())
        streaming = record_all(StreamingTrace())
        assert streaming.fingerprint() == trace.fingerprint()

    def test_fingerprint_is_order_sensitive(self):
        a = record_all(StreamingTrace())
        b = record_all(StreamingTrace(), list(reversed(EVENTS)))
        assert a.fingerprint() != b.fingerprint()

    def test_counts_match_materialized_trace(self):
        trace = record_all(Trace())
        streaming = record_all(StreamingTrace())
        assert len(streaming) == len(trace)
        assert streaming.transfer_count() == trace.transfer_count()
        assert streaming.by_region() == trace.by_region()
        assert streaming.regions() == trace.regions()
        assert streaming.count(op=GET) == trace.count(op=GET)
        assert streaming.count(region="out") == trace.count(region="out")
        assert streaming.count(op=PUT, region="out") == 2

    def test_fingerprint_readable_mid_stream(self):
        streaming = StreamingTrace()
        streaming.record(GET, "A", 0)
        first = streaming.fingerprint()
        streaming.record(GET, "A", 1)
        assert streaming.fingerprint() != first

    def test_satisfies_sink_protocol(self):
        assert isinstance(StreamingTrace(), TraceSink)
        assert isinstance(Trace(), TraceSink)

    def test_transfer_stats_interop(self):
        streaming = record_all(StreamingTrace())
        stats = TransferStats.from_trace(streaming)
        assert stats.total == 5
        assert stats.gets == 3
        assert stats.puts == 2


class TestJsonlTrace:
    def test_events_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = record_all(JsonlTrace(path))
        sink.close()
        replayed = list(read_jsonl_events(path))
        assert replayed == [AccessEvent(*e) for e in EVENTS]

    def test_fingerprint_still_streams(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink = record_all(JsonlTrace(path))
        sink.close()
        assert sink.fingerprint() == record_all(Trace()).fingerprint()

    def test_record_after_close_rejected(self, tmp_path):
        sink = JsonlTrace(str(tmp_path / "t.jsonl"))
        sink.close()
        with pytest.raises(ValueError):
            sink.record(GET, "A", 0)

    def test_context_manager_closes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        with JsonlTrace(path) as sink:
            sink.record(GET, "A", 0)
        assert len(list(read_jsonl_events(path))) == 1

    def test_one_shot_factory_protects_the_file(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        factory = one_shot(lambda: JsonlTrace(path))
        first = factory()
        record_all(first)
        later = factory()  # what reset_trace() gets at finish()
        assert isinstance(later, StreamingTrace)
        assert not isinstance(later, JsonlTrace)
        first.close()
        assert len(list(read_jsonl_events(path))) == len(EVENTS)


class TestDivergenceTrace:
    def test_identical_streams_have_no_divergence(self):
        sink = DivergenceTrace(AccessEvent(*e) for e in EVENTS)
        record_all(sink)
        assert sink.finish() is None

    def test_first_differing_event_located(self):
        sink = DivergenceTrace(AccessEvent(*e) for e in EVENTS)
        sink.record(GET, "A", 0)
        sink.record(PUT, "out", 99)  # diverges from EVENTS[1]
        assert sink.divergence is not None
        assert sink.divergence.position == 1
        assert sink.divergence.expected == AccessEvent(PUT, "out", 0)
        assert sink.divergence.got == AccessEvent(PUT, "out", 99)

    def test_reference_longer_detected_at_finish(self):
        sink = DivergenceTrace(AccessEvent(*e) for e in EVENTS)
        sink.record(*EVENTS[0])
        divergence = sink.finish()
        assert divergence is not None
        assert divergence.position == 1
        assert divergence.got is None

    def test_live_longer_detected(self):
        sink = DivergenceTrace(iter([AccessEvent(*EVENTS[0])]))
        record_all(sink)
        assert sink.divergence.position == 1
        assert sink.divergence.expected is None


class TestTeeTrace:
    def test_fans_out_and_delegates(self):
        trace, streaming = Trace(), StreamingTrace()
        tee = record_all(TeeTrace(trace, streaming))
        assert trace.fingerprint() == streaming.fingerprint()
        assert tee.fingerprint() == trace.fingerprint()
        assert tee.transfer_count() == 5
        assert tee.by_region() == streaming.by_region()

    def test_requires_a_sink(self):
        with pytest.raises(ValueError):
            TeeTrace()


class TestMetricsPrimitives:
    def test_counter_only_goes_up(self):
        c = Counter()
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ConfigurationError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        g = Gauge()
        g.set(10)
        g.dec(3)
        g.inc()
        assert g.value == 8

    def test_histogram_buckets(self):
        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.5, 5, 5, 1000):
            h.observe(value)
        assert h.observations == 4
        assert h.total == pytest.approx(1010.5)
        assert h.cumulative() == [(1.0, 1), (10.0, 3), (100.0, 3), (math.inf, 4)]

    def test_histogram_rejects_unsorted_buckets(self):
        with pytest.raises(ConfigurationError):
            Histogram(buckets=(10.0, 1.0))


class TestMetricsRegistry:
    def test_labels_make_distinct_series(self):
        registry = MetricsRegistry()
        registry.counter("joins", algorithm="a").inc()
        registry.counter("joins", algorithm="b").inc(2)
        snapshot = registry.to_dict()
        values = {
            s["labels"]["algorithm"]: s["value"]
            for s in snapshot["joins"]["series"]
        }
        assert values == {"a": 1, "b": 2}

    def test_same_labels_same_series(self):
        registry = MetricsRegistry()
        registry.counter("joins", algorithm="a").inc()
        registry.counter("joins", algorithm="a").inc()
        (series,) = registry.to_dict()["joins"]["series"]
        assert series["value"] == 2

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ConfigurationError):
            registry.gauge("x")

    def test_prometheus_exposition(self):
        registry = MetricsRegistry(prefix="repro")
        registry.counter("joins_total", "join runs", algorithm="a5").inc(3)
        registry.histogram("t", buckets=(1.0, 10.0)).observe(5)
        text = registry.render_prometheus()
        assert '# TYPE repro_joins_total counter' in text
        assert 'repro_joins_total{algorithm="a5"} 3' in text
        assert 'repro_t_bucket{le="10"} 1' in text
        assert 'repro_t_bucket{le="+Inf"} 1' in text
        assert 'repro_t_sum 5' in text
        assert 'repro_t_count 1' in text

    def test_json_snapshot_is_serializable(self):
        registry = MetricsRegistry()
        registry.histogram("h").observe(42)
        registry.gauge("g").set(1)
        json.dumps(registry.to_dict())  # must not raise

    def test_instrument_join_records_run(self):
        wl = equijoin_workload(6, 6, 4, rng=random.Random(3))
        out = algorithm5(fresh_context(), [wl.left, wl.right], PRED, memory=2)
        registry = MetricsRegistry()
        instrument_join(registry, "algorithm5", out)
        snapshot = registry.to_dict()
        assert snapshot["joins_total"]["series"][0]["value"] == 1
        assert snapshot["transfers_total"]["series"][0]["value"] == out.transfers
        assert snapshot["last_result_size"]["series"][0]["value"] == len(out.result)
        phases = {
            tuple(sorted(s["labels"].items()))
            for s in snapshot["phase_transfers_total"]["series"]
        }
        assert (("algorithm", "algorithm5"), ("phase", "scan")) in phases


class TestPhaseProfile:
    def test_self_time_attribution(self):
        transfers = [0, 0]  # gets, puts mutated by the fake workload

        profile = PhaseProfile(lambda: (transfers[0], transfers[1]))
        with profile.span("outer"):
            transfers[0] += 10
            with profile.span("inner"):
                transfers[0] += 5
                transfers[1] += 2
            transfers[1] += 1
        breakdown = profile.breakdown()
        assert breakdown["outer"]["gets"] == 10
        assert breakdown["outer"]["puts"] == 1
        assert breakdown["inner"]["gets"] == 5
        assert breakdown["inner"]["puts"] == 2
        assert breakdown["outer"]["transfers"] == 11
        assert breakdown["inner"]["calls"] == 1

    def test_repeated_spans_accumulate(self):
        counter = [0]
        profile = PhaseProfile(lambda: (counter[0], 0))
        for _ in range(3):
            with profile.span("scan"):
                counter[0] += 2
        breakdown = profile.breakdown()
        assert breakdown["scan"]["calls"] == 3
        assert breakdown["scan"]["gets"] == 6

    def test_insertion_order_preserved(self):
        profile = PhaseProfile(lambda: (0, 0))
        for name in ("screen", "scan", "flush"):
            with profile.span(name):
                pass
        assert list(profile.breakdown()) == ["screen", "scan", "flush"]

    def test_join_phase_transfers_sum_to_trace(self):
        wl = equijoin_workload(8, 10, 6, rng=random.Random(7))
        out = algorithm5(fresh_context(), [wl.left, wl.right], PRED, memory=2)
        phases = out.meta["phases"]
        assert sum(p["transfers"] for p in phases.values()) == out.transfers
        assert sum(p["gets"] for p in phases.values()) == out.stats.gets
        assert sum(p["puts"] for p in phases.values()) == out.stats.puts


class TestParallelRegressions:
    def test_speedup_defined_for_idle_cluster(self):
        """speedup must not be nan when no transfers were recorded."""
        idle = TransferStats(total=0, gets=0, puts=0)
        result = ParallelJoinResult(result=None, per_coprocessor=[idle, idle, idle])
        assert not math.isnan(result.speedup)
        assert result.speedup == 3.0

    def test_worker_indices_not_parsed_from_names(self):
        """parallel_algorithm4 attributes results via the explicit worker
        index from run_partitioned, not by parsing coprocessor names."""
        wl = equijoin_workload(8, 10, 6, rng=random.Random(50))
        provider = FastProvider(KEY)
        context = JoinContext.fresh(provider=provider)
        cluster = Cluster(context.host, provider, count=3)
        # Sabotage the name-derived indices: any slicing of these names would
        # produce garbage rather than 0..P-1.
        for coprocessor in cluster:
            coprocessor.name = "coprocessor-x"
        out = parallel_algorithm4(context, cluster, [wl.left, wl.right], PRED)
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        assert out.result.same_multiset(reference)
        assert sum(out.meta["per_worker_results"]) == len(reference)
        assert len(out.meta["per_worker_results"]) == 3


class TestStreamingAtScale:
    def test_large_join_streams_without_materializing(self):
        """Acceptance: >= 10^5 iTuples through a streaming sink, O(1) memory."""
        import tracemalloc

        left = 400
        right = 250  # L = 100,000 iTuples
        results = 32
        wl = equijoin_workload(left, right, results, rng=random.Random(9))
        context = fresh_context(trace_factory=StreamingTrace)

        tracemalloc.start()
        out = algorithm5(
            context, [wl.left, wl.right], PRED,
            memory=64, known_result_size=results,
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert isinstance(out.trace, StreamingTrace)
        assert not hasattr(out.trace, "events")  # nothing materialized
        assert out.trace.transfer_count() >= 2 * left * right
        assert len(out.result) == results
        # The full event list would be tens of MB; the streaming run must stay
        # far below that.  The bound is generous to absorb allocator noise.
        assert peak < 8 * 1024 * 1024, f"peak {peak} bytes"

    def test_materialized_trace_is_columns_not_objects(self):
        """A materialized Trace holds ~9 bytes an event (a code and an index),
        where a list of AccessEvent tuples held over 100."""
        import tracemalloc

        events = 100_000
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        trace = Trace()
        for start in range(0, events // 2, 1000):
            for index in range(start, start + 1000):  # the scalar path ...
                trace.record(GET if index % 3 else PUT, "A", index)
        table, codes = ((GET, "scratch"), (PUT, "scratch")), b"\0\0\1\1" * 250
        for start in range(0, events // 2, 1000):  # ... and the section path
            trace.record_run(table, codes, range(start, start + 1000))
        held, _ = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        assert len(trace) == events
        assert held - before <= 16 * events, f"{(held - before) / events:.1f} bytes/event"
        assert trace[events - 1] == AccessEvent(PUT, "scratch", events // 2 - 1)
