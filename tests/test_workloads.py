"""Tests for the production workload suite (`repro.workloads`).

Covers the scenario catalog (determinism, planning, repeat semantics), the
differential-correctness satellite (every scenario's query mix through a
safe algorithm matches the plaintext reference joins and passes the privacy
checker on content-perturbed siblings), the closed-loop runner in both
modes, the service/server hardening the suite leans on (contract release,
job retention), and the CLI subcommand.
"""

import hashlib
import random
from concurrent.futures import Future, ProcessPoolExecutor

import pytest

from tests.conftest import fresh_context
from repro.cli import main as cli_main
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.service import Contract, JoinService, Party
from repro.errors import ConfigurationError, ContractError, RemoteJoinError
from repro.net.client import JoinClient
from repro.net.server import JoinServer, ServerThread, _Job
from repro.net.wire import PredicateSpec, encode_relation
from repro.obs.metrics import MetricsRegistry, instrument_workload
from repro.relational.generate import uniform_keyed
from repro.privacy.checker import check_runs
from repro.workloads import (
    SLO,
    QueryTemplate,
    RequestOutcome,
    ScenarioReport,
    ScenarioSpec,
    TableSpec,
    WorkloadRunner,
    get_scenario,
    list_scenarios,
    perturbed_tables,
    plaintext_reference,
)
from repro.workloads.runner import percentile


def _tables_digest(name: str, instance_seed) -> str:
    """SHA-256 over every owner's encoded relation — top level so a
    ProcessPoolExecutor worker can run it."""
    spec = get_scenario(name)
    digest = hashlib.sha256()
    for owner, relation in spec.build_tables(instance_seed).items():
        schema, rows = encode_relation(relation)
        digest.update(owner.encode())
        digest.update(schema.name.encode())
        for row in rows:
            digest.update(row)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# catalog + planning
# ---------------------------------------------------------------------------

class TestCatalog:
    def test_at_least_six_scenarios(self):
        assert len(list_scenarios()) >= 6

    def test_names_and_codes_are_unique(self):
        names = [s.name for s in list_scenarios()]
        codes = [s.code for s in list_scenarios()]
        assert len(set(names)) == len(names)
        assert len(set(codes)) == len(codes)

    def test_contract_ids_fit_the_sixteen_byte_header(self):
        # Party.encrypt_upload ljust-pads contract IDs to 16 bytes; a longer
        # ID would silently truncate the header comparison.
        for spec in list_scenarios():
            for request in spec.plan(seed=0, requests=4):
                assert len(request.contract_id.encode()) <= 16

    def test_predicate_families_are_diverse(self):
        kinds = {q.predicate.kind for s in list_scenarios() for q in s.queries}
        assert {"equality", "theta", "band", "jaccard", "l1"} <= kinds

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            get_scenario("no_such_deployment")

    def test_spec_validation(self):
        query = QueryTemplate("q", PredicateSpec.equality("key"))
        table = TableSpec(owner="a")
        slo = SLO(1.0, 2.0)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", code="toolongcode", description="d",
                         recipient="r", tables=(table,), queries=(query,),
                         slo=slo)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", code="x", description="d", recipient="r",
                         tables=(), queries=(query,), slo=slo)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", code="x", description="d", recipient="r",
                         tables=(table,), queries=(query,), slo=slo,
                         repeat_fraction=1.5)
        with pytest.raises(ConfigurationError):
            ScenarioSpec(name="x", code="x", description="d", recipient="r",
                         tables=(table, table), queries=(query,), slo=slo)
        with pytest.raises(ConfigurationError):
            SLO(2.0, 1.0)
        with pytest.raises(ConfigurationError):
            QueryTemplate("q", PredicateSpec.equality("key"),
                          algorithm="algorithm9")
        with pytest.raises(ConfigurationError):
            TableSpec(owner="a", generator="gaussian")

    def test_correlated_table_needs_a_predecessor(self):
        spec = ScenarioSpec(
            name="x", code="x", description="d", recipient="r",
            tables=(TableSpec(owner="a", generator="correlated"),),
            queries=(QueryTemplate("q", PredicateSpec.equality("key")),),
            slo=SLO(1.0, 2.0),
        )
        with pytest.raises(ConfigurationError):
            spec.build_tables(0)


class TestDeterminism:
    def test_build_tables_is_deterministic(self):
        for spec in list_scenarios():
            assert (_tables_digest(spec.name, 0)
                    == _tables_digest(spec.name, 0))
            assert (_tables_digest(spec.name, 0)
                    != _tables_digest(spec.name, 1))

    def test_build_tables_identical_across_process_boundary(self):
        # The parallel executor regenerates scenario inputs in worker
        # processes; string seeding hashes with SHA-512, so the draw must be
        # identical there.
        names = [spec.name for spec in list_scenarios()][:3]
        with ProcessPoolExecutor(max_workers=1) as pool:
            for name in names:
                remote = pool.submit(_tables_digest, name, "x:7").result(60)
                assert remote == _tables_digest(name, "x:7"), name

    def test_plan_is_deterministic(self):
        def signature(plan):
            return [
                (r.index, r.contract_id, r.query.name, r.repeated)
                for r in plan
            ]

        for spec in list_scenarios():
            one = spec.plan(seed=3, requests=10)
            two = spec.plan(seed=3, requests=10)
            assert signature(one) == signature(two)
            assert signature(one) != signature(spec.plan(seed=4, requests=10))

    def test_repeats_share_contract_tables_and_query(self):
        spec = get_scenario("banking_reconciliation")  # repeat_fraction 0.6
        plan = spec.plan(seed=1, requests=20)
        originals = {r.contract_id: r for r in plan if not r.repeated}
        repeated = [r for r in plan if r.repeated]
        assert repeated, "a 0.6 repeat fraction must produce repeats in 20"
        for request in repeated:
            original = originals[request.contract_id]
            assert request.tables is original.tables
            assert request.query is original.query
            assert request.instance_key == original.instance_key

    def test_repeat_fraction_zero_never_repeats(self):
        spec = get_scenario("watchlist_screening")
        from dataclasses import replace
        lonely = replace(spec, name="x", repeat_fraction=0.0)
        assert not any(r.repeated for r in lonely.plan(seed=0, requests=12))


# ---------------------------------------------------------------------------
# differential correctness + privacy (satellite)
# ---------------------------------------------------------------------------

def _run_algorithm(spec, query, tables, trace_factory=None):
    relations = [tables[owner] for owner in spec.owners]
    predicate = query.predicate.build()
    context = fresh_context(seed=0, trace_factory=trace_factory)
    if query.algorithm == "algorithm4":
        return algorithm4(context, relations, predicate)
    if query.algorithm == "algorithm5":
        return algorithm5(context, relations, predicate, memory=spec.memory)
    if query.algorithm == "algorithm7":
        return algorithm7(context, relations, predicate)
    return algorithm6(context, relations, predicate, memory=spec.memory,
                      epsilon=query.epsilon)


@pytest.mark.parametrize(
    "name,query_name",
    [(s.name, q.name) for s in list_scenarios() for q in s.queries],
)
def test_scenario_queries_match_plaintext_reference(name, query_name):
    """Every shipped scenario query, through its safe algorithm, equals the
    plaintext reference join — on two distinct instances."""
    spec = get_scenario(name)
    query = next(q for q in spec.queries if q.name == query_name)
    for instance_seed in (0, "0:1"):
        tables = spec.build_tables(instance_seed)
        reference = plaintext_reference(tables, query)
        result = _run_algorithm(spec, query, tables)
        assert len(result.result) == len(reference)
        assert result.result.same_multiset(reference)


@pytest.mark.parametrize(
    "name,query_name",
    [(s.name, q.name) for s in list_scenarios() for q in s.queries],
)
def test_scenario_queries_pass_the_privacy_checker(name, query_name):
    """The access trace must be identical on content-perturbed siblings that
    preserve the public parameters (Definition 3)."""
    spec = get_scenario(name)
    query = next(q for q in spec.queries if q.name == query_name)
    tables = spec.build_tables(0)
    rng = random.Random(f"perturb:{name}:{query_name}")
    instances = [
        tables,
        perturbed_tables(tables, query, rng),
        perturbed_tables(tables, query, rng),
    ]
    report = check_runs([
        lambda t=t: _run_algorithm(spec, query, t) for t in instances
    ])
    assert report.safe, report.divergence


def test_perturbed_tables_preserve_public_parameters():
    for spec in list_scenarios():
        tables = spec.build_tables(0)
        for query in spec.queries:
            sibling = perturbed_tables(tables, query,
                                       random.Random(spec.name))
            assert set(sibling) == set(tables)
            for owner in tables:
                assert len(sibling[owner]) == len(tables[owner])
                assert (sibling[owner].schema.attributes
                        == tables[owner].schema.attributes)
            assert (len(plaintext_reference(sibling, query))
                    == len(plaintext_reference(tables, query)))


def test_perturbed_tables_actually_change_content():
    spec = get_scenario("watchlist_screening")
    tables = spec.build_tables(0)
    sibling = perturbed_tables(tables, spec.queries[0], random.Random(1))
    _, original_rows = encode_relation(tables["agency"])
    _, sibling_rows = encode_relation(sibling["agency"])
    assert set(original_rows) != set(sibling_rows)


# ---------------------------------------------------------------------------
# the closed-loop runner
# ---------------------------------------------------------------------------

class TestRunnerServiceMode:
    def test_small_run_is_clean(self):
        report = WorkloadRunner(
            get_scenario("watchlist_screening"), mode="service",
            requests=5, arrival_rate=None, concurrency=2,
        ).run()
        assert report.requests == 5
        assert report.completed == 5
        assert report.lost == 0 and report.incorrect == 0
        assert report.transfers_total > 0
        assert report.latency(0.95) >= report.latency(0.50) > 0
        assert report.to_dict()["slo_met"] is True

    def test_multiway_scenario_runs(self):
        report = WorkloadRunner(
            get_scenario("supply_chain_tracking"), mode="service",
            requests=4, arrival_rate=None, concurrency=2,
        ).run()
        assert report.completed == 4

    def test_repeats_are_counted(self):
        report = WorkloadRunner(
            get_scenario("banking_reconciliation"), mode="service",
            requests=8, arrival_rate=None,
        ).run()
        assert report.repeated > 0

    def test_arrival_pacing_stretches_the_run(self):
        report = WorkloadRunner(
            get_scenario("census_fuzzy_match"), mode="service",
            requests=4, arrival_rate=10.0, concurrency=2,
        ).run()
        # Request 3 is not released before 3/10 s.
        assert report.duration_seconds >= 0.3

    def test_metrics_are_recorded(self):
        registry = MetricsRegistry()
        WorkloadRunner(
            get_scenario("census_fuzzy_match"), mode="service",
            requests=3, arrival_rate=None, metrics=registry,
        ).run()
        snapshot = registry.to_dict()
        assert snapshot["workload_requests_total"]["series"][0]["value"] == 3
        assert "workload_latency_seconds" in snapshot

    def test_net_mode_small_run_is_clean(self):
        # One tiny networked run stays in tier 1 (the full per-scenario
        # loopback sweep is gated behind --runworkloads).
        report = WorkloadRunner(
            get_scenario("watchlist_screening"), mode="net",
            requests=3, arrival_rate=None, concurrency=2,
        ).run()
        assert report.completed == 3
        assert report.lost == 0 and report.incorrect == 0

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadRunner(get_scenario("watchlist_screening"), mode="fax")

    def test_bad_concurrency_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadRunner(get_scenario("watchlist_screening"), concurrency=0)


class TestReportVerdicts:
    def _outcome(self, index, status, latency=0.01, **overrides):
        values = dict(
            index=index, contract_id=f"c-{index}", instance_key=f"k-{index}",
            query="q", algorithm="algorithm5", repeated=False, status=status,
            latency_seconds=latency, rows=1, transfers=10,
            error="boom" if status != "ok" else "",
        )
        values.update(overrides)
        return RequestOutcome(**values)

    def _report(self, outcomes, p50=1.0, p95=2.0):
        return ScenarioReport(
            scenario="synthetic", mode="service", requests=len(outcomes),
            concurrency=1, arrival_rate=None, duration_seconds=1.0,
            outcomes=outcomes, retries=0, saturation_rejections=0,
            slo_p50_seconds=p50, slo_p95_seconds=p95,
        )

    def test_lost_and_incorrect_are_unconditional(self):
        report = self._report([
            self._outcome(0, "ok"),
            self._outcome(1, "lost"),
            self._outcome(2, "incorrect"),
        ])
        failures = report.failures(enforce_latency=False)
        assert len(failures) == 2
        assert not report.ok

    def test_latency_slo_only_when_enforced(self):
        report = self._report(
            [self._outcome(0, "ok", latency=5.0)], p50=1.0, p95=2.0
        )
        assert report.failures(enforce_latency=False) == []
        breaches = report.failures(enforce_latency=True)
        assert len(breaches) == 2  # both p50 and p95 blown
        assert "p50" in breaches[0] and "p95" in breaches[1]

    def test_clean_report_has_no_failures(self):
        report = self._report([self._outcome(i, "ok") for i in range(4)])
        assert report.failures(enforce_latency=True) == []
        assert report.throughput_rps == 4.0
        assert instrument_workload(MetricsRegistry(), report) is None

    def test_percentile_nearest_rank(self):
        values = [0.1, 0.2, 0.3, 0.4]
        assert percentile(values, 0.50) == 0.2
        assert percentile(values, 0.95) == 0.4
        assert percentile([7.0], 0.99) == 7.0
        with pytest.raises(ConfigurationError):
            percentile([], 0.5)
        with pytest.raises(ConfigurationError):
            percentile(values, 0.0)

    def test_run_raises_on_violation(self, monkeypatch):
        runner = WorkloadRunner(get_scenario("watchlist_screening"),
                                mode="service", requests=2,
                                arrival_rate=None)
        broken = self._report([self._outcome(0, "lost")])
        monkeypatch.setattr(runner, "_run_service",
                            lambda plan, refs: broken)
        with pytest.raises(AssertionError, match="lost"):
            runner.run()


# ---------------------------------------------------------------------------
# service/server hardening the suite depends on
# ---------------------------------------------------------------------------

class TestReleaseContract:
    def _service(self):
        service = JoinService(pool_size=1)
        relation = uniform_keyed(4, 8, random.Random(0), name="left")
        other = uniform_keyed(4, 8, random.Random(1), name="right")
        predicate = PredicateSpec.equality("key").build()
        service.register_contract(Contract(
            "c-rel", ("alice", "bob"), "carol", predicate.description
        ))
        service.ingest(Party("alice"), "c-rel", relation)
        service.ingest(Party("bob"), "c-rel", other)
        return service, predicate

    def test_release_drops_contract_and_uploads(self):
        service, predicate = self._service()
        assert service.release_contract("c-rel") == 2
        with pytest.raises(ContractError):
            service.execute("c-rel", predicate)
        # The ID is free again: a fresh registration must succeed.
        service.register_contract(Contract(
            "c-rel", ("alice",), "carol", predicate.description
        ))
        service.close()

    def test_release_unknown_contract_raises(self):
        service = JoinService(pool_size=1)
        with pytest.raises(ContractError):
            service.release_contract("c-missing")
        service.close()

    def test_release_counts_in_metrics(self):
        service, _ = self._service()
        service.release_contract("c-rel")
        assert service.metrics.counter(
            "service_contracts_released_total").value == 1
        service.close()


class TestJobRetention:
    def test_finished_jobs_are_evicted_beyond_the_budget(self):
        service = JoinService(pool_size=1, queue_depth=4, memory=8)
        server = JoinServer(service, retain_jobs=1)
        relation = uniform_keyed(4, 8, random.Random(2), name="left")
        other = uniform_keyed(4, 8, random.Random(3), name="right")
        with ServerThread(server) as handle:
            with JoinClient("127.0.0.1", handle.port) as client:
                jobs = []
                for index in range(3):
                    job = client.submit_join(
                        f"c-ret-{index}",
                        {"alice": relation, "bob": other},
                        PredicateSpec.equality("key"),
                        recipient="carol",
                    )
                    job.wait(timeout=60)
                    jobs.append(job)
                # Oldest finished jobs fell off the 1-deep retention
                # budget: a bare attach (no submit frame to resend)
                # surfaces the retryable job_expired code ...
                stale = client.attach(jobs[0].job_id)
                with pytest.raises(RemoteJoinError) as err:
                    stale.status()
                assert err.value.code == "job_expired"
                # ... while the original handle, which still holds its
                # submit frame, transparently resubmits.
                assert jobs[0].wait(timeout=60).state == "done"
                assert client.metrics.counter(
                    "client_resubmissions_total").value >= 1
                # jobs[0]'s re-execution in turn evicted the newest job
                # under the 1-deep budget — its handle resubmits too.
                assert jobs[-1].wait(timeout=60).state == "done"
        assert service.metrics.counter("server_jobs_evicted_total").value >= 1
        service.close()

    def test_eviction_stops_at_the_oldest_finished_jobs(self):
        class CountingFuture(Future):
            asked = 0

            def done(self):
                self.asked += 1
                return super().done()

        def job(job_id, state):
            future = CountingFuture()
            if state == "running":
                future.set_running_or_notify_cancel()
            elif state == "done":
                future.set_result(None)
            return _Job(job_id, "contract", "carol", 8, future)

        service = JoinService(pool_size=1, memory=8)
        server = JoinServer(service, retain_jobs=2)
        for job_id, state in [("done0", "done"), ("queued1", "queued"),
                              ("done2", "done"), ("done3", "done")]:
            server._jobs[job_id] = job(job_id, state)
        server._evict_finished_locked()
        assert list(server._jobs) == ["queued1", "done3"]
        assert server._evicted == {"done0", "done2"}
        # The scan stopped at the second finished job, the excess.
        assert server._jobs["done3"].future.asked == 0
        for job_id, state in [("running4", "running"), ("done5", "done")]:
            server._jobs[job_id] = job(job_id, state)
        server._evict_finished_locked()
        assert list(server._jobs) == ["queued1", "running4"]
        assert service.metrics.counter("server_jobs_evicted_total").value == 4
        service.close()

    def test_zero_retention_rejected(self):
        with pytest.raises(ConfigurationError):
            JoinServer(JoinService(pool_size=1), retain_jobs=0)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestWorkloadCli:
    def test_list(self, capsys):
        assert cli_main(["workload", "--list"]) == 0
        out = capsys.readouterr().out
        for spec in list_scenarios():
            assert spec.name in out

    def test_run_one_scenario(self, capsys):
        assert cli_main([
            "workload", "--scenario", "census_fuzzy_match", "--requests", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "census_fuzzy_match" in out
        assert "lost" in out

    def test_json_output(self, capsys):
        import json

        assert cli_main([
            "workload", "--scenario", "supply_chain_tracking",
            "--requests", "3", "--json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["scenario"] == "supply_chain_tracking"
        assert payload[0]["lost"] == 0


# ---------------------------------------------------------------------------
# the networked closed loop (gated: loopback TCP, all scenarios)
# ---------------------------------------------------------------------------

@pytest.mark.workloads
@pytest.mark.parametrize("name", [s.name for s in list_scenarios()])
def test_scenario_over_loopback_tcp(name):
    """One small closed-loop run per scenario through a real JoinServer:
    zero lost, zero incorrect, every fingerprint bit-identical to the
    in-process reference."""
    spec = get_scenario(name)
    report = WorkloadRunner(
        spec, mode="net", requests=spec.smoke_requests,
    ).run()
    assert report.completed == spec.smoke_requests
    assert report.lost == 0 and report.incorrect == 0


@pytest.mark.workloads
def test_net_saturation_is_retried_to_success():
    """A one-slot service under concurrent load must refuse some requests
    retryably — and the closed loop must still finish clean."""
    spec = get_scenario("banking_reconciliation")
    report = WorkloadRunner(
        spec, mode="net", requests=8, concurrency=4, arrival_rate=None,
        pool_size=1, queue_depth=0,
    ).run()
    assert report.completed == 8
    assert report.saturation_rejections > 0
    assert report.retries > 0


# ---------------------------------------------------------------------------
# the chaos-net closed loop (gated: proxy faults + server kill/restart)
# ---------------------------------------------------------------------------

@pytest.mark.chaosnet
@pytest.mark.parametrize("name", [s.name for s in list_scenarios()])
def test_scenario_through_chaos_proxy_with_server_kill(name, tmp_path):
    """Every scenario through the fault-injecting proxy with at least one
    mid-run server kill + journal-backed restart: zero lost, zero
    incorrect, every fingerprint still bit-identical to the in-process
    reference, and no duplicate executions."""
    spec = get_scenario(name)
    report = WorkloadRunner(
        spec, mode="chaosnet", requests=max(spec.smoke_requests, 6),
        arrival_rate=None, kills=1, journal_dir=str(tmp_path),
    ).run()
    assert report.completed == max(spec.smoke_requests, 6)
    assert report.lost == 0 and report.incorrect == 0
    assert report.kills == 1


@pytest.mark.chaosnet
def test_chaosnet_reports_chaos_metrics(tmp_path):
    registry = MetricsRegistry()
    spec = get_scenario("watchlist_screening")
    report = WorkloadRunner(
        spec, mode="chaosnet", requests=8, concurrency=3,
        arrival_rate=None, kills=2, journal_dir=str(tmp_path),
        metrics=registry,
    ).run()
    assert report.lost == 0 and report.incorrect == 0
    assert report.kills == 2
    snapshot = registry.to_dict()
    assert snapshot["workload_kills_total"]["series"][0]["value"] == 2
    assert "workload_recovered_jobs_total" in snapshot
    assert "workload_proxy_faults_total" in snapshot


def test_chaosnet_mode_tiny_run_is_clean(tmp_path):
    # One tiny chaosnet run stays in tier 1 (the full per-scenario sweep
    # is gated behind --runchaosnet).
    report = WorkloadRunner(
        get_scenario("watchlist_screening"), mode="chaosnet",
        requests=4, arrival_rate=None, concurrency=2, kills=1,
        journal_dir=str(tmp_path),
    ).run()
    assert report.completed == 4
    assert report.lost == 0 and report.incorrect == 0


def test_chaosnet_negative_kills_rejected():
    with pytest.raises(ConfigurationError):
        WorkloadRunner(get_scenario("watchlist_screening"),
                       mode="chaosnet", kills=-1)
