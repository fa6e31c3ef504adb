"""End-to-end tests for the PPJ network service facade (Sections 3.2-3.3)."""

import random

import pytest

from repro.core.service import Contract, JoinService, Party, issue_attestation
from repro.errors import ContractError
from repro.relational.generate import equijoin_workload
from repro.relational.joins import nested_loop_join
from repro.relational.predicates import BinaryAsMulti, Equality


@pytest.fixture
def scenario():
    wl = equijoin_workload(8, 10, 5, rng=random.Random(77))
    service = JoinService(memory=4)
    contract = Contract(
        contract_id="C-001",
        data_owners=("airline", "agency"),
        recipient="screening-office",
        permitted_predicate="key = key",
    )
    service.register_contract(contract)
    airline = Party("airline")
    agency = Party("agency")
    recipient = Party("screening-office")
    return wl, service, contract, airline, agency, recipient


class TestAttestation:
    def test_valid_attestation_verifies(self):
        service = JoinService()
        attestation = service.attest()
        assert attestation.verify(JoinService.expected_application_hash(), "ibm-miniboot")

    def test_wrong_application_rejected(self):
        attestation = issue_attestation("malicious-code")
        assert not attestation.verify(JoinService.expected_application_hash(),
                                      "ibm-miniboot")

    def test_wrong_root_of_trust_rejected(self):
        service = JoinService()
        attestation = service.attest()
        assert not attestation.verify(JoinService.expected_application_hash(),
                                      "rogue-root")


class TestContractArbitration:
    def test_unknown_contract_rejected(self, scenario):
        wl, service, _, airline, _, _ = scenario
        with pytest.raises(ContractError):
            service.ingest(airline, "C-404", wl.left)

    def test_non_owner_rejected(self, scenario):
        wl, service, _, _, _, recipient = scenario
        with pytest.raises(ContractError):
            service.ingest(recipient, "C-001", wl.left)

    def test_duplicate_contract_rejected(self, scenario):
        _, service, contract, _, _, _ = scenario
        with pytest.raises(ContractError):
            service.register_contract(contract)

    def test_predicate_must_match_contract(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        with pytest.raises(ContractError):
            service.execute("C-001", BinaryAsMulti(Equality("payload")))

    def test_missing_upload_rejected(self, scenario):
        wl, service, _, airline, _, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        with pytest.raises(ContractError):
            service.execute("C-001", BinaryAsMulti(Equality("key")))


class TestEndToEnd:
    @pytest.mark.parametrize("algorithm", ["algorithm4", "algorithm5", "algorithm6"])
    def test_full_flow(self, scenario, algorithm):
        wl, service, _, airline, agency, recipient = scenario
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        assert service.ingest(airline, "C-001", wl.left) == len(wl.left)
        assert service.ingest(agency, "C-001", wl.right) == len(wl.right)
        result = service.execute(
            "C-001", BinaryAsMulti(Equality("key")), algorithm=algorithm
        )
        delivered = service.deliver(result, recipient, "C-001")
        assert delivered.same_multiset(reference)

    def test_upload_cells_are_the_row_codec_under_the_contract_header(self, scenario):
        wl, _, _, airline, _, _ = scenario
        header = "C-001".encode().ljust(16, b"\x00")
        cells = airline.encrypt_upload("C-001", wl.left)
        codec = wl.left.codec()
        assert [airline.provider().decrypt(cell) for cell in cells] == [
            header + codec.encode(record) for record in wl.left]

    def test_delivery_keeps_every_row_in_order(self, scenario):
        wl, service, _, airline, agency, recipient = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        result = service.execute("C-001", BinaryAsMulti(Equality("key")))
        assert service.deliver(result, recipient, "C-001") == result.result

    @pytest.mark.parametrize("fault", ["tampered", "foreign"])
    def test_a_bad_upload_stages_nothing(self, scenario, fault):
        """One bad cell anywhere in the batch refuses the whole upload."""
        from repro.errors import AuthenticationError

        wl, service, _, airline, agency, _ = scenario
        service.register_contract(Contract(
            contract_id="C-002", data_owners=("airline",),
            recipient="screening-office", permitted_predicate="key = key",
        ))
        cells = airline.encrypt_upload("C-001", wl.left)
        middle = len(cells) // 2
        if fault == "tampered":
            cells[middle] = cells[middle][:-1] + bytes([cells[middle][-1] ^ 1])
        else:
            cells[middle] = airline.encrypt_upload("C-002", wl.left)[middle]
        with pytest.raises(AuthenticationError):
            service.ingest_upload("airline", "C-001", wl.left.schema, cells)
        service.ingest(agency, "C-001", wl.right)
        with pytest.raises(ContractError):
            service.execute("C-001", BinaryAsMulti(Equality("key")))

    def test_an_upload_value_that_ends_in_nul_is_refused(self, scenario):
        """The service decodes uploads at ingest, where the codec's NUL
        padding would strip the value's own trailing NUL."""
        from repro.errors import CodecError
        from repro.relational.relation import Relation
        from repro.relational.schema import Schema, blob, integer
        from repro.relational.tuples import Record

        _, service, _, airline, _, _ = scenario
        relation = Relation(Schema.of(blob("key", 4), integer("a"), name="A"))
        relation.append(Record.of(relation.schema, b"a\x00", 1))
        with pytest.raises(CodecError, match="'key'"):
            airline.encrypt_upload("C-001", relation)
        with pytest.raises(CodecError, match="'key'"):
            service.ingest(airline, "C-001", relation)

    def test_delivery_restricted_to_contracted_recipient(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        result = service.execute("C-001", BinaryAsMulti(Equality("key")))
        with pytest.raises(ContractError):
            service.deliver(result, Party("eavesdropper"), "C-001")


class TestServiceMetrics:
    def test_execute_instruments_registry(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        first = service.execute("C-001", BinaryAsMulti(Equality("key")))
        service.execute("C-001", BinaryAsMulti(Equality("key")))
        snapshot = service.metrics.to_dict()
        (joins,) = snapshot["joins_total"]["series"]
        assert joins["labels"] == {"algorithm": "algorithm5"}
        assert joins["value"] == 2
        (transfers,) = snapshot["transfers_total"]["series"]
        assert transfers["value"] == 2 * first.transfers  # identical runs
        assert "repro_joins_total" in service.metrics.render_prometheus()


class TestPerJoinIsolation:
    def test_two_joins_do_not_share_context_state(self, scenario):
        """Regression: execute() used to reuse one JoinContext/coprocessor,
        so the second join inherited the first's cache, counters, and host
        regions.  Each join now runs in a fresh context: identical requests
        must produce identical traces and per-join crypto metric deltas."""
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        predicate = BinaryAsMulti(Equality("key"))

        first = service.execute("C-001", predicate)
        mid = service.metrics.to_dict()
        second = service.execute("C-001", predicate)
        after = service.metrics.to_dict()

        assert second.result.same_multiset(first.result)
        assert second.trace.fingerprint() == first.trace.fingerprint()
        assert second.stats.total == first.stats.total

        def value(snapshot, name):
            (series,) = snapshot[name]["series"]
            return series["value"]

        # The second join's crypto delta equals the first's — a reused
        # coprocessor would double-count cache hits and skip re-encryptions.
        for name in ("crypto_encryptions_total", "crypto_decryptions_total",
                     "crypto_physical_decryptions_total"):
            assert value(after, name) == 2 * value(mid, name)
        # The cache-entries gauge reflects one join's working set, not an
        # accumulation across joins.
        assert value(after, "crypto_cache_entries") == value(
            mid, "crypto_cache_entries"
        )

    def test_algorithm6_after_algorithm5_unaffected(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        predicate = BinaryAsMulti(Equality("key"))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        five = service.execute("C-001", predicate, algorithm="algorithm5")
        six = service.execute("C-001", predicate, algorithm="algorithm6")
        assert five.result.same_multiset(reference)
        assert six.result.same_multiset(reference)


class TestConcurrentService:
    def test_concurrent_joins_match_sequential(self, scenario):
        """Tentpole acceptance: >= 4 independent joins through the pool,
        results identical to the sequential run, metrics uncontaminated."""
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        predicate = BinaryAsMulti(Equality("key"))
        sequential = service.execute("C-001", predicate)

        with service:
            futures = [service.submit("C-001", predicate) for _ in range(5)]
            results = [future.result(timeout=120) for future in futures]

        for result in results:
            assert result.result.same_multiset(sequential.result)
            assert result.trace.fingerprint() == sequential.trace.fingerprint()
            assert result.stats.total == sequential.stats.total

        snapshot = service.metrics.to_dict()

        def value(name):
            (series,) = snapshot[name]["series"]
            return series["value"]

        assert value("service_jobs_submitted_total") == 5
        assert value("service_jobs_completed_total") == 5
        assert "service_jobs_failed_total" not in snapshot
        assert value("service_jobs_in_flight") == 0
        assert value("service_jobs_queued") == 0
        assert value("service_pool_size") == service.pool_size
        assert value("service_queue_depth") == service.queue_depth
        # 1 sequential + 5 pooled joins, every transfer accounted exactly.
        (joins,) = snapshot["joins_total"]["series"]
        assert joins["value"] == 6
        (transfers,) = snapshot["transfers_total"]["series"]
        assert transfers["value"] == 6 * sequential.transfers

    def test_mixed_algorithms_concurrently(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        predicate = BinaryAsMulti(Equality("key"))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        with service:
            futures = [
                service.submit("C-001", predicate, algorithm=algorithm)
                for algorithm in ("algorithm4", "algorithm5", "algorithm6",
                                  "algorithm5")
            ]
            results = [future.result(timeout=120) for future in futures]
        for result in results:
            assert result.result.same_multiset(reference)

    def test_saturation_raises_when_not_blocking(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        predicate = BinaryAsMulti(Equality("key"))

        import threading

        from repro.errors import ServiceSaturatedError

        gate = threading.Event()
        slow = JoinService(memory=4, pool_size=1, queue_depth=1)
        slow.register_contract(Contract(
            contract_id="C-001", data_owners=("airline", "agency"),
            recipient="screening-office", permitted_predicate="key = key",
        ))
        slow.ingest(airline, "C-001", wl.left)
        slow.ingest(agency, "C-001", wl.right)

        original = slow._fresh_context

        def stalled():
            gate.wait(timeout=60)
            return original()

        slow._fresh_context = stalled
        with slow:
            first = slow.submit("C-001", predicate)   # occupies the worker
            second = slow.submit("C-001", predicate)  # occupies the queue
            with pytest.raises(ServiceSaturatedError):
                slow.submit("C-001", predicate, block=False)
            gate.set()
            assert first.result(timeout=120).result is not None
            assert second.result(timeout=120).result is not None
        snapshot = slow.metrics.to_dict()
        (rejected,) = snapshot["service_jobs_rejected_total"]["series"]
        assert rejected["value"] == 1

    def test_submit_refuses_checkpoint_and_injected_host_modes(self, scenario):
        wl, *_ = scenario
        from repro.errors import ConfigurationError
        from repro.hardware.host import HostMemory

        predicate = BinaryAsMulti(Equality("key"))
        checkpointed = JoinService(memory=4, checkpoint_interval=64)
        with pytest.raises(ConfigurationError):
            checkpointed.submit("C-001", predicate)
        pinned = JoinService(memory=4, host=HostMemory())
        with pytest.raises(ConfigurationError):
            pinned.submit("C-001", predicate)

    def test_encrypted_upload_path_matches_plaintext_ingest(self, scenario):
        """ingest_upload (the wire-facing half) accepts exactly what ingest
        would have staged: same counts, same join result."""
        wl, service, _, airline, agency, _ = scenario
        ciphertexts = airline.encrypt_upload("C-001", wl.left)
        assert service.ingest_upload(
            "airline", "C-001", wl.left.schema, ciphertexts
        ) == len(wl.left)
        service.ingest(agency, "C-001", wl.right)
        result = service.execute("C-001", BinaryAsMulti(Equality("key")))
        reference = nested_loop_join(wl.left, wl.right, Equality("key"))
        assert result.result.same_multiset(reference)

    def test_encrypted_upload_rejects_foreign_contract(self, scenario):
        wl, service, _, airline, _, _ = scenario
        from repro.errors import AuthenticationError

        service.register_contract(Contract(
            contract_id="C-002", data_owners=("airline",),
            recipient="screening-office", permitted_predicate="key = key",
        ))
        ciphertexts = airline.encrypt_upload("C-002", wl.left)
        with pytest.raises(AuthenticationError):
            service.ingest_upload("airline", "C-001", wl.left.schema, ciphertexts)

    def test_failed_join_counts_and_releases_slot(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        predicate = BinaryAsMulti(Equality("key"))
        with service:
            # Agency never uploaded: the pooled join raises ContractError.
            future = service.submit("C-001", predicate)
            with pytest.raises(ContractError):
                future.result(timeout=120)
            # The slot was released: more submissions still go through.
            service.ingest(agency, "C-001", wl.right)
            ok = service.submit("C-001", predicate).result(timeout=120)
        assert len(ok.result) > 0
        snapshot = service.metrics.to_dict()
        (failed,) = snapshot["service_jobs_failed_total"]["series"]
        assert failed["value"] == 1
        (in_flight,) = snapshot["service_jobs_in_flight"]["series"]
        assert in_flight["value"] == 0


class TestShutdownSemantics:
    """Regression tests for submit()/close() interplay (test-hardening PR).

    Before the fix, submitting after close() silently spun up a fresh pool
    (leaking threads past the context manager), and queued futures cancelled
    at shutdown leaked their admission slots.
    """

    def _saturable_service(self, wl, airline, agency, gate):
        service = JoinService(memory=4, pool_size=1, queue_depth=2)
        service.register_contract(Contract(
            contract_id="C-001", data_owners=("airline", "agency"),
            recipient="screening-office", permitted_predicate="key = key",
        ))
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        original = service._fresh_context

        def stalled():
            gate.wait(timeout=60)
            return original()

        service._fresh_context = stalled
        return service

    def test_submit_after_close_raises_service_closed(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        from repro.errors import ServiceClosedError

        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        predicate = BinaryAsMulti(Equality("key"))
        with service:
            service.submit("C-001", predicate).result(timeout=120)
        assert service.closed
        with pytest.raises(ServiceClosedError):
            service.submit("C-001", predicate)
        # No pool was resurrected by the refused submission.
        assert service._pool is None

    def test_submit_after_close_without_any_prior_submit(self, scenario):
        _, service, _, _, _, _ = scenario
        from repro.errors import ServiceClosedError

        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit("C-001", BinaryAsMulti(Equality("key")))

    def test_close_is_idempotent_and_execute_stays_available(self, scenario):
        wl, service, _, airline, agency, _ = scenario
        service.ingest(airline, "C-001", wl.left)
        service.ingest(agency, "C-001", wl.right)
        service.close()
        service.close()
        result = service.execute("C-001", BinaryAsMulti(Equality("key")))
        assert len(result.result) > 0

    def test_close_drains_queued_work_by_default(self, small_workload):
        import threading
        from concurrent.futures import Future

        wl = small_workload
        airline, agency = Party("airline"), Party("agency")
        gate = threading.Event()
        service = self._saturable_service(wl, airline, agency, gate)
        predicate = BinaryAsMulti(Equality("key"))
        futures = [service.submit("C-001", predicate) for _ in range(3)]
        gate.set()
        service.close()  # wait=True: every admitted join still completes
        for future in futures:
            assert isinstance(future, Future)
            assert len(future.result(timeout=1).result) > 0

    def test_close_cancel_pending_cancels_queue_and_frees_slots(self, small_workload):
        import threading
        from concurrent.futures import CancelledError

        wl = small_workload
        airline, agency = Party("airline"), Party("agency")
        gate = threading.Event()
        service = self._saturable_service(wl, airline, agency, gate)
        predicate = BinaryAsMulti(Equality("key"))
        running = service.submit("C-001", predicate)
        queued = [service.submit("C-001", predicate) for _ in range(2)]

        closer = threading.Thread(
            target=service.close, kwargs={"cancel_pending": True}
        )
        closer.start()
        gate.set()  # release the worker so the running join can finish
        closer.join(timeout=120)
        assert not closer.is_alive(), "close() hung on queued work"

        assert len(running.result(timeout=1).result) > 0
        for future in queued:
            assert future.cancelled()
            with pytest.raises(CancelledError):
                future.result(timeout=1)

        # Every admission slot is back: the semaphore releases cleanly up to
        # its bound (a leaked slot would allow fewer, an over-release raises).
        for _ in range(service.pool_size + service.queue_depth):
            assert service._slots.acquire(blocking=False)
        assert not service._slots.acquire(blocking=False)

        snapshot = service.metrics.to_dict()
        (cancelled,) = snapshot["service_jobs_cancelled_total"]["series"]
        assert cancelled["value"] == 2
        (queued_gauge,) = snapshot["service_jobs_queued"]["series"]
        assert queued_gauge["value"] == 0
