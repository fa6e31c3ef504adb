"""Integration tests for the networked join service (server + client).

Every test runs a real asyncio server on a loopback socket via
:class:`ServerThread` and drives it with the sync :class:`JoinClient` — the
same deployment shape the CLI and the load benchmark use.  The backpressure
tests deliberately build tiny servers (one-slot services, one-connection
accept bounds, byte budgets of a few dozen bytes) so saturation is
deterministic rather than load-dependent.
"""

import socket
import struct
import threading
import time
import zlib

import pytest

from repro.core.service import Contract, JoinService, Party
from repro.errors import RemoteJoinError, TransientWireError, WireProtocolError
from repro.hardware.resilience import RetryPolicy
from repro.net import wire
from repro.net.client import JoinClient
from repro.net.server import JoinServer, ServerThread, result_fingerprint
from repro.net.wire import (
    ErrorReply,
    FetchPage,
    Ping,
    PredicateSpec,
    Status,
    decode_frame,
    encode_frame,
    encode_relation,
)


@pytest.fixture
def workload(small_workload):
    return small_workload


def make_client(port, **overrides):
    defaults = dict(
        connect_timeout=5.0,
        request_timeout=10.0,
        retry=RetryPolicy(max_retries=6, base_delay_cycles=1, multiplier=2),
        retry_delay_unit=0.01,
    )
    defaults.update(overrides)
    return JoinClient("127.0.0.1", port, **defaults)


def stalled_service(gate: threading.Event, **kwargs):
    """A service whose joins block on ``gate`` before doing any work."""
    service = JoinService(**kwargs)
    inner = service._fresh_context

    def waiting_context(*args, **inner_kwargs):
        gate.wait(timeout=30)
        return inner(*args, **inner_kwargs)

    service._fresh_context = waiting_context
    return service


def local_reference(workload, algorithm="algorithm5"):
    """The same join run fully in process, for fingerprint comparison."""
    service = JoinService(pool_size=1)
    predicate = PredicateSpec.equality(workload.join_attr).build()
    service.register_contract(Contract(
        "c-ref", ("alice", "bob"), "carol", predicate.description,
    ))
    service.ingest(Party("alice"), "c-ref", workload.left)
    service.ingest(Party("bob"), "c-ref", workload.right)
    result = service.execute("c-ref", predicate, algorithm=algorithm)
    delivered = service.deliver(result, Party("carol"), "c-ref")
    service.close()
    return result, delivered


class TestEndToEnd:
    def test_ping(self):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                assert client.ping()
        service.close()

    @pytest.mark.parametrize("algorithm", ["algorithm4", "algorithm5",
                                           "algorithm6"])
    def test_networked_join_bit_identical_to_in_process(self, workload,
                                                        algorithm):
        local, delivered = local_reference(workload, algorithm)
        _, local_rows = encode_relation(delivered)

        service = JoinService(pool_size=2, queue_depth=4)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                job = client.submit_join(
                    "c-e2e", {"alice": workload.left, "bob": workload.right},
                    PredicateSpec.equality(workload.join_attr),
                    recipient="carol", algorithm=algorithm,
                )
                status = job.wait(timeout=60)
                remote = job.result()
        service.close()

        assert status.state == "done"
        assert status.rows == workload.result_size == len(remote)
        assert remote.same_multiset(delivered)
        assert status.result_fingerprint == result_fingerprint(local_rows)
        assert status.trace_fingerprint == local.trace.fingerprint()
        assert status.transfers == local.stats.total

    def test_paging_streams_in_order(self, workload):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                job = client.submit_join(
                    "c-page", {"alice": workload.left, "bob": workload.right},
                    PredicateSpec.equality(workload.join_attr),
                    recipient="carol", page_size=2,
                )
                status = job.wait(timeout=60)
                pages = list(job.pages())
                streamed = list(job.records())
        service.close()

        assert status.pages == -(-workload.result_size // 2)
        assert [p.page for p in pages] == list(range(status.pages))
        assert [p.last for p in pages] == \
            [False] * (status.pages - 1) + [True]
        assert sum(len(p.rows) for p in pages) == workload.result_size
        assert len(streamed) == workload.result_size

    def test_pages_after_wait_polls_status_once(self, workload):
        service = JoinService(pool_size=1)
        server = JoinServer(service)
        with ServerThread(server) as handle:
            with make_client(handle.port) as client:
                job = client.submit_join(
                    "c-poll", {"alice": workload.left, "bob": workload.right},
                    PredicateSpec.equality(workload.join_attr),
                    recipient="carol", page_size=2,
                )
                server._jobs[job.job_id].future.result(timeout=60)
                status = job.wait(timeout=60)
                pages = list(job.pages())
                polls = client.metrics.counter(
                    "client_requests_total", type="Status").value
        service.close()

        assert len(pages) == status.pages
        # wait() saw the job done at its first poll; pages() reuses that.
        assert polls == 1

    def test_shared_contract_across_connections(self, workload):
        # Second client reuses the registered contract with identical terms.
        service = JoinService(pool_size=2, queue_depth=4)
        with ServerThread(JoinServer(service)) as handle:
            spec = PredicateSpec.equality(workload.join_attr)
            relations = {"alice": workload.left, "bob": workload.right}
            with make_client(handle.port) as first:
                job1 = first.submit_join("c-shared", relations, spec,
                                         recipient="carol")
                fp1 = job1.wait(60).result_fingerprint
            with make_client(handle.port) as second:
                job2 = second.submit_join("c-shared", relations, spec,
                                          recipient="carol")
                fp2 = job2.wait(60).result_fingerprint
        service.close()
        assert fp1 == fp2

    def test_server_metrics_populated(self, workload):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                job = client.submit_join(
                    "c-met", {"alice": workload.left, "bob": workload.right},
                    PredicateSpec.equality(workload.join_attr),
                    recipient="carol",
                )
                job.wait(timeout=60)
                list(job.pages())
                metrics = service.metrics
                counts = {
                    name: metrics.counter(name).value
                    for name in (
                        "server_connections_total",
                        "server_joins_submitted_total",
                        "server_joins_completed_total",
                        "server_pages_served_total",
                        "server_bytes_read_total",
                        "server_bytes_written_total",
                    )
                }
                submit_frames = metrics.counter(
                    "server_frames_total", type="SubmitJoin"
                ).value
        service.close()
        assert counts["server_connections_total"] == 1
        assert counts["server_joins_submitted_total"] == 1
        assert counts["server_joins_completed_total"] == 1
        assert counts["server_pages_served_total"] >= 1
        assert counts["server_bytes_read_total"] > 0
        assert counts["server_bytes_written_total"] > 0
        assert submit_frames == 1


class TestBackpressure:
    def test_saturated_submit_retries_to_success(self, workload):
        gate = threading.Event()
        service = stalled_service(gate, pool_size=1, queue_depth=0)
        relations = {"alice": workload.left, "bob": workload.right}
        spec = PredicateSpec.equality(workload.join_attr)

        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as first:
                job1 = first.submit_join("c-sat", relations, spec,
                                         recipient="carol")

                sleeps = []

                def sleep_then_release(delay):
                    sleeps.append(delay)
                    gate.set()  # unblock job1, freeing the only slot
                    time.sleep(0.05)

                second = make_client(handle.port, sleep=sleep_then_release)
                job2 = second.submit_join("c-sat", relations, spec,
                                          recipient="carol")
                assert job1.wait(60).state == "done"
                assert job2.wait(60).state == "done"
                assert job1.status().result_fingerprint == \
                    job2.status().result_fingerprint
                retried = second.metrics.counter("client_retries_total").value
                second.close()
        service.close()
        assert sleeps, "second submit should have been refused at least once"
        assert retried >= 1
        # RetryPolicy semantics: geometric backoff in delay units.
        policy = RetryPolicy(max_retries=6, base_delay_cycles=1, multiplier=2)
        assert sleeps[0] == pytest.approx(policy.delay(0) * 0.01)

    def test_retries_exhausted_raises_transient(self, workload):
        gate = threading.Event()
        service = stalled_service(gate, pool_size=1, queue_depth=0)
        relations = {"alice": workload.left, "bob": workload.right}
        spec = PredicateSpec.equality(workload.join_attr)
        try:
            with ServerThread(JoinServer(service)) as handle:
                with make_client(handle.port) as first:
                    first.submit_join("c-exh", relations, spec,
                                      recipient="carol")
                    impatient = make_client(
                        handle.port,
                        retry=RetryPolicy(max_retries=1, base_delay_cycles=1,
                                          multiplier=2),
                        retry_delay_unit=0.001,
                    )
                    with pytest.raises(TransientWireError, match="saturated"):
                        impatient.submit_join("c-exh", relations, spec,
                                              recipient="carol")
                    exhausted = impatient.metrics.counter(
                        "client_retries_exhausted_total"
                    ).value
                    impatient.close()
                    assert exhausted == 1
        finally:
            gate.set()
            service.close()

    def test_fetch_page_before_done_is_retryable_not_ready(self, workload):
        gate = threading.Event()
        service = stalled_service(gate, pool_size=1, queue_depth=0)
        try:
            with ServerThread(JoinServer(service)) as handle:
                with make_client(handle.port) as client:
                    job = client.submit_join(
                        "c-nr",
                        {"alice": workload.left, "bob": workload.right},
                        PredicateSpec.equality(workload.join_attr),
                        recipient="carol",
                    )
                    eager = make_client(
                        handle.port,
                        retry=RetryPolicy(max_retries=0, base_delay_cycles=1,
                                          multiplier=2),
                    )
                    with pytest.raises(TransientWireError, match="not_ready"):
                        eager.request(FetchPage(job.job_id, 0))
                    eager.close()
                    gate.set()
                    assert job.wait(60).state == "done"
        finally:
            gate.set()
            service.close()

    def test_connection_limit_rejected_then_retried(self):
        service = JoinService(pool_size=1)
        server = JoinServer(service, max_connections=1)
        with ServerThread(server) as handle:
            occupant = make_client(handle.port)
            assert occupant.ping()  # holds the only connection slot

            def sleep_and_free(delay):
                occupant.close()
                time.sleep(0.1)

            second = make_client(handle.port, sleep=sleep_and_free)
            assert second.ping()
            assert second.metrics.counter("client_retries_total").value >= 1
            second.close()
            rejected = service.metrics.counter(
                "server_connections_rejected_total"
            ).value
        service.close()
        assert rejected >= 1

    def test_oversized_frame_refused_but_connection_survives(self):
        service = JoinService(pool_size=1)
        server = JoinServer(service, per_connection_bytes=64)
        with ServerThread(server) as handle:
            client = make_client(handle.port)
            with pytest.raises(RemoteJoinError) as excinfo:
                client.request(Status("J" * 200))
            assert excinfo.value.code == "too_large"
            # The oversized frame was drained, not buffered: the same
            # connection keeps working.
            assert client.ping()
            assert client.metrics.counter("client_connects_total").value == 1
            client.close()
        service.close()

    def test_global_byte_budget_saturates(self):
        service = JoinService(pool_size=1)
        server = JoinServer(service, per_connection_bytes=256, global_bytes=32)
        with ServerThread(server) as handle:
            client = make_client(
                handle.port,
                retry=RetryPolicy(max_retries=1, base_delay_cycles=1,
                                  multiplier=2),
                retry_delay_unit=0.001,
            )
            with pytest.raises(TransientWireError, match="byte budget"):
                client.request(Status("J" * 100))
            client.close()
        service.close()

    def test_idle_timeout_disconnect_is_transparent(self):
        service = JoinService(pool_size=1)
        server = JoinServer(service, idle_timeout=0.05)
        with ServerThread(server) as handle:
            client = make_client(handle.port)
            assert client.ping()
            time.sleep(0.4)  # server closes the idle connection
            assert client.ping()  # reconnects under the covers
            assert client.metrics.counter("client_connects_total").value >= 2
            client.close()
        service.close()


class TestFailureModes:
    def test_unknown_algorithm_is_contract_error(self, workload):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                with pytest.raises(RemoteJoinError) as excinfo:
                    client.submit_join(
                        "c-alg",
                        {"alice": workload.left, "bob": workload.right},
                        PredicateSpec.equality(workload.join_attr),
                        recipient="carol", algorithm="algorithm9",
                    )
        service.close()
        assert excinfo.value.code == "contract"

    def test_conflicting_contract_terms_rejected(self, workload):
        service = JoinService(pool_size=1)
        relations = {"alice": workload.left, "bob": workload.right}
        spec = PredicateSpec.equality(workload.join_attr)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                job = client.submit_join("c-con", relations, spec,
                                         recipient="carol")
                job.wait(60)
                with pytest.raises(RemoteJoinError) as excinfo:
                    client.submit_join("c-con", relations, spec,
                                       recipient="mallory")
        service.close()
        assert excinfo.value.code == "contract"
        assert "different terms" in str(excinfo.value)

    def test_unknown_job_id(self):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                with pytest.raises(RemoteJoinError) as excinfo:
                    client.request(Status("J-999999"))
        service.close()
        assert excinfo.value.code == "unknown_job"

    def test_failed_join_surfaces_remote_error(self, workload):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            with make_client(handle.port) as client:
                job = client.submit_join(
                    "c-bad",
                    {"alice": workload.left, "bob": workload.right},
                    PredicateSpec.equality("no_such_attr"),
                    recipient="carol",
                )
                with pytest.raises(RemoteJoinError):
                    job.wait(timeout=60)
                assert job.status().state == "failed"
        service.close()

    def test_cancel_queued_join(self, workload):
        gate = threading.Event()
        service = stalled_service(gate, pool_size=1, queue_depth=1)
        relations = {"alice": workload.left, "bob": workload.right}
        spec = PredicateSpec.equality(workload.join_attr)
        try:
            with ServerThread(JoinServer(service)) as handle:
                with make_client(handle.port) as client:
                    running = client.submit_join("c-can", relations, spec,
                                                 recipient="carol")
                    queued = client.submit_join("c-can", relations, spec,
                                                recipient="carol")
                    assert queued.cancel() is True
                    gate.set()
                    assert running.wait(60).state == "done"
                    with pytest.raises(RemoteJoinError) as excinfo:
                        queued.wait(timeout=60)
                    assert excinfo.value.code == "cancelled"
        finally:
            gate.set()
            service.close()


class TestRawSocketEdges:
    """Hand-rolled frames: behaviours the well-behaved client can't produce."""

    def raw_exchange(self, port, data, recv=True):
        with socket.create_connection(("127.0.0.1", port), timeout=5) as sock:
            sock.settimeout(5)
            sock.sendall(data)
            if not recv:
                return b""
            chunks = []
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
                try:
                    frame, _ = decode_frame(b"".join(chunks))
                    return frame
                except WireProtocolError:
                    continue
            return b"".join(chunks)

    def test_garbage_bytes_get_protocol_error_reply(self):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            reply = self.raw_exchange(handle.port, b"NOT-A-FRAME-AT-ALL!!")
        service.close()
        assert isinstance(reply, ErrorReply)
        assert reply.code == "protocol"
        assert not reply.retryable

    def test_corrupted_crc_gets_protocol_error_reply(self):
        good = encode_frame(Ping())
        corrupted = good[:-1] + bytes([good[-1] ^ 0xFF])
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            reply = self.raw_exchange(handle.port, corrupted)
        service.close()
        assert isinstance(reply, ErrorReply)
        assert reply.code == "protocol"

    def test_version_mismatch_gets_protocol_error_reply(self):
        frame = bytearray(encode_frame(Ping()))
        frame[2] = wire.PROTOCOL_VERSION + 7
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            reply = self.raw_exchange(handle.port, bytes(frame))
        service.close()
        assert isinstance(reply, ErrorReply)
        assert reply.code == "protocol"

    def test_length_bomb_header_refused(self):
        header = wire.MAGIC + struct.pack(
            ">BBI", wire.PROTOCOL_VERSION, Ping.TYPE, wire.MAX_FRAME_BYTES + 1
        )
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            reply = self.raw_exchange(handle.port, header)
        service.close()
        assert isinstance(reply, ErrorReply)
        assert reply.code == "protocol"

    def test_valid_frame_after_corrupt_one_still_served(self):
        payload = b""
        bad_crc = wire.MAGIC + struct.pack(
            ">BBI", wire.PROTOCOL_VERSION, Ping.TYPE, 0
        ) + struct.pack(">I", zlib.crc32(b"x"))
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            with socket.create_connection(
                ("127.0.0.1", handle.port), timeout=5
            ) as sock:
                sock.settimeout(5)
                sock.sendall(bad_crc)
                first = self._read_frame(sock)
                sock.sendall(encode_frame(Ping()))
                second = self._read_frame(sock)
        service.close()
        assert isinstance(first, ErrorReply) and first.code == "protocol"
        assert second == wire.Pong()

    def _read_frame(self, sock):
        buffered = b""
        while True:
            chunk = sock.recv(65536)
            assert chunk, "server closed before replying"
            buffered += chunk
            try:
                frame, _ = decode_frame(buffered)
                return frame
            except WireProtocolError:
                continue


class TestServerLifecycle:
    def test_max_joins_server_drains_on_its_own(self, workload):
        service = JoinService(pool_size=1)
        server = JoinServer(service, max_joins=1)
        handle = ServerThread(server).start()
        client = make_client(handle.port)
        job = client.submit_join(
            "c-drain", {"alice": workload.left, "bob": workload.right},
            PredicateSpec.equality(workload.join_attr), recipient="carol",
        )
        assert job.wait(60).state == "done"
        client.close()
        handle.join(timeout=30)
        handle.stop()
        service.close()

    def test_submit_to_closed_service_is_shutting_down(self, workload):
        service = JoinService(pool_size=1)
        with ServerThread(JoinServer(service)) as handle:
            client = make_client(
                handle.port,
                retry=RetryPolicy(max_retries=1, base_delay_cycles=1,
                                  multiplier=2),
                retry_delay_unit=0.001,
            )
            assert client.ping()
            service.close()
            with pytest.raises(TransientWireError, match="shutting_down"):
                client.submit_join(
                    "c-closed",
                    {"alice": workload.left, "bob": workload.right},
                    PredicateSpec.equality(workload.join_attr),
                    recipient="carol",
                )
            client.close()
