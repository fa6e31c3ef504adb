"""The asyncio TCP server wrapping a :class:`JoinService`.

One :class:`JoinServer` owns one service instance (host H + coprocessor pool
T) and speaks the :mod:`repro.net.wire` protocol.  Its job is *admission
control*: the service's bounded pool/queue protects the coprocessors, and the
server adds the network-side budgets in front of it —

* **bounded connections** — beyond ``max_connections`` concurrent clients, a
  new connection is answered with a retryable ``saturated`` error and closed
  (the bounded accept queue);
* **bounded in-flight frames** — at most ``max_in_flight`` frames may be
  executing across all connections; excess frames get ``saturated``;
* **byte budgets** — a frame larger than ``per_connection_bytes`` is drained
  (never buffered) and refused with ``too_large``; when the sum of buffered
  payloads would exceed ``global_bytes``, the frame is drained and refused
  with a retryable ``saturated``.  Draining instead of reading keeps the
  memory bound hard while leaving the stream parseable;
* **timeouts** — a connection idle longer than ``idle_timeout`` is closed;
  a single frame taking longer than ``request_timeout`` to arrive or to
  serve fails the connection.

Saturation inside the service (:class:`~repro.errors.ServiceSaturatedError`
from the non-blocking ``submit``) maps to the same retryable ``saturated``
wire error, so one client-side retry policy covers every backpressure path.

Result pages are rendered through :meth:`JoinService.deliver` — the result is
re-encrypted for the contracted recipient and decoded exactly as the
in-process flow does — then shipped as deterministic fixed-width rows, with
SHA-256 fingerprints over both the access trace and the ordered result
encoding so clients can compare networked runs against local ones bit for
bit.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import Future
from dataclasses import dataclass, field as dataclass_field

from repro.core.base import JoinResult
from repro.core.service import Contract, JoinService, Party
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ContractError,
    ReproError,
    ServiceClosedError,
    ServiceSaturatedError,
    WireProtocolError,
)
from repro.net import wire
from repro.net.journal import (
    JobAccepted,
    JobDelivered,
    JobFinished,
    JobJournal,
)
from repro.net.wire import (
    Cancel,
    Cancelled,
    ErrorReply,
    FetchPage,
    Frame,
    Page,
    Ping,
    Pong,
    Status,
    StatusReply,
    SubmitJoin,
    Submitted,
)
from repro.obs.metrics import MetricsRegistry

KNOWN_ALGORITHMS = (
    "algorithm4", "algorithm5", "algorithm6", "algorithm7", "algorithm8"
)

_DRAIN_CHUNK = 64 * 1024


def result_fingerprint(rows: tuple[bytes, ...]) -> str:
    """SHA-256 over the ordered fixed-width result encoding.

    Deterministic for a given result relation, so a networked join can be
    checked bit-for-bit against the same join run in process.
    """
    digest = hashlib.sha256()
    for row in rows:
        digest.update(row)
    return digest.hexdigest()


@dataclass
class _Job:
    """One admitted join: its future plus lazily rendered result pages."""

    job_id: str
    contract_id: str
    recipient: str
    page_size: int
    future: "Future[JoinResult]"
    schema: object | None = None
    rows: tuple[bytes, ...] | None = None
    trace_fingerprint: str = ""
    res_fingerprint: str = ""
    transfers: int = 0
    error_code: str = ""
    error: str = ""
    rendered: bool = dataclass_field(default=False)
    delivered: bool = dataclass_field(default=False)
    recovered: bool = dataclass_field(default=False)
    lock: threading.Lock = dataclass_field(default_factory=threading.Lock)

    @property
    def state(self) -> str:
        if self.future.cancelled():
            return "cancelled"
        if self.future.done():
            return "failed" if self.future.exception() is not None else "done"
        if self.future.running():
            return "running"
        return "queued"

    @property
    def pages(self) -> int:
        if self.rows is None:
            return 0
        return max(1, -(-len(self.rows) // self.page_size))


class JoinServer:
    """Serve a :class:`JoinService` over TCP with admission control."""

    def __init__(
        self,
        service: JoinService,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        max_connections: int = 64,
        max_in_flight: int = 16,
        per_connection_bytes: int = 8 * 1024 * 1024,
        global_bytes: int = 64 * 1024 * 1024,
        idle_timeout: float = 30.0,
        request_timeout: float = 120.0,
        max_page_size: int = 4096,
        max_joins: int | None = None,
        retain_jobs: int = 256,
        metrics: MetricsRegistry | None = None,
        journal: JobJournal | str | os.PathLike | None = None,
    ) -> None:
        if retain_jobs < 1:
            raise ConfigurationError("the server must retain at least one job")
        self.service = service
        self.host = host
        self.port = port
        self.max_connections = max_connections
        self.max_in_flight = max_in_flight
        self.per_connection_bytes = min(per_connection_bytes, wire.MAX_FRAME_BYTES)
        self.global_bytes = global_bytes
        self.idle_timeout = idle_timeout
        self.request_timeout = request_timeout
        self.max_page_size = max_page_size
        self.max_joins = max_joins
        self.retain_jobs = retain_jobs
        self.metrics = metrics if metrics is not None else service.metrics
        self._owns_journal = isinstance(journal, (str, os.PathLike))
        if isinstance(journal, (str, os.PathLike)):
            journal = JobJournal(journal)
        self.journal = journal
        self._jobs: dict[str, _Job] = {}
        self._job_ids = itertools.count(1)
        # Idempotency token -> job ID, for every non-empty token ever
        # admitted (rebuilt from the journal across restarts).
        self._tokens: dict[str, str] = {}
        # IDs of jobs dropped by the retention budget or known-delivered
        # from a previous life: lookups answer `job_expired`, not
        # `unknown_job`, so clients can tell "gone forever" from "never was".
        self._evicted: set[str] = set()
        # Journalled terminal outcomes from a previous life, keyed by job
        # ID — the fingerprints a recovered re-execution must reproduce.
        self._finished_records: dict[str, JobFinished] = {}
        # Frames execute off the event loop so one slow render cannot stall
        # other connections; these locks serialize the shared mutable state.
        self._submit_lock = threading.Lock()
        self._dispatch_pool: ThreadPoolExecutor | None = None
        self._connections = 0
        self._in_flight = 0
        self._buffered_bytes = 0
        self._submitted_joins = 0
        self._server: asyncio.base_events.Server | None = None
        self._drained: asyncio.Event | None = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Bind the listening socket (port 0 picks a free port).

        With a journal attached, replay runs first — unfinished jobs are
        re-admitted under their original IDs *before* the socket binds, so
        no client request can race recovery.
        """
        self._drained = asyncio.Event()
        self._dispatch_pool = ThreadPoolExecutor(
            max_workers=max(2, self.max_in_flight),
            thread_name_prefix="ppj-net-dispatch",
        )
        if self.journal is not None:
            self._recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self.metrics.gauge(
            "server_max_connections", "admission bound on concurrent clients"
        ).set(self.max_connections)
        self.metrics.gauge(
            "server_max_in_flight", "admission bound on concurrent frames"
        ).set(self.max_in_flight)

    async def stop(self) -> None:
        """Stop accepting connections and close the listener."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._dispatch_pool is not None:
            self._dispatch_pool.shutdown(wait=False, cancel_futures=True)
            self._dispatch_pool = None
        if self.journal is not None and self._owns_journal:
            self.journal.close()

    # -- restart recovery ----------------------------------------------------
    def _recover(self) -> None:
        """Replay the journal: re-admit every accepted-but-undelivered job.

        Recovered jobs keep their original IDs (the ID counter resumes past
        the highest journalled number), the token map is rebuilt so
        resubmission dedup survives the restart, and delivered jobs become
        ``job_expired`` lookups.  A job that *finished* before the crash but
        was never delivered still re-executes — its result pages lived only
        in memory — and :meth:`_render_locked` verifies the recomputed
        fingerprints against the journalled ones bit for bit.
        """
        assert self.journal is not None
        started = time.monotonic()
        state = self.journal.recover()
        self._job_ids = itertools.count(state.max_job_number + 1)
        self._tokens.update(state.tokens)
        self._finished_records.update(state.finished)
        self._evicted |= state.delivered
        if state.torn_bytes:
            self.metrics.counter(
                "server_journal_torn_bytes_total",
                "torn-tail bytes discarded during journal replay",
            ).inc(state.torn_bytes)
        recovered = 0
        for record in state.pending:
            try:
                submit = record.decode_submit()
                self._admit_recovered(record.job_id, submit)
            except ReproError:
                # A corrupt nested frame or a contract the service now
                # refuses cannot be re-run; the ID answers `job_expired`
                # so a polling client re-submits instead of hanging.
                self._evicted.add(record.job_id)
                self.metrics.counter(
                    "server_recovery_failed_total",
                    "journalled jobs that could not be re-admitted",
                ).inc()
                continue
            recovered += 1
        if recovered:
            self.metrics.counter(
                "server_jobs_recovered_total",
                "journalled jobs re-admitted after a restart",
            ).inc(recovered)
        self.metrics.gauge(
            "server_recovery_seconds", "wall-clock time spent in replay"
        ).set(time.monotonic() - started)

    def _admit_recovered(self, job_id: str, frame: SubmitJoin) -> None:
        """Re-admit one journalled submission under its original job ID.

        Unlike :meth:`_submit` this path never dedups (the journal already
        proved admission), never re-journals, and blocks for a queue slot —
        replay happens before the listener binds, so there is nobody to
        answer ``saturated`` to and the pool drains the backlog on its own.
        """
        predicate = frame.predicate.build()
        contract = Contract(
            contract_id=frame.contract_id,
            data_owners=frame.data_owners,
            recipient=frame.recipient,
            permitted_predicate=predicate.description,
        )
        with self._submit_lock:
            existing = self.service._contracts.get(frame.contract_id)
            if existing is None:
                self.service.register_contract(contract)
            elif existing != contract:
                raise ContractError(
                    f"journalled contract {frame.contract_id!r} conflicts "
                    "with the registered terms"
                )
            for upload in frame.uploads:
                self.service.ingest_upload(
                    upload.owner, frame.contract_id, upload.schema,
                    list(upload.ciphertexts),
                )
            future = self.service.submit(
                frame.contract_id, predicate, algorithm=frame.algorithm,
                epsilon=frame.epsilon, block=True,
            )
            page_size = max(1, min(frame.page_size, self.max_page_size))
            self._jobs[job_id] = _Job(
                job_id=job_id, contract_id=frame.contract_id,
                recipient=frame.recipient, page_size=page_size,
                future=future, recovered=True,
            )

    async def wait_drained(self) -> None:
        """Wait for ``max_joins`` submissions to be served to completion.

        Only meaningful with ``max_joins`` set (the CLI's smoke mode);
        otherwise this never resolves and callers should wait on their own
        shutdown signal.
        """
        assert self._drained is not None, "server not started"
        await self._drained.wait()

    def _check_drained(self) -> None:
        if (
            self._drained is not None
            and self.max_joins is not None
            and self._submitted_joins >= self.max_joins
            and self._connections == 0
            and all(job.future.done() for job in self._jobs.values())
        ):
            self._drained.set()

    # -- connection handling -------------------------------------------------
    async def _send(self, writer: asyncio.StreamWriter, frame: Frame) -> None:
        data = wire.encode_frame(frame)
        writer.write(data)
        self.metrics.counter(
            "server_bytes_written_total", "frame bytes sent to clients"
        ).inc(len(data))
        await writer.drain()

    async def _drain_stream(self, reader: asyncio.StreamReader, count: int) -> None:
        """Discard ``count`` bytes in bounded chunks (budget-refused frames)."""
        remaining = count
        while remaining > 0:
            chunk = await reader.readexactly(min(remaining, _DRAIN_CHUNK))
            remaining -= len(chunk)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if (
            self._connections >= self.max_connections
            or (self.max_joins is not None
                and self._submitted_joins >= self.max_joins)
        ):
            self.metrics.counter(
                "server_connections_rejected_total",
                "connections refused by the accept bound",
            ).inc()
            try:
                await self._send(writer, ErrorReply(
                    "saturated", "server connection limit reached",
                    retryable=True,
                ))
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._connections += 1
        self.metrics.counter(
            "server_connections_total", "connections accepted"
        ).inc()
        self.metrics.gauge(
            "server_connections_active", "currently open client connections"
        ).set(self._connections)
        try:
            await self._serve_connection(reader, writer)
        except (
            asyncio.IncompleteReadError, ConnectionError, OSError,
            asyncio.TimeoutError,
        ):
            pass  # disconnects and idle timeouts are normal connection ends
        except asyncio.CancelledError:
            # Server shutdown cancelled this handler mid-read.  asyncio's
            # stream machinery retrieves the handler's exception, so absorb
            # the cancellation here instead of letting it surface as noise.
            pass
        finally:
            self._connections -= 1
            self.metrics.gauge("server_connections_active").set(self._connections)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._check_drained()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        loop = asyncio.get_running_loop()
        while True:
            header = await asyncio.wait_for(
                reader.readexactly(wire.HEADER_SIZE), self.idle_timeout
            )
            try:
                frame_type, length = wire.parse_header(header)
            except WireProtocolError as exc:
                self._count_error("protocol")
                await self._send(writer, ErrorReply("protocol", str(exc)))
                return  # the stream is unparseable from here on
            body_size = length + wire.TRAILER_SIZE

            if length > self.per_connection_bytes:
                await self._drain_stream(reader, body_size)
                self._count_error("too_large")
                await self._send(writer, ErrorReply(
                    "too_large",
                    f"frame payload of {length} bytes exceeds the "
                    f"{self.per_connection_bytes}-byte connection budget",
                ))
                continue
            if self._buffered_bytes + length > self.global_bytes:
                await self._drain_stream(reader, body_size)
                self._count_error("saturated")
                await self._send(writer, ErrorReply(
                    "saturated", "server byte budget exhausted; retry later",
                    retryable=True,
                ))
                continue

            self._buffered_bytes += length
            self.metrics.gauge(
                "server_buffered_bytes", "payload bytes currently buffered"
            ).set(self._buffered_bytes)
            try:
                body = await asyncio.wait_for(
                    reader.readexactly(body_size), self.request_timeout
                )
                self.metrics.counter(
                    "server_bytes_read_total", "frame bytes received"
                ).inc(wire.HEADER_SIZE + body_size)
                try:
                    frame = wire.decode_payload(
                        frame_type, body[:length], body[length:]
                    )
                except WireProtocolError as exc:
                    self._count_error("protocol")
                    await self._send(writer, ErrorReply("protocol", str(exc)))
                    continue

                if self._in_flight >= self.max_in_flight:
                    self._count_error("saturated")
                    await self._send(writer, ErrorReply(
                        "saturated",
                        f"{self._in_flight} frames already in flight",
                        retryable=True,
                    ))
                    continue
                self._in_flight += 1
                self.metrics.gauge(
                    "server_in_flight_frames", "frames executing right now"
                ).set(self._in_flight)
                started = loop.time()
                try:
                    pool = self._dispatch_pool
                    try:
                        if pool is None:
                            raise RuntimeError("dispatch pool is gone")
                        future = loop.run_in_executor(
                            pool, self._dispatch, frame)
                    except RuntimeError:
                        # Racing stop(): the dispatch pool is already torn
                        # down (or tears down between the check and the
                        # submit).  Drop the connection — to the client this
                        # is indistinguishable from the crash in progress.
                        return
                    reply = await asyncio.wait_for(
                        future, self.request_timeout)
                finally:
                    self._in_flight -= 1
                    self.metrics.gauge("server_in_flight_frames").set(
                        self._in_flight
                    )
                self.metrics.counter(
                    "server_frames_total", "request frames served",
                    type=type(frame).__name__,
                ).inc()
                self.metrics.histogram(
                    "server_request_seconds", "frame service time",
                ).observe(loop.time() - started)
                await self._send(writer, reply)
            finally:
                self._buffered_bytes -= length
                self.metrics.gauge("server_buffered_bytes").set(
                    self._buffered_bytes
                )

    def _count_error(self, code: str) -> None:
        self.metrics.counter(
            "server_errors_total", "error replies sent", code=code
        ).inc()

    # -- dispatch ------------------------------------------------------------
    def _dispatch(self, frame: Frame) -> Frame:
        try:
            if isinstance(frame, Ping):
                return Pong()
            if isinstance(frame, SubmitJoin):
                return self._submit(frame)
            if isinstance(frame, Status):
                return self._status(frame)
            if isinstance(frame, FetchPage):
                return self._fetch_page(frame)
            if isinstance(frame, Cancel):
                return self._cancel(frame)
        except ErrorResponse as exc:
            self._count_error(exc.reply.code)
            return exc.reply
        except ReproError as exc:  # anything uncaught is an internal error
            self._count_error("internal")
            return ErrorReply("internal", f"{type(exc).__name__}: {exc}")
        self._count_error("protocol")
        return ErrorReply("protocol", f"unserviceable frame {type(frame).__name__}")

    def _submit(self, frame: SubmitJoin) -> Frame:
        if frame.algorithm not in KNOWN_ALGORITHMS:
            raise ErrorResponse(ErrorReply(
                "contract", f"unknown algorithm {frame.algorithm!r}"
            ))
        if not frame.uploads:
            raise ErrorResponse(ErrorReply("contract", "no uploads in submission"))
        try:
            predicate = frame.predicate.build()
        except ReproError as exc:
            raise ErrorResponse(ErrorReply("contract", str(exc)))
        contract = Contract(
            contract_id=frame.contract_id,
            data_owners=frame.data_owners,
            recipient=frame.recipient,
            permitted_predicate=predicate.description,
        )
        with self._submit_lock:
            if frame.token:
                known = self._tokens.get(frame.token)
                if known is not None and known not in self._evicted:
                    # The journal (or this life's table) already admitted
                    # this exact submission: answer with the original job
                    # instead of executing the join a second time.
                    self.metrics.counter(
                        "server_jobs_deduped_total",
                        "resubmissions answered with the original job ID",
                    ).inc()
                    return Submitted(known)
                if known is not None:
                    # The token maps to an evicted job: its results are
                    # gone (delivered before a crash, or aged out), so the
                    # only way to honour the resubmission is a fresh —
                    # deterministic, bit-identical — re-execution.
                    self.metrics.counter(
                        "server_jobs_readmitted_total",
                        "expired jobs re-admitted via their idempotency token",
                    ).inc()
            existing = self.service._contracts.get(frame.contract_id)
            if existing is None:
                self.service.register_contract(contract)
            elif existing != contract:
                raise ErrorResponse(ErrorReply(
                    "contract",
                    f"contract {frame.contract_id!r} is already registered "
                    "with different terms",
                ))
            try:
                for upload in frame.uploads:
                    self.service.ingest_upload(
                        upload.owner, frame.contract_id, upload.schema,
                        list(upload.ciphertexts),
                    )
            except (ContractError, AuthenticationError) as exc:
                raise ErrorResponse(ErrorReply("contract", str(exc)))
            page_size = max(1, min(frame.page_size, self.max_page_size))
            try:
                future = self.service.submit(
                    frame.contract_id, predicate, algorithm=frame.algorithm,
                    epsilon=frame.epsilon, block=False,
                )
            except ServiceSaturatedError as exc:
                raise ErrorResponse(ErrorReply(
                    "saturated", str(exc), retryable=True
                ))
            except ServiceClosedError as exc:
                raise ErrorResponse(ErrorReply(
                    "shutting_down", str(exc), retryable=True
                ))
            job_id = f"J-{next(self._job_ids):06d}"
            self._jobs[job_id] = _Job(
                job_id=job_id, contract_id=frame.contract_id,
                recipient=frame.recipient, page_size=page_size, future=future,
            )
            if self.journal is not None:
                # Durable before the ack: once the client reads `Submitted`,
                # this job survives any crash of the server process.
                self.journal.append(JobAccepted(
                    job_id, frame.token, wire.encode_frame(frame)
                ))
            if frame.token:
                self._tokens[frame.token] = job_id
            self._submitted_joins += 1
            self._evict_finished_locked()
        self.metrics.counter(
            "server_joins_submitted_total", "joins admitted over the wire"
        ).inc()
        return Submitted(job_id)

    def _evict_finished_locked(self) -> None:
        """Drop the oldest *finished* jobs beyond the ``retain_jobs`` budget.

        A long-lived server admits joins forever (the workload suite's
        series-of-queries traffic resubmits the same contracts for hours);
        without eviction the job table — and every rendered result page in
        it — grows without bound.  Only finished jobs (done, failed, or
        cancelled) are eligible: queued and running joins are always kept,
        so the table may transiently exceed the budget by the pool + queue
        bound.  A client polling an evicted job sees ``unknown_job``, the
        same answer a restarted server would give.  Callers hold
        ``_submit_lock``.
        """
        if len(self._jobs) <= self.retain_jobs:
            return
        excess = len(self._jobs) - self.retain_jobs
        # Stop at the excess-th finished job: insertion == admission order.
        evicted = list(itertools.islice(
            (job_id for job_id, job in self._jobs.items() if job.future.done()),
            excess))
        for job_id in evicted:
            del self._jobs[job_id]
            self._evicted.add(job_id)
        if evicted:
            self.metrics.counter(
                "server_jobs_evicted_total",
                "finished jobs dropped by the retention budget",
            ).inc(len(evicted))

    def _job(self, job_id: str) -> _Job:
        job = self._jobs.get(job_id)
        if job is None:
            if job_id in self._evicted:
                # Distinct, retryable answer: the job existed but its slot
                # was reclaimed (retention budget) or its outcome was
                # already consumed before a restart.  Retryable so a client
                # can fall back to resubmitting under the same token.
                self.metrics.counter(
                    "server_evicted_lookups_total",
                    "Status/FetchPage hits on evicted jobs",
                ).inc()
                raise ErrorResponse(ErrorReply(
                    "job_expired",
                    f"job {job_id!r} was evicted by the retention budget",
                    retryable=True,
                ))
            raise ErrorResponse(ErrorReply(
                "unknown_job", f"no job {job_id!r} on this server"
            ))
        return job

    def _render(self, job: _Job) -> None:
        """Materialize a finished job's pages, fingerprints, and error info."""
        with job.lock:
            self._render_locked(job)

    def _render_locked(self, job: _Job) -> None:
        if job.rendered:
            return
        state = job.state
        if state == "failed":
            exc = job.future.exception()
            job.error = f"{type(exc).__name__}: {exc}"
            job.error_code = (
                "contract" if isinstance(exc, (ContractError,
                                               AuthenticationError))
                else "internal"
            )
            job.rendered = True
            self._journal_finished(job, "failed")
            return
        if state != "done":
            return
        result = job.future.result()
        # The recipient-facing delivery path: re-encrypt under the
        # recipient's session key, decrypt on their side, then encode the
        # delivered relation deterministically for paging.
        delivered = self.service.deliver(
            result, Party(job.recipient), job.contract_id
        )
        job.schema, job.rows = wire.encode_relation(delivered)
        job.trace_fingerprint = result.trace.fingerprint()
        job.res_fingerprint = result_fingerprint(job.rows)
        job.transfers = result.stats.total
        job.rendered = True
        self.metrics.counter(
            "server_joins_completed_total", "networked joins fully rendered"
        ).inc()
        self._journal_finished(job, "done")
        self._verify_recovered(job)

    def _journal_finished(self, job: _Job, state: str) -> None:
        """Pin a terminal outcome — fingerprints included — in the journal."""
        if self.journal is None:
            return
        self.journal.append(JobFinished(
            job_id=job.job_id, state=state,
            rows=len(job.rows) if job.rows is not None else 0,
            pages=job.pages if job.rows is not None else 0,
            trace_fingerprint=job.trace_fingerprint,
            result_fingerprint=job.res_fingerprint,
            error_code=job.error_code, error=job.error,
        ))

    def _verify_recovered(self, job: _Job) -> None:
        """Check a recovered re-execution against its first-life outcome."""
        record = self._finished_records.get(job.job_id)
        if not job.recovered or record is None or record.state != "done":
            return
        if (record.trace_fingerprint == job.trace_fingerprint
                and record.result_fingerprint == job.res_fingerprint):
            self.metrics.counter(
                "server_recovered_verified_total",
                "recovered jobs with bit-identical fingerprints",
            ).inc()
        else:
            self.metrics.counter(
                "server_recovered_mismatch_total",
                "recovered jobs whose fingerprints diverged from the journal",
            ).inc()
            job.error_code = "internal"
            job.error = (
                f"recovered job {job.job_id} diverged from its journalled "
                "fingerprints"
            )

    def _journal_delivered(self, job: _Job) -> None:
        """Record that the client consumed the outcome; recovery may forget it."""
        with job.lock:
            if job.delivered:
                return
            job.delivered = True
        if self.journal is not None:
            self.journal.append(JobDelivered(job.job_id))

    def _status(self, frame: Status) -> Frame:
        job = self._job(frame.job_id)
        self._render(job)
        if job.state in ("failed", "cancelled"):
            # The poll delivered the terminal outcome; there is nothing
            # left for the client to fetch, so recovery may forget the job.
            self._journal_delivered(job)
        return StatusReply(
            job_id=job.job_id,
            state=job.state,
            rows=len(job.rows) if job.rows is not None else 0,
            pages=job.pages,
            transfers=job.transfers,
            trace_fingerprint=job.trace_fingerprint,
            result_fingerprint=job.res_fingerprint,
            error_code=job.error_code,
            error=job.error,
        )

    def _fetch_page(self, frame: FetchPage) -> Frame:
        job = self._job(frame.job_id)
        self._render(job)
        state = job.state
        if state in ("queued", "running"):
            raise ErrorResponse(ErrorReply(
                "not_ready", f"job {job.job_id} is {state}", retryable=True
            ))
        if state == "cancelled":
            raise ErrorResponse(ErrorReply(
                "unknown_job", f"job {job.job_id} was cancelled"
            ))
        if state == "failed":
            raise ErrorResponse(ErrorReply(job.error_code, job.error))
        assert job.rows is not None and job.schema is not None
        if frame.page >= job.pages:
            raise ErrorResponse(ErrorReply(
                "protocol",
                f"page {frame.page} out of range (job has {job.pages})",
            ))
        start = frame.page * job.page_size
        rows = job.rows[start:start + job.page_size]
        self.metrics.counter(
            "server_pages_served_total", "result pages shipped"
        ).inc()
        last = frame.page == job.pages - 1
        if last:
            self._journal_delivered(job)
        return Page(
            job_id=job.job_id, page=frame.page,
            last=last, schema=job.schema, rows=rows,
        )

    def _cancel(self, frame: Cancel) -> Frame:
        job = self._job(frame.job_id)
        cancelled = job.future.cancel()
        if cancelled:
            self.metrics.counter(
                "server_joins_cancelled_total", "queued joins withdrawn"
            ).inc()
            self._journal_delivered(job)
        return Cancelled(job.job_id, cancelled)


class ErrorResponse(Exception):
    """Internal control flow: dispatch raises this to answer with an error."""

    def __init__(self, reply: ErrorReply) -> None:
        super().__init__(reply.message)
        self.reply = reply


class ServerThread:
    """Run a :class:`JoinServer` on a background event loop.

    The sync-friendly deployment shim used by tests, the CLI, and the load
    benchmark::

        with ServerThread(JoinServer(service)) as handle:
            client = JoinClient("127.0.0.1", handle.port)
            ...

    ``__exit__`` stops the loop and joins the thread.  When the server was
    built with ``max_joins``, the thread also exits on its own once that many
    joins have been served and every connection has closed.
    """

    def __init__(self, server: JoinServer) -> None:
        self.server = server
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._started = threading.Event()
        self._stop_event: asyncio.Event | None = None
        self._failure: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def host(self) -> str:
        return self.server.host

    def start(self) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="ppj-net-server", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30):
            raise RuntimeError("network server failed to start in time")
        if self._failure is not None:
            # Consume the failure here so a later stop() (say, in a finally
            # block) is a clean no-op instead of raising a second time.
            failure, self._failure = self._failure, None
            self._thread = None
            raise RuntimeError("network server crashed on startup") from failure
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        except BaseException as exc:  # surfaced on stop()/join()
            self._failure = exc
            self._started.set()
        finally:
            self._loop.close()

    async def _main(self) -> None:
        await self.server.start()
        self._stop_event = asyncio.Event()
        self._started.set()
        stop = asyncio.ensure_future(self._stop_event.wait())
        drained = asyncio.ensure_future(self.server.wait_drained())
        try:
            await asyncio.wait(
                {stop, drained}, return_when=asyncio.FIRST_COMPLETED
            )
        finally:
            for task in (stop, drained):
                task.cancel()
            await self.server.stop()
            # Cancel outstanding connection handlers so the loop closes
            # cleanly instead of destroying pending tasks.
            pending = [
                task for task in asyncio.all_tasks()
                if task is not asyncio.current_task()
            ]
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)

    def stop(self) -> None:
        """Stop the server and join its thread.

        Idempotent and unconditionally safe: calling it twice, after a
        failed :meth:`start`, or without ever starting is a no-op — there
        is no live loop to assume.  A thread failure is raised exactly
        once, by whichever call observes it first.
        """
        thread, self._thread = self._thread, None
        if thread is not None:
            if self._loop is not None and self._stop_event is not None:
                try:
                    self._loop.call_soon_threadsafe(self._stop_event.set)
                except RuntimeError:
                    pass  # loop already closed (drained on its own)
            thread.join(timeout=30)
        if self._failure is not None:
            failure, self._failure = self._failure, None
            raise RuntimeError("network server thread failed") from failure

    def join(self, timeout: float | None = None) -> None:
        """Wait for a self-draining (``max_joins``) server to finish."""
        if self._thread is not None:
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
