"""Sync-friendly client for the networked join service.

:class:`JoinClient` owns one TCP connection (re-established transparently
after transient failures) and a bounded exponential-backoff retry loop shared
by every request.  The retry schedule reuses
:class:`~repro.hardware.resilience.RetryPolicy` — the same geometric-delay
semantics the simulated coprocessor applies to transient host faults — with
``retry_delay_unit`` converting abstract delay cycles into seconds.

What retries, what doesn't:

* **transient** (dropped connection, request timeout, retryable error replies
  such as ``saturated`` / ``not_ready`` / ``shutting_down``) → reconnect if
  needed, back off, resend; after the policy is exhausted the last
  :class:`~repro.errors.TransientWireError` is raised;
* **protocol** (malformed reply, version mismatch, non-retryable ``protocol``
  error reply) → :class:`~repro.errors.WireProtocolError` immediately;
* **remote failure** (contract violations, join errors, unknown jobs) →
  :class:`~repro.errors.RemoteJoinError` carrying the wire error code.

Uploads are encrypted *client side* under each owner's session key before
framing — the bytes on the socket are the same ciphertexts
``Party.encrypt_upload`` would hand to an in-process service.  Results come
back as deterministic pages that :class:`RemoteJob` can stream without
materializing the full relation.
"""

from __future__ import annotations

import socket
import time
import uuid
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field

from repro.core.service import Party
from repro.errors import (
    RemoteJoinError,
    TransientWireError,
    WireProtocolError,
)
from repro.hardware.resilience import RetryPolicy
from repro.net import wire
from repro.net.wire import (
    Cancel,
    Cancelled,
    ErrorReply,
    FetchPage,
    Frame,
    Page,
    Ping,
    Pong,
    PredicateSpec,
    Status,
    StatusReply,
    SubmitJoin,
    Submitted,
    Upload,
)
from repro.obs.metrics import MetricsRegistry
from repro.relational.relation import Relation
from repro.relational.tuples import Record

DEFAULT_RETRY = RetryPolicy(max_retries=8, base_delay_cycles=1, multiplier=2)


class JoinClient:
    """Blocking client speaking :mod:`repro.net.wire` to a :class:`JoinServer`.

    Usable as a context manager; the socket is opened lazily on the first
    request and silently re-opened after transient disconnects.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        retry: RetryPolicy = DEFAULT_RETRY,
        retry_delay_unit: float = 0.01,
        metrics: MetricsRegistry | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.host = host
        self.port = port
        self.connect_timeout = connect_timeout
        self.request_timeout = request_timeout
        self.retry = retry
        self.retry_delay_unit = retry_delay_unit
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._sleep = sleep
        self._sock: socket.socket | None = None

    # -- connection management ----------------------------------------------
    def connect(self) -> None:
        if self._sock is not None:
            return
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout
            )
        except OSError as exc:
            raise TransientWireError(
                f"could not connect to {self.host}:{self.port}: {exc}"
            ) from exc
        sock.settimeout(self.request_timeout)
        self._sock = sock
        self.metrics.counter(
            "client_connects_total", "TCP connections opened"
        ).inc()

    def close(self) -> None:
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "JoinClient":
        self.connect()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- framed I/O ----------------------------------------------------------
    def _recv_exactly(self, count: int) -> bytes:
        assert self._sock is not None
        chunks: list[bytes] = []
        remaining = count
        while remaining > 0:
            try:
                chunk = self._sock.recv(remaining)
            except socket.timeout as exc:
                raise TransientWireError(
                    f"request timed out after {self.request_timeout}s"
                ) from exc
            except OSError as exc:
                raise TransientWireError(f"connection failed: {exc}") from exc
            if not chunk:
                # A half-closed connection is a *transient* failure, never a
                # protocol error: the retry policy re-dials and re-sends,
                # and idempotency tokens make the resend safe.
                received = count - remaining
                raise TransientWireError(
                    f"server closed the connection mid-frame "
                    f"({received} of {count} bytes received)"
                    if received or chunks
                    else "server closed the connection"
                )
            chunks.append(chunk)
            remaining -= len(chunk)
        return b"".join(chunks)

    def _exchange(self, frame: Frame) -> Frame:
        """One send/receive round trip on the current connection."""
        assert self._sock is not None
        data = wire.encode_frame(frame)
        try:
            self._sock.sendall(data)
        except socket.timeout as exc:
            raise TransientWireError("send timed out") from exc
        except OSError as exc:
            raise TransientWireError(f"send failed: {exc}") from exc
        self.metrics.counter(
            "client_bytes_written_total", "frame bytes sent"
        ).inc(len(data))
        header = self._recv_exactly(wire.HEADER_SIZE)
        try:
            frame_type, length = wire.parse_header(header)
            body = self._recv_exactly(length + wire.TRAILER_SIZE)
        except WireProtocolError as exc:
            raise self._corrupt_reply(exc) from exc
        self.metrics.counter(
            "client_bytes_read_total", "frame bytes received"
        ).inc(len(header) + len(body))
        try:
            return wire.decode_payload(frame_type, body[:length], body[length:])
        except WireProtocolError as exc:
            raise self._corrupt_reply(exc) from exc

    def _corrupt_reply(self, exc: WireProtocolError) -> TransientWireError:
        """A reply that fails to decode was corrupted *on the wire*.

        The CRC trailer (and header validation) caught it, so nothing wrong
        was acted upon — and because requests are idempotent, re-sending on
        a fresh connection is always safe.  Contrast with an explicit
        ``protocol`` :class:`ErrorReply` from the server, which means *our*
        frame was malformed and stays a hard error.
        """
        self.metrics.counter(
            "client_corrupt_replies_total",
            "undecodable replies discarded and retried",
        ).inc()
        return TransientWireError(f"undecodable reply ({exc}); retrying")

    def request(self, frame: Frame) -> Frame:
        """Send ``frame`` and return the reply, retrying transient failures.

        Raises :class:`TransientWireError` once the retry policy is
        exhausted, :class:`WireProtocolError` on malformed traffic, and
        :class:`RemoteJoinError` for definitive server-side failures.
        """
        self.metrics.counter(
            "client_requests_total", "requests issued",
            type=type(frame).__name__,
        ).inc()
        attempt = 0
        while True:
            transient: TransientWireError
            try:
                self.connect()
                reply = self._exchange(frame)
            except TransientWireError as exc:
                # The connection is in an unknown state; rebuild it.
                self.close()
                transient = exc
            except WireProtocolError:
                self.close()
                raise
            else:
                if not isinstance(reply, ErrorReply):
                    return reply
                if reply.code == "job_expired":
                    # Resending the same request can never succeed against
                    # this server generation — the job's results are gone.
                    # Surface the code so RemoteJob can resubmit through
                    # its idempotency token instead of burning retries.
                    raise RemoteJoinError(reply.message, code=reply.code)
                if reply.retryable:
                    transient = TransientWireError(
                        f"server busy ({reply.code}): {reply.message}"
                    )
                elif reply.code == "protocol":
                    raise WireProtocolError(reply.message)
                else:
                    raise RemoteJoinError(reply.message, code=reply.code)
            if attempt >= self.retry.max_retries:
                self.metrics.counter(
                    "client_retries_exhausted_total",
                    "requests that failed after all retries",
                ).inc()
                raise transient
            self.metrics.counter(
                "client_retries_total", "transient failures retried"
            ).inc()
            self._sleep(self.retry.delay(attempt) * self.retry_delay_unit)
            attempt += 1

    # -- high-level API ------------------------------------------------------
    def ping(self) -> bool:
        return isinstance(self.request(Ping()), Pong)

    def submit_join(
        self,
        contract_id: str,
        relations: Mapping[str, Relation],
        predicate: PredicateSpec,
        recipient: str,
        *,
        algorithm: str = "algorithm5",
        epsilon: float = 1e-20,
        page_size: int = 64,
        token: str | None = None,
    ) -> "RemoteJob":
        """Encrypt ``relations`` (keyed by owner name) and submit the join.

        Each owner's relation is encrypted locally under that owner's
        session key; only ciphertexts are framed.  Returns a handle the
        caller can poll, stream, or cancel.

        ``token`` is the idempotency token framed with the submission; by
        default a fresh random one is generated, making the retry loop safe
        end to end — if the ack is lost and the frame re-sent, the server
        recognises the token and returns the original job instead of
        executing the join twice.  Pass an explicit token to resume a
        submission across client restarts, or ``""`` to opt out.
        """
        if token is None:
            token = uuid.uuid4().hex
        uploads = tuple(
            Upload(
                owner=owner,
                schema=relation.schema,
                ciphertexts=tuple(
                    Party(owner).encrypt_upload(contract_id, relation)
                ),
            )
            for owner, relation in relations.items()
        )
        frame = SubmitJoin(
            contract_id=contract_id,
            data_owners=tuple(relations),
            recipient=recipient,
            predicate=predicate,
            uploads=uploads,
            algorithm=algorithm,
            epsilon=epsilon,
            page_size=page_size,
            token=token,
        )
        reply = self.request(frame)
        if not isinstance(reply, Submitted):
            raise WireProtocolError(
                f"expected Submitted, got {type(reply).__name__}"
            )
        self.metrics.counter(
            "client_joins_submitted_total", "joins accepted by the server"
        ).inc()
        return RemoteJob(
            client=self, job_id=reply.job_id, token=token, submit_frame=frame
        )

    def attach(self, job_id: str, *, token: str = "") -> "RemoteJob":
        """Re-attach to a job submitted earlier (possibly by another client).

        The connection itself needs no ceremony — every request re-dials
        transparently — so attaching is just rebuilding the handle from the
        job ID (and optionally its idempotency token, kept for reference).
        """
        return RemoteJob(client=self, job_id=job_id, token=token)


@dataclass
class RemoteJob:
    """Handle to one join running on a remote :class:`JoinServer`."""

    client: JoinClient
    job_id: str
    #: The idempotency token the submission was framed with ("" if opted
    #: out); resubmitting with the same token always resolves to ``job_id``.
    token: str = ""
    #: The original submission, kept so the handle can transparently
    #: resubmit after a ``job_expired`` reply (job evicted on the server —
    #: delivered before a crash, or aged out of the retention budget).
    #: ``None`` for handles rebuilt via :meth:`JoinClient.attach`.
    submit_frame: SubmitJoin | None = field(default=None, repr=False)
    #: The terminal ``done`` reply :meth:`wait` last saw for ``job_id``, so
    #: :meth:`pages` after a caller's ``wait()`` needs no second poll.
    _done: StatusReply | None = field(default=None, init=False, repr=False,
                                      compare=False)

    def _recover_expired(self, exc: RemoteJoinError) -> None:
        """Resubmit after ``job_expired``; deterministic re-execution.

        The server re-admits the identical frame (same idempotency token)
        and re-executes it bit-identically, so the handle just swaps in the
        new job ID.  Without the original frame there is nothing to resend
        and the error stands.
        """
        if self.submit_frame is None:
            raise exc
        self._done = None  # it described the expired job
        reply = self.client.request(self.submit_frame)
        if not isinstance(reply, Submitted):
            raise WireProtocolError(
                f"expected Submitted, got {type(reply).__name__}"
            )
        self.client.metrics.counter(
            "client_resubmissions_total",
            "expired jobs transparently resubmitted via their token",
        ).inc()
        self.job_id = reply.job_id

    def status(self) -> StatusReply:
        try:
            reply = self.client.request(Status(self.job_id))
        except RemoteJoinError as exc:
            if exc.code != "job_expired":
                raise
            self._recover_expired(exc)
            reply = self.client.request(Status(self.job_id))
        if not isinstance(reply, StatusReply):
            raise WireProtocolError(
                f"expected StatusReply, got {type(reply).__name__}"
            )
        return reply

    def wait(
        self, timeout: float = 60.0, *, poll_interval: float = 0.005
    ) -> StatusReply:
        """Poll until the join leaves the queue, with capped backoff.

        Returns the terminal :class:`StatusReply` on success; raises
        :class:`RemoteJoinError` if the join failed or was cancelled and
        :class:`TransientWireError` if ``timeout`` elapses first.
        """
        deadline = time.monotonic() + timeout
        delay = poll_interval
        while True:
            reply = self.status()
            if reply.state == "done":
                self._done = reply
                return reply
            if reply.state == "failed":
                raise RemoteJoinError(
                    reply.error or "remote join failed",
                    code=reply.error_code or "internal",
                )
            if reply.state == "cancelled":
                raise RemoteJoinError(
                    f"job {self.job_id} was cancelled", code="cancelled"
                )
            if time.monotonic() >= deadline:
                raise TransientWireError(
                    f"job {self.job_id} still {reply.state} "
                    f"after {timeout}s"
                )
            self.client._sleep(delay)
            delay = min(delay * 2, 0.25)

    def pages(self, timeout: float = 60.0) -> Iterator[Page]:
        """Wait for completion, then stream result pages in order.

        If the job expires mid-stream (server crash after delivery was
        journalled, or retention eviction), the handle resubmits, waits for
        the bit-identical re-execution, and resumes at the same page index —
        deterministic results mean page ``i`` is byte-equal across runs.
        After a ``wait()`` that saw the job done, no ``Status`` is re-polled.
        """
        status = self._done or self.wait(timeout)
        index = 0
        while index < status.pages:
            try:
                reply = self.client.request(FetchPage(self.job_id, index))
            except RemoteJoinError as exc:
                if exc.code != "job_expired":
                    raise
                self._recover_expired(exc)
                status = self.wait(timeout)
                continue  # retry the same index against the re-execution
            if not isinstance(reply, Page):
                raise WireProtocolError(
                    f"expected Page, got {type(reply).__name__}"
                )
            self.client.metrics.counter(
                "client_pages_total", "result pages fetched"
            ).inc()
            yield reply
            if reply.last:
                return
            index += 1

    def records(self, timeout: float = 60.0) -> Iterator[Record]:
        """Stream result records without materializing the whole relation."""
        for page in self.pages(timeout):
            yield from page.relation()

    def result(self, timeout: float = 60.0) -> Relation:
        """Fetch every page and assemble the delivered relation."""
        relation: Relation | None = None
        for page in self.pages(timeout):
            chunk = page.relation()
            if relation is None:
                relation = chunk
            else:
                relation.extend(chunk)
        if relation is None:
            raise WireProtocolError(f"job {self.job_id} returned no pages")
        return relation

    def cancel(self) -> bool:
        """Withdraw a queued join; returns False once it already started."""
        reply = self.client.request(Cancel(self.job_id))
        if not isinstance(reply, Cancelled):
            raise WireProtocolError(
                f"expected Cancelled, got {type(reply).__name__}"
            )
        return reply.cancelled
