"""The privacy preserving join network service (Sections 3.2 and 3.3.3).

The computation model: a *service provider* (host H + secure coprocessor T)
and any number of *service requestors* — data owners and result recipients.
This module wires the pieces into the end-to-end flow the paper describes:

1. **Outbound authentication** — the coprocessor presents an attestation
   (a signed statement of the application/OS/bootstrap code it runs);
   requestors verify it before trusting the service.  Simulated by hash
   chains over the simulated software stack.
2. **Digital contract** — the parties sign a contract naming who shares what
   and which join computations are permissible; T holds a copy and arbitrates
   (Section 3.3.3).
3. **Ingestion** — each party encrypts its relation, prepending the contract
   ID, under a session key shared with T; T authenticates the upload,
   verifies the contract ID, and re-encrypts tuples under its working key
   into host regions.
4. **Join** — any of Algorithms 4/5/6 (or the Chapter 4 algorithms for the
   two-party case) runs over the host regions.
5. **Delivery** — T re-encrypts the result for the recipient, who decrypts
   and (for Chapter 4 algorithms) discards decoys.
"""

from __future__ import annotations

import hashlib
import random
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Literal

from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext, JoinResult
from repro.crypto.provider import (
    FastProvider,
    OcbProvider,
    clone_provider,
    decrypt_batch,
    encrypt_batch,
)
from repro.errors import (
    AuthenticationError,
    ConfigurationError,
    ContractError,
    ServiceClosedError,
    ServiceSaturatedError,
)
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.host import HostMemory
from repro.obs.metrics import MetricsRegistry, instrument_coprocessor, instrument_join
from repro.relational.batch import BatchCodec
from repro.relational.predicates import MultiPredicate
from repro.relational.relation import Relation
from repro.relational.schema import Schema

AlgorithmName = Literal[
    "algorithm4", "algorithm5", "algorithm6", "algorithm7", "algorithm8"
]


@dataclass(frozen=True)
class Attestation:
    """The coprocessor's outbound-authentication statement (Section 2.2.2)."""

    bootstrap_hash: str
    os_hash: str
    application_hash: str
    signature: str

    def verify(self, expected_application: str, root_of_trust: str) -> bool:
        """Check the chain: signature binds the stack to the manufacturer root."""
        material = f"{root_of_trust}|{self.bootstrap_hash}|{self.os_hash}|{self.application_hash}"
        return (
            self.signature == hashlib.sha256(material.encode()).hexdigest()
            and self.application_hash == expected_application
        )


def issue_attestation(application_code: str, root_of_trust: str = "ibm-miniboot") -> Attestation:
    """Build the signed certificate chain for a software stack."""
    bootstrap = hashlib.sha256(b"miniboot-v2").hexdigest()
    os_hash = hashlib.sha256(b"cp/q-os").hexdigest()
    app = hashlib.sha256(application_code.encode()).hexdigest()
    material = f"{root_of_trust}|{bootstrap}|{os_hash}|{app}"
    return Attestation(
        bootstrap_hash=bootstrap,
        os_hash=os_hash,
        application_hash=app,
        signature=hashlib.sha256(material.encode()).hexdigest(),
    )


@dataclass(frozen=True)
class Contract:
    """The digital contract T arbitrates: who may share what, computed how."""

    contract_id: str
    data_owners: tuple[str, ...]
    recipient: str
    permitted_predicate: str

    def permits(self, party: str) -> bool:
        return party in self.data_owners


def _contract_header(contract_id: str) -> bytes:
    """The 16-byte contract ID every uploaded tuple is bound to."""
    return contract_id.encode("utf-8").ljust(16, b"\x00")


@dataclass
class Party:
    """A service requestor: data owner and/or result recipient."""

    name: str
    key: bytes = b""

    def __post_init__(self) -> None:
        if not self.key:
            self.key = hashlib.sha256(b"party-key" + self.name.encode()).digest()

    def provider(self):
        return FastProvider(self.key)

    def encrypt_upload(self, contract_id: str, relation: Relation) -> list[bytes]:
        """Encrypt (contract_id || tuple) per record, as Section 3.3.3 requires.

        A STR or BYTES value that ends in NUL is refused with a
        :class:`~repro.errors.CodecError` (:meth:`BatchCodec.encode_upload`).
        """
        header = _contract_header(contract_id)
        rows = BatchCodec(relation.schema).encode_upload(relation.records())
        return encrypt_batch(self.provider(), [header + row for row in rows])


class JoinService:
    """The PPJ service provider: host + coprocessor pool + contract arbitration.

    Every join executes in its own :class:`JoinContext` — a fresh host-memory
    instance (or the injected ``host``) and a coprocessor under a cloned
    working-key provider (independent nonce sequence, interoperable
    ciphertexts) — so consecutive and concurrent joins never share mutable
    state.  :meth:`execute` runs a join synchronously; :meth:`submit` hands it
    to a pool of ``pool_size`` coprocessor worker threads behind a bounded
    queue of ``queue_depth`` pending joins (blocking on saturation, or
    raising :class:`~repro.errors.ServiceSaturatedError` with ``block=False``).

    ``checkpoint_interval`` switches the service into fault-tolerant mode:
    joins run under :func:`~repro.faults.recovery.run_with_recovery`, sealing
    checkpoints every that-many boundary ops and restarting (up to
    ``max_attempts`` total attempts) after coprocessor crashes.  ``host``
    lets a deployment inject its own storage — e.g. a
    :class:`~repro.hardware.faulty.FaultyHost` in a chaos drill.  Both modes
    pin the join to the one shared host, so they stay serial: :meth:`submit`
    refuses them rather than silently racing on shared regions.
    """

    APPLICATION_CODE = "repro-ppj-service-v1"

    def __init__(self, memory: int = 64, seed: int = 0,
                 checkpoint_interval: int | None = None,
                 host: HostMemory | None = None,
                 max_attempts: int = 8,
                 pool_size: int = 4,
                 queue_depth: int = 8) -> None:
        if pool_size < 1:
            raise ConfigurationError("the service pool needs at least one worker")
        if queue_depth < 0:
            raise ConfigurationError("queue depth cannot be negative")
        self._injected_host = host is not None
        self._host = host if host is not None else HostMemory()
        self._provider = OcbProvider(b"service-working-key-0001")
        self._seed = seed
        self.checkpoint_interval = checkpoint_interval
        self.max_attempts = max_attempts
        # The legacy shared context: still serves fault-tolerant/injected-host
        # runs, which are pinned to the one shared host.
        self.context = JoinContext(
            host=self._host,
            coprocessor=SecureCoprocessor(self._host, self._provider),
            provider=self._provider,
            rng=random.Random(seed),
        )
        self.memory = memory
        self.metrics = MetricsRegistry()
        self._contracts: dict[str, Contract] = {}
        self._uploads: dict[tuple[str, str], Relation] = {}
        self.pool_size = pool_size
        self.queue_depth = queue_depth
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        self._closed = False
        # One slot per pool worker plus one per queue position; holding a
        # slot = the join is admitted (queued or running).
        self._slots = threading.BoundedSemaphore(pool_size + queue_depth)
        self.metrics.gauge(
            "service_pool_size", "coprocessor worker threads in the join pool"
        ).set(pool_size)
        self.metrics.gauge(
            "service_queue_depth", "bounded queue positions behind the pool"
        ).set(queue_depth)

    # -- pool lifecycle ------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._closed:
                raise ServiceClosedError(
                    "the join service is closed; no more joins can be queued"
                )
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=self.pool_size,
                    thread_name_prefix="ppj-join",
                )
            return self._pool

    @property
    def closed(self) -> bool:
        """True once :meth:`close` has run; further ``submit`` calls raise."""
        return self._closed

    def close(self, cancel_pending: bool = False) -> None:
        """Shut the pool down and refuse further submissions (idempotent).

        Running joins always finish.  Queued joins drain by default; with
        ``cancel_pending=True`` they are cancelled instead — their futures
        resolve to :class:`concurrent.futures.CancelledError` and their
        admission slots are released, so nothing hangs and nothing leaks.
        After ``close`` returns, :meth:`submit` raises
        :class:`~repro.errors.ServiceClosedError`; the synchronous
        :meth:`execute` path stays available (it never touches the pool).
        """
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=cancel_pending)

    def __enter__(self) -> "JoinService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- handshake ----------------------------------------------------------
    def attest(self) -> Attestation:
        """The coprocessor's outbound authentication statement."""
        return issue_attestation(self.APPLICATION_CODE)

    @classmethod
    def expected_application_hash(cls) -> str:
        return hashlib.sha256(cls.APPLICATION_CODE.encode()).hexdigest()

    # -- contracts ----------------------------------------------------------
    def register_contract(self, contract: Contract) -> None:
        if contract.contract_id in self._contracts:
            raise ContractError(f"contract {contract.contract_id!r} already registered")
        self._contracts[contract.contract_id] = contract

    def release_contract(self, contract_id: str) -> int:
        """Forget a contract and drop every upload staged under it.

        A long-running deployment mints fresh contracts continuously (every
        fresh workload-suite request is one); without release the contract
        and upload tables grow without bound.  Returns the number of uploads
        dropped.  Releasing is the parties' prerogative under Section 3.3.3
        — the data T held for the contract is simply discarded.
        """
        if contract_id not in self._contracts:
            raise ContractError(f"unknown contract {contract_id!r}")
        del self._contracts[contract_id]
        staged = [key for key in self._uploads if key[0] == contract_id]
        for key in staged:
            del self._uploads[key]
        self.metrics.counter(
            "service_contracts_released_total",
            "contracts released with their staged uploads",
        ).inc()
        return len(staged)

    # -- ingestion ----------------------------------------------------------
    def ingest(self, party: Party, contract_id: str, relation: Relation) -> int:
        """Accept a party's encrypted upload after contract checks.

        T decrypts with the party's session key, verifies each tuple's
        embedded contract ID, and retains the plaintext relation for staging
        into host regions at join time (where it is re-encrypted under the
        working key).  Returns the number of tuples accepted.
        """
        ciphertexts = party.encrypt_upload(contract_id, relation)
        return self._accept_upload(
            party.name, contract_id, relation.schema, ciphertexts, party.provider()
        )

    def ingest_upload(
        self,
        owner: str,
        contract_id: str,
        schema: Schema,
        ciphertexts: list[bytes],
    ) -> int:
        """Accept an already-encrypted upload, as shipped over the network.

        This is the wire-facing half of :meth:`ingest`: the owner encrypted
        ``(contract_id || tuple)`` records under their session key on their
        own machine (:meth:`Party.encrypt_upload`) and only ciphertexts
        crossed the untrusted network.  T re-derives the owner's session key
        (the deterministic :class:`Party` derivation stands in for the
        attested key exchange of Section 3.3.3), authenticates every record,
        verifies the embedded contract ID, and stages the plaintexts for
        join time.
        """
        return self._accept_upload(
            owner, contract_id, schema, ciphertexts, Party(owner).provider()
        )

    def _accept_upload(
        self,
        owner: str,
        contract_id: str,
        schema: Schema,
        ciphertexts: list[bytes],
        provider,
    ) -> int:
        contract = self._contracts.get(contract_id)
        if contract is None:
            raise ContractError(f"unknown contract {contract_id!r}")
        if not contract.permits(owner):
            raise ContractError(
                f"party {owner!r} is not a data owner under contract {contract_id!r}"
            )
        header = _contract_header(contract_id)
        plains = decrypt_batch(provider, ciphertexts)  # AuthenticationError on tamper
        if any(plain[:16] != header for plain in plains):
            raise AuthenticationError("tuple bound to a different contract")
        accepted = Relation(schema, BatchCodec(schema).decode_rows(
            [plain[16:] for plain in plains]))
        self._uploads[(contract_id, owner)] = accepted
        return len(accepted)

    # -- the join -----------------------------------------------------------
    def _fresh_context(self) -> JoinContext:
        """An isolated per-join context: own host memory, own coprocessor,
        own nonce sequence under the shared working key."""
        host = HostMemory()
        provider = clone_provider(self._provider)
        return JoinContext(
            host=host,
            coprocessor=SecureCoprocessor(host, provider),
            provider=provider,
            rng=random.Random(self._seed),
        )

    def execute(
        self,
        contract_id: str,
        predicate: MultiPredicate,
        algorithm: AlgorithmName = "algorithm5",
        epsilon: float = 1e-20,
    ) -> JoinResult:
        """Run the contracted join over every registered owner's upload."""
        contract = self._contracts.get(contract_id)
        if contract is None:
            raise ContractError(f"unknown contract {contract_id!r}")
        if predicate.description != contract.permitted_predicate:
            raise ContractError(
                f"predicate {predicate.description!r} is not permitted by "
                f"contract {contract_id!r} (expected {contract.permitted_predicate!r})"
            )
        relations: list[Relation] = []
        for owner in contract.data_owners:
            upload = self._uploads.get((contract_id, owner))
            if upload is None:
                raise ContractError(f"owner {owner!r} has not uploaded data yet")
            relations.append(upload)

        runner: Callable[[JoinContext], JoinResult]
        if algorithm == "algorithm4":
            runner = lambda context: algorithm4(context, relations, predicate)
        elif algorithm == "algorithm5":
            runner = lambda context: algorithm5(
                context, relations, predicate, memory=self.memory
            )
        elif algorithm == "algorithm6":
            runner = lambda context: algorithm6(
                context, relations, predicate, memory=self.memory, epsilon=epsilon
            )
        elif algorithm == "algorithm7":
            runner = lambda context: algorithm7(context, relations, predicate)
        elif algorithm == "algorithm8":
            runner = lambda context: algorithm8(context, relations, predicate)
        else:
            raise ContractError(f"unknown algorithm {algorithm!r}")

        if self.checkpoint_interval is not None:
            # Fault-tolerant mode: checkpoint every N boundary ops and restart
            # after coprocessor crashes.  Imported lazily — repro.faults sits
            # above repro.core in the layering.
            from repro.faults.recovery import run_with_recovery

            report = run_with_recovery(
                self._host, self._provider, runner, seed=self._seed,
                checkpoint_interval=self.checkpoint_interval,
                max_attempts=self.max_attempts,
            )
            result = report.result
            self.metrics.counter(
                "recovery_attempts_total", "join attempts including restarts",
                algorithm=algorithm).inc(report.attempts)
            self.metrics.counter(
                "recovery_crashes_total", "coprocessor crashes survived",
                algorithm=algorithm).inc(report.crashes)
            # Every attempt's device, so a crashed attempt's checkpoints,
            # retries and crypto work are exported with the job.
            for device in report.devices:
                instrument_coprocessor(self.metrics, device)
        elif self._injected_host:
            # The deployment pinned storage (e.g. a FaultyHost drill): run on
            # the legacy shared context so the join exercises that host.
            result = runner(self.context)
            instrument_coprocessor(self.metrics, self.context.coprocessor)
        else:
            context = self._fresh_context()
            result = runner(context)
            instrument_coprocessor(self.metrics, context.coprocessor)
        instrument_join(self.metrics, algorithm, result)
        return result

    def submit(
        self,
        contract_id: str,
        predicate: MultiPredicate,
        algorithm: AlgorithmName = "algorithm5",
        epsilon: float = 1e-20,
        block: bool = True,
    ) -> "Future[JoinResult]":
        """Queue a contracted join on the coprocessor pool.

        Up to ``pool_size`` joins execute concurrently, each in its own
        isolated :class:`JoinContext`; up to ``queue_depth`` more wait in the
        bounded queue.  Beyond that, ``submit`` blocks until a slot frees —
        or, with ``block=False``, raises
        :class:`~repro.errors.ServiceSaturatedError` immediately.  Returns a
        future resolving to the :class:`~repro.core.base.JoinResult`.

        Submitting after :meth:`close` raises
        :class:`~repro.errors.ServiceClosedError`.
        """
        if self._closed:
            raise ServiceClosedError(
                "the join service is closed; no more joins can be queued"
            )
        if self.checkpoint_interval is not None or self._injected_host:
            raise ConfigurationError(
                "concurrent submission requires service-managed storage; "
                "fault-tolerant and injected-host modes are pinned to the "
                "shared host — call execute() instead"
            )
        if not self._slots.acquire(blocking=block):
            self.metrics.counter(
                "service_jobs_rejected_total",
                "joins refused because pool and queue were saturated",
            ).inc()
            raise ServiceSaturatedError(
                f"join pool saturated: {self.pool_size} running and "
                f"{self.queue_depth} queued joins already admitted"
            )
        self.metrics.counter(
            "service_jobs_submitted_total", "joins admitted to the pool"
        ).inc()
        self.metrics.gauge(
            "service_jobs_queued", "admitted joins waiting for a pool worker"
        ).inc()

        def job() -> JoinResult:
            in_flight = self.metrics.gauge(
                "service_jobs_in_flight", "joins executing right now"
            )
            self.metrics.gauge("service_jobs_queued").dec()
            in_flight.inc()
            try:
                result = self.execute(contract_id, predicate, algorithm, epsilon)
            except Exception:
                self.metrics.counter(
                    "service_jobs_failed_total", "pooled joins that raised"
                ).inc()
                raise
            else:
                self.metrics.counter(
                    "service_jobs_completed_total", "pooled joins finished"
                ).inc()
                return result
            finally:
                in_flight.dec()
                self._slots.release()

        try:
            future = self._ensure_pool().submit(job)
        except (ServiceClosedError, RuntimeError):
            # close() raced us between the closed check and the pool submit:
            # give the admission slot back before re-raising cleanly.
            self.metrics.gauge("service_jobs_queued").dec()
            self._slots.release()
            raise ServiceClosedError(
                "the join service closed while the submission was in flight"
            ) from None

        def on_done(done: "Future[JoinResult]") -> None:
            # A future cancelled by close(cancel_pending=True) never ran job(),
            # so its admission slot and queue-gauge entry must be released
            # here or the semaphore leaks one slot per cancelled join.
            if done.cancelled():
                self.metrics.counter(
                    "service_jobs_cancelled_total",
                    "queued joins cancelled by service shutdown",
                ).inc()
                self.metrics.gauge("service_jobs_queued").dec()
                self._slots.release()

        future.add_done_callback(on_done)
        return future

    def deliver(self, result: JoinResult, recipient: Party, contract_id: str) -> Relation:
        """Re-encrypt the result for the recipient and decrypt on their side."""
        contract = self._contracts.get(contract_id)
        if contract is None:
            raise ContractError(f"unknown contract {contract_id!r}")
        if recipient.name != contract.recipient:
            raise ContractError(
                f"{recipient.name!r} is not the contracted recipient "
                f"({contract.recipient!r})"
            )
        provider = recipient.provider()
        codec = BatchCodec(result.result.schema)
        wire = encrypt_batch(provider, codec.encode_rows(result.result.records()))
        return Relation(result.result.schema,
                        codec.decode_rows(decrypt_batch(provider, wire)))
