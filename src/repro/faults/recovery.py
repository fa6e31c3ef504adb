"""Crash recovery by deterministic re-execution over a sealed input tape.

``run_with_recovery`` executes one join under checkpointing and restarts it
after every :class:`~repro.errors.CoprocessorCrashError` until it completes:

1. the last sealed checkpoint is loaded and validated, and the host rolled
   back to its image (undoing writes the crashed attempt made after it);
2. a **fresh** coprocessor — the crash wiped the old one's volatile state —
   re-runs the algorithm from the top with the same seed.  While the
   :class:`~repro.hardware.resilience.ReplayCursor` holds journalled
   operations, every boundary op is served from the tape: no host access, no
   physical crypto, but the identical trace event and modeled counter.  A
   :class:`RecoveryHost` gate suppresses the re-executed prefix's host-side
   mutations (allocations, frees, uploads, host copies), which the restored
   image already contains;
3. once the tape is exhausted, execution seamlessly goes live against the
   restored host, journalling and checkpointing as usual.

The completed run's logical trace is therefore bit-identical — same events,
same StreamingTrace fingerprint — to an uninterrupted run, and the privacy
checker accepts it unchanged: recovery adds no observable the definitions
don't already quantify over.  What *is* observable (to the host) is the
number and placement of checkpoint commits and restarts; both are functions
of the declared, data-independent access pattern and the host's own fault
process, never of tuple values (see docs/THREAT_MODEL.md).

One physical caveat, invisible at the logical layer: the fresh coprocessor
starts with a cold slot cache, so ``physical_decryptions`` after a resume can
exceed the uninterrupted run's — the modeled counters and the trace, which
the cost formulas and privacy proofs read, are identical.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core.base import JoinContext, JoinResult
from repro.crypto.provider import CryptoProvider
from repro.errors import CheckpointError, ConfigurationError, CoprocessorCrashError
from repro.faults.checkpoint import CheckpointStore
from repro.hardware.coprocessor import SecureCoprocessor, TraceFactory
from repro.hardware.host import ForwardingHost
from repro.hardware.resilience import ReplayCursor, RetryPolicy
from repro.hardware.timing import VirtualClock


class RecoveryHost(ForwardingHost):
    """Gate between a resumed run and the restored host.

    While the replay cursor is active, the re-executed prefix's host-side
    mutations are suppressed — the restored checkpoint image already holds
    their effects — and reads pass through.  Once the cursor is exhausted
    the gate is transparent.  Boundary reads and writes never reach the gate
    during replay at all: the coprocessor serves its gathers from the
    journal and stages nothing to write while it replays.  What lands here
    is the algorithm's direct host management: region allocation, uploads,
    frees, and host-side copies; the rest is forwarded.
    """

    def __init__(self, inner, cursor: ReplayCursor | None = None) -> None:
        super().__init__(inner)
        self.cursor = cursor
        self.suppressed_mutations = 0

    @property
    def replaying(self) -> bool:
        return self.cursor is not None and self.cursor.active

    def _suppress(self) -> bool:
        if self.replaying:
            self.suppressed_mutations += 1
            return True
        return False

    # -- mutations: suppressed during replay ---------------------------------
    def allocate(self, name: str, size: int) -> None:
        if not self._suppress():
            self.inner.allocate(name, size)

    def allocate_from(self, name: str, ciphertexts: Iterable[bytes]) -> None:
        # The upload's encryptions still happen in T (burning fresh nonces);
        # only the host-side store is suppressed — the image already has it.
        if self._suppress():
            list(ciphertexts)
        else:
            self.inner.allocate_from(name, ciphertexts)

    def free(self, name: str) -> None:
        if not self._suppress():
            self.inner.free(name)

    def host_copy(self, src: str, src_start: int, count: int, dst: str) -> None:
        if not self._suppress():
            self.inner.host_copy(src, src_start, count, dst)

    def host_copy_into(self, src: str, src_start: int, count: int, dst: str,
                       dst_start: int) -> None:
        if not self._suppress():
            self.inner.host_copy_into(src, src_start, count, dst, dst_start)


@dataclass
class RecoveryReport:
    """Outcome of a checkpointed run, possibly spanning several attempts.

    ``retries``, ``replayed_transfers`` and ``checkpoints_sealed`` are totals
    over the whole job; ``devices`` holds every attempt's coprocessor in
    order, so per-attempt counters (modeled and physical crypto, batches,
    retries, commits) of crashed attempts are not lost with them.
    """

    result: JoinResult
    attempts: int
    crashes: int
    retries: int
    replayed_transfers: int
    checkpoints_sealed: int
    suppressed_mutations: int
    devices: list[SecureCoprocessor]

    @property
    def coprocessor(self) -> SecureCoprocessor:
        """The final attempt's device — the one that finished the join."""
        return self.devices[-1]


def run_with_recovery(
    host,
    provider: CryptoProvider,
    run: Callable[[JoinContext], JoinResult],
    *,
    seed: int = 0,
    memory_limit: int | None = None,
    checkpoint_interval: int = 32,
    max_attempts: int = 10,
    retry: RetryPolicy | None = None,
    clock: VirtualClock | None = None,
    trace_factory: TraceFactory | None = None,
    device: type[SecureCoprocessor] = SecureCoprocessor,
    name: str = "T0",
    resume: bool = False,
) -> RecoveryReport:
    """Execute ``run(context)`` to completion across coprocessor crashes.

    ``run`` must be deterministic given the context (same inputs, same
    ``seed``) — every safe algorithm here is.  The provider instance is
    shared across attempts so sealed state stays decryptable and nonces never
    repeat.  Non-crash exceptions (including
    :class:`~repro.errors.AuthenticationError` and retry-exhausted
    :class:`~repro.errors.TransientHostError`) propagate immediately —
    tampering still terminates, never restarts.  Each attempt builds a new
    ``device`` (``ReferenceCoprocessor`` for the one-row-per-call twin).

    With ``resume=True`` a sealed checkpoint already on the host — left by
    an earlier *process* over the same host image and provider, e.g. a
    crashed server whose join the journal is replaying — is loaded instead
    of being wiped by a fresh checkpoint zero, and the first attempt starts
    as a mid-join resume: journalled boundary ops replay from the tape, then
    execution goes live.  When the host carries no checkpoint the flag is a
    no-op and the run starts fresh.  The provider must be the one that
    sealed the checkpoint; anything else fails authentication and
    terminates.
    """
    if checkpoint_interval < 1:
        raise ConfigurationError("checkpoint_interval must be at least 1")
    if max_attempts < 1:
        raise ConfigurationError("max_attempts must be at least 1")
    store = CheckpointStore(host, provider)
    resuming = resume and host.has_region(store.region)
    if not resuming:
        store.initialize()
    devices: list[SecureCoprocessor] = []
    for attempt in range(1, max_attempts + 1):
        cursor = None
        if attempt > 1 or resuming:
            state = store.load()
            store.restore(state)
            cursor = ReplayCursor(state.entries)
        gate = RecoveryHost(host, cursor)
        coprocessor = device(
            gate, provider, memory_limit=memory_limit, name=name, trace_factory=trace_factory,
            retry=retry, clock=clock, replay=cursor,
            checkpoint_store=store, checkpoint_interval=checkpoint_interval,
        )
        devices.append(coprocessor)
        context = JoinContext(host=gate, coprocessor=coprocessor,
                              provider=provider, rng=random.Random(seed))
        try:
            result = run(context)
        except CoprocessorCrashError:
            # The dead device keeps only its counters.
            coprocessor.clear_cache()
            coprocessor.reset_trace()
            continue
        result.meta["recovery"] = {
            "attempts": attempt,
            "crashes": attempt - 1,
            "retries": sum(device.retries for device in devices),
            "replayed_transfers": sum(d.replayed_transfers for d in devices),
            "checkpoints_sealed": store.commits,
        }
        return RecoveryReport(
            result=result,
            suppressed_mutations=gate.suppressed_mutations,
            devices=devices,
            **result.meta["recovery"],
        )
    raise CheckpointError(
        f"computation did not complete within {max_attempts} attempts "
        f"({max_attempts} crashes)"
    )
