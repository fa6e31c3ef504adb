"""Fault-tolerance primitives shared by the coprocessor and repro.faults.

Three small pieces sit at the hardware layer so :class:`SecureCoprocessor`
can use them without importing the higher-level recovery machinery:

* :class:`RetryPolicy` — bounded retry-with-backoff for *transient* host
  faults.  Backoff burns cycles on a deterministic
  :class:`~repro.hardware.timing.VirtualClock`, so recovery timing is part
  of the simulation, not wall clock.  Only
  :class:`~repro.errors.TransientHostError` is ever retried; an
  :class:`~repro.errors.AuthenticationError` is raised by the provider after
  the host bytes arrive and never enters the retry loop — tampering still
  terminates immediately (Section 3.3.1).
* :class:`JournalEntry` — one row of the enclave's input tape.  Every
  crossing is a section, which journals what it physically read as
  ``GATHER`` rows (with the plaintexts T consumed), the slots its staged
  appends were assigned as ``APPENDED`` rows, and each pass's settlement as
  one ``CHARGE`` row counting the boundary ops it declared.  The tape grows
  a section at a time, and together with the algorithm's determinism it
  reconstructs all in-enclave state.
* :class:`ReplayCursor` — serves the tape back during resume, one whole
  batch per :meth:`~ReplayCursor.take_batch` call.  Every replayed row is
  verified against the re-issued (op, region, index); a mismatch means the
  "deterministic" re-execution diverged and raises
  :class:`~repro.errors.CheckpointError` rather than silently corrupting the
  join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from repro.errors import CheckpointError, ConfigurationError, TransientHostError
from repro.hardware.timing import VirtualClock

#: The tape's row kinds.
GATHER = "gather"  # a section's physical read: payload, no boundary op
APPENDED = "appended"  # a section's staged append: the slot H assigned, no op
CHARGE = "charge"  # a section's settlement: ``index`` boundary ops declared


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry-with-backoff for transient host storage faults.

    ``delay(attempt)`` is ``base_delay_cycles * multiplier**attempt`` — a
    deterministic exponential backoff in simulated cycles.  The re-issued
    request is byte-identical (same op, region, index), so the declared
    access pattern is unchanged; only the *number* of physical attempts —
    which depends on the host's fault process, never on the data — varies.
    """

    max_retries: int = 4
    base_delay_cycles: int = 16
    multiplier: int = 2

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be non-negative")
        if self.base_delay_cycles < 0 or self.multiplier < 1:
            raise ConfigurationError("backoff parameters must be positive")

    def delay(self, attempt: int) -> int:
        """Simulated cycles to wait before re-issuing attempt ``attempt``."""
        return self.base_delay_cycles * self.multiplier ** attempt

    def call(self, operation, clock: VirtualClock | None = None,
             on_retry=None):
        """Run ``operation()``, retrying transient faults up to the bound.

        ``on_retry`` (if given) is called once per re-issue — the coprocessor
        uses it to bump its retry counter.  Any non-transient exception
        propagates on the spot.
        """
        attempt = 0
        while True:
            try:
                return operation()
            except TransientHostError:
                if attempt >= self.max_retries:
                    raise
                if clock is not None:
                    clock.tick(self.delay(attempt))
                if on_retry is not None:
                    on_retry()
                attempt += 1


class JournalEntry(NamedTuple):
    """One tape row as recorded for deterministic replay.

    ``payload`` carries the plaintext T read (``GATHER``) and ``None``
    otherwise (a replayed write re-derives its plaintext from the re-executed
    algorithm, and the restored host image already holds its ciphertext).
    """

    op: str        # GATHER, APPENDED (the index H assigned) or CHARGE
    region: str
    index: int
    payload: bytes | None = None


def journalled_ops(entries: Sequence[JournalEntry]) -> int:
    """The number of declared boundary ops a run of tape rows stands for."""
    return sum(e.index for e in entries if e.op == CHARGE)


class ReplayCursor:
    """Serves journalled batches back to a resumed coprocessor.

    While :attr:`active`, the coprocessor takes each batch's result from the
    tape instead of the host: no physical crypto, no host access, but the
    identical trace events.  The cursor verifies every replayed row against
    the tape and raises :class:`CheckpointError` on divergence.  Checkpoints
    commit on batch boundaries, so a re-issued batch lies wholly inside the
    tape or wholly past it.
    """

    def __init__(self, entries: list[JournalEntry]) -> None:
        self._entries = entries
        self._position = 0

    @property
    def active(self) -> bool:
        return self._position < len(self._entries)

    @property
    def position(self) -> int:
        return self._position

    def __len__(self) -> int:
        return len(self._entries)

    def peek_batch(self, events: Sequence[tuple]) -> list[JournalEntry]:
        """The next ``len(events)`` rows, verified against the re-issued batch.

        ``events`` are ``(op, region, index)`` triples; ``index`` is ``None``
        for appends — the journal's recorded index is authoritative there
        (the host assigned it on the original run).
        """
        start = self._position
        entries = self._entries[start:start + len(events)]
        if len(entries) < len(events):
            raise CheckpointError("replay cursor exhausted mid-batch")
        for offset, (entry, (op, region, index)) in enumerate(zip(entries, events)):
            if entry.op != op or entry.region != region or (
                index is not None and entry.index != index
            ):
                raise CheckpointError(
                    f"recovery replay diverged at journal row {start + offset + 1}: "
                    f"journal has ({entry.op}, {entry.region!r}, {entry.index}), "
                    f"re-execution issued ({op}, {region!r}, {index})"
                )
        return entries

    def take_batch(self, events: Sequence[tuple]) -> list[JournalEntry]:
        """Consume one whole batch (see :meth:`peek_batch`)."""
        entries = self.peek_batch(events)
        self._position += len(entries)
        return entries
