"""Sealed checkpoints: the host-resident state a crashed coprocessor resumes from.

Recovery here is *deterministic re-execution with a sealed input tape*.  A
checkpoint taken after boundary operation C consists of:

* the **journal** — one record per boundary operation since the previous
  checkpoint (a ``get``'s decrypted plaintext, a ``put``'s (op, region,
  index); appends record the index the host assigned).  The journal is the
  enclave's input tape: because every safe algorithm is deterministic given
  its inputs and seed, replaying the tape reconstructs all in-enclave state
  without touching the host;
* the **host image** — a full snapshot of every region's ciphertext slots at
  operation C.  Restoring it rolls back writes the crashed attempt made
  *after* C, so re-executed appends and host-side copies cannot double-apply
  and re-reads of since-overwritten slots stay consistent;
* the **manifest** — operation count plus, for the image and every journal
  segment, where its sealed chunks live and a SHA-256 digest over them in
  order, written *last* so a torn checkpoint is detected (digest mismatch →
  :class:`~repro.errors.CheckpointError`) rather than trusted.

Everything is sealed (encrypted + authenticated) under T's own provider
before it touches the host.  A blob is cut into fixed-size chunks and the
chunks sealed as one ranged span (``encrypt_batch``: one nonce over the
span, every chunk authenticated on its own — Section 4.4.1's range idea
applied to T's own state); the manifest digest binds their order and count.
So checkpoints leak nothing beyond the number and size of their chunks, a
tampered chunk aborts with :class:`~repro.errors.AuthenticationError`
exactly like any other tampered slot (Section 3.3.1), and a dropped,
duplicated or reordered chunk is a :class:`~repro.errors.CheckpointError`.
Checkpoint I/O goes to the *base* host — beneath any
:class:`~repro.hardware.faulty.FaultyHost` wrapper and outside the traced
T/H boundary — so it neither perturbs the logical trace the privacy checker
fingerprints nor gets wiped by the faults it guards against.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass

from repro.crypto.provider import CryptoProvider, decrypt_batch, encrypt_batch
from repro.errors import CheckpointError, HostMemoryError
from repro.hardware.host import HostMemory
from repro.hardware.resilience import JournalEntry, journalled_ops

#: The dedicated host region sealed checkpoints live in.  Excluded from host
#: images so a restore never rolls back the store itself.
CHECKPOINT_REGION = "__checkpoint__"

#: Plaintext bytes per sealed chunk (a blob's last chunk is shorter).
CHUNK_SIZE = 4096


def base_host(host) -> HostMemory:
    """Peel fault-injection and recovery wrappers down to raw storage."""
    while hasattr(host, "inner"):
        host = host.inner
    return host


def _b64(data: bytes | None) -> str | None:
    return None if data is None else base64.b64encode(data).decode("ascii")


def _unb64(data: str | None) -> bytes | None:
    return None if data is None else base64.b64decode(data)


def _serialize(obj) -> bytes:
    return json.dumps(obj, separators=(",", ":")).encode("utf-8")


def _digest(cells: list[bytes]) -> str:
    """SHA-256 over sealed chunks, binding their bytes, order and count."""
    digest = hashlib.sha256()
    for cell in cells:
        digest.update(len(cell).to_bytes(4, "big"))
        digest.update(cell)
    return digest.hexdigest()


@dataclass
class CheckpointState:
    """A loaded checkpoint: resume point, input tape, and host image."""

    ops: int
    entries: list[JournalEntry]
    snapshot: dict[str, list[bytes | None]]


class CheckpointStore:
    """Reads and writes sealed checkpoints in a dedicated host region.

    Layout: slot 0 holds the manifest; behind it every sealed blob — one
    journal segment per commit, and the host image — is a run of chunk slots,
    named in the manifest as ``[first slot, chunk count, digest]``.  The
    manifest is always written last, so the store's visible state moves
    atomically from one consistent checkpoint to the next; the superseded
    image's slots are then blanked.  A blob is sealed, unsealed and blanked
    in one ranged host call each, never one call per chunk.
    """

    MANIFEST_SLOT = 0

    def __init__(self, host, provider: CryptoProvider,
                 region: str = CHECKPOINT_REGION) -> None:
        self.host = base_host(host)
        self.provider = provider
        self.region = region
        self.commits = 0
        self._segments: list[list] = []  # one span per sealed journal segment
        self._image: list | None = None  # the newest host image's span

    # -- sealing -------------------------------------------------------------
    def _append_sealed(self, obj) -> list:
        """Seal ``obj`` into fresh chunk slots; returns the span naming them.

        The serialized blob is cut into chunks and sealed as one span.
        """
        blob = _serialize(obj)
        cells = encrypt_batch(self.provider, [
            blob[start:start + CHUNK_SIZE]
            for start in range(0, len(blob), CHUNK_SIZE)
        ])
        first = self.host.append_slots(self.region, cells)[0]
        return [first, len(cells), _digest(cells)]

    def _unseal(self, span: list):
        """Authenticate, order-check and parse the blob a span names."""
        first, count, digest = span
        try:
            cells = self.host.read_slots(
                [(self.region, slot) for slot in range(first, first + count)])
        except HostMemoryError as error:
            raise CheckpointError(f"sealed chunks missing: {error}") from error
        chunks = decrypt_batch(self.provider, cells)
        if _digest(cells) != digest:
            raise CheckpointError(
                f"sealed chunks in slots [{first}, {first + count}) disagree "
                f"with the manifest digest"
            )
        return json.loads(b"".join(chunks))

    # -- writing -------------------------------------------------------------
    def initialize(self) -> None:
        """Write checkpoint zero: the pristine host, an empty journal.

        Guarantees recovery always has a resume point — a crash before the
        first periodic commit restarts the run from the top against the
        initial host image.
        """
        if self.host.has_region(self.region):
            self.host.free(self.region)
        self.host.allocate(self.region, 1)
        self._segments = []
        self._image = None
        self._write_image(0)

    def commit(self, op_count: int, entries: list[JournalEntry]) -> None:
        """Seal the journal segment since the last checkpoint, then the image."""
        self._segments.append(self._append_sealed(
            [[e.op, e.region, e.index, _b64(e.payload)] for e in entries]
        ))
        self._write_image(op_count)
        self.commits += 1

    def _write_image(self, ops: int) -> None:
        snapshot = self.host.snapshot_regions(exclude=frozenset({self.region}))
        stale, self._image = self._image, self._append_sealed(
            {name: [_b64(s) for s in slots] for name, slots in snapshot.items()}
        )
        manifest = {"ops": ops, "segments": self._segments, "image": self._image}
        (cell,) = encrypt_batch(self.provider, [_serialize(manifest)])
        self.host.write_slots([(self.region, self.MANIFEST_SLOT)], [cell])
        if stale is not None:
            first, count, _ = stale
            self.host.write_slots(
                [(self.region, slot) for slot in range(first, first + count)],
                [b""] * count)

    # -- reading -------------------------------------------------------------
    def load(self) -> CheckpointState:
        """Unseal and validate the newest checkpoint.

        Raises :class:`CheckpointError` when no usable checkpoint exists or
        sealed chunks are missing, duplicated or out of order; a chunk that
        fails authentication propagates
        :class:`~repro.errors.AuthenticationError`.
        """
        if not self.host.has_region(self.region):
            raise CheckpointError(
                f"no checkpoint region {self.region!r} on this host"
            )
        try:
            (cell,) = self.host.read_slots([(self.region, self.MANIFEST_SLOT)])
        except HostMemoryError as error:
            raise CheckpointError(f"no usable checkpoint manifest: {error}") from error
        manifest = json.loads(decrypt_batch(self.provider, [cell])[0])
        snapshot = {
            name: [_unb64(s) for s in slots]
            for name, slots in self._unseal(manifest["image"]).items()
        }
        entries: list[JournalEntry] = []
        for span in manifest["segments"]:
            entries.extend(
                JournalEntry(op, region, index, _unb64(payload))
                for op, region, index, payload in self._unseal(span)
            )
        held = journalled_ops(entries)
        if held != manifest["ops"]:
            raise CheckpointError(
                f"manifest claims {manifest['ops']} journalled operations, "
                f"segments hold {held}"
            )
        # Sync the in-memory index so a store constructed fresh over an
        # existing checkpoint region continues the chain it just read.
        self._segments = manifest["segments"]
        self._image = manifest["image"]
        return CheckpointState(ops=manifest["ops"], entries=entries,
                               snapshot=snapshot)

    def restore(self, state: CheckpointState) -> None:
        """Roll the host back to the checkpoint's image (store region kept)."""
        self.host.restore_regions(state.snapshot,
                                  exclude=frozenset({self.region}))
