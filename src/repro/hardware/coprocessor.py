"""The secure coprocessor T.

``T`` is the only trusted component (Section 3.3).  Everything it reads from
the host is decrypted and authenticated on entry; everything it writes is
encrypted under a fresh nonce on exit.  Every crossing of the T/H boundary is
recorded in a :class:`~repro.hardware.events.Trace` — the observable over
which the privacy definitions quantify and in which every cost formula is
stated.

Memory is the coprocessor's scarce resource (4 MB in an IBM 4758, 64 MB in an
IBM 4764).  The class enforces a *tuple-slot budget*: algorithms acquire slots
via :meth:`hold` or :meth:`buffer` and exceeding the budget raises
:class:`EnclaveMemoryError`.  This turns the paper's memory claims ("Algorithm
4 only requires a memory size of two") into machine-checked invariants.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterator, Sequence

from repro.crypto.provider import CryptoProvider, decrypt_batch, encrypt_batch
from repro.errors import EnclaveMemoryError, HostMemoryError
from repro.hardware.events import GET, PUT, Pairs, Trace
from repro.hardware.host import HostMemory
from repro.hardware.resilience import (
    APPENDED,
    CHARGE,
    GATHER,
    JournalEntry,
    ReplayCursor,
    RetryPolicy,
)
from repro.hardware.timing import VirtualClock

#: Builds a fresh trace sink (the default materializes a :class:`Trace`; the
#: bounded-memory sinks live in :mod:`repro.obs.sinks`).
TraceFactory = Callable[[], "Trace"]

#: The host fault clock's op class for each declared trace op.
_OP_CLASS = {GET: "read", PUT: "write"}


def _check_appended(region: str, assigned: list[int], declared: list[int]) -> None:
    if assigned != declared:
        raise HostMemoryError(
            f"host assigned {region!r} other append slots than the section declared")


def _nothing() -> None:
    """The early close of a section that fuses nothing."""


@contextmanager
def unfused() -> Iterator[Callable[[], None]]:
    """A section that fuses nothing: every pass inside closes itself."""
    yield _nothing


class EnclaveBuffer:
    """A bounded in-enclave list of plaintext tuples (e.g. Algorithm 5's store).

    Appending beyond ``capacity`` raises :class:`EnclaveMemoryError`; this is
    precisely the *blemish* trigger of Algorithm 6 (Section 5.3.3).
    """

    def __init__(self, coprocessor: "SecureCoprocessor", capacity: int) -> None:
        self._coprocessor = coprocessor
        self.capacity = capacity
        self._items: list[bytes] = []
        self._released = False

    def append(self, plaintext: bytes) -> None:
        if len(self._items) >= self.capacity:
            raise EnclaveMemoryError(
                f"enclave buffer overflow: capacity {self.capacity} exceeded"
            )
        self._items.append(plaintext)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[bytes]:
        return iter(self._items)

    def __getitem__(self, index: int) -> bytes:
        return self._items[index]

    @property
    def full(self) -> bool:
        return len(self._items) >= self.capacity

    def drain(self) -> list[bytes]:
        """Remove and return all buffered tuples."""
        items, self._items = self._items, []
        return items

    def clear(self) -> None:
        self._items.clear()

    def release(self) -> None:
        """Return the reserved slots to the coprocessor's free pool."""
        if not self._released:
            self._coprocessor._release(self.capacity)
            self._released = True


class SecureCoprocessor:
    """One secure coprocessor attached to a host.

    Crypto fast path
    ----------------
    Every ``get`` models one decryption and every ``put`` one encryption —
    the quantities the paper's cost formulas charge, exposed as the
    ``decryptions``/``encryptions`` counters and as per-slot trace events.
    Physically, though, the dominant access pattern (oblivious-sort
    comparators re-reading slots they just rewrote; cartesian scans
    re-fetching the same input tuples) decrypts the *same ciphertext* over
    and over.  The slot cache short-circuits that: it remembers, per
    ``(region, index)``, the exact ciphertext T last wrote to (or read,
    decrypted and authenticated from) that slot together with its plaintext.
    A later ``get`` that receives those same bytes back skips the physical
    decrypt+authenticate — byte-equality with a ciphertext T itself produced
    or already authenticated *is* the authenticity check (nonces never repeat
    within a provider instance, so equal bytes imply the same message).  Any
    byte difference — a host-side move, a rewrite, tampering — misses the
    cache and takes the full decrypt+authenticate path, preserving
    Section 3.3.1's detect-and-terminate behaviour bit-for-bit.

    Every crossing is a section (gather, compute, stage, one declared
    ``charge_boundary``); ``get``/``put``/``put_append`` and
    ``get_range``/``put_range`` are one-pass sections.  This class moves
    whole slot sets (one ranged host call, one crypto pass, fused
    sections), :class:`ReferenceCoprocessor` one slot per host call and one
    op per section; traces, modeled counters, ``TransferStats`` and phase
    breakdowns are identical on both, cache or not
    (``tests/test_fastpath.py``, ``tests/test_batch.py``).  Physical work
    shows only in ``physical_decryptions``, ``physical_encryptions``,
    ``cache_hits`` and ``batched_ops``/``batch_rows``: one batch per
    section gather that read the host and one per section stage, with
    their rows.

    Fault tolerance
    ---------------
    A section is the unit of fault tolerance, so the path the product runs
    is the path under faults too.  The host is allowed to fail: a
    :class:`RetryPolicy` re-issues a host call that raised
    :class:`~repro.errors.TransientHostError`, bounded and with deterministic
    backoff on a simulated clock.  The retried request is the *identical*
    call, re-issued whole, so the declared access pattern is unchanged —
    only the count of physical attempts (``retries``) grows, and that count
    depends on the host's fault process, never on the data.
    :class:`~repro.errors.AuthenticationError` is raised by the provider
    *after* the host bytes arrive and is never retried.

    For crash recovery, a coprocessor can carry a checkpoint store (sealed
    journal + host image committed at the first section close at or past
    each ``checkpoint_interval`` multiple of boundary ops, outside the trace)
    and, on resume, a :class:`ReplayCursor` that serves the journalled
    sections back without touching host or crypto while still recording every
    trace event — so a recovered run's logical trace is bit-identical to an
    uninterrupted one (:mod:`repro.faults`).
    """

    def __init__(
        self,
        host: HostMemory,
        provider: CryptoProvider,
        memory_limit: int | None = None,
        name: str = "T0",
        trace_factory: TraceFactory | None = None,
        retry: RetryPolicy | None = None,
        clock: VirtualClock | None = None,
        replay: ReplayCursor | None = None,
        checkpoint_store: Any | None = None,
        checkpoint_interval: int | None = None,
    ) -> None:
        self.host = host
        self.provider = provider
        self.memory_limit = memory_limit
        self.name = name
        self.trace_factory: TraceFactory = trace_factory or Trace
        self.trace = self.trace_factory()
        self._in_use = 0
        self.peak_in_use = 0
        #: Modeled crypto counts (one per boundary crossing), whatever the
        #: physical path did — the cost models and phase profiles read these.
        self.encryptions = 0
        self.decryptions = 0
        #: Physical crypto counts: decryptions actually executed and gets
        #: served from the slot cache (decryptions == physical + hits), and
        #: cells actually encrypted (a section encrypts each slot it wrote
        #: once, at its close, however many passes rewrote it).
        self.physical_decryptions = 0
        self.cache_hits = 0
        self.physical_encryptions = 0
        #: The slot cache, per ``(region, index)``: the ciphertext T last
        #: wrote to or authenticated from that slot, and its plaintext.
        self._ciphers: dict[tuple[str, int], bytes] = {}
        self._plains: dict[tuple[str, int], bytes] = {}
        #: Batched boundary calls and the rows they moved (see the class
        #: docstring): physical only, like ``physical_decryptions``.
        self.batched_ops = 0
        self.batch_rows = 0
        self._batch_physical_pending = 0
        #: The open section's final plaintexts, per region and slot index,
        #: and the regions among them it appends to; its close encrypts and
        #: writes them (:meth:`section`).
        self._staged: dict[str, dict[int, bytes]] = {}
        self._appended: set[str] = set()
        #: True while a :meth:`section` fuses several passes.
        self._fusing = False
        #: Fault tolerance: bounded transient-fault retry and, when recovery
        #: is wired up, the sealed checkpoint store and replay cursor.
        self.retry = retry
        self.clock = clock
        #: The host's fault clock (``FaultyHost.admit``), when it has one.
        self._admit = getattr(host, "admit", None)
        self._replay = replay
        self.checkpoint_store = checkpoint_store
        self.checkpoint_interval = checkpoint_interval
        self._journaling = checkpoint_store is not None
        self._journal: list[JournalEntry] = []
        #: ``ops_completed`` as of the newest sealed checkpoint.
        self._sealed_ops = 0
        #: Boundary operations completed (replayed + live) this run.
        self.ops_completed = 0
        self.retries = 0
        self.replayed_transfers = 0
        self.checkpoints_sealed = 0

    # -- fault-tolerant host access -------------------------------------------
    def _count_retry(self) -> None:
        self.retries += 1

    def _host_call(self, operation: Callable[[], Any]) -> Any:
        """One host storage call under the retry policy (if any)."""
        if self.retry is None:
            return operation()
        return self.retry.call(operation, clock=self.clock,
                               on_retry=self._count_retry)

    def _commit_due(self) -> None:
        """Commit a checkpoint at the first section close at or past each
        ``checkpoint_interval`` multiple — never inside a section, so the
        sealed host image and the sealed tape always describe the same
        instant."""
        interval = self.checkpoint_interval
        if interval and self.ops_completed // interval > self._sealed_ops // interval:
            self.checkpoint_store.commit(self.ops_completed, self._journal)
            self._journal = []
            self._sealed_ops = self.ops_completed
            self.checkpoints_sealed += 1

    def _settle_replayed(self, gets: int, puts: int) -> None:
        self.decryptions += gets
        self.encryptions += puts
        self.replayed_transfers += gets + puts
        self.ops_completed += gets + puts
        self._sealed_ops = self.ops_completed

    @property
    def replaying(self) -> bool:
        """True while boundary ops are served from a recovery journal."""
        return self._replay is not None and self._replay.active

    # -- memory accounting ---------------------------------------------------
    def _reserve(self, slots: int) -> None:
        if slots < 0:
            raise EnclaveMemoryError("cannot reserve a negative number of slots")
        if self.memory_limit is not None and self._in_use + slots > self.memory_limit:
            raise EnclaveMemoryError(
                f"{self.name}: requested {slots} slots with {self._in_use} in use "
                f"exceeds the limit of {self.memory_limit}"
            )
        self._in_use += slots
        self.peak_in_use = max(self.peak_in_use, self._in_use)

    def _release(self, slots: int) -> None:
        self._in_use -= slots
        if self._in_use < 0:
            raise EnclaveMemoryError("released more slots than were reserved")

    @property
    def slots_in_use(self) -> int:
        return self._in_use

    @contextmanager
    def hold(self, slots: int):
        """Reserve ``slots`` tuple slots for the duration of a with-block."""
        self._reserve(slots)
        try:
            yield
        finally:
            self._release(slots)

    def buffer(self, capacity: int) -> EnclaveBuffer:
        """Reserve a bounded result buffer (caller must release())."""
        self._reserve(capacity)
        return EnclaveBuffer(self, capacity)

    # -- the traced T/H boundary ----------------------------------------------
    # Every crossing is a section (below).  ``get``/``put``/``put_append`` and
    # ``get_range``/``put_range`` are one-pass sections over one region: on
    # their own each closes itself, inside an open fused section they join it.
    def get(self, region: str, index: int) -> bytes:
        """Read one host slot into the enclave: decrypt + authenticate.

        Raises :class:`~repro.errors.AuthenticationError` when the host (or a
        malicious adversary controlling it) tampered with the slot —
        Section 3.3.1's detect-and-terminate behaviour.  A slot-cache hit
        skips the physical decrypt; a modeled decryption is charged either way.
        """
        return self.get_range(region, index, 1)[0]

    def put(self, region: str, index: int, plaintext: bytes) -> None:
        """Write one plaintext out to a host slot, encrypting under a fresh nonce."""
        self.put_range(region, index, [plaintext])

    def put_append(self, region: str, plaintext: bytes) -> int:
        """Append an encrypted tuple to a growable host region."""
        [index] = self.stage_append(region, [plaintext])
        self.charge_boundary(((PUT, region),), b"\0", (index,))
        return index

    def get_range(self, region: str, start: int, count: int) -> list[bytes]:
        """Read ``count`` contiguous slots starting at ``start`` in one pass."""
        plaintexts = self.gather_slots(region, range(start, start + count))
        self.charge_boundary(((GET, region),), bytes(count), range(start, start + count))
        return plaintexts

    def put_range(self, region: str, start: int, plaintexts: Sequence[bytes]) -> None:
        """Write contiguous slots starting at ``start`` in one pass."""
        slots = range(start, start + len(plaintexts))
        self.scatter_slots(region, slots, plaintexts)
        self.charge_boundary(((PUT, region),), bytes(len(slots)), slots)

    # -- sections: the declaration is the reference ----------------------------
    #
    # A section splits the logical ledger from physical execution:
    # ``gather_slots`` reads a slot set across the boundary, ``scatter_slots``
    # stages a slot set's final plaintexts and ``stage_append`` a whole
    # append, *without* recording anything, and ``charge_boundary`` settles
    # the pass from its declared run — the ops a comparator network, a
    # linear pass or an emit issues, whose GETs read gathered slots and whose
    # PUTs land staged ones.  The final host state, the declared trace and
    # every modeled counter are the declaration's, on both device types.
    # Each pass's ``charge_boundary`` presents its run to the host's fault
    # clock, records it once and charges it.  The physical work is the
    # section's: a pass outside :meth:`section` is a section of its own, and
    # inside one the passes share it — a gather of a slot the section
    # already wrote is served from enclave memory, and the close encrypts
    # each written slot's final plaintext once and writes it with one ranged
    # call per region.  The section is one batch for fault tolerance — a
    # fault fires at a pass's admission, before the section mutates the
    # host; its tape rows are what its passes gathered, the slots its staged
    # appends were assigned and one CHARGE row per pass; and a checkpoint can
    # only commit at its close.  :class:`ReferenceCoprocessor` walks every
    # pass op by op.

    @contextmanager
    def section(self) -> Iterator[Callable[[], None]]:
        """Fuse the passes run inside the with-block into one physical section.

        Yields ``close``, which closes the section early (a phase profile
        books the close inside the last pass's span); leaving the block
        closes it otherwise.  An exception discards the staged plaintexts,
        so the host image stays what it was when the section opened.  A
        ``get``/``put`` inside it joins it like any pass (a read of a slot it
        wrote is its staged plaintext), and :meth:`copy_slots` stages its
        copies instead of moving cells.  A
        section opened inside another, or while the replay tape is active,
        fuses nothing: its passes replay, or run, one section each.
        """
        if self._fusing or self.replaying:
            yield _nothing
            return
        self._fusing = True
        try:
            yield self._close_section
        except BaseException:
            self._staged, self._appended = {}, set()
            self._fusing = False
            raise
        self._close_section()

    def _close_section(self) -> None:
        if self._fusing:
            self._fusing = False
            self._flush()
            if self._journaling:
                self._commit_due()

    def gather_slots(self, region: str, indices: Sequence[int]) -> list[bytes]:
        """Physically read a slot set for a section (unrecorded, unadmitted).

        Slots the open section already wrote are served from its staged
        plaintexts; the rest are read in one ranged call, decrypting cache
        misses in one batch, and the physical decrypts are left pending for
        the next :meth:`charge_boundary` to settle against the pass's
        modeled GETs.
        """
        if not indices:
            return []
        if self.replaying:
            return [entry.payload for entry in self._replay.take_batch(
                [(GATHER, region, index) for index in indices])]
        plaintexts = self._current(region, indices)
        if self._journaling:
            self._journal.extend(JournalEntry(GATHER, region, index, plaintext)
                                 for index, plaintext in zip(indices, plaintexts))
        return plaintexts

    def _current(self, region: str, indices: Sequence[int]) -> list[bytes]:
        """A slot set's current plaintexts: staged by the open section, or
        read from the host in one authenticated ranged call."""
        written = self._staged.get(region)
        if written is None:
            return self._gather([(region, index) for index in indices])
        plaintexts = list(map(written.get, indices))
        unwritten = [index for index, plain in zip(indices, plaintexts) if plain is None]
        if unwritten:
            read = iter(self._gather([(region, index) for index in unwritten]))
            plaintexts = [next(read) if plain is None else plain for plain in plaintexts]
        return plaintexts

    def _gather(self, slots: list[tuple[str, int]]) -> list[bytes]:
        """A gather's host read: one authenticated ranged call, one batch."""
        plaintexts = self._fetch(slots)
        self.batched_ops += 1
        self.batch_rows += len(slots)
        return plaintexts

    def _fetch(self, slots: list[tuple[str, int]]) -> list[bytes]:
        ciphertexts = self._host_call(lambda: self.host.read_slots(slots))
        plaintexts, misses = self._resolve(slots, ciphertexts)
        self._batch_physical_pending += misses
        return plaintexts

    def _resolve(self, slots: list[tuple[str, int]],
                 ciphertexts: list[bytes]) -> tuple[list[bytes], int]:
        """Plaintexts for freshly read cells, and how many were cache misses.

        Hits come from the slot cache; the misses are decrypted in one pass,
        and nothing is cached or counted until all of it has authenticated —
        a tampered cell aborts the read with none of it released.  A read
        of hits only is checked as one list comparison: still byte equality,
        cell by cell, with the ciphertexts T itself holds.
        """
        ciphers, plains = self._ciphers, self._plains
        if list(map(ciphers.get, slots)) == ciphertexts:
            return list(map(plains.__getitem__, slots)), 0
        results: list[bytes | None] = [None] * len(slots)
        #: slot -> (ciphertext, miss position) for misses resolved in this
        #: read; later equal-byte occurrences are cache hits.
        pending: dict[tuple[str, int], tuple[bytes, int]] = {}
        misses: list[int] = []
        duplicates: list[tuple[int, int]] = []
        for k, (key, ciphertext) in enumerate(zip(slots, ciphertexts)):
            cached = ciphers.get(key)
            if cached is not None and cached == ciphertext:
                results[k] = plains[key]
                continue
            earlier = pending.get(key)
            if earlier is not None and earlier[0] == ciphertext:
                duplicates.append((k, earlier[1]))
                continue
            pending[key] = (ciphertext, k)
            misses.append(k)
        if misses:
            decrypted = decrypt_batch(self.provider,
                                      [ciphertexts[k] for k in misses])
            for k, plaintext in zip(misses, decrypted):
                results[k] = plaintext
                ciphers[slots[k]] = ciphertexts[k]
                plains[slots[k]] = plaintext
        for k, source in duplicates:
            results[k] = results[source]
        self.physical_decryptions += len(misses)
        return results, len(misses)  # type: ignore[return-value]

    def scatter_slots(
        self, region: str, indices: Sequence[int], plaintexts: Sequence[bytes]
    ) -> None:
        """Stage a slot set's final plaintexts for a section (unrecorded).

        The section's close writes them to the host — after the fault clock
        has admitted the pass — and the pass's :meth:`charge_boundary`
        charges the modeled PUTs.
        """
        if plaintexts:
            self._stage(False, region, indices, plaintexts)

    def stage_append(self, region: str, plaintexts: Sequence[bytes]) -> list[int]:
        """Stage an append to a growable region for a section.

        Returns the slot indices the host will assign — the region's size,
        plus what the open section already staged to append there, onwards —
        and the section declares its PUTs at them before its close appends
        the cells (checking the host assigned exactly those).  On replay the
        tape's ``APPENDED`` rows are authoritative.
        """
        if not plaintexts:
            return []
        if self.replaying:
            indices = [entry.index for entry in self._replay.take_batch(
                [(APPENDED, region, None)] * len(plaintexts))]
        else:
            base = self.host.size(region)
            if region in self._appended:
                base += len(self._staged[region])
            indices = list(range(base, base + len(plaintexts)))
            if self._journaling:
                self._journal.extend(JournalEntry(APPENDED, region, index)
                                     for index in indices)
        self._stage(True, region, indices, plaintexts)
        return indices

    def _stage(self, append: bool, region: str, indices: Sequence[int],
               plaintexts: Sequence[bytes]) -> None:
        """Keep a section's final plaintexts for its close, and nothing on
        replay (the restored host image already holds the section's writes)."""
        if not self.replaying:
            self._keep(append, region, indices, plaintexts)
            self.batched_ops += 1
            self.batch_rows += len(plaintexts)

    def _keep(self, append: bool, region: str, indices: Sequence[int],
              plaintexts: Sequence[bytes]) -> None:
        self._staged.setdefault(region, {}).update(zip(indices, plaintexts))
        if append:
            self._appended.add(region)

    def copy_slots(self, src: str, src_start: int, count: int,
                   dst: str, dst_start: int) -> None:
        """Copy ``count`` slots of ``src`` from ``src_start`` into ``dst`` at
        ``dst_start``: a move that declares nothing.

        Inside a fused section the host does not hold the section's writes,
        so T stages the copies itself: the source's plaintexts are its
        staged ones, or read like a gather's (one ranged call, a slot-cache
        hit wherever T wrote the cell), and the close encrypts the copies
        with everything else.  Anywhere else — no open section, a section
        opened during replay, the reference device — the host moves the
        ciphertexts (``host_copy_into``) and T carries its slot-cache
        entries along, so a later read of a copy is a hit too.
        """
        sources = range(src_start, src_start + count)
        targets = range(dst_start, dst_start + count)
        if self._fusing:
            self._keep(False, dst, targets, self._current(src, sources))
            return
        self.host.host_copy_into(src, src_start, count, dst, dst_start)
        ciphers, plains = self._ciphers, self._plains
        for source, target in zip(sources, targets):
            cipher = ciphers.get((src, source))
            if cipher is not None:
                ciphers[dst, target] = cipher
                plains[dst, target] = plains[src, source]

    def charge_boundary(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        """Settle a completed pass: admit it, then its ledger; outside a
        fused section it is a section of its own, closed here.

        The declaration is one run (:mod:`repro.hardware.events`): event ``k``
        is ``(*table[codes[k]], indices[k])``.  The declared ops are
        presented to the host's fault clock (if it has one; a PUT to a
        region with a staged append is presented as an append), then the run
        is appended to the trace once and the modeled counters are charged
        from the code column.  GETs beyond the physical decrypts pending
        from :meth:`gather_slots` were served from enclave-resident
        plaintexts, the vectorized analogue of a slot-cache hit, and are
        charged as ``cache_hits`` so the ``physical + hits == decryptions``
        ledger keeps balancing.  An empty run settles nothing.
        """
        if not codes:
            return
        if self._fusing or self.replaying:
            self._charge(table, codes, indices)
            return
        with self.section():
            self._charge(table, codes, indices)

    def _charge(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        """Admit a pass, record its run and charge it; or replay its CHARGE row."""
        replayed = self.replaying
        if not replayed and self._admit is not None:
            appended = self._appended
            classes = [("append" if op == PUT and region in appended
                        else _OP_CLASS[op], region) for op, region in table]
            self._host_call(partial(self._admit, list(map(classes.__getitem__, codes))))
        if len(codes) == 1:
            self.trace.record(*table[codes[0]], indices[0])
        else:
            self.trace.record_run(table, codes, indices)
        gets = sum(codes.count(code) for code, (op, _) in enumerate(table) if op == GET)
        puts = len(codes) - gets
        if replayed:
            self._replay.take_batch(((CHARGE, "", gets + puts),))
            self._settle_replayed(gets, puts)
            return
        pending = self._batch_physical_pending
        self._batch_physical_pending = 0
        self.decryptions += gets
        self.encryptions += puts
        self.cache_hits += gets - pending
        self.ops_completed += gets + puts
        if self._journaling:
            self._journal.append(JournalEntry(CHARGE, "", gets + puts))

    def _flush(self) -> None:
        """Write a section's cells: each staged slot's final plaintext
        encrypted once, one ranged call per region (an append where the
        section staged one), all in one retried host call."""
        staged, appended = self._staged, self._appended
        if not staged:
            return
        self._staged, self._appended = {}, set()
        cells = []
        for region, plains in staged.items():
            plaintexts = list(plains.values())
            cells.append(([(region, index) for index in plains],
                          self._encrypt(plaintexts), plaintexts))

        def flush() -> None:
            for targets, ciphertexts, _ in cells:
                region = targets[0][0]
                if region not in appended:
                    self.host.write_slots(targets, ciphertexts)
                else:
                    _check_appended(region, self.host.append_slots(region, ciphertexts),
                                    [index for _, index in targets])

        self._host_call(flush)
        for targets, ciphertexts, plaintexts in cells:
            self._remember(targets, ciphertexts, plaintexts)

    def _encrypt(self, plaintexts: list[bytes]) -> list[bytes]:
        self.physical_encryptions += len(plaintexts)
        return encrypt_batch(self.provider, plaintexts)

    # -- cache management ------------------------------------------------------
    def _remember(self, targets: list[tuple[str, int]], ciphertexts: Sequence[bytes],
                  plaintexts: Sequence[bytes]) -> None:
        self._ciphers.update(zip(targets, ciphertexts))
        self._plains.update(zip(targets, plaintexts))

    @property
    def cache_entries(self) -> int:
        return len(self._ciphers)

    def clear_cache(self) -> None:
        """Drop every cached (ciphertext, plaintext) slot pair.

        Correctness never requires this — a stale entry can only miss, because
        fresh nonces make every ciphertext T emits byte-distinct — but callers
        retiring regions can use it to bound simulation memory.
        """
        self._ciphers.clear()
        self._plains.clear()

    # -- statistics -----------------------------------------------------------
    def reset_trace(self) -> Trace:
        """Swap in a fresh trace (from the configured factory), returning the old one."""
        old, self.trace = self.trace, self.trace_factory()
        return old


class ReferenceCoprocessor(SecureCoprocessor):
    """The same device with every slot crossing in a host call of its own.

    A gather reads one slot per host call (authenticating it before the
    next) and a pass settles op by op, each op a one-op section of its own,
    so a checkpoint can commit after any op.  Traces, modeled counters,
    ``physical_decryptions``/``cache_hits`` and the host image equal
    :class:`SecureCoprocessor`'s; ``batched_ops``/``batch_rows`` stay 0, and
    since it fuses no section, ``physical_encryptions`` equals the modeled
    ``encryptions``.  The differential tests and
    ``faults.scalar_penalty_ratio`` run it.
    """

    def _gather(self, slots: list[tuple[str, int]]) -> list[bytes]:
        return [self._fetch([slot])[0] for slot in slots]

    def section(self):
        """The reference fuses nothing: it walks every pass op by op."""
        return unfused()

    def _stage(self, append: bool, region: str, indices: Sequence[int],
               plaintexts: Sequence[bytes]) -> None:
        """Keep the plaintexts, on replay too: a resume whose tape ends
        mid-section has values for its live writes."""
        self._keep(append, region, indices, plaintexts)

    def charge_boundary(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        """Settle a pass by walking its declared run, one op per section.

        Each op is admitted, recorded, charged and journalled as a CHARGE
        row of one; a PUT then writes its slot's staged final plaintext
        (fresh nonces hide that intermediate values are skipped), or appends
        it where the pass staged an append, in a one-slot host call.  A GET
        is the gather's plaintext (its pending decrypts are credited against
        the walk's GETs, as on the batched device).  A checkpoint due after
        any op commits there.
        """
        staged, self._staged = self._staged, {}
        appended, self._appended = self._appended, set()
        self.cache_hits -= self._batch_physical_pending
        self._batch_physical_pending = 0
        for code, index in zip(codes, indices):
            op, region = pair = table[code]
            if op == GET or self.replaying:
                self._charge((pair,), b"\0", (index,))
                if self._journaling:
                    self._commit_due()
                continue
            with SecureCoprocessor.section(self):
                self._keep(region in appended, region, (index,), (staged[region][index],))
                self._charge((pair,), b"\0", (index,))
