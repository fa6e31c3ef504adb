"""Shardable host-memory views for multiprocess workers.

A parallel worker cannot share the parent's :class:`~repro.hardware.host.
HostMemory` — it lives in another process.  Two transports ship a task its
declared footprint (:class:`~repro.hardware.cluster.TaskIO`):

* **Dictionary shards** (:func:`build_shards`) — the slot spans of every
  region the task touches are copied into :class:`RegionShard` dicts and
  pickled with the task.  Simple, but each whole-region footprint ("all of
  B") is re-serialized for *every* task, which is exactly the IPC overhead
  that erased the modeled speedup (BENCH_parallel.json).  Kept for the
  inline (``workers <= 1``) mode, where nothing crosses a process boundary.
* **Shared-memory arenas** (:class:`SharedShardArena`) — the parent packs a
  snapshot of every region a round's tasks read into one
  :mod:`multiprocessing.shared_memory` segment; each task then carries only
  an :class:`ArenaTaskSpec` of (segment name, region layout, allowed spans)
  descriptors, and the worker maps the slots zero-copy
  (:class:`SharedRegionShard`).  The arena is a *snapshot*: workers never
  write to it, so concurrent tasks of one round cannot race.

Either way the worker rebuilds a :class:`ShardHostMemory` — a host view that
answers the *global* slot indices of the original regions, so every trace
event a worker records carries the same ``(op, region, index)`` it would in
the sequential simulation.  Access outside the declared shard raises
:class:`~repro.errors.HostMemoryError`: the shard is both a transport and a
machine-checked statement of the task's I/O footprint.

After the work runs, the worker returns a :class:`ShardResult` with its
writes and appends packed into *contiguous byte blobs* (one flush per region,
not per-slot pickle entries) and its trace as the columns it already is,
which the parent merges back deterministically in task-submission order
(:mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import struct
from array import array
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Iterable, Iterator, Mapping

from repro.errors import HostMemoryError
from repro.hardware.cluster import Span, TaskIO
from repro.hardware.host import HostMemory, RangedSlots

#: Length-table sentinel for a slot that was never written (region_bytes None).
_NEVER_WRITTEN = 0xFFFFFFFF

_LEN = struct.Struct("<I")          # per-slot length table entry
_WRITE = struct.Struct("<QI")       # written slot index, ciphertext length


def _check_span(region: str, start: int, stop: int, size: int) -> None:
    if not 0 <= start <= stop <= size:
        raise HostMemoryError(
            f"shard span [{start}, {stop}) out of bounds for region "
            f"{region!r} of size {size}"
        )


# -- packed transfer encodings ------------------------------------------------
#
# Worker results cross the process boundary as flat byte blobs instead of
# per-slot dict/list entries: pickling one bytes object is a memcpy, pickling
# a dict of thousands of small bytes objects is not.

def pack_writes(writes: Iterable[tuple[int, bytes]]) -> bytes:
    """One region's written slots as contiguous (index, length, bytes) runs."""
    parts = []
    for index, data in writes:
        parts.append(_WRITE.pack(index, len(data)))
        parts.append(data)
    return b"".join(parts)


def unpack_writes(blob: bytes) -> Iterator[tuple[int, bytes]]:
    view = memoryview(blob)
    offset = 0
    while offset < len(view):
        index, length = _WRITE.unpack_from(view, offset)
        offset += _WRITE.size
        yield index, bytes(view[offset:offset + length])
        offset += length


def pack_appends(items: Iterable[bytes]) -> bytes:
    """One region's appended ciphertexts, length-prefixed, in append order."""
    parts = []
    for data in items:
        parts.append(_LEN.pack(len(data)))
        parts.append(data)
    return b"".join(parts)


def unpack_appends(blob: bytes) -> Iterator[bytes]:
    view = memoryview(blob)
    offset = 0
    while offset < len(view):
        (length,) = _LEN.unpack_from(view, offset)
        offset += _LEN.size
        yield bytes(view[offset:offset + length])
        offset += length


@dataclass
class RegionShard:
    """The shipped slots of one region: global index -> ciphertext.

    The pickled (dictionary) transport, used by the executor's inline mode.
    """

    size: int                               # the region's full size at ship time
    slots: dict[int, bytes | None] = field(default_factory=dict)
    append_base: int | None = None          # None: appends are not permitted

    def contains(self, index: int) -> bool:
        return index in self.slots

    def load(self, index: int) -> bytes | None:
        return self.slots[index]

    def store(self, index: int, ciphertext: bytes) -> None:
        self.slots[index] = ciphertext

    def payload_bytes(self) -> int:
        return sum(len(v) for v in self.slots.values() if v is not None)


@dataclass
class ShardResult:
    """What one worker task sends back for the deterministic merge.

    Writes and appends travel as packed blobs (see the ``pack_*`` helpers)
    and the trace as its columns (:meth:`repro.hardware.events.Trace.columns`):
    the transfer is a handful of contiguous buffers, however many slots the
    task touched.
    """

    value: Any
    writes: dict[str, bytes]                # region -> packed (index, len, data)
    appends: dict[str, bytes]               # region -> packed (len, data)
    append_bases: dict[str, int]
    events: tuple[tuple[tuple[str, str], ...], bytes, array]  # one trace run
    counters: dict[str, int]

    def payload_bytes(self) -> int:
        """Bytes of packed payload this result carries across the boundary."""
        _, codes, indices = self.events
        return (
            len(codes) + indices.itemsize * len(indices)
            + sum(len(blob) for blob in self.writes.values())
            + sum(len(blob) for blob in self.appends.values())
        )


def build_shards(host: HostMemory, io: TaskIO) -> dict[str, RegionShard]:
    """Cut the parent host's regions down to one task's declared footprint."""
    shards: dict[str, RegionShard] = {}
    for region, spans in io.reads.items():
        raw = host.region_bytes(region)
        size = len(raw)
        if spans is None:
            spans = [(0, size)]
        slots: dict[int, bytes | None] = {}
        for start, stop in spans:
            _check_span(region, start, stop, size)
            for index in range(start, stop):
                slots[index] = raw[index]
        shards[region] = RegionShard(size=size, slots=slots)
    for region, base in io.appends.items():
        shard = shards.get(region)
        if shard is None:
            shard = RegionShard(size=host.size(region) if host.has_region(region) else 0)
            shards[region] = shard
        shard.append_base = base
    return shards


def shards_payload_bytes(shards: Mapping[str, RegionShard]) -> int:
    """Slot bytes a dictionary-shard payload would carry through pickle."""
    return sum(shard.payload_bytes() for shard in shards.values())


# -- the shared-memory arena --------------------------------------------------

@dataclass(frozen=True)
class RegionLayout:
    """Where one region lives inside an arena segment.

    Slots are fixed-stride cells of ``cell`` bytes preceded by a ``u32``
    per-slot length table (``0xFFFFFFFF`` marks a never-written slot), so a
    worker locates any global index with two reads and no deserialization.
    """

    count: int
    cell: int
    lengths_offset: int
    data_offset: int


@dataclass(frozen=True)
class ArenaTaskSpec:
    """One task's footprint as descriptors into a shared arena segment.

    This — not the slot data — is what pickles with the task: a segment
    name, per-region layouts, the allowed spans (``None`` = whole region),
    and append bases/ship-time sizes for append-only regions.
    """

    segment: str | None
    layouts: dict[str, RegionLayout]
    spans: dict[str, tuple[Span, ...] | None]
    append_bases: dict[str, int]
    append_sizes: dict[str, int]


class SharedShardArena:
    """A parent-side shared-memory snapshot of host regions for one round.

    Built once per :meth:`ClusterExecutor.run_tasks` round over the union of
    the round's read footprints; every worker of the round maps the same
    segment instead of receiving its own pickled copy of the slots.  The
    parent owns the lifecycle: :meth:`destroy` closes and unlinks the
    segment (idempotent — crash paths and ``close()`` may both call it).
    """

    def __init__(self, host: HostMemory, regions: Iterable[str], name: str) -> None:
        layouts: dict[str, RegionLayout] = {}
        raws: dict[str, list[bytes | None]] = {}
        offset = 0
        for region in sorted(set(regions)):
            raw = host.region_bytes(region)
            count = len(raw)
            cell = max((len(s) for s in raw if s is not None), default=0)
            layouts[region] = RegionLayout(
                count=count,
                cell=cell,
                lengths_offset=offset,
                data_offset=offset + _LEN.size * count,
            )
            offset += _LEN.size * count + cell * count
            raws[region] = raw
        self.layouts = layouts
        self.nbytes = offset
        self.name = name
        self._host = host
        self._shm: shared_memory.SharedMemory | None = shared_memory.SharedMemory(
            create=True, name=name, size=max(offset, 1)
        )
        buf = self._shm.buf
        for region, raw in raws.items():
            layout = layouts[region]
            lengths_offset, data_offset, cell = (
                layout.lengths_offset, layout.data_offset, layout.cell,
            )
            for i, slot in enumerate(raw):
                if slot is None:
                    _LEN.pack_into(buf, lengths_offset + _LEN.size * i, _NEVER_WRITTEN)
                else:
                    _LEN.pack_into(buf, lengths_offset + _LEN.size * i, len(slot))
                    start = data_offset + cell * i
                    buf[start:start + len(slot)] = slot

    def task_spec(self, io: TaskIO) -> ArenaTaskSpec:
        """Validate one task's footprint and cut its descriptor."""
        layouts: dict[str, RegionLayout] = {}
        spans: dict[str, tuple[Span, ...] | None] = {}
        for region, declared in io.reads.items():
            layout = self.layouts[region]
            if declared is None:
                spans[region] = None
            else:
                for start, stop in declared:
                    _check_span(region, start, stop, layout.count)
                spans[region] = tuple(declared)
            layouts[region] = layout
        append_bases = dict(io.appends)
        append_sizes = {
            region: (self._host.size(region) if self._host.has_region(region) else 0)
            for region in append_bases
            if region not in io.reads
        }
        return ArenaTaskSpec(
            segment=self.name,
            layouts=layouts,
            spans=spans,
            append_bases=append_bases,
            append_sizes=append_sizes,
        )

    def destroy(self) -> None:
        """Close and unlink the segment; safe to call more than once."""
        shm, self._shm = self._shm, None
        if shm is None:
            return
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # already unlinked (e.g. a second destroy)
            pass


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-owned segment without adopting its lifecycle.

    On Python < 3.13 attaching registers the segment with the process's
    resource tracker, which would unlink (and warn about) segments the
    *parent* owns when a pool worker exits; ``track=False`` (3.13+) or
    suppressing the registration opts this mapping out of tracking.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


class SharedRegionShard:
    """A worker's zero-copy view of one region inside an arena segment.

    Reads resolve against a local write overlay first (a task may read back
    slots it wrote) and then against the mapped snapshot; writes never touch
    the segment, so concurrent tasks of a round stay isolated and the
    parent's merge remains the only writer of authoritative state.
    """

    def __init__(
        self,
        buffer,
        layout: RegionLayout,
        spans: tuple[Span, ...] | None,
        append_base: int | None = None,
    ) -> None:
        self.size = layout.count
        self.append_base = append_base
        self._buffer = buffer
        self._layout = layout
        self._spans = spans
        self._overlay: dict[int, bytes] = {}

    def contains(self, index: int) -> bool:
        if not 0 <= index < self.size:
            return False
        if self._spans is None:
            return True
        return any(start <= index < stop for start, stop in self._spans)

    def load(self, index: int) -> bytes | None:
        value = self._overlay.get(index)
        if value is not None:
            return value
        layout = self._layout
        (length,) = _LEN.unpack_from(self._buffer, layout.lengths_offset + _LEN.size * index)
        if length == _NEVER_WRITTEN:
            return None
        start = layout.data_offset + layout.cell * index
        return bytes(self._buffer[start:start + length])

    def store(self, index: int, ciphertext: bytes) -> None:
        self._overlay[index] = ciphertext


def attach_arena_shards(
    spec: ArenaTaskSpec,
) -> tuple[shared_memory.SharedMemory | None, dict[str, RegionShard | SharedRegionShard]]:
    """Map a task's arena descriptor back into worker-local shards.

    The caller must ``close()`` the returned segment handle (never unlink —
    the parent owns the segment) once the task's result is packed.
    """
    shm = attach_segment(spec.segment) if spec.segment is not None else None
    shards: dict[str, RegionShard | SharedRegionShard] = {}
    for region, layout in spec.layouts.items():
        shards[region] = SharedRegionShard(
            shm.buf if shm is not None else b"",
            layout,
            spec.spans[region],
        )
    for region, base in spec.append_bases.items():
        shard = shards.get(region)
        if shard is None:
            shards[region] = RegionShard(
                size=spec.append_sizes.get(region, 0), append_base=base
            )
        else:
            shard.append_base = base
    return shm, shards


class ShardHostMemory(RangedSlots):
    """A worker-local host over shipped shards, addressed by global indices.

    Implements the slice of the :class:`HostMemory` surface the coprocessor
    and the algorithms' host-side requests use (the ranged trio by
    :class:`RangedSlots`), over either transport (:class:`RegionShard` dicts
    or :class:`SharedRegionShard` arena views).
    Writes are tracked (the merge only applies touched slots) and appends
    accumulate locally with indices continuing from the declared append
    base, so returned slot numbers — and hence PUT trace events — are
    bit-identical to the sequential run's.
    """

    def __init__(self, shards: dict[str, RegionShard | SharedRegionShard]) -> None:
        self._shards = shards
        self._written: dict[str, dict[int, bytes]] = {name: {} for name in shards}
        self._appended: dict[str, list[bytes]] = {
            name: [] for name, shard in shards.items()
            if shard.append_base is not None
        }

    # -- HostMemory surface --------------------------------------------------
    def has_region(self, name: str) -> bool:
        return name in self._shards

    def size(self, name: str) -> int:
        """The region's size as the sequential host would report it: past
        this task's appends where it may append, else the shipped size."""
        shard = self._shard(name)
        if shard.append_base is None:
            return shard.size
        return shard.append_base + len(self._appended[name])

    def _shard(self, name: str) -> RegionShard | SharedRegionShard:
        try:
            return self._shards[name]
        except KeyError:
            raise HostMemoryError(
                f"region {name!r} is outside this worker's shard"
            ) from None

    def read_slot(self, name: str, index: int) -> bytes:
        shard = self._shard(name)
        if shard.contains(index):
            value = shard.load(index)
        else:
            value = self._appended_slot(name, shard, index)
        if value is None:
            raise HostMemoryError(f"slot {name}[{index}] was never written")
        return value

    def _appended_slot(
        self, name: str, shard: RegionShard | SharedRegionShard, index: int
    ) -> bytes | None:
        appended = self._appended.get(name)
        if appended is not None and shard.append_base is not None:
            offset = index - shard.append_base
            if 0 <= offset < len(appended):
                return appended[offset]
        raise HostMemoryError(
            f"slot {name}[{index}] is outside this worker's shard"
        ) from None

    def write_slot(self, name: str, index: int, ciphertext: bytes) -> None:
        shard = self._shard(name)
        if not shard.contains(index):
            # Rewriting a slot this task itself appended is fine.
            appended = self._appended.get(name)
            if appended is not None and shard.append_base is not None:
                offset = index - shard.append_base
                if 0 <= offset < len(appended):
                    appended[offset] = ciphertext
                    return
            raise HostMemoryError(
                f"slot {name}[{index}] is outside this worker's shard"
            )
        shard.store(index, ciphertext)
        self._written[name][index] = ciphertext

    def append_slot(self, name: str, ciphertext: bytes) -> int:
        shard = self._shard(name)
        if shard.append_base is None:
            raise HostMemoryError(
                f"task did not declare append access to region {name!r}"
            )
        appended = self._appended[name]
        appended.append(ciphertext)
        return shard.append_base + len(appended) - 1

    def region_bytes(self, name: str) -> list[bytes | None]:
        shard = self._shard(name)
        out = [
            shard.load(i) if shard.contains(i) else None
            for i in range(shard.size)
        ]
        out.extend(self._appended.get(name, ()))
        return out

    # -- host-side operations (untraced, same semantics as HostMemory) -------
    def host_copy(self, src: str, src_start: int, count: int, dst: str) -> None:
        """Append ``count`` shard slots of ``src`` onto ``dst``, host-side."""
        if count < 0:
            raise HostMemoryError(f"copy range out of bounds for region {src!r}")
        for offset in range(count):
            value = self.read_slot(src, src_start + offset)
            self.append_slot(dst, value)

    def host_copy_into(
        self, src: str, src_start: int, count: int, dst: str, dst_start: int
    ) -> None:
        if count < 0:
            raise HostMemoryError(f"copy range out of bounds for region {src!r}")
        values = [self.read_slot(src, src_start + i) for i in range(count)]
        for i, value in enumerate(values):
            self.write_slot(dst, dst_start + i, value)

    # -- merge payload -------------------------------------------------------
    def packed_writes(self) -> dict[str, bytes]:
        """Touched fixed slots as one contiguous blob per region."""
        return {
            name: pack_writes(sorted(written.items()))
            for name, written in self._written.items()
            if written
        }

    def packed_appends(self) -> dict[str, bytes]:
        """Appended ciphertexts as one contiguous blob per region."""
        return {
            name: pack_appends(items)
            for name, items in self._appended.items()
            if items
        }


def merge_shard_result(host: HostMemory, result: ShardResult) -> int:
    """Apply one task's writes and appends to the parent host.

    Called in task-submission order, which is exactly the order the
    sequential simulation performs the same operations in — tasks of one
    round touch disjoint slots, so the merged image is identical either way,
    and append bases are verified so a misdeclared plan fails loudly instead
    of silently permuting the output region.  Each region's blob applies as
    one contiguous flush; returns the number of flushes performed.
    """
    flushes = 0
    for region, blob in result.writes.items():
        writes = list(unpack_writes(blob))
        host.write_slots([(region, index) for index, _ in writes],
                         [ciphertext for _, ciphertext in writes])
        flushes += 1
    for region, blob in result.appends.items():
        if not blob:
            continue
        base = host.size(region)
        expected = result.append_bases.get(region)
        if expected is not None and expected != base:
            raise HostMemoryError(
                f"append base mismatch for region {region!r}: task declared "
                f"{expected} but the region holds {base} slots at merge time"
            )
        host.append_slots(region, list(unpack_appends(blob)))
        flushes += 1
    return flushes
