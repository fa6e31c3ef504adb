"""The untrusted host H: named regions of ciphertext tuple slots.

The host is "a general purpose computer which provides additional memory and
disk space for T" (Section 3.2).  For the algorithms' purposes memory and disk
are one address space ("we refer to H's memory and disk as its memory"), so
:class:`HostMemory` models a dictionary of named, fixed-size regions of
ciphertext slots.  The host is honest-but-curious: it stores and serves bytes
faithfully but sees every slot and every access.  Host-side operations that do
not cross the T/H boundary (e.g. "request H to write the first N of scratch[]
to disk", Algorithm 1) are modelled by :meth:`host_copy` / :meth:`host_append`
and are *not* counted as coprocessor transfers, matching the paper's cost
accounting.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.errors import HostMemoryError


class RangedSlots:
    """The ranged slot trio, written once over a host's own scalar slot calls.

    A batch of boundary ops crosses to the host as one call; ``slots`` are
    ``(region, index)`` pairs in declared order.  Each call loops over
    ``self.read_slot`` / ``write_slot`` / ``append_slot``, so a host that
    interposes on single slots (the adversary hosts) sees every slot of a batch.
    """

    def read_slots(self, slots: Sequence[tuple[str, int]]) -> list[bytes]:
        read = self.read_slot
        return [read(name, index) for name, index in slots]

    def write_slots(self, slots: Sequence[tuple[str, int]],
                    ciphertexts: Sequence[bytes]) -> None:
        write = self.write_slot
        for (name, index), ciphertext in zip(slots, ciphertexts):
            write(name, index, ciphertext)

    def append_slots(self, name: str, ciphertexts: Sequence[bytes]) -> list[int]:
        """Grow a region by one slot per ciphertext; returns the new indices."""
        append = self.append_slot
        return [append(name, ciphertext) for ciphertext in ciphertexts]


class ForwardingHost:
    """A host wrapper: whatever a subclass does not intercept is ``inner``'s.

    ``FaultyHost`` and ``RecoveryHost`` define only the calls they gate; every
    other host method, and any capability of a host further down the stack
    (a fault clock's ``admit``), is ``inner``'s own, bound once here so a
    forwarded call costs what a direct one does.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        for name in dir(inner):
            if not name.startswith("_") and not hasattr(type(self), name):
                method = getattr(inner, name)
                if callable(method):
                    setattr(self, name, method)


class HostMemory(RangedSlots):
    """Named regions of ciphertext slots plus an append-only output area."""

    def __init__(self) -> None:
        self._regions: dict[str, list[bytes | None]] = {}

    # -- region management --------------------------------------------------
    def allocate(self, name: str, size: int) -> None:
        """Create an empty region of ``size`` tuple slots."""
        if name in self._regions:
            raise HostMemoryError(f"region {name!r} already exists")
        if size < 0:
            raise HostMemoryError("region size must be non-negative")
        self._regions[name] = [None] * size

    def allocate_from(self, name: str, ciphertexts: Iterable[bytes]) -> None:
        """Create a region pre-loaded with ciphertexts (a provider's upload)."""
        if name in self._regions:
            raise HostMemoryError(f"region {name!r} already exists")
        self._regions[name] = list(ciphertexts)

    def free(self, name: str) -> None:
        try:
            del self._regions[name]
        except KeyError:
            raise HostMemoryError(f"region {name!r} does not exist") from None

    def has_region(self, name: str) -> bool:
        return name in self._regions

    def size(self, name: str) -> int:
        return len(self._region(name))

    def region_names(self) -> list[str]:
        return list(self._regions)

    def _region(self, name: str) -> list[bytes | None]:
        try:
            return self._regions[name]
        except KeyError:
            raise HostMemoryError(f"region {name!r} does not exist") from None

    # -- slot access (used by the coprocessor and by host-side ops) ---------
    def read_slots(self, slots: Sequence[tuple[str, int]]) -> list[bytes]:
        """Serve a batch in one pass, without a call per slot.

        A slot :meth:`read_slot` would refuse (unknown region, index out of
        range or negative, never written) sends the batch through the
        per-slot loop, which raises that error for the first such slot.  A
        subclass that overrides :meth:`read_slot` always gets the loop.
        """
        if type(self).read_slot is HostMemory.read_slot:
            regions = self._regions
            try:
                cells = [regions[name][index] if index >= 0 else None
                         for name, index in slots]
            except (KeyError, IndexError, TypeError):
                cells = None
            # None marks a negative index (a list index would wrap) or a
            # never-written slot: the loop raises read_slot's error for it.
            if cells is not None and all(cells):
                return cells
        return super().read_slots(slots)

    def write_slots(self, slots: Sequence[tuple[str, int]],
                    ciphertexts: Sequence[bytes]) -> None:
        """Write a batch in one pass, without a call per slot.

        The whole batch is validated first: a slot :meth:`write_slot` would
        refuse sends the batch through the per-slot loop, which writes the
        slots before it and raises that error.  A subclass that overrides
        :meth:`write_slot` always gets the loop.
        """
        if type(self).write_slot is HostMemory.write_slot:
            regions = self._regions
            try:
                valid = all(0 <= index < len(regions[name]) for name, index in slots)
            except (KeyError, TypeError):
                valid = False
            if valid:
                for (name, index), ciphertext in zip(slots, ciphertexts):
                    regions[name][index] = ciphertext
                return
        super().write_slots(slots, ciphertexts)

    def append_slots(self, name: str, ciphertexts: Sequence[bytes]) -> list[int]:
        """Grow a region by one slot per ciphertext, in one pass.

        An unknown region, or a subclass that overrides :meth:`append_slot`,
        takes the per-slot loop.
        """
        region = self._regions.get(name)
        if region is None or type(self).append_slot is not HostMemory.append_slot:
            return super().append_slots(name, ciphertexts)
        start = len(region)
        region.extend(ciphertexts)
        return list(range(start, len(region)))

    def read_slot(self, name: str, index: int) -> bytes:
        region = self._region(name)
        if not 0 <= index < len(region):
            raise HostMemoryError(f"index {index} out of range for region {name!r}")
        value = region[index]
        if value is None:
            raise HostMemoryError(f"slot {name}[{index}] was never written")
        return value

    def write_slot(self, name: str, index: int, ciphertext: bytes) -> None:
        region = self._region(name)
        if not 0 <= index < len(region):
            raise HostMemoryError(f"index {index} out of range for region {name!r}")
        region[index] = ciphertext

    def append_slot(self, name: str, ciphertext: bytes) -> int:
        """Grow a region by one slot; returns the new slot's index."""
        region = self._region(name)
        region.append(ciphertext)
        return len(region) - 1

    # -- host-side operations (no T/H transfer, not traced by T) ------------
    def host_copy(self, src: str, src_start: int, count: int, dst: str) -> None:
        """Copy ciphertext slots between regions entirely on the host.

        Models server-side requests like Algorithm 1's "Request H to write
        first N of scratch[] to disk": the bytes never re-enter T, so no
        transfer or crypto operation is charged.
        """
        source = self._region(src)
        if src_start < 0 or count < 0 or src_start + count > len(source):
            raise HostMemoryError(f"copy range out of bounds for region {src!r}")
        destination = self._region(dst)
        destination.extend(source[src_start:src_start + count])

    def host_copy_into(
        self, src: str, src_start: int, count: int, dst: str, dst_start: int
    ) -> None:
        """Copy ciphertext slots into existing destination slots, host-side.

        Used by the oblivious decoy filter (Section 5.2.2): refilling the swap
        area of the sort buffer is a pure host operation — ciphertexts move
        without ever entering T, so no transfer is charged.
        """
        source = self._region(src)
        if src_start < 0 or count < 0 or src_start + count > len(source):
            raise HostMemoryError(f"copy range out of bounds for region {src!r}")
        destination = self._region(dst)
        if dst_start < 0 or dst_start + count > len(destination):
            raise HostMemoryError(f"copy range out of bounds for region {dst!r}")
        destination[dst_start:dst_start + count] = source[src_start:src_start + count]

    def region_bytes(self, name: str) -> list[bytes | None]:
        """The raw slot contents — what an honest-but-curious host observes."""
        return list(self._region(name))

    # -- bulk state (checkpoint/restore support, host-side and untraced) -----
    def snapshot_regions(self, exclude: frozenset[str] = frozenset()) -> dict[str, list[bytes | None]]:
        """A deep copy of every region's slots, minus ``exclude``.

        Used by the fault-tolerance layer (:mod:`repro.faults.checkpoint`) to
        capture the host image a sealed checkpoint rolls back to.  A pure
        host-side bulk copy: no T/H transfer, nothing traced.
        """
        return {
            name: list(slots)
            for name, slots in self._regions.items()
            if name not in exclude
        }

    def restore_regions(
        self,
        snapshot: dict[str, list[bytes | None]],
        exclude: frozenset[str] = frozenset(),
    ) -> None:
        """Replace every region outside ``exclude`` with the snapshot's image.

        Regions created after the snapshot are dropped, grown regions are
        truncated, freed regions reappear — the host returns byte-for-byte to
        the checkpointed state so deterministic replay sees exactly the
        storage the crashed run left behind at its last checkpoint.
        """
        for name in [n for n in self._regions if n not in exclude]:
            del self._regions[name]
        for name, slots in snapshot.items():
            if name in exclude:
                continue
            self._regions[name] = list(slots)
