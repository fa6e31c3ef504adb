"""Access events and traces: the observable of the security definitions.

Definitions 1 and 3 are both phrased over "the ordered list of server
locations read and written by the secure coprocessor".  :class:`AccessEvent`
is one such location access and :class:`Trace` is the ordered list.  The
privacy checker (:mod:`repro.privacy`) decides safety by comparing whole
traces across runs on different data; the cost models are validated against
the per-region transfer counts a trace exposes.

Events travel between layers as *runs*: a table of ``(op, region)`` pairs, one
table code per event (``bytes``) and one slot index per event (``array('q')``).
"""

from __future__ import annotations

import hashlib
import sys
from array import array
from collections import Counter
from typing import Iterator, NamedTuple, Sequence

GET = "get"  # transfer host -> coprocessor (implies one decryption in T)
PUT = "put"  # transfer coprocessor -> host (implies one encryption in T)

#: The ``(op, region)`` table a run's (or a trace's) code column points into.
Pairs = Sequence[tuple[str, str]]

#: Runs this long or longer are fingerprinted as a unit (see ``Trace._cuts``).
_BULK = 64


class AccessEvent(NamedTuple):
    """One access by the coprocessor to a host memory location."""

    op: str       # GET or PUT
    region: str   # named host region, e.g. "A", "B", "scratch", "output"
    index: int    # tuple index within the region


def event_digest_bytes(op: str, region: str, index: int) -> bytes:
    """The canonical byte encoding of one event for fingerprinting.

    Shared by :meth:`Trace.fingerprint` and the streaming sinks in
    :mod:`repro.obs.sinks`, so a streaming fingerprint is bit-identical to the
    materialized one over the same event sequence.
    """
    return op.encode() + region.encode() + index.to_bytes(8, "big", signed=True)


def check_run(table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
    """Reject a run whose columns disagree in length or leave its table."""
    if len(codes) != len(indices) or codes.translate(None, bytes(range(len(table)))):
        raise ValueError("a run needs one code into its table and one index per event")


def run_counts(table: Pairs, codes: bytes) -> Counter:
    """Events per ``(op, region)``: a histogram of a run's code column."""
    counts: Counter = Counter()
    for code, pair in enumerate(table):
        counts[pair] += codes.count(code)
    return +counts  # without the pairs that never occur


def run_events(table: Pairs, codes: bytes, indices: Sequence[int]) -> Iterator[AccessEvent]:
    """Expand a run into its events, one at a time."""
    for code, index in zip(codes, indices):
        op, region = table[code]
        yield AccessEvent(op, region, index)


def run_digest_bytes(table: Pairs, codes: bytes, indices: Sequence[int]) -> bytes:
    """The :func:`event_digest_bytes` of every event of a run, concatenated.

    A code column that repeats a short pattern (every declared section's
    does) becomes fixed-stride records — the pattern's encoding, repeated —
    whose index bytes are filled in by slice assignment, eight per pattern
    position; anything else is encoded event by event.
    """
    words = array("q", indices)
    check_run(table, codes, words)
    count = len(codes)
    prefixes = [op.encode() + region.encode() for op, region in table]
    if sys.byteorder == "little":
        words.byteswap()
    raw = words.tobytes()
    for period in range(1, 9):
        pattern = codes[:period]
        if count % period == 0 and codes == pattern * (count // period):
            break
    else:
        tails = [raw[k:k + 8] for k in range(0, len(raw), 8)]
        return b"".join(map(bytes.__add__, map(prefixes.__getitem__, codes), tails))
    group = b"".join(prefixes[code] + bytes(8) for code in pattern)
    out = bytearray(group * (count // period))
    offset = 0
    for position, code in enumerate(pattern):
        offset += len(prefixes[code])
        for byte in range(8):
            out[offset + byte::len(group)] = raw[8 * position + byte::8 * period]
        offset += 8
    return bytes(out)


class TransferCounts:
    """What every trace sink derives from its length and ``by_region()``."""

    def transfer_count(self) -> int:
        """Total tuple transfers in and out of the coprocessor's memory.

        This is the quantity every cost formula in the paper is stated in.
        """
        return len(self)

    def count(self, op: str | None = None, region: str | None = None) -> int:
        """Transfers matching an (op, region) filter; None means any."""
        return sum(
            n
            for (o, r), n in self.by_region().items()
            if (op is None or o == op) and (region is None or r == region)
        )

    def regions(self) -> set[str]:
        return {region for _, region in self.by_region()}


class Trace(TransferCounts):
    """The ordered list of host locations a coprocessor read and wrote.

    Stored as columns — an interned ``(op, region)`` table, one code byte and
    one signed 64-bit index per event, ~9 bytes an event — and handed out as
    :class:`AccessEvent`s on demand.  Two traces are equal when their events
    are, whatever order they interned their pairs in.
    """

    def __init__(self) -> None:
        self._table: list[tuple[str, str]] = []
        self._code_of: dict[tuple[str, str], int] = {}
        self._codes = bytearray()
        self._indices = array("q")
        #: Start and stop of every appended run of at least ``_BULK`` events:
        #: where :meth:`fingerprint` cuts the columns into bulk-hashed units.
        self._cuts: list[int] = []

    def _intern(self, pair: tuple[str, str]) -> int:
        code = self._code_of.get(pair)
        if code is None:
            if len(self._table) >= 255:  # code 255 stays free: ``__eq__`` maps strangers to it
                raise ValueError("a Trace holds at most 255 distinct (op, region) pairs")
            code = self._code_of[pair] = len(self._table)
            self._table.append(pair)
        return code

    def record(self, op: str, region: str, index: int) -> None:
        """Append one event: the one-event case of :meth:`record_run`."""
        code = self._intern((op, region))
        self._indices.append(index)
        self._codes.append(code)

    def record_run(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        """Append a run: event ``k`` is ``(*table[codes[k]], indices[k])``."""
        if getattr(indices, "typecode", None) != "q":
            indices = array("q", indices)
        check_run(table, codes, indices)
        mine = bytes(self._intern(pair) for pair in table)
        if len(codes) >= _BULK:
            self._cuts += (len(self), len(self) + len(codes))
        self._indices.extend(indices)
        self._codes += codes.translate(mine.ljust(256, b"\0"))

    def columns(self) -> tuple[tuple[tuple[str, str], ...], bytes, array]:
        """The whole trace as one run (copies; safe to ship and to keep)."""
        return tuple(self._table), bytes(self._codes), self._indices[:]

    @property
    def events(self) -> list[AccessEvent]:
        return list(self)

    def __len__(self) -> int:
        return len(self._codes)

    def __iter__(self) -> Iterator[AccessEvent]:
        return run_events(self._table, self._codes, self._indices)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        # Columns first: other's codes re-expressed in this trace's coding.
        mine = bytes(self._code_of.get(pair, 255) for pair in other._table)
        return (self._indices == other._indices
                and self._codes == other._codes.translate(mine.ljust(256, b"\xff")))

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(run_events(self._table, self._codes[index], self._indices[index]))
        return AccessEvent(*self._table[self._codes[index]], self._indices[index])

    def by_region(self) -> Counter:
        """Counter keyed by (op, region): a histogram of the code column."""
        return run_counts(self._table, self._codes)

    def fingerprint(self) -> str:
        """A stable hash of the whole trace, for cheap equality bookkeeping."""
        digest = hashlib.sha256()
        cuts = [0, *self._cuts, len(self)]
        for lo, hi in zip(cuts, cuts[1:]):
            digest.update(run_digest_bytes(
                self._table, self._codes[lo:hi], self._indices[lo:hi]))
        return digest.hexdigest()

    def first_divergence(self, other: "Trace") -> int | None:
        """Index of the first differing event, or None when traces agree.

        Used by the privacy checker to report *where* an unsafe algorithm's
        access pattern depends on the data.
        """
        if self == other:
            return None
        for i, (a, b) in enumerate(zip(self, other)):
            if a != b:
                return i
        return min(len(self), len(other))
