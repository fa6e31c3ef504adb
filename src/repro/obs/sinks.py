"""Pluggable trace sinks: bounded-memory capture of the T/H access stream.

The security definitions quantify over "the ordered list of host locations
read and written by T".  :class:`~repro.hardware.events.Trace` materializes
that list, which is exact but grows O(total transfers) in memory — unusable
at production scale.  The sinks here consume the same event stream through
the identical ``record(op, region, index)`` / ``record_run(table, codes,
indices)`` interface while holding only O(1) state:

* :class:`StreamingTrace` — a running SHA-256 fingerprint plus per-(op,
  region) counters.  Its :meth:`~StreamingTrace.fingerprint` is bit-identical
  to :meth:`Trace.fingerprint` over the same events, so trace-equality
  arguments (and the privacy checker) transfer unchanged.
* :class:`JsonlTrace` — a streaming fingerprint that additionally appends one
  JSON line per event to a file: a durable, replayable record with O(1)
  process memory (O(n) disk, where it belongs).
* :class:`DivergenceTrace` — a streaming fingerprint that compares the live
  stream against a reference event iterator and pins down the *first*
  position where they differ, without materializing either side.
* :class:`TeeTrace` — fan one event stream out to several sinks (e.g. keep a
  materialized list while also fingerprinting, to cross-validate the two).

Any sink can be installed on a coprocessor via the ``trace_factory``
parameter of :class:`~repro.hardware.coprocessor.SecureCoprocessor`,
:class:`~repro.hardware.cluster.Cluster`, or
:meth:`~repro.core.base.JoinContext.fresh`.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from dataclasses import dataclass
from typing import IO, Callable, Iterable, Iterator, Protocol, Sequence, runtime_checkable

from repro.hardware.events import (
    AccessEvent,
    Pairs,
    TransferCounts,
    event_digest_bytes,
    run_counts,
    run_digest_bytes,
    run_events,
)


@runtime_checkable
class TraceSink(Protocol):
    """What a coprocessor needs from its trace: the recording interface."""

    def record(self, op: str, region: str, index: int) -> None: ...

    def record_run(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        """Event ``k`` of the run is ``(*table[codes[k]], indices[k])``."""

    def transfer_count(self) -> int: ...

    def by_region(self) -> Counter: ...

    def fingerprint(self) -> str: ...


class StreamingTrace(TransferCounts):
    """O(1)-memory trace capture: running fingerprint + transfer counters.

    Holds one SHA-256 state, an event count, and a (op, region) -> count
    table whose size is bounded by the number of named host regions — never
    by the number of transfers.
    """

    def __init__(self) -> None:
        self._digest = hashlib.sha256()
        self._count = 0
        self._by_region: Counter = Counter()

    # -- the sink interface --------------------------------------------------
    def record(self, op: str, region: str, index: int) -> None:
        self._digest.update(event_digest_bytes(op, region, index))
        self._count += 1
        self._by_region[(op, region)] += 1

    def record_run(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        self._digest.update(run_digest_bytes(table, codes, indices))
        self._count += len(codes)
        self._by_region.update(run_counts(table, codes))

    def __len__(self) -> int:
        return self._count

    def by_region(self) -> Counter:
        """Counter keyed by (op, region)."""
        return Counter(self._by_region)

    def fingerprint(self) -> str:
        """The running SHA-256 over the event stream so far.

        Equals ``Trace.fingerprint()`` for the same event sequence.
        """
        return self._digest.copy().hexdigest()

    def close(self) -> None:  # symmetry with the file-backed sinks
        pass


class JsonlTrace(StreamingTrace):
    """A streaming fingerprint that also appends every event to a JSONL file.

    One compact JSON array ``["op", "region", index]`` per line.  The process
    holds O(1) state; the full ordered list lives on disk where it can be
    replayed (:func:`read_jsonl_events`), diffed, or shipped to an external
    analyzer.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._file: IO[str] | None = open(path, "w", encoding="utf-8")

    def record(self, op: str, region: str, index: int) -> None:
        self.record_run(((op, region),), b"\0", (index,))

    def record_run(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        if self._file is None:
            raise ValueError(f"JSONL trace sink {self.path!r} is closed")
        super().record_run(table, codes, indices)
        self._file.writelines(json.dumps(event, separators=(",", ":")) + "\n"
                              for event in run_events(table, codes, indices))

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "JsonlTrace":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl_events(path: str) -> Iterator[AccessEvent]:
    """Lazily replay a JSONL trace file as AccessEvents (O(1) memory)."""
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            op, region, index = json.loads(line)
            yield AccessEvent(op, region, index)


def one_shot(build: Callable[[], TraceSink]) -> Callable[[], TraceSink]:
    """A trace factory whose FIRST call builds the real sink.

    ``finish()`` swaps in a fresh sink via ``reset_trace()`` after the join
    body, which calls the installed factory again.  For file-backed or
    reference-consuming sinks, re-building would clobber captured state (a
    second :class:`JsonlTrace` on the same path truncates the file), so later
    calls return a throwaway :class:`StreamingTrace` instead.
    """
    built: list[TraceSink] = []

    def factory() -> TraceSink:
        if not built:
            built.append(build())
            return built[0]
        return StreamingTrace()

    return factory


@dataclass(frozen=True)
class StreamDivergence:
    """The first position where a live stream departed from its reference."""

    position: int
    expected: AccessEvent | None  # None: the reference was exhausted
    got: AccessEvent | None       # None: the live stream was exhausted


class DivergenceTrace(StreamingTrace):
    """Compare the live event stream against a reference, on the fly.

    ``reference`` is consumed lazily (one event per recorded event), so a
    JSONL replay of an earlier run can be checked against a live run with
    O(1) memory on both sides.  After the run, call :meth:`finish` to detect
    a reference that is strictly longer than the live stream.
    """

    def __init__(self, reference: Iterable[AccessEvent]) -> None:
        super().__init__()
        self._reference = iter(reference)
        self.divergence: StreamDivergence | None = None

    def record(self, op: str, region: str, index: int) -> None:
        self.record_run(((op, region),), b"\0", (index,))

    def record_run(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        position = self.transfer_count()  # before counting this run
        super().record_run(table, codes, indices)
        for position, got in enumerate(run_events(table, codes, indices), position):
            if self.divergence is not None:
                return
            expected = next(self._reference, None)
            if expected != got:
                self.divergence = StreamDivergence(position, expected, got)

    def finish(self) -> StreamDivergence | None:
        """Flag a reference with leftover events; returns the divergence."""
        if self.divergence is None:
            leftover = next(self._reference, None)
            if leftover is not None:
                self.divergence = StreamDivergence(
                    self.transfer_count(), leftover, None
                )
        return self.divergence


class TeeTrace(TransferCounts):
    """Fan one event stream out to several sinks.

    Count/fingerprint queries delegate to the first sink, so a TeeTrace can
    stand wherever a single sink is expected.
    """

    def __init__(self, *sinks: TraceSink) -> None:
        if not sinks:
            raise ValueError("TeeTrace needs at least one sink")
        self.sinks = sinks

    def record(self, op: str, region: str, index: int) -> None:
        for sink in self.sinks:
            sink.record(op, region, index)

    def record_run(self, table: Pairs, codes: bytes, indices: Sequence[int]) -> None:
        for sink in self.sinks:
            sink.record_run(table, codes, indices)

    def __len__(self) -> int:
        return self.sinks[0].transfer_count()

    def by_region(self) -> Counter:
        return self.sinks[0].by_region()

    def fingerprint(self) -> str:
        return self.sinks[0].fingerprint()

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
