"""Shared machinery for the privacy preserving join algorithms.

Wire format
-----------
Every *output* tuple (oTuple) that crosses the T/H boundary is a plaintext of
``1 + payload_size`` bytes: a flag byte (0 = real join result, 1 = decoy)
followed by the fixed-width encoding of the joined record.  Decoys carry a
fixed ``0xFF`` pattern of the same length, so after encryption under fresh
nonces a decoy is indistinguishable from a real result (Section 4.3,
"Decoys").  The recipient decrypts, drops the decoys, and decodes the rest.

Context
-------
:class:`JoinContext` bundles the host, the coprocessor, and the crypto
provider.  Algorithms receive a context, upload their input relations to host
regions, run, and return a :class:`JoinResult` carrying the decoded output
relation, the recorded trace, and per-run metadata (N, gamma, segment sizes,
blemish flags, ...).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.crypto.provider import (
    CryptoProvider,
    OcbProvider,
    decrypt_batch,
    encrypt_batch,
)
from repro.errors import ConfigurationError
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor, TraceFactory
from repro.hardware.counters import TransferStats
from repro.hardware.events import GET, PUT, Trace
from repro.obs.spans import PhaseProfile
from repro.hardware.host import HostMemory
from repro.relational.joins import joined_schema, multiway_schema
from repro.relational.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.batch import BatchCodec
from repro.relational.schema import Schema
from repro.relational.tuples import Record, TupleCodec

REAL_FLAG = 0
DECOY_FLAG = 1
_DECOY_FILL = 0xFF

OUTPUT_REGION = "output"


def make_real(payload: bytes) -> bytes:
    """Wrap a joined-record payload as a real oTuple plaintext."""
    return bytes([REAL_FLAG]) + payload


def make_decoy(payload_size: int) -> bytes:
    """A decoy oTuple plaintext: fixed pattern, same size as a real one."""
    return bytes([DECOY_FLAG]) + bytes([_DECOY_FILL]) * payload_size


def is_real(plaintext: bytes) -> bool:
    """True when an oTuple plaintext carries a real join result."""
    return plaintext[0] == REAL_FLAG


def decoy_priority(plaintext: bytes) -> int:
    """Sort key that orders real results strictly before decoys."""
    return plaintext[0]


@dataclass
class JoinContext:
    """Host + coprocessor + crypto provider for one join computation."""

    host: HostMemory
    coprocessor: SecureCoprocessor
    provider: CryptoProvider
    rng: random.Random = field(default_factory=lambda: random.Random(0))

    @classmethod
    def fresh(
        cls,
        memory_limit: int | None = None,
        provider: CryptoProvider | None = None,
        seed: int = 0,
        key: bytes = b"repro-session-key",
        trace_factory: TraceFactory | None = None,
        batched_io: bool = True,
    ) -> "JoinContext":
        """A new context with a single coprocessor attached to a new host.

        ``trace_factory`` selects how the coprocessor captures its access
        stream — the default materialized :class:`Trace`, or one of the
        bounded-memory sinks from :mod:`repro.obs.sinks`.
        ``batched_io=False`` selects :class:`ReferenceCoprocessor` for
        differential tests and benchmarks (observable behaviour is identical
        either way).
        """
        host = HostMemory()
        provider = provider if provider is not None else OcbProvider(key)
        coprocessor = (SecureCoprocessor if batched_io else ReferenceCoprocessor)(
            host, provider, memory_limit=memory_limit, trace_factory=trace_factory)
        return cls(host=host, coprocessor=coprocessor, provider=provider,
                   rng=random.Random(seed))

    def upload_relation(self, region: str, relation: Relation) -> TupleCodec:
        """Encrypt a relation tuple-by-tuple into a host region.

        Models the data providers sending their encrypted relations to H,
        which stores them on its local disk (Section 4.1).  The upload happens
        before the join and is not part of the coprocessor's trace.  An
        existing region of the same name is replaced, so one context can run
        several joins in sequence.  A STR or BYTES value that ends in NUL is
        refused (:meth:`BatchCodec.encode_upload`) before any region changes.
        """
        codec = relation.codec()
        payloads = BatchCodec(relation.schema).encode_upload(list(relation))
        ciphertexts = encrypt_batch(self.provider, payloads)
        if self.host.has_region(region):
            self.host.free(region)
        self.host.allocate_from(region, ciphertexts)
        return codec

    def allocate_output(self, region: str = OUTPUT_REGION) -> str:
        if self.host.has_region(region):
            self.host.free(region)
        self.host.allocate(region, 0)
        return region

    def download_output(
        self, out_schema: Schema, region: str = OUTPUT_REGION, flagged: bool = True
    ) -> Relation:
        """Decrypt the output region as the recipient P_C would.

        When ``flagged`` is True the slots carry flag-byte oTuples and decoys
        are filtered out; otherwise the slots are bare record payloads.
        """
        cells = [c for c in self.host.region_bytes(region) if c is not None]
        plains = decrypt_batch(self.provider, cells)
        if flagged:
            plains = [plain[1:] for plain in plains if is_real(plain)]
        out = Relation(out_schema)
        for record in BatchCodec(out_schema).decode_rows(plains):
            out.append(record)
        return out


@dataclass
class JoinResult:
    """Outcome of one privacy preserving join run."""

    result: Relation
    trace: Trace
    stats: TransferStats
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def transfers(self) -> int:
        """Total tuple transfers in and out of T's memory."""
        return self.stats.total


def finish(
    context: JoinContext,
    out_schema: Schema,
    meta: dict[str, Any],
    region: str = OUTPUT_REGION,
    flagged: bool = True,
    profile: PhaseProfile | None = None,
) -> JoinResult:
    """Collect the trace and decode the output into a JoinResult.

    When the run carried a :class:`PhaseProfile`, its per-phase time/transfer
    breakdown lands in ``meta["phases"]``.
    """
    trace = context.coprocessor.reset_trace()
    if profile is not None:
        meta["phases"] = profile.breakdown()
    return JoinResult(
        result=context.download_output(out_schema, region=region, flagged=flagged),
        trace=trace,
        stats=TransferStats.from_trace(trace),
        meta=meta,
    )


def append_output(coprocessor: SecureCoprocessor, plaintexts: Sequence[bytes],
                  region: str = OUTPUT_REGION) -> list[int]:
    """Append ``plaintexts`` to ``region`` as one pass: a staged append
    declaring one PUT per tuple.  Returns the slots they were assigned."""
    indices = coprocessor.stage_append(region, plaintexts)
    coprocessor.charge_boundary(((PUT, region),), bytes(len(indices)), indices)
    return indices


def two_party_output_schema(left: Relation, right: Relation) -> Schema:
    """Output schema of a two-party join."""
    return joined_schema(left.schema, right.schema)


def multi_party_output_schema(relations: Sequence[Relation]) -> Schema:
    """Output schema of an m-way join."""
    return multiway_schema([r.schema for r in relations])


class TupleScan:
    """``A[a]`` and all of B, gathered for one per-A-tuple pass of a
    Chapter 4 join.

    Every such pass (Algorithms 1, 1v, 2 and 3 and the N-estimation pass)
    reads ``A[a]`` and scans B in slot order; :meth:`gather` reads both as a
    section's gathers, and the pass declares its own run.  B is never
    rewritten during a scan, so its records are decoded once per join, and
    the predicate is bound once.
    """

    def __init__(self, coprocessor: SecureCoprocessor, left_codec: TupleCodec,
                 right_codec: TupleCodec, right_size: int, predicate: Predicate,
                 left: str = "A", right: str = "B") -> None:
        self.coprocessor = coprocessor
        self.left, self.right = left, right
        self.right_slots = range(right_size)
        self._left_codec = left_codec
        self._right_batch = BatchCodec(right_codec.schema)
        self._test = predicate.bind(left_codec.schema, right_codec.schema)
        self._plains: list[bytes] | None = None
        self._records: list[Record] = []

    def gather(self, a_index: int) -> tuple[Record, list[Record], list[bool]]:
        """``A[a_index]``, B's records and, per B tuple, whether it joins ``a``."""
        coprocessor = self.coprocessor
        a = self._left_codec.decode(coprocessor.gather_slots(self.left, (a_index,))[0])
        plains = coprocessor.gather_slots(self.right, self.right_slots)
        if plains != self._plains:
            self._plains, self._records = plains, self._right_batch.decode_rows(plains)
        test = self._test
        return a, self._records, [test(a, b) for b in self._records]


def compute_n_exactly(
    context: JoinContext,
    left_region: str,
    right_region: str,
    left_size: int,
    right_size: int,
    left_codec: TupleCodec,
    right_codec: TupleCodec,
    predicate: Predicate,
) -> int:
    """The safe N-estimation pass of Section 4.3.

    "A safe way to compute exact N would be to run a nested loop join, but
    without outputting any result tuple.  Note that this preprocessing step
    does not leak information."  The access pattern is a full A x B scan with
    no writes, hence data-independent: per A tuple one section declaring
    ``GET A[i]`` and then ``GET B[j]`` for every j.
    """
    coprocessor = context.coprocessor
    scan = TupleScan(coprocessor, left_codec, right_codec, right_size, predicate,
                     left_region, right_region)
    table = ((GET, left_region), (GET, right_region))
    codes = b"\0" + b"\1" * right_size
    best = 0
    with coprocessor.hold(2):
        for i in range(left_size):
            _, _, matches = scan.gather(i)
            coprocessor.charge_boundary(table, codes, [i, *scan.right_slots])
            best = max(best, sum(matches))
    return best


def validate_two_party_inputs(
    left: Relation, right: Relation, n_max: int | None = None,
    predicate: Predicate | None = None,
) -> None:
    """Both relations non-empty, when given, ``N`` in ``[1, |B|]``, and a
    ``predicate`` that applies to their schemas (:meth:`Predicate.bind`):
    the refuse-before-upload point of the Chapter 4 joins."""
    if len(left) == 0 or len(right) == 0:
        raise ConfigurationError("both input relations must be non-empty")
    if n_max is not None and not 1 <= n_max <= len(right):
        raise ConfigurationError(f"N must be in [1, |B|], got {n_max}")
    if predicate is not None:
        predicate.bind(left.schema, right.schema)


def joined_payload(
    a: Record, b: Record, out_schema: Schema, out_codec: TupleCodec
) -> bytes:
    """Encode the concatenation of two records as an oTuple payload."""
    return out_codec.encode(Record(out_schema, a.values + b.values))
