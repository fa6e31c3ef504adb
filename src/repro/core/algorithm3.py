"""Algorithm 3 — the safe sort-based equijoin (Section 4.5.2).

A specialization of Algorithm 1 for equality predicates.  B is first sorted
obliviously on the join attribute; the key insight is that the B tuples
joining with any A tuple then occupy at most N *consecutive* positions, so a
circular N-slot ``scratch[]`` array suffices and no per-round oblivious sorts
are needed.  For the i-th B tuple the coprocessor always reads
``scratch[i mod N]`` and always writes the same slot back — either the join
result (on match) or the re-encrypted previous value (no match), which the
semantically secure encryption renders indistinguishable.

Cost (paper, tuple transfers):
``|A| + |A| N + |B| (log2 |B|)^2 + 3 |A| |B|`` — or without the sort term when
the provider ships B pre-sorted (``presorted=True``).
"""

from __future__ import annotations

from array import array

from repro.core.base import (
    OUTPUT_REGION,
    JoinContext,
    JoinResult,
    TupleScan,
    finish,
    joined_payload,
    make_decoy,
    make_real,
    two_party_output_schema,
    validate_two_party_inputs,
)
from repro.hardware.events import GET, PUT
from repro.oblivious.sort import oblivious_sort
from repro.obs.spans import PhaseProfile
from repro.relational.predicates import Equality
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec

SCRATCH_REGION = "scratch3"


def scan_ring(
    coprocessor,
    index_range: range,
    worker: int,
    *,
    left_codec: TupleCodec,
    right_codec: TupleCodec,
    right_size: int,
    eq: Equality,
    n_max: int,
    out_codec: TupleCodec,
    scratch: str,
    profile: PhaseProfile | None = None,
) -> None:
    """Algorithm 3's scan for the A tuples in ``index_range`` over sorted B.

    Each A tuple rings through the N-slot ``scratch`` region, whose image
    then moves to the output host-side (untraced — Algorithm 1's "request H
    to write scratch[] to disk").  The sequential algorithm books each
    scratch reset to its ``profile``; the parallel variant gives every
    ``worker`` its own scratch region and passes no profile.
    """
    profile = profile if profile is not None else PhaseProfile()
    scan = TupleScan(coprocessor, left_codec, right_codec, right_size, eq)
    decoy = make_decoy(out_codec.record_size)
    ring_table = ((GET, "B"), (GET, scratch), (PUT, scratch))
    ring_codes = b"\0\1\2" * right_size
    ring_indices = array("q", [k for i in range(right_size)
                               for k in (i, i % n_max, i % n_max)])
    for a_index in index_range:
        # One section per A tuple: ``GET A[a]``, N decoys into scratch[],
        # then ``GET B[i]``, ``GET scratch[i mod N]``, ``PUT scratch[i mod
        # N]`` per B tuple — the slot keeps its previous value (re-encrypted
        # under a fresh nonce) unless B[i] joins a.
        with coprocessor.section(), coprocessor.hold(1):
            a, records, matches = scan.gather(a_index)
            coprocessor.charge_boundary(((GET, "A"),), b"\0", (a_index,))
            with profile.span("init"):
                coprocessor.put_range(scratch, 0, [decoy] * n_max)
            with coprocessor.hold(2):
                ring = [decoy] * n_max
                for i, (b, matched) in enumerate(zip(records, matches)):
                    if matched:
                        ring[i % n_max] = make_real(
                            joined_payload(a, b, out_codec.schema, out_codec))
                coprocessor.scatter_slots(scratch, range(n_max), ring)
                coprocessor.charge_boundary(ring_table, ring_codes, ring_indices)
        coprocessor.host.host_copy(scratch, 0, n_max, OUTPUT_REGION)


def upload_sorted(
    context: JoinContext,
    sorter,
    left: Relation,
    right: Relation,
    eq: Equality,
    presorted: bool,
    profile: PhaseProfile,
) -> tuple[TupleCodec, TupleCodec]:
    """Upload A and B, then obliviously sort B on the join attribute on
    ``sorter`` unless the providers shipped it sorted; returns both codecs."""
    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation(
        "B", right.sorted_by(eq.right_attr) if presorted else right)
    if not presorted:
        position = right.schema.position(eq.right_attr)
        with profile.span("sort"):
            oblivious_sort(sorter, "B", len(right),
                           key=lambda plain: right_codec.decode(plain).values[position])
    return left_codec, right_codec


def algorithm3(
    context: JoinContext,
    left: Relation,
    right: Relation,
    on: str | Equality,
    n_max: int,
    presorted: bool = False,
) -> JoinResult:
    """Run Algorithm 3.  ``on`` names the equijoin attribute.

    ``presorted=True`` models data providers sending sorted data, skipping
    the initial oblivious sort (last paragraph of Section 4.5.2).
    """
    eq = on if isinstance(on, Equality) else Equality(on)
    validate_two_party_inputs(left, right, n_max, eq)

    coprocessor = context.coprocessor
    host = context.host
    out_schema = two_party_output_schema(left, right)

    profile = PhaseProfile.for_coprocessor(coprocessor)
    left_codec, right_codec = upload_sorted(
        context, coprocessor, left, right, eq, presorted, profile)
    if host.has_region(SCRATCH_REGION):
        host.free(SCRATCH_REGION)
    host.allocate(SCRATCH_REGION, n_max)
    context.allocate_output()

    with profile.span("scan"):
        scan_ring(
            coprocessor, range(len(left)), 0,
            left_codec=left_codec, right_codec=right_codec, right_size=len(right),
            eq=eq, n_max=n_max, out_codec=TupleCodec(out_schema),
            scratch=SCRATCH_REGION, profile=profile,
        )

    return finish(
        context,
        out_schema,
        meta={
            "algorithm": "algorithm3",
            "N": n_max,
            "presorted": presorted,
            "output_slots": n_max * len(left),
        },
        profile=profile,
    )
