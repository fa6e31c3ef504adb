"""Algorithm 2 — general join for secure coprocessors with larger memories.

Section 4.4.3.  Define ``gamma = max(1, ceil(N / (M - delta)))``.  For every
tuple ``a`` of A the coprocessor scans B ``gamma`` times; during pass ``i`` it
collects the i-th group of ``blk = ceil(N / gamma)`` matching tuples in its
own memory and flushes exactly ``blk`` oTuples (matches padded with decoys) to
the host at the end of the pass.  The output size per pass is fixed, so the
access pattern depends only on |A|, |B|, N, gamma — never on the data.

Cost (paper, tuple transfers): ``|A| + N|A| + gamma |A| |B|`` (the N|A| term
is exactly ``gamma * blk * |A|`` when gamma divides N).

Paper erratum: the pseudocode initializes ``last := 0`` and stores a match
only when ``current > last``, which would skip a match at B position 0 on the
first pass; we initialize ``last := -1``.
"""

from __future__ import annotations

import math

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
from repro.errors import ConfigurationError
from repro.hardware.events import GET, PUT
from repro.obs.spans import PhaseProfile
from repro.relational.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec


def gamma_for(n_max: int, memory: int, delta: int = 0) -> int:
    """``gamma = max(1, ceil(N / (M - delta)))`` — passes over B per A tuple."""
    usable = memory - delta
    if usable < 1:
        raise ConfigurationError("coprocessor memory leaves no room for results")
    return max(1, math.ceil(n_max / usable))


def scan_passes(
    coprocessor,
    index_range: range,
    worker: int,
    *,
    left_codec: TupleCodec,
    right_codec: TupleCodec,
    right_size: int,
    predicate: Predicate,
    gamma: int,
    blk: int,
    out_codec: TupleCodec,
    profile: PhaseProfile | None = None,
) -> None:
    """Algorithm 2's scan for the A tuples in ``index_range`` against all of B.

    Each A tuple is one section: ``A[a]`` and B gathered once, then per pass
    one run declaring its reads (``GET A[a]`` on the first, then ``GET B[j]``
    for every j) and one staged append of its blk oTuples declaring their
    PUTs.  Pass ``p`` outputs the matches ranked ``p*blk`` onwards (it
    resumes after the last one stored), padded with decoys.

    The sequential algorithm runs it once over all of A and books each
    pass's flush to ``profile``; the parallel variant runs one share per
    coprocessor (``worker``) and passes no profile, since a profile cannot
    cross a process boundary.
    """
    profile = profile if profile is not None else PhaseProfile()
    scan = TupleScan(coprocessor, left_codec, right_codec, right_size, predicate)
    decoy = make_decoy(out_codec.record_size)
    reads = ((GET, "A"), (GET, "B"))
    flush = ((PUT, OUTPUT_REGION),)
    for a_index in index_range:
        with coprocessor.section(), coprocessor.hold(1):
            a, records, matches = scan.gather(a_index)
            hits = [j for j, matched in enumerate(matches) if matched]
            for p in range(gamma):
                with coprocessor.hold(blk + 1):  # the pass's results and one B tuple
                    first = p == 0  # the pass that also reads A[a]
                    coprocessor.charge_boundary(
                        reads, b"\0" * first + b"\1" * right_size,
                        [a_index] * first + [*scan.right_slots])
                    joined = [make_real(joined_payload(a, records[j], out_codec.schema,
                                                       out_codec))
                              for j in hits[p * blk:(p + 1) * blk]]
                    joined += [decoy] * (blk - len(joined))
                    with profile.span("flush"):
                        coprocessor.charge_boundary(
                            flush, bytes(blk),
                            coprocessor.stage_append(OUTPUT_REGION, joined))


def algorithm2(
    context: JoinContext,
    left: Relation,
    right: Relation,
    predicate: Predicate,
    n_max: int,
    memory: int,
    delta: int = 0,
) -> JoinResult:
    """Run Algorithm 2 with result-buffer capacity ``memory`` (= M) tuples."""
    validate_two_party_inputs(left, right, n_max, predicate)

    gamma = gamma_for(n_max, memory, delta)
    blk = math.ceil(n_max / gamma)

    coprocessor = context.coprocessor
    out_schema = two_party_output_schema(left, right)

    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation("B", right)
    context.allocate_output()

    profile = PhaseProfile.for_coprocessor(coprocessor)
    with profile.span("scan"):
        scan_passes(
            coprocessor, range(len(left)), 0,
            left_codec=left_codec, right_codec=right_codec, right_size=len(right),
            predicate=predicate, gamma=gamma, blk=blk, out_codec=TupleCodec(out_schema),
            profile=profile,
        )

    return finish(
        context,
        out_schema,
        meta={
            "algorithm": "algorithm2",
            "N": n_max,
            "gamma": gamma,
            "blk": blk,
            "output_slots": gamma * blk * len(left),
        },
        profile=profile,
    )
