"""Algorithm 4 — privacy preserving join for coprocessors with small memory.

Section 5.3.1.  The coprocessor scans the L iTuples of D = X1 x ... x XJ in a
fixed order and *always* writes one oTuple per iTuple — the encrypted join
result on a match, an encrypted decoy otherwise — so the communication
pattern is a function of L alone.  It then removes the L - S decoys with the
optimized oblivious filter (Section 5.2.2) and outputs the S real results.

The enclave footprint is two tuples (one iTuple component + one oTuple), plus
two during the oblivious sorts: the minimal-memory end of the spectrum.

Cost (paper, Eq. 5.2):
``2L + ((L - S)/delta*) (S + delta*) [log2(S + delta*)]^2``.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.base import (
    JoinContext,
    JoinResult,
    decoy_priority,
    finish,
    is_real,
    make_decoy,
    make_real,
    multi_party_output_schema,
)
from repro.core.cartesian import (
    CartesianReader,
    encode_joined,
    scan_blocks,
    upload_join,
)
from repro.costs.filter_opt import optimal_delta
from repro.oblivious.filterbuf import emit_kept, filter_delta, oblivious_filter
from repro.obs.spans import PhaseProfile
from repro.relational.predicates import MultiPredicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec

OTUPLE_REGION = "otuples"


def scan_otuples(
    coprocessor,
    index_range: range,
    worker: int,
    *,
    tables: tuple,
    predicate: MultiPredicate,
    out_codec: TupleCodec,
) -> int:
    """Algorithm 4's scan: one oTuple out per iTuple in, unconditionally.

    Writes ``otuples[logical]`` for every logical index in ``index_range`` —
    the join result on a match, a decoy otherwise — holding the two enclave
    slots, and returns the number of real results.  The sequential algorithm
    runs it once over all L iTuples; the parallel variant runs one partition
    per coprocessor (``worker``).
    """
    reader = CartesianReader(coprocessor, *tables)
    test = predicate.bind(reader.schemas)
    decoy = make_decoy(out_codec.record_size)
    result_count = 0
    with coprocessor.hold(2):
        for block in scan_blocks(reader, index_range, output=OTUPLE_REGION):
            otuples = []
            for _, records in block:
                if test(records):
                    otuples.append(make_real(encode_joined(out_codec, records)))
                    result_count += 1
                else:
                    otuples.append(decoy)
            block.write(otuples)
    return result_count


def algorithm4(
    context: JoinContext,
    relations: Sequence[Relation],
    predicate: MultiPredicate,
    delta: int | None = None,
) -> JoinResult:
    """Run Algorithm 4 over any number of participating tables.

    ``delta`` overrides the filter swap-area size (defaults to the Eq. 5.1
    optimum for the observed output size S); ``meta["delta"]`` is the size
    the filter ran with (:func:`~repro.oblivious.filterbuf.filter_delta`).
    """
    coprocessor = context.coprocessor
    host = context.host
    out_schema = multi_party_output_schema(relations)
    reader = upload_join(context, relations, predicate)
    total = len(reader.space)
    if host.has_region(OTUPLE_REGION):
        host.free(OTUPLE_REGION)
    host.allocate(OTUPLE_REGION, total)
    output = context.allocate_output()

    profile = PhaseProfile.for_coprocessor(coprocessor)

    with profile.span("scan"):
        result_count = scan_otuples(
            coprocessor, range(total), 0,
            tables=reader.tables, predicate=predicate, out_codec=TupleCodec(out_schema))

    # Oblivious decoy removal: keep the S real results.  The filter and the
    # emit are one fused section: the buffer's copies, sorts and emit run on
    # T's staged plaintexts, and the close (inside the emit span) writes
    # each buffer slot once.
    chosen_delta = filter_delta(
        total, result_count,
        delta if delta is not None else optimal_delta(result_count, total))
    with coprocessor.section() as close:
        with profile.span("filter"):
            buffer_region = oblivious_filter(
                coprocessor,
                OTUPLE_REGION,
                total,
                keep=result_count,
                delta=chosen_delta,
                priority=decoy_priority,
            )
        with profile.span("emit"):
            emitted = emit_kept(
                coprocessor, buffer_region, result_count, output, is_real=is_real, strip=1
            )
            close()

    return finish(
        context,
        out_schema,
        meta={
            "algorithm": "algorithm4",
            "L": total,
            "S": result_count,
            "delta": chosen_delta,
            "emitted": emitted,
        },
        flagged=False,
        profile=profile,
    )
