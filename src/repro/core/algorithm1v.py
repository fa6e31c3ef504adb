"""The variant of Algorithm 1 without a scratch array (Section 4.4.2).

For each A tuple the coprocessor writes all |B| oTuples (results or decoys)
to host memory, obliviously sorts the whole |B|-element block with real
results first, and keeps only the first N tuples.  Cost (paper):
``|A| + 2|A||B| + |A||B|(log2 |B|)^2``.  The paper notes Algorithm 1
outperforms this variant for small alpha = N/|B|; we keep it as a baseline so
that claim is checkable.
"""

from __future__ import annotations

from repro.core.base import (
    OUTPUT_REGION,
    JoinContext,
    JoinResult,
    decoy_priority,
    finish,
    joined_payload,
    make_decoy,
    make_real,
    two_party_output_schema,
    validate_two_party_inputs,
)
from repro.oblivious.sort import oblivious_sort
from repro.relational.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec

BLOCK_REGION = "block"


def algorithm1_variant(
    context: JoinContext,
    left: Relation,
    right: Relation,
    predicate: Predicate,
    n_max: int,
) -> JoinResult:
    """Run the Section 4.4.2 variant of Algorithm 1."""
    validate_two_party_inputs(left, right, n_max)

    coprocessor = context.coprocessor
    host = context.host
    out_schema = two_party_output_schema(left, right)
    out_codec = TupleCodec(out_schema)
    payload_size = out_codec.record_size

    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation("B", right)
    if host.has_region(BLOCK_REGION):
        host.free(BLOCK_REGION)
    host.allocate(BLOCK_REGION, len(right))
    context.allocate_output()

    for a_index in range(len(left)):
        with coprocessor.hold(1):
            a = left_codec.decode(coprocessor.get("A", a_index))
            for b_index in range(len(right)):
                with coprocessor.hold(1):
                    b = right_codec.decode(coprocessor.get("B", b_index))
                    if predicate.matches(a, b):
                        plain = make_real(joined_payload(a, b, out_schema, out_codec))
                    else:
                        plain = make_decoy(payload_size)
                    coprocessor.put(BLOCK_REGION, b_index, plain)
        oblivious_sort(coprocessor, BLOCK_REGION, len(right), key=decoy_priority)
        host.host_copy(BLOCK_REGION, 0, n_max, OUTPUT_REGION)

    return finish(
        context,
        out_schema,
        meta={
            "algorithm": "algorithm1_variant",
            "N": n_max,
            "output_slots": n_max * len(left),
        },
    )
