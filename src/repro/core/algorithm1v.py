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
    TupleScan,
    decoy_priority,
    finish,
    joined_payload,
    make_decoy,
    make_real,
    two_party_output_schema,
    validate_two_party_inputs,
)
from repro.hardware.events import GET, PUT
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
    validate_two_party_inputs(left, right, n_max, predicate)

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

    scan = TupleScan(coprocessor, left_codec, right_codec, len(right), predicate)
    decoy = make_decoy(payload_size)
    table = ((GET, "A"), (GET, "B"), (PUT, BLOCK_REGION))
    for a_index in range(len(left)):
        # One section per A tuple: ``GET A[a]``, then ``GET B[b]``,
        # ``PUT block[b]`` per B tuple, then the sort of the block.
        with coprocessor.section():
            with coprocessor.hold(1):
                a, records, matches = scan.gather(a_index)
                with coprocessor.hold(1):
                    coprocessor.scatter_slots(BLOCK_REGION, scan.right_slots, [
                        make_real(joined_payload(a, b, out_schema, out_codec))
                        if matched else decoy for b, matched in zip(records, matches)])
                    coprocessor.charge_boundary(
                        table, b"\0" + b"\1\2" * len(right),
                        [a_index, *(b for b in scan.right_slots for _ in range(2))])
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
