"""Algorithm 1 — general join for secure coprocessors with small memories.

Section 4.4.1.  For every tuple ``a`` of A the coprocessor compares ``a``
against every tuple of B and always writes an oTuple to the upper half of a
2N-slot ``scratch[]`` array on the host: the encrypted join result on a match,
an encrypted decoy otherwise.  After every N comparisons (a *round*) the
coprocessor obliviously sorts ``scratch[]`` giving real results priority, so
the at-most-N real results so far migrate into the lower half while the upper
half is recycled for the next round.  After the final round the host copies
the first N slots — all real results for ``a`` plus padding decoys — to the
output.

Cost (paper, tuple transfers): ``|A| + 2N|A| + 2|A||B| (+ sorting)`` with the
sorting term ``2|A||B|(log2 2N)^2`` under the paper's bitonic approximation.
:func:`repro.costs.chapter4.algorithm1_cost` has the closed forms; the exact
transfer count of this executor equals
``|A| * (1 + 2N + 2|B| + ceil(|B|/N) * exact_transfers(2N))``.
"""

from __future__ import annotations

import math

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
from repro.obs.spans import PhaseProfile
from repro.relational.predicates import Predicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec

SCRATCH_REGION = "scratch"


def algorithm1(
    context: JoinContext,
    left: Relation,
    right: Relation,
    predicate: Predicate,
    n_max: int,
) -> JoinResult:
    """Run Algorithm 1 and return the join result with its trace.

    ``n_max`` is N: the maximum number of B tuples matching any single A
    tuple.  Under Definition 1, N is a public parameter of the computation.
    """
    validate_two_party_inputs(left, right, n_max)

    coprocessor = context.coprocessor
    host = context.host
    out_schema = two_party_output_schema(left, right)
    out_codec = TupleCodec(out_schema)
    payload_size = out_codec.record_size

    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation("B", right)
    if host.has_region(SCRATCH_REGION):
        host.free(SCRATCH_REGION)
    host.allocate(SCRATCH_REGION, 2 * n_max)
    context.allocate_output()

    profile = PhaseProfile.for_coprocessor(coprocessor)
    rounds_per_a = math.ceil(len(right) / n_max)
    with profile.span("scan"):
        for a_index in range(len(left)):
            # Initialize scratch[] with 2N fresh decoys (one batched call;
            # every slot still gets its own nonce, trace event, and counter).
            decoy = make_decoy(payload_size)
            with profile.span("init"), coprocessor.hold(1):
                coprocessor.put_many(
                    (SCRATCH_REGION, slot, decoy) for slot in range(2 * n_max)
                )
            with coprocessor.hold(1):
                a = left_codec.decode(coprocessor.get("A", a_index))
                i = 0
                for b_index in range(len(right)):
                    with coprocessor.hold(1):
                        b = right_codec.decode(coprocessor.get("B", b_index))
                        if predicate.matches(a, b):
                            plain = make_real(joined_payload(a, b, out_schema, out_codec))
                        else:
                            plain = make_decoy(payload_size)
                        coprocessor.put(SCRATCH_REGION, (i % n_max) + n_max, plain)
                    i += 1
                    if i % n_max == 0:
                        with profile.span("sort"):
                            oblivious_sort(
                                coprocessor, SCRATCH_REGION, 2 * n_max, key=decoy_priority
                            )
                if i % n_max != 0:
                    with profile.span("sort"):
                        oblivious_sort(
                            coprocessor, SCRATCH_REGION, 2 * n_max, key=decoy_priority
                        )
            # "Request H to write first N of scratch[] to disk" — host-side copy.
            host.host_copy(SCRATCH_REGION, 0, n_max, OUTPUT_REGION)

    return finish(
        context,
        out_schema,
        meta={
            "algorithm": "algorithm1",
            "N": n_max,
            "rounds_per_a": rounds_per_a,
            "output_slots": n_max * len(left),
        },
        profile=profile,
    )
