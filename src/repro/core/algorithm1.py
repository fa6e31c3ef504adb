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
    validate_two_party_inputs(left, right, n_max, predicate)

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
    scan = TupleScan(coprocessor, left_codec, right_codec, len(right), predicate)
    decoy = make_decoy(payload_size)
    table = ((GET, "A"), (GET, "B"), (PUT, SCRATCH_REGION))
    with profile.span("scan"):
        for a_index in range(len(left)):
            # One section per A tuple: scratch[] holds 2N fresh decoys, then
            # every round writes N oTuples to its upper half, declared
            # ``GET B[b]``, ``PUT scratch[N + b mod N]`` per B tuple, and sorts.
            with coprocessor.section():
                a, records, matches = scan.gather(a_index)
                with profile.span("init"), coprocessor.hold(1):
                    coprocessor.put_range(SCRATCH_REGION, 0, [decoy] * (2 * n_max))
                with coprocessor.hold(1):
                    for start in range(0, len(right), n_max):
                        rows = range(start, min(start + n_max, len(right)))
                        slots = range(n_max, n_max + len(rows))
                        with coprocessor.hold(1):
                            coprocessor.scatter_slots(SCRATCH_REGION, slots, [
                                make_real(joined_payload(a, records[b], out_schema,
                                                         out_codec))
                                if matches[b] else decoy for b in rows])
                            first = start == 0  # the round that also reads A[a]
                            coprocessor.charge_boundary(
                                table, b"\0" * first + b"\1\2" * len(rows),
                                [a_index] * first + [
                                    i for pair in zip(rows, slots) for i in pair])
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
