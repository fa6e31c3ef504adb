"""Algorithm 5 — privacy preserving join for coprocessors with large memory.

Section 5.3.2.  The coprocessor scans the L iTuples in a fixed order,
accumulating up to M join results in its memory, and flushes the M buffered
results to the host only *after completing the scan* — flushing mid-scan
would reveal how many results occur in each stretch of iTuples.  It re-scans,
skipping results at or before the last flushed index, until every result is
out: ceil(S/M) scans, write cost exactly S (no decoys at all).

Cost (paper, Eq. 5.3): ``S + ceil(S/M) L``.

Paper errata handled here (see DESIGN.md):

* the pseudocode's mid-scan flush contradicts the security proof; we flush at
  end of scan as the proof requires;
* the pseudocode's ``while pindex < lindex`` loop does not terminate when
  S = 0 or after the final scan; we terminate when a scan ends with a
  non-full buffer (then no result can remain unflushed);
* without prior knowledge of S the coprocessor needs ``floor(S/M) + 1`` scans
  (when M divides S the last full buffer cannot be distinguished from "more
  results pending"); passing ``known_result_size`` — e.g. from a screening
  pass — restores the paper's ``ceil(S/M)`` scan count.
"""

from __future__ import annotations

import math
from typing import Sequence

from repro.core.base import (
    JoinContext,
    JoinResult,
    append_output,
    finish,
    multi_party_output_schema,
)
from repro.core.cartesian import (
    CartesianReader,
    encode_joined,
    scan_blocks,
    upload_join,
)
from repro.errors import ConfigurationError
from repro.obs.spans import PhaseProfile
from repro.relational.predicates import MultiPredicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec


def rescan_output(
    coprocessor,
    *,
    tables: tuple,
    predicate: MultiPredicate,
    out_codec: TupleCodec,
    memory: int,
    known_result_size: int | None = None,
    first: int = 0,
    profile: PhaseProfile | None = None,
) -> tuple[int, int]:
    """Algorithm 5's scans: ``(flushed, scans)``.

    Flushes the results whose ordinals start at ``first`` — M per scan, and
    ``known_result_size`` of them when that is given — to the output region.
    Every scan reads every iTuple whatever the data; a later scan resumes
    after the last stored index, so a block that lies at or before it, or
    that starts once the scan has stored all it may, is not decoded.

    Algorithm 5 runs it from ordinal 0, booking each scan and flush to
    ``profile``; Algorithm 6's salvage runs it from 0 with S known, and each
    coprocessor of the parallel variant over its range of ordinals (no
    profile: a profile cannot cross a process boundary).
    """
    profile = profile if profile is not None else PhaseProfile()
    reader = CartesianReader(coprocessor, *tables)
    test = predicate.bind(reader.schemas)
    flushed = 0
    scans = 0
    skip = first  # results still to pass over before the first stored one
    pindex = -1  # index of the last iTuple whose result has been flushed
    while True:
        room = memory if known_result_size is None else min(
            memory, known_result_size - flushed)
        buffer = coprocessor.buffer(memory)
        lindex = pindex  # last index stored THIS scan
        with profile.span("scan"), coprocessor.hold(1):
            for block in scan_blocks(reader, range(len(reader.space))):
                if len(buffer) >= room or block.logicals[-1] <= pindex:
                    continue
                for logical, records in block:
                    if logical > pindex and len(buffer) < room and test(records):
                        if skip:
                            skip -= 1
                            continue
                        buffer.append(encode_joined(out_codec, records))
                        lindex = logical
        scans += 1
        was_full = buffer.full
        with profile.span("flush"):
            flushed += len(append_output(coprocessor, buffer.drain()))
        buffer.release()
        pindex = lindex
        if not was_full:
            break  # every remaining result fit: nothing is left unflushed
        if known_result_size is not None and flushed >= known_result_size:
            break
    return flushed, scans


def algorithm5(
    context: JoinContext,
    relations: Sequence[Relation],
    predicate: MultiPredicate,
    memory: int,
    known_result_size: int | None = None,
) -> JoinResult:
    """Run Algorithm 5 with an M-result enclave buffer."""
    if memory < 1:
        raise ConfigurationError("M must be at least 1")

    coprocessor = context.coprocessor
    out_schema = multi_party_output_schema(relations)
    reader = upload_join(context, relations, predicate)
    total = len(reader.space)
    context.allocate_output()

    profile = PhaseProfile.for_coprocessor(coprocessor)
    flushed, scans = rescan_output(
        coprocessor, tables=reader.tables, predicate=predicate,
        out_codec=TupleCodec(out_schema), memory=memory,
        known_result_size=known_result_size, profile=profile)

    expected_scans = (
        max(1, math.ceil(known_result_size / memory))
        if known_result_size is not None
        else flushed // memory + 1
    )
    return finish(
        context,
        out_schema,
        meta={
            "algorithm": "algorithm5",
            "L": total,
            "S": flushed,
            "M": memory,
            "scans": scans,
            "expected_scans": expected_scans,
        },
        flagged=False,
        profile=profile,
    )
