"""Algorithm 7 — oblivious sort-merge equi-join at O(n log^2 n).

The Chapter 5 algorithms all pay for the full cross product
``L = |X1 x ... x XJ|``.  For the (dominant) equi-join case this is
asymptotically wasteful: following Krastnikov/Kerschbaum/Stebila (*Efficient
Oblivious Database Joins*, arXiv 2003.09481), the cartesian scan can be
replaced by oblivious sorts and linear passes over ``n = n1 + n2`` working
tuples plus the ``S`` output rows:

1. **build** — both uploaded tables are rewritten into one union region of
   fixed-width working tuples: join-key bytes, a table flag, four metadata
   registers (index-in-group, group left-count alpha1, group right-count
   alpha2, group output offset), and the original record payload.
2. **sort** — oblivious sort of the union by (key, table flag): within every
   key group the left tuples precede the right tuples.
3. **count** — three linear passes (forward, backward, forward) give every
   tuple its index within its side of the group, both group sizes, and the
   group's running output offset ``off_g = sum over earlier groups of
   alpha1 * alpha2``; the enclave learns the exact join size
   ``S = sum alpha1 * alpha2`` on the way through.
4. **partition** — oblivious sort by (table flag, unmatched) splits the
   union back into its left half and right half (metadata now attached),
   each half's matched tuples (``alpha1 * alpha2 > 0``) first and still in
   (key, index) order.
5. **expand** (per table) — a distribute-and-fill expansion into the first
   ``S`` slots of a region of ``max(n_t, S)``: every matched tuple is copied
   in keyed by the first output position it must occupy (left tuple i of a
   group: ``off_g + i*alpha2``; right tuple j: ``off_g + j*alpha1``), every
   unmatched tuple and ``max(0, S - n_t)`` fillers become one identical null
   plaintext, an oblivious *distribution* network (Krastnikov et al.'s
   O(S log S) hop passes, not a sort) moves each matched tuple to its first
   position, and a linear fill pass copies the last-seen real tuple into each
   null and computes every copy's *extraction key*.  The left table is then
   in output order.  The right table's key folds in the stride alignment
   ``off_g + k*alpha2 + j``, pairing copy k of right j with left k, and one
   oblivious sort over ``S`` slots by it puts the right table in output
   order too.
6. **emit** — slot r of both expanded regions is read and the concatenated
   join row written to ``output[r]``: exactly ``S`` tuples, filter-free, no
   decoys.

Every phase is an oblivious network or a fixed-order rewrite-every-slot
pass, so the trace is a function of the public parameters ``(n1, n2, S)``
alone — the same Definition 3 statement as Algorithms 4-6, at
``O(n log^2 n + S log^2 S)`` transfers instead of ``O(n1 * n2)``.

The enclave footprint stays constant: two slots in the sorts and passes,
three during the final zip."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, ContextManager, Sequence

from repro.core.base import (
    OUTPUT_REGION,
    JoinContext,
    JoinResult,
    finish,
    two_party_output_schema,
    validate_two_party_inputs,
)
from repro.errors import ConfigurationError
from repro.obs.spans import PhaseProfile
from repro.oblivious.expand import (
    INFINITY,
    oblivious_fill,
    oblivious_linear_pass,
    oblivious_transform_copy,
    oblivious_zip_write,
)
from repro.oblivious.sort import oblivious_distribute, oblivious_sort
from repro.relational.predicates import (
    BinaryAsMulti,
    Equality,
    MultiPredicate,
    PairwiseAll,
    Predicate,
)
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec

UNION_REGION = "smj"
LEFT_EXPAND_REGION = "smj_left"
RIGHT_EXPAND_REGION = "smj_right"

LEFT_SIDE = 0
RIGHT_SIDE = 1

#: idx (within group/side), alpha1 (group lefts), alpha2 (group rights),
#: off (group output offset) — the union tuple's metadata registers.
_UNION_META = struct.Struct(">qqqq")
#: d (destination: first output position), then the extraction key.
_INT64 = struct.Struct(">q")
#: idx, off, alpha2 — the expansion tuple's metadata registers.
_EXPAND_META = struct.Struct(">qqq")


def equality_of(predicate: MultiPredicate | Predicate) -> Equality:
    """Extract the equi-join predicate, unwrapping the multi-way adapters."""
    if isinstance(predicate, Equality):
        return predicate
    if isinstance(predicate, (BinaryAsMulti, PairwiseAll)) and isinstance(
        predicate.predicate, Equality
    ):
        return predicate.predicate
    raise ConfigurationError(
        "the oblivious sort-merge join handles equality predicates only "
        f"(got {getattr(predicate, 'description', predicate)!r})"
    )


def key_slice(codec: TupleCodec, attr_name: str) -> tuple[int, int]:
    """(byte offset, width) of one attribute inside the codec's payload."""
    for attr, offset, width in codec.layout:
        if attr.name == attr_name:
            return offset, width
    raise ConfigurationError(
        f"join attribute {attr_name!r} is not in schema {codec.schema.name!r}"
    )


def check_key_compatibility(
    left_codec: TupleCodec, right_codec: TupleCodec, eq: Equality
) -> tuple[tuple[int, int], tuple[int, int]]:
    """Validate the two key attributes agree on type and encoded width.

    The sort-merge phases group tuples by the *encoded* key bytes; the fixed
    width codec encodes equal values of one attribute type to equal bytes, so
    matching (type, width) makes byte equality coincide with value equality
    across the two tables.
    """
    left_off, left_width = key_slice(left_codec, eq.left_attr)
    right_off, right_width = key_slice(right_codec, eq.right_attr)
    left_type = next(
        a.type for a, _, _ in left_codec.layout if a.name == eq.left_attr
    )
    right_type = next(
        a.type for a, _, _ in right_codec.layout if a.name == eq.right_attr
    )
    if left_type is not right_type or left_width != right_width:
        raise ConfigurationError(
            f"join attributes {eq.left_attr!r} and {eq.right_attr!r} must "
            "share one attribute type and encoded width for the oblivious "
            "sort-merge join"
        )
    return (left_off, left_width), (right_off, right_width)


@dataclass
class SortMergeEngine:
    """Where each Algorithm 7 phase runs.

    The serial executor points every field at the one coprocessor; the
    parallel variant (:func:`repro.core.parallel.parallel_algorithm7`) maps
    the two independent expansion stages onto different cluster devices and
    swaps ``union_sort`` for the parallel oblivious sort.  ``union_sort`` is
    called for the two sorts over the whole union region (phase 2 and 4);
    each expansion's networks always run on that table's device, as one
    fused section.  ``union_section`` is the section phases 1-4 run in: the
    build device's, or :func:`~repro.hardware.coprocessor.unfused` while the
    union sort spans several devices.
    """

    build: Any
    count: Any
    left: Any
    right: Any
    emit: Any
    union_sort: Callable[[str, int, Callable[[bytes], Any]], None]
    union_section: Callable[[], ContextManager[Callable[[], None]]]


def algorithm7(
    context: JoinContext,
    relations: Sequence[Relation],
    predicate: MultiPredicate | Predicate,
) -> JoinResult:
    """Run the oblivious sort-merge equi-join over exactly two tables."""
    coprocessor = context.coprocessor
    profile = PhaseProfile.for_coprocessor(coprocessor)
    engine = SortMergeEngine(
        build=coprocessor,
        count=coprocessor,
        left=coprocessor,
        right=coprocessor,
        emit=coprocessor,
        union_sort=lambda region, size, key: oblivious_sort(
            coprocessor, region, size, key=key
        ),
        union_section=coprocessor.section,
    )
    out_schema, meta = sort_merge_equijoin(
        context, relations, predicate, profile, engine
    )
    return finish(
        context, out_schema, meta=meta, flagged=False, profile=profile
    )


def sort_merge_equijoin(
    context: JoinContext,
    relations: Sequence[Relation],
    predicate: MultiPredicate | Predicate,
    profile: PhaseProfile,
    engine: SortMergeEngine,
) -> tuple[Any, dict[str, Any]]:
    """The Algorithm 7 phases, parameterized over phase placement.

    Returns ``(output schema, result meta)``; the caller downloads the
    output region and packages the result (serial: :func:`finish`; parallel:
    :class:`~repro.core.parallel.ParallelJoinResult`).
    """
    if len(relations) != 2:
        raise ConfigurationError(
            f"algorithm7 joins exactly two tables (got {len(relations)})"
        )
    left, right = relations
    validate_two_party_inputs(left, right)
    eq = equality_of(predicate)

    host = context.host

    out_schema = two_party_output_schema(left, right)
    left_codec = context.upload_relation("X0", left)
    right_codec = context.upload_relation("X1", right)
    (left_key_off, key_width), (right_key_off, _) = check_key_compatibility(
        left_codec, right_codec, eq
    )

    n1, n2 = len(left), len(right)
    n = n1 + n2
    left_payload = left_codec.record_size
    right_payload = right_codec.record_size
    payload_width = max(left_payload, right_payload)

    # Union working tuple: key | side | (idx, alpha1, alpha2, off) | payload.
    meta_off = key_width + 1
    payload_off = meta_off + _UNION_META.size

    def pack_union(key, side, idx, a1, a2, off, payload):
        return (
            key
            + bytes([side])
            + _UNION_META.pack(idx, a1, a2, off)
            + payload.ljust(payload_width, b"\x00")
        )

    def unpack_union(plain):
        key = plain[:key_width]
        side = plain[key_width]
        idx, a1, a2, off = _UNION_META.unpack(plain[meta_off:payload_off])
        return key, side, idx, a1, a2, off, plain[payload_off:]

    for region, size in (
        (UNION_REGION, n),
        (LEFT_EXPAND_REGION, 0),
        (RIGHT_EXPAND_REGION, 0),
    ):
        if host.has_region(region):
            host.free(region)
        if size:
            host.allocate(region, size)

    # Phases 1-4 rewrite only the union region: one fused section, whose
    # close (inside the partition span) encrypts and writes each slot once.
    with engine.union_section() as close_union:
        # Phase 1 — build: rewrite both inputs into union working tuples.
        with profile.span("build"):
            def to_union(side, key_off):
                def transform(_k, payload):
                    key = payload[key_off:key_off + key_width]
                    return pack_union(key, side, 0, 0, 0, 0, payload)
                return transform

            oblivious_transform_copy(
                engine.build, "X0", 0, UNION_REGION, 0, n1,
                to_union(LEFT_SIDE, left_key_off),
            )
            oblivious_transform_copy(
                engine.build, "X1", 0, UNION_REGION, n1, n2,
                to_union(RIGHT_SIDE, right_key_off),
            )

        # Phase 2 — oblivious sort by (key bytes, table flag): any total
        # order groups equal keys; lefts precede rights within each group.
        with profile.span("sort"):
            engine.union_sort(UNION_REGION, n, lambda p: p[:meta_off])

        # Phase 3 — three linear counting passes.  Registers live in the
        # enclave; every slot is rewritten, so the pattern is n gets + n puts
        # per pass.
        with profile.span("count"):
            # Pass A (forward): index within side; rights see the complete
            # left count alpha1 (lefts sort before rights within a group).
            state_a = {"key": None, "lefts": 0, "rights": 0}

            def pass_a(_i, plain):
                key, side, idx, a1, a2, off, payload = unpack_union(plain)
                if key != state_a["key"]:
                    state_a["key"] = key
                    state_a["lefts"] = 0
                    state_a["rights"] = 0
                if side == LEFT_SIDE:
                    idx = state_a["lefts"]
                    state_a["lefts"] += 1
                else:
                    idx = state_a["rights"]
                    state_a["rights"] += 1
                    a1 = state_a["lefts"]
                return pack_union(key, side, idx, a1, a2, off, payload)

            oblivious_linear_pass(engine.count, UNION_REGION, n, pass_a)

            # Pass B (backward): the first tuple met per group is its last —
            # a right tuple knows alpha2 = idx + 1, a last left knows alpha1.
            state_b = {"key": None, "a1": 0, "a2": 0}

            def pass_b(_i, plain):
                key, side, idx, a1, a2, off, payload = unpack_union(plain)
                if key != state_b["key"]:
                    state_b["key"] = key
                    if side == RIGHT_SIDE:
                        state_b["a1"] = a1
                        state_b["a2"] = idx + 1
                    else:
                        state_b["a1"] = idx + 1
                        state_b["a2"] = 0
                return pack_union(
                    key, side, idx, state_b["a1"], state_b["a2"], off, payload
                )

            oblivious_linear_pass(engine.count, UNION_REGION, n, pass_b,
                                  reverse=True)

            # Pass C (forward): running group offsets; the enclave
            # accumulates S.
            state_c = {"key": None, "cum": 0, "a1": 0, "a2": 0}

            def pass_c(_i, plain):
                key, side, idx, a1, a2, off, payload = unpack_union(plain)
                if key != state_c["key"]:
                    state_c["cum"] += state_c["a1"] * state_c["a2"]
                    state_c["key"] = key
                    state_c["a1"] = a1
                    state_c["a2"] = a2
                return pack_union(key, side, idx, a1, a2, state_c["cum"],
                                  payload)

            oblivious_linear_pass(engine.count, UNION_REGION, n, pass_c)
            result_count = state_c["cum"] + state_c["a1"] * state_c["a2"]

        # S shapes everything downstream — the paper's deliberate leakage,
        # and a public parameter under Definition 3 (the experiment fixes S).
        s = result_count

        # Phase 4 — oblivious partition sort by (table flag, unmatched): left
        # tuples land in slots [0, n1), right tuples in [n1, n), each table's
        # matched tuples first.  The sort is stable, so those stay in (key,
        # index) order, which is the order of their output positions.
        def partition_key(plain):
            _, a1, a2, _ = _UNION_META.unpack(plain[meta_off:payload_off])
            return plain[key_width], a1 * a2 == 0

        with profile.span("partition"):
            engine.union_sort(UNION_REGION, n, partition_key)
            close_union()

    # Phase 5 — per-table distribute/fill expansion into S output slots.
    host.allocate(LEFT_EXPAND_REGION, max(n1, s))
    host.allocate(RIGHT_EXPAND_REGION, max(n2, s))

    expand_payload_off = _INT64.size + _EXPAND_META.size

    def pack_expand(d, idx, off, a2, payload):
        return _INT64.pack(d) + _EXPAND_META.pack(idx, off, a2) + payload

    def unpack_expand(plain):
        d = _INT64.unpack(plain[:_INT64.size])[0]
        idx, off, a2 = _EXPAND_META.unpack(plain[_INT64.size:expand_payload_off])
        return d, idx, off, a2, plain[expand_payload_off:]

    def destination(plain):
        d = _INT64.unpack(plain[:_INT64.size])[0]
        return None if d == INFINITY else d

    def expand_table(device, span, region, union_start, size, record_size,
                     stride_align):
        """Distribute-and-fill one table into output order in slots [0, S).

        ``stride_align`` selects each copy's extraction key: the left table
        copies contiguously (key = output position p, already in order), the
        right table aligns its copies by stride (key = off + k*alpha2 + idx
        for copy k) and sorts by it.  The passes rewrite only ``region``:
        one fused section on ``device``, closed inside ``span``.
        """
        with profile.span(span), device.section():
            # The null: an unmatched tuple and every filler.  One identical
            # plaintext, so the distribution's closed form is its image.
            null = pack_expand(INFINITY, 0, 0, 0, bytes(record_size))

            def to_expand(_k, plain):
                _, _, idx, a1, a2, off, payload = unpack_union(plain)
                if a1 * a2 == 0:
                    return null
                copies = a2 if stride_align is None else a1
                return pack_expand(off + idx * copies, idx, off, a2,
                                   payload[:record_size])

            oblivious_transform_copy(
                device, UNION_REGION, union_start, region, 0, size,
                to_expand,
            )
            # Fillers carry no table data, so T generates them.
            oblivious_fill(device, region, size, s - size, null)

            # The matched tuples are a prefix sorted by first output
            # position; the distribution moves each to that position.
            oblivious_distribute(device, region, s, destination)

            # Fill pass: a one-slot register carries the last-seen real
            # tuple; every slot becomes a copy with its extraction key.
            register = {"payload": bytes(record_size), "d": 0, "idx": 0,
                        "off": 0, "a2": 0}

            def fill(p, plain):
                d, idx, off, a2, payload = unpack_expand(plain)
                if d != INFINITY:
                    register.update(payload=payload, d=d, idx=idx, off=off, a2=a2)
                if stride_align is None:
                    extraction = p
                else:
                    k = p - register["d"]
                    extraction = (
                        register["off"] + k * register["a2"] + register["idx"]
                    )
                return _INT64.pack(extraction) + register["payload"]

            oblivious_linear_pass(device, region, s, fill)

            # Stride-alignment sort by extraction key: copy k of right
            # tuple j lands next to copy j of left tuple k.
            if stride_align is not None:
                oblivious_sort(device, region, s, key=lambda p: p[:_INT64.size])

    expand_table(engine.left, "expand_left", LEFT_EXPAND_REGION, 0, n1,
                 left_payload, stride_align=None)
    expand_table(engine.right, "expand_right", RIGHT_EXPAND_REGION, n1, n2,
                 right_payload, stride_align=True)

    # Phase 6 — filter-free emission of exactly S rows.
    output = OUTPUT_REGION
    if host.has_region(output):
        host.free(output)
    host.allocate(output, s)

    with profile.span("emit"):
        # The joined codec's encoding is the two payloads concatenated.
        def combine(_r, left_plain, right_plain):
            return (left_plain[_INT64.size:_INT64.size + left_payload]
                    + right_plain[_INT64.size:_INT64.size + right_payload])

        oblivious_zip_write(
            engine.emit, LEFT_EXPAND_REGION, RIGHT_EXPAND_REGION, s,
            output, combine,
        )

    return out_schema, {
        "algorithm": "algorithm7",
        "n1": n1,
        "n2": n2,
        "n": n,
        "S": s,
    }
