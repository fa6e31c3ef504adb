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
4. **partition** — oblivious sort by table flag splits the union back into
   its left half and right half (metadata now attached).
5. **expand/align** (per table) — a distribute-and-fill expansion in a region
   of ``n_t + S`` slots: each real tuple is keyed by the first output
   position it must occupy (left tuple i of a group: ``off_g + i*alpha2``;
   right tuple j: ``off_g + j*alpha1``), ``S`` filler tuples are keyed by
   their output position, an oblivious sort interleaves fillers after their
   covering real tuple, a linear fill pass copies the last-seen real tuple
   into each filler and computes the filler's final *extraction key* (for the
   right table this folds in the stride alignment ``off_g + k*alpha2 + j``,
   pairing copy k of right j with left k), and a second oblivious sort by
   extraction key leaves the expanded table's rows in output order in the
   first ``S`` slots.
6. **emit** — slot r of both expanded regions is read and the concatenated
   join row written to ``output[r]``: exactly ``S`` tuples, filter-free, no
   decoys.

Every phase is an oblivious sort or a fixed-order rewrite-every-slot pass,
so the trace is a function of the public parameters ``(n1, n2, S)`` alone —
the same Definition 3 statement as Algorithms 4-6, at
``O((n + S) log^2 (n + S))`` transfers instead of ``O(n1 * n2)``.

The enclave footprint stays constant: two slots in the sorts and passes,
three during the final zip."""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Any, Callable, Sequence

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
    oblivious_linear_pass,
    oblivious_transform_copy,
    oblivious_zip_write,
)
from repro.oblivious.sort import oblivious_sort
from repro.relational.predicates import (
    BinaryAsMulti,
    Equality,
    MultiPredicate,
    PairwiseAll,
    Predicate,
)
from repro.relational.relation import Relation
from repro.relational.tuples import Record, TupleCodec

UNION_REGION = "smj"
LEFT_EXPAND_REGION = "smj_left"
RIGHT_EXPAND_REGION = "smj_right"

LEFT_SIDE = 0
RIGHT_SIDE = 1
REAL_KIND = 0
FILLER_KIND = 1

#: idx (within group/side), alpha1 (group lefts), alpha2 (group rights),
#: off (group output offset) — the union tuple's metadata registers.
_UNION_META = struct.Struct(">qqqq")
#: d (distribution key), e placeholder is packed separately.
_INT64 = struct.Struct(">q")
#: e, idx, off, alpha1, alpha2 — the expansion tuple's metadata registers.
_EXPAND_META = struct.Struct(">qqqqq")


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
    swaps ``union_sort`` for the parallel bitonic sort.  ``union_sort`` is
    called for the two sorts over the whole union region (phase 2 and 4);
    the expansion-region sorts always run on that table's device.
    """

    build: Any
    count: Any
    left: Any
    right: Any
    emit: Any
    union_sort: Callable[[str, int, Callable[[bytes], Any]], None]


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
    out_codec = TupleCodec(out_schema)
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

    # Phase 2 — oblivious sort by (key bytes, table flag): any total order
    # groups equal keys; lefts precede rights within each group.
    with profile.span("sort"):
        engine.union_sort(UNION_REGION, n, lambda p: p[:meta_off])

    # Phase 3 — three linear counting passes.  Registers live in the enclave;
    # every slot is rewritten, so the pattern is n gets + n puts per pass.
    with profile.span("count"):
        # Pass A (forward): index within side; rights see the complete left
        # count alpha1 (lefts sort before rights within a group).
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

        # Pass B (backward): the first tuple met per group is its last — a
        # right tuple knows alpha2 = idx + 1, a last left knows alpha1.
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

        # Pass C (forward): running group offsets; the enclave accumulates S.
        state_c = {"key": None, "cum": 0, "a1": 0, "a2": 0}

        def pass_c(_i, plain):
            key, side, idx, a1, a2, off, payload = unpack_union(plain)
            if key != state_c["key"]:
                state_c["cum"] += state_c["a1"] * state_c["a2"]
                state_c["key"] = key
                state_c["a1"] = a1
                state_c["a2"] = a2
            return pack_union(key, side, idx, a1, a2, state_c["cum"], payload)

        oblivious_linear_pass(engine.count, UNION_REGION, n, pass_c)
        result_count = state_c["cum"] + state_c["a1"] * state_c["a2"]

    # S shapes everything downstream — the paper's deliberate leakage, and a
    # public parameter under Definition 3 (the experiment fixes S).
    s = result_count

    # Phase 4 — oblivious partition sort by table flag: left tuples land in
    # slots [0, n1), right tuples in [n1, n).
    with profile.span("partition"):
        engine.union_sort(UNION_REGION, n, lambda p: p[key_width])

    # Phase 5 — per-table distribute/fill/align expansion.
    host.allocate(LEFT_EXPAND_REGION, n1 + s)
    host.allocate(RIGHT_EXPAND_REGION, n2 + s)

    expand_meta_off = _INT64.size + 1
    expand_payload_off = expand_meta_off + _EXPAND_META.size

    def pack_expand(d, kind, e, idx, off, a1, a2, payload):
        return (
            _INT64.pack(d)
            + bytes([kind])
            + _EXPAND_META.pack(e, idx, off, a1, a2)
            + payload
        )

    def unpack_expand(plain):
        d = _INT64.unpack(plain[:_INT64.size])[0]
        kind = plain[_INT64.size]
        e, idx, off, a1, a2 = _EXPAND_META.unpack(
            plain[expand_meta_off:expand_payload_off]
        )
        return d, kind, e, idx, off, a1, a2, plain[expand_payload_off:]

    def expand_table(device, span, region, union_start, size, record_size,
                     stride_align):
        """Distribute-and-fill one table into output order.

        ``stride_align`` selects the filler's extraction key: the left table
        copies contiguously (key = fill position p), the right table aligns
        its copies by stride (key = off + k*alpha2 + idx for copy k).
        """
        with profile.span(span):
            def to_expand(_k, plain):
                key, side, idx, a1, a2, off, payload = unpack_union(plain)
                del key, side
                copies = a2 if stride_align is None else a1
                other = a1 if stride_align is None else a2
                d = off + idx * copies if copies > 0 and other > 0 else INFINITY
                return pack_expand(
                    d, REAL_KIND, INFINITY, idx, off, a1, a2,
                    payload[:record_size],
                )

            oblivious_transform_copy(
                device, UNION_REGION, union_start, region, 0, size,
                to_expand,
            )
            # S filler tuples, keyed by output position.  Fillers carry no
            # table data, so T generates them one register at a time.
            def filler(p):
                return pack_expand(p, FILLER_KIND, INFINITY, 0, 0, 0, 0,
                                   bytes(record_size))

            if s and device.batched_io:
                device.put_range(region, size, [filler(p) for p in range(s)])
            elif s:
                with device.hold(2):
                    for p in range(s):
                        device.put(region, size + p, filler(p))

            # Distribution sort: (d, real-before-filler).  Real tuples sit at
            # their run starts; each filler p lands after the real tuple
            # whose copy run covers position p.
            oblivious_sort(
                device, region, size + s,
                key=lambda p: p[:expand_meta_off],
            )

            # Fill pass: a one-slot register carries the last-seen real
            # tuple; every filler becomes a copy with its extraction key.
            register = {"payload": bytes(record_size), "d": 0, "idx": 0,
                        "off": 0, "a2": 0}

            def fill(_i, plain):
                d, kind, e, idx, off, a1, a2, payload = unpack_expand(plain)
                del e, a1
                if kind == REAL_KIND:
                    register["payload"] = payload
                    register["d"] = d
                    register["idx"] = idx
                    register["off"] = off
                    register["a2"] = a2
                    return _INT64.pack(INFINITY) + payload
                p = d  # a filler's distribution key is its fill position
                if stride_align is None:
                    extraction = p
                else:
                    k = p - register["d"]
                    extraction = (
                        register["off"] + k * register["a2"] + register["idx"]
                    )
                return _INT64.pack(extraction) + register["payload"]

            oblivious_linear_pass(device, region, size + s, fill)

            # Alignment sort by extraction key: the S copies land in output
            # order in slots [0, S); the spent real tuples sink to the end.
            oblivious_sort(
                device, region, size + s,
                key=lambda p: p[:_INT64.size],
            )

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
        def combine(_r, left_plain, right_plain):
            a = left_codec.decode(
                left_plain[_INT64.size:_INT64.size + left_payload]
            )
            b = right_codec.decode(
                right_plain[_INT64.size:_INT64.size + right_payload]
            )
            return out_codec.encode(Record(out_schema, a.values + b.values))

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
