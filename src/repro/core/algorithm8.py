"""Algorithm 8 — oblivious semi-join / foreign-key equi-join fast path.

When every left tuple matches at most one right tuple — a foreign-key join
against a table with unique join keys, or a semi-join that only asks *whether*
a match exists — the general expansion machinery of Algorithm 7 is overkill:
the output has at most ``n1`` rows and each row pairs a left tuple with its
unique partner.  Arasu-Kaushik (*Oblivious Query Processing*, arXiv
1312.4012) observe that one oblivious sort plus a single linear pass with a
one-tuple register suffices:

1. **build** — both tables are rewritten into one union region of fixed-width
   working tuples (key bytes, table flag, payload), right tuples flagged to
   sort *before* left tuples within a key group.
2. **sort** — oblivious sort by (key, table flag).
3. **merge** — one forward linear pass.  The register holds the most recent
   right tuple.  Every slot is rewritten: a right tuple becomes a decoy, a
   left tuple whose key equals the register's becomes the joined (or, for
   the semi-join, the bare left) row stamped with the next output position,
   and a non-matching left tuple becomes a decoy.  The enclave counts the
   matches ``S`` on the way through.
4. **align** — an order-preserving oblivious compaction (Arasu-Kaushik's
   O(n log n) hop passes, not a sort): the merge stamped the real rows
   ``0 .. S-1`` in slot order, so each moves forward by the binary digits of
   its distance to its stamp, and the ``S`` real rows land in slots
   ``[0, S)``.  Every decoy is one identical plaintext.
5. **emit** — the first ``S`` slots are copied to the output with the
   bookkeeping stripped: filter-free, exactly ``S`` tuples.

Each phase's pattern depends only on ``(n1, n2, S)`` — the same Definition 3
statement as Algorithm 7, at one sort and one compaction of
``n = n1 + n2``.

In ``mode="join"`` the right table's join keys must be unique (the
foreign-key contract): this is validated on the plaintext relation before
upload and a violation raises :class:`~repro.errors.ConfigurationError`,
because a duplicate right key would silently drop all but the last
duplicate's pairing.  ``mode="semi"`` tolerates duplicate right keys — any
witness serves — and outputs the matching left tuples unchanged."""

from __future__ import annotations

import struct
from typing import Literal, Sequence

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
)
from repro.oblivious.sort import oblivious_compact, oblivious_sort
from repro.core.algorithm7 import check_key_compatibility, equality_of
from repro.relational.predicates import MultiPredicate, Predicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec

UNION_REGION = "fk"

#: Rights sort before lefts within a key group so one forward pass suffices.
RIGHT_SIDE = 0
LEFT_SIDE = 1

JoinMode = Literal["join", "semi"]

_INT64 = struct.Struct(">q")
_DECOY_FILL = 0xFF


def validate_foreign_key(right: Relation, attr_name: str) -> None:
    """The foreign-key contract: the right table's join keys are unique."""
    keys = right.project_values(attr_name)
    if len(set(keys)) != len(keys):
        raise ConfigurationError(
            f"algorithm8 join mode requires unique {attr_name!r} values in "
            f"the right table {right.schema.name!r}; use mode='semi' or "
            "algorithm7 for many-to-many joins"
        )


def algorithm8(
    context: JoinContext,
    relations: Sequence[Relation],
    predicate: MultiPredicate | Predicate,
    mode: JoinMode = "join",
) -> JoinResult:
    """Run the oblivious foreign-key join (or semi-join) over two tables."""
    if len(relations) != 2:
        raise ConfigurationError(
            f"algorithm8 joins exactly two tables (got {len(relations)})"
        )
    if mode not in ("join", "semi"):
        raise ConfigurationError(f"unknown algorithm8 mode {mode!r}")
    left, right = relations
    validate_two_party_inputs(left, right)
    eq = equality_of(predicate)
    if mode == "join":
        validate_foreign_key(right, eq.right_attr)

    coprocessor = context.coprocessor
    host = context.host

    out_schema = (
        two_party_output_schema(left, right) if mode == "join" else left.schema
    )
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
    out_width = out_codec.record_size

    # Union working tuple: key | side | payload (NUL-padded to one width).
    side_off = key_width
    payload_off = key_width + 1

    def pack_union(key, side, payload):
        return key + bytes([side]) + payload.ljust(payload_width, b"\x00")

    if host.has_region(UNION_REGION):
        host.free(UNION_REGION)
    host.allocate(UNION_REGION, n)

    profile = PhaseProfile.for_coprocessor(coprocessor)

    # Phases 1-4 rewrite only the union region: one fused section, whose
    # close (inside the align span) encrypts and writes each slot once.
    with coprocessor.section() as close_union:
        # Phase 1 — build the union of working tuples.
        with profile.span("build"):
            def to_union(side, key_off):
                def transform(_k, payload):
                    key = payload[key_off:key_off + key_width]
                    return pack_union(key, side, payload)
                return transform

            oblivious_transform_copy(
                coprocessor, "X0", 0, UNION_REGION, 0, n1,
                to_union(LEFT_SIDE, left_key_off),
            )
            oblivious_transform_copy(
                coprocessor, "X1", 0, UNION_REGION, n1, n2,
                to_union(RIGHT_SIDE, right_key_off),
            )

        # Phase 2 — oblivious sort by (key, table flag): rights first per group.
        with profile.span("sort"):
            oblivious_sort(
                coprocessor, UNION_REGION, n, key=lambda p: p[:payload_off]
            )

        # Phase 3 — one forward merge pass with a one-tuple register.  Every
        # slot is rewritten into the output wire format: position | flag |
        # payload, so the write pattern is unconditional.
        merged_width = _INT64.size + 1 + out_width
        decoy = (_INT64.pack(INFINITY) + bytes([1])
                 + bytes([_DECOY_FILL]) * out_width)
        state = {"key": None, "payload": None, "count": 0}

        with profile.span("merge"):
            def merge(_i, plain):
                key = plain[:key_width]
                side = plain[side_off]
                payload = plain[payload_off:]
                if side == RIGHT_SIDE:
                    state["key"] = key
                    state["payload"] = payload[:right_payload]
                    return decoy
                if key != state["key"]:
                    return decoy
                position = state["count"]
                state["count"] += 1
                # The joined codec's encoding is the payloads concatenated.
                row = payload[:left_payload]
                if mode == "join":
                    row += state["payload"]
                return _INT64.pack(position) + bytes([0]) + row

            oblivious_linear_pass(coprocessor, UNION_REGION, n, merge)
        result_count = state["count"]

        # Phase 4 — compaction by output position: the S real rows, stamped in
        # slot order, move forward into slots [0, S); the identical decoys fill
        # the rest.
        def target(plain):
            position = _INT64.unpack(plain[:_INT64.size])[0]
            return None if position == INFINITY else position

        with profile.span("align"):
            oblivious_compact(coprocessor, UNION_REGION, n, target)
            close_union()

    # Phase 5 — emit the first S slots, bookkeeping stripped: filter-free.
    if host.has_region(OUTPUT_REGION):
        host.free(OUTPUT_REGION)
    host.allocate(OUTPUT_REGION, result_count)

    with profile.span("emit"):
        oblivious_transform_copy(
            coprocessor, UNION_REGION, 0, OUTPUT_REGION, 0, result_count,
            lambda _r, plain: plain[_INT64.size + 1:],
        )

    return finish(
        context,
        out_schema,
        meta={
            "algorithm": "algorithm8",
            "mode": mode,
            "n1": n1,
            "n2": n2,
            "n": n,
            "S": result_count,
        },
        flagged=False,
        profile=profile,
    )
