"""The unsafe baselines: straightforward adaptations that leak.

The paper motivates its design principles by exhibiting natural adaptations
of classical join algorithms whose *access patterns* betray the data even
though every byte crossing the T/H boundary is encrypted:

* :func:`unsafe_nested_loop` — Section 3.4.1: output a result tuple only on a
  match; the interleaving of output writes with B reads reveals exactly which
  pairs joined.
* :func:`unsafe_blocked_output` — Section 3.4.2: buffering K results before
  writing still lets the adversary estimate the match distribution.
* :func:`unsafe_sort_merge` — Section 4.5.1: merge pointers advance at
  data-dependent moments, revealing per-tuple match counts.
* :func:`unsafe_hash_partition` — Section 4.5.1: the bucket-fill flush policy
  reveals the skew of the join-attribute distribution.
* :func:`unsafe_commutative` — Section 4.5.1: deterministic re-encryption
  lets the host equijoin ciphertexts itself, but leaks the distribution of
  duplicates.

Each function computes the *correct* join result; what is broken is privacy,
which :mod:`repro.privacy.attacks` demonstrates by extracting the leaked
information from the recorded traces.
"""

from __future__ import annotations

import hashlib

from repro.core.base import (
    OUTPUT_REGION,
    JoinContext,
    JoinResult,
    finish,
    joined_payload,
    make_decoy,
    make_real,
    two_party_output_schema,
    validate_two_party_inputs,
)
from repro.errors import ConfigurationError
from repro.oblivious.shuffle import oblivious_shuffle
from repro.relational.predicates import Equality, Predicate
from repro.relational.relation import Relation
from repro.relational.tuples import TupleCodec


def unsafe_nested_loop(
    context: JoinContext, left: Relation, right: Relation, predicate: Predicate
) -> JoinResult:
    """Section 3.4.1: encrypt everything, but write output only on a match."""
    validate_two_party_inputs(left, right)
    coprocessor = context.coprocessor
    out_schema = two_party_output_schema(left, right)
    out_codec = TupleCodec(out_schema)
    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation("B", right)
    context.allocate_output()
    with coprocessor.hold(2):
        for a_index in range(len(left)):
            a = left_codec.decode(coprocessor.get("A", a_index))
            for b_index in range(len(right)):
                b = right_codec.decode(coprocessor.get("B", b_index))
                if predicate.matches(a, b):
                    coprocessor.put_append(
                        OUTPUT_REGION, joined_payload(a, b, out_schema, out_codec)
                    )
    return finish(context, out_schema, meta={"algorithm": "unsafe_nested_loop"},
                  flagged=False)


def unsafe_blocked_output(
    context: JoinContext,
    left: Relation,
    right: Relation,
    predicate: Predicate,
    block: int,
) -> JoinResult:
    """Section 3.4.2: wait for ``block`` results, then flush them together."""
    validate_two_party_inputs(left, right)
    if block < 1:
        raise ConfigurationError("block size must be at least 1")
    coprocessor = context.coprocessor
    out_schema = two_party_output_schema(left, right)
    out_codec = TupleCodec(out_schema)
    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation("B", right)
    context.allocate_output()
    pending: list[bytes] = []
    with coprocessor.hold(2 + block):
        for a_index in range(len(left)):
            a = left_codec.decode(coprocessor.get("A", a_index))
            for b_index in range(len(right)):
                b = right_codec.decode(coprocessor.get("B", b_index))
                if predicate.matches(a, b):
                    pending.append(joined_payload(a, b, out_schema, out_codec))
                    if len(pending) == block:
                        for payload in pending:
                            coprocessor.put_append(OUTPUT_REGION, payload)
                        pending.clear()
        for payload in pending:
            coprocessor.put_append(OUTPUT_REGION, payload)
    return finish(context, out_schema, meta={"algorithm": "unsafe_blocked_output",
                                             "block": block}, flagged=False)


def unsafe_sort_merge(
    context: JoinContext, left: Relation, right: Relation, on: str | Equality
) -> JoinResult:
    """Section 4.5.1: sort-merge join whose pointer movement leaks match counts.

    After the matches for an A tuple are exhausted, T immediately moves to the
    next A tuple — so the number of B reads between A reads equals the match
    run length.
    """
    validate_two_party_inputs(left, right)
    eq = on if isinstance(on, Equality) else Equality(on)
    coprocessor = context.coprocessor
    out_schema = two_party_output_schema(left, right)
    out_codec = TupleCodec(out_schema)
    # Model the ideal case for the adversary's benefit: both inputs arrive
    # sorted (the sorting itself could be done obliviously and safely).
    left_sorted = left.sorted_by(eq.left_attr)
    right_sorted = right.sorted_by(eq.right_attr)
    left_codec = context.upload_relation("A", left_sorted)
    right_codec = context.upload_relation("B", right_sorted)
    context.allocate_output()
    left_pos = left.schema.position(eq.left_attr)
    right_pos = right.schema.position(eq.right_attr)
    with coprocessor.hold(2):
        j = 0
        for a_index in range(len(left_sorted)):
            a = left_codec.decode(coprocessor.get("A", a_index))
            key = a.values[left_pos]
            # Advance past smaller B keys.
            while j < len(right_sorted):
                b = right_codec.decode(coprocessor.get("B", j))
                if b.values[right_pos] >= key:
                    break
                j += 1
            # Scan the equal-key run; reading one tuple past it is what leaks.
            k = j
            while k < len(right_sorted):
                b = right_codec.decode(coprocessor.get("B", k))
                if b.values[right_pos] != key:
                    break
                coprocessor.put_append(
                    OUTPUT_REGION, joined_payload(a, b, out_schema, out_codec)
                )
                k += 1
    return finish(context, out_schema, meta={"algorithm": "unsafe_sort_merge"},
                  flagged=False)


def unsafe_hash_partition(
    context: JoinContext,
    relation: Relation,
    on: str,
    buckets: int,
    bucket_capacity: int,
) -> JoinResult:
    """Section 4.5.1: the partitioning phase of the grace-hash adaptation.

    Tuples are hashed into host-side buckets; when any bucket fills, every
    bucket is padded with decoys and flushed.  The number of reads *between
    flushes* reveals the skew of the join-attribute distribution — the
    footnote's uniform-vs-skewed distinguisher.  Only the partitioning phase
    is modelled because that is where the leak lives.
    """
    if buckets < 1 or bucket_capacity < 1:
        raise ConfigurationError("buckets and capacity must be positive")
    coprocessor = context.coprocessor
    codec = relation.codec()
    payload_size = codec.record_size
    position = relation.schema.position(on)
    context.upload_relation("R", relation)
    context.allocate_output()
    oblivious_shuffle(coprocessor, "R", len(relation), context.rng)
    pending: list[list[bytes]] = [[] for _ in range(buckets)]
    flushes = 0
    with coprocessor.hold(1 + buckets * bucket_capacity):
        for index in range(len(relation)):
            record = codec.decode(coprocessor.get("R", index))
            digest = hashlib.sha256(repr(record.values[position]).encode()).digest()
            bucket = int.from_bytes(digest[:4], "big") % buckets
            pending[bucket].append(make_real(codec.encode(record)))
            if len(pending[bucket]) == bucket_capacity:
                for contents in pending:
                    for payload in contents:
                        coprocessor.put_append(OUTPUT_REGION, payload)
                    for _ in range(bucket_capacity - len(contents)):
                        coprocessor.put_append(OUTPUT_REGION, make_decoy(payload_size))
                pending = [[] for _ in range(buckets)]
                flushes += 1
        for contents in pending:
            for payload in contents:
                coprocessor.put_append(OUTPUT_REGION, payload)
            for _ in range(bucket_capacity - len(contents)):
                coprocessor.put_append(OUTPUT_REGION, make_decoy(payload_size))
        flushes += 1
    return finish(context, relation.schema,
                  meta={"algorithm": "unsafe_hash_partition", "flushes": flushes})


def unsafe_commutative(
    context: JoinContext, left: Relation, right: Relation, on: str
) -> JoinResult:
    """Section 4.5.1: deterministic re-encryption for host-side equijoining.

    T re-encrypts each join-attribute value with a *deterministic* keyed
    function, so the host can match ciphertexts itself — but equal plaintexts
    yield equal ciphertexts, leaking the duplicate distribution of both
    relations to the host.
    """
    validate_two_party_inputs(left, right)
    coprocessor = context.coprocessor
    host = context.host
    out_schema = two_party_output_schema(left, right)
    out_codec = TupleCodec(out_schema)
    left_codec = context.upload_relation("A", left)
    right_codec = context.upload_relation("B", right)
    context.allocate_output()
    left_pos = left.schema.position(on)
    right_pos = right.schema.position(on)
    det_key = b"deterministic-tag-key"

    def tag(value: object) -> bytes:
        return hashlib.sha256(det_key + repr(value).encode()).digest()[:16]

    host.allocate("A_tags", len(left))
    host.allocate("B_tags", len(right))
    with coprocessor.hold(1):
        oblivious_shuffle(coprocessor, "A", len(left), context.rng)
        oblivious_shuffle(coprocessor, "B", len(right), context.rng)
        for i in range(len(left)):
            record = left_codec.decode(coprocessor.get("A", i))
            # The tag is written raw: the host is supposed to compare them.
            # These tag writes (and the host's compare below) are deliberately
            # scalar slot calls: the only ones in the package outside the host
            # classes — everything else crosses as a ranged batch.
            host.write_slot("A_tags", i, tag(record.values[left_pos]))
            coprocessor.trace.record("put", "A_tags", i)
        for j in range(len(right)):
            record = right_codec.decode(coprocessor.get("B", j))
            host.write_slot("B_tags", j, tag(record.values[right_pos]))
            coprocessor.trace.record("put", "B_tags", j)
    # Host-side sort-merge over the deterministic tags (no T involvement).
    matches = [
        (i, j)
        for i in range(len(left))
        for j in range(len(right))
        if host.read_slot("A_tags", i) == host.read_slot("B_tags", j)
    ]
    # T composes the matched pairs for the recipient.
    with coprocessor.hold(2):
        for i, j in matches:
            a = left_codec.decode(coprocessor.get("A", i))
            b = right_codec.decode(coprocessor.get("B", j))
            coprocessor.put_append(
                OUTPUT_REGION, joined_payload(a, b, out_schema, out_codec)
            )
    return finish(context, out_schema,
                  meta={"algorithm": "unsafe_commutative", "pairs": len(matches)},
                  flagged=False)
