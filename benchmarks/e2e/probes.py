"""Layer probes: a workload's row count and payload width replayed through
each layer's public batch and scalar entry points.

Spans recorded around a request cannot see below the algorithm phases, so the
lower layers (sort network, coprocessor I/O, provider crypto, tuple codec) and
the pure halves of the net path (wire codec, journal append, client encrypt)
are timed here, from outside, on inputs shaped like the workload's own.
Micro probes are medians of ``MICRO_CALLS`` calls; the ones that run a whole
sort or join are medians of ``MACRO_CALLS``.
"""

from __future__ import annotations

import random
import tempfile
import time

from repro.core.algorithm4 import algorithm4
from repro.core.algorithm5 import algorithm5
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext, decoy_priority
from repro.costs.filter_opt import optimal_delta
from repro.crypto.provider import FastProvider, OcbProvider
from repro.net.journal import JobAccepted, JobDelivered, JobFinished, JobJournal
from repro.net.wire import Page, decode_frame, encode_frame, encode_relation
from repro.oblivious.filterbuf import oblivious_filter
from repro.oblivious.sort import oblivious_sort
from repro.relational.batch import BatchCodec

from harness import OUT_DIR, Ledger, median, timed_median
from workloads import Shape, Workload, make_request, submit_frame

MICRO_CALLS = 20
MACRO_CALLS = 3
_KEY = b"bench-e2e-probe-key"

JOINS = {
    "algorithm4": lambda ctx, rels, pred, s: algorithm4(ctx, rels, pred),
    "algorithm5": lambda ctx, rels, pred, s: algorithm5(
        ctx, rels, pred, memory=s.memory),
    "algorithm6": lambda ctx, rels, pred, s: algorithm6(
        ctx, rels, pred, memory=s.memory, epsilon=s.epsilon),
    "algorithm7": lambda ctx, rels, pred, s: algorithm7(ctx, rels, pred),
    "algorithm8": lambda ctx, rels, pred, s: algorithm8(ctx, rels, pred),
}


def _per_row_us(seconds: float, rows: int) -> float:
    return seconds / rows * 1e6


def probe_net_path(workload: Workload, ledger: Ledger) -> None:
    """Client encrypt, wire codec and journal append on the workload's frames."""
    request = workload.requests[0]
    page_size = getattr(workload, "page_size", 64)

    def encrypt_and_frame():
        return submit_frame(request, workload.predicate_spec, "probe",
                            page_size, "probe")

    ledger.set("net.client.encrypt_upload_s",
               timed_median(encrypt_and_frame, MICRO_CALLS))
    submit = encrypt_and_frame()
    submit_bytes = encode_frame(submit)
    schema, rows = encode_relation(request.reference)
    page = Page("J-000001", 0, True, schema, rows[:page_size])
    page_bytes = encode_frame(page)
    ledger.set("net.wire.encode_submit_s",
               timed_median(lambda: encode_frame(submit), MICRO_CALLS))
    ledger.set("net.wire.decode_submit_s",
               timed_median(lambda: decode_frame(submit_bytes), MICRO_CALLS))
    ledger.set("net.wire.encode_page_s",
               timed_median(lambda: encode_frame(page), MICRO_CALLS))
    ledger.set("net.wire.decode_page_s",
               timed_median(lambda: decode_frame(page_bytes), MICRO_CALLS))
    ledger.set("net.wire.submit_frame_bytes", len(submit_bytes))
    ledger.set("net.wire.page_frame_bytes", len(page_bytes))

    accepted = JobAccepted("J-000001", "probe", submit_bytes)
    fingerprint = "0" * 64
    finished = JobFinished("J-000001", "done", len(rows), 1, fingerprint, fingerprint)
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="journal-probe-", dir=OUT_DIR) as tmp:
        with JobJournal(tmp) as journal:
            ledger.set("net.journal.append_s", timed_median(
                lambda: journal.append(accepted), MICRO_CALLS))
    ledger.set("net.journal.bytes_per_join", sum(
        len(encode_frame(record))
        for record in (accepted, finished, JobDelivered("J-000001"))))


def _staged_region(context: JoinContext, payloads: list[bytes]) -> None:
    if context.host.has_region("R"):
        context.host.free("R")
    context.host.allocate_from("R", context.provider.encrypt_many(payloads))
    context.coprocessor.clear_cache()
    context.coprocessor.reset_trace()


def _staged_median(context: JoinContext, payloads: list[bytes], fn) -> float:
    """Median time of ``fn`` over ``MACRO_CALLS`` freshly staged regions."""
    samples = []
    for _ in range(MACRO_CALLS):
        _staged_region(context, payloads)
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return median(samples)


def probe_lower_layers(workload: Workload, ledger: Ledger) -> None:
    """Sort network, coprocessor I/O, provider crypto and tuple codec."""
    request = workload.requests[0]
    shape = request.shape
    rng = random.Random(f"{workload.seed}/{workload.name}/probe")
    rows = min(1024, shape.n1 + shape.n2)
    out_codec = request.reference.codec()
    width = 1 + out_codec.record_size          # flag byte + joined record
    keep = max(1, rows // 8)
    payloads = [bytes([0 if i < keep else 1]) + rng.randbytes(width - 1)
                for i in range(rows)]
    rng.shuffle(payloads)

    # -- oblivious: one sort and one filter of a fresh region per call -------------
    context = JoinContext.fresh(provider=OcbProvider(_KEY))
    device = context.coprocessor
    before = device.encryptions + device.decryptions
    sort_s = _staged_median(context, payloads, lambda: oblivious_sort(
        device, "R", rows, key=lambda plain: plain))
    sort_transfers = (device.encryptions + device.decryptions - before) / MACRO_CALLS
    ledger.set("oblivious.sort_s", sort_s)
    ledger.set("oblivious.sort_transfers_per_s", sort_transfers / sort_s)
    delta = optimal_delta(keep, rows)
    ledger.set("oblivious.filter_s", _staged_median(
        context, payloads, lambda: oblivious_filter(
            device, "R", rows, keep, delta, decoy_priority)))

    # -- hardware: ranged vs scalar boundary crossings, cold cache ----------------
    def cold(fn):
        def run():
            device.clear_cache()
            fn()
        return run

    _staged_region(context, payloads)
    ledger.set("hardware.get_range_us_per_row", _per_row_us(timed_median(
        cold(lambda: device.get_range("R", 0, rows)), MICRO_CALLS), rows))
    ledger.set("hardware.put_range_us_per_row", _per_row_us(timed_median(
        lambda: device.put_range("R", 0, payloads), MICRO_CALLS), rows))
    # Scalar puts first: the scalar gets then read cells the scalar path wrote.
    ledger.set("hardware.put_us", _per_row_us(timed_median(
        lambda: [device.put("R", i, p) for i, p in enumerate(payloads)],
        MICRO_CALLS), rows))
    ledger.set("hardware.get_us", _per_row_us(timed_median(
        cold(lambda: [device.get("R", i) for i in range(rows)]), MICRO_CALLS), rows))
    device.reset_trace()

    # -- crypto: the working-key provider batched and scalar, the session provider
    ocb = OcbProvider(_KEY)
    cells = ocb.encrypt_many(payloads)
    ledger.set("crypto.ocb.encrypt_many_us_per_row", _per_row_us(timed_median(
        lambda: ocb.encrypt_many(payloads), MICRO_CALLS), rows))
    ledger.set("crypto.ocb.decrypt_many_us_per_row", _per_row_us(timed_median(
        lambda: ocb.decrypt_many(cells), MICRO_CALLS), rows))
    scalar_cells = [ocb.encrypt(p) for p in payloads]
    ledger.set("crypto.ocb.encrypt_us", _per_row_us(timed_median(
        lambda: [ocb.encrypt(p) for p in payloads], MICRO_CALLS), rows))
    ledger.set("crypto.ocb.decrypt_us", _per_row_us(timed_median(
        lambda: [ocb.decrypt(c) for c in scalar_cells], MICRO_CALLS), rows))
    ledger.set("crypto.ciphertext_expansion",
               sum(map(len, cells)) / sum(map(len, payloads)))
    fast = FastProvider(_KEY)
    in_codec = request.left.codec()
    uploads = [bytes(16) + in_codec.encode(r) for r in request.left]
    fast_cells = [fast.encrypt(u) for u in uploads]
    ledger.set("crypto.fast.encrypt_us", _per_row_us(timed_median(
        lambda: [fast.encrypt(u) for u in uploads], MICRO_CALLS), len(uploads)))
    ledger.set("crypto.fast.decrypt_us", _per_row_us(timed_median(
        lambda: [fast.decrypt(c) for c in fast_cells], MICRO_CALLS), len(uploads)))

    # -- relational: columnar vs per-tuple codec, one predicate evaluation ---------
    records = list(request.left)
    batch = BatchCodec(request.left.schema)
    encoded = batch.encode_rows(records)
    ledger.set("relational.batch_encode_us_per_row", _per_row_us(timed_median(
        lambda: batch.encode_rows(records), MICRO_CALLS), len(records)))
    ledger.set("relational.batch_decode_us_per_row", _per_row_us(timed_median(
        lambda: batch.decode_rows(encoded), MICRO_CALLS), len(records)))
    ledger.set("relational.tuple_encode_us", _per_row_us(timed_median(
        lambda: [in_codec.encode(r) for r in records], MICRO_CALLS), len(records)))
    ledger.set("relational.tuple_decode_us", _per_row_us(timed_median(
        lambda: [in_codec.decode(p) for p in encoded], MICRO_CALLS), len(records)))
    pairs = list(zip(records, request.right))
    satisfies = workload.predicate.satisfies
    ledger.set("relational.predicate_eval_us", _per_row_us(timed_median(
        lambda: [satisfies(pair) for pair in pairs], MICRO_CALLS), len(pairs)))


def probe_exec_paths(workload: Workload, ledger: Ledger) -> None:
    """The workload's probe request on the scalar and on the batched I/O path."""
    shape: Shape = workload.exec_probe
    request = make_request(
        shape, f"{workload.seed}/{workload.name}/exec-probe")
    relations = [request.left, request.right]
    join = JOINS[shape.algorithm]
    seconds = {}
    for batched in (True, False):
        def run():
            context = JoinContext.fresh(provider=OcbProvider(_KEY),
                                        batched_io=batched)
            join(context, relations, workload.predicate, shape)
        seconds[batched] = timed_median(run, MACRO_CALLS)
    ledger.set("hardware.batched_exec_s", seconds[True])
    ledger.set("hardware.scalar_exec_s", seconds[False])
    ledger.set("faults.scalar_penalty_ratio", seconds[False] / seconds[True])


def run_probes(workload: Workload, ledger: Ledger) -> None:
    probe_net_path(workload, ledger)
    probe_lower_layers(workload, ledger)
    probe_exec_paths(workload, ledger)
