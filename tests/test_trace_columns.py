"""The columnar trace against the plain list of events it replaced.

A :class:`Trace` stores a code column and an index column and hashes runs in
bulk; every sink takes a whole run in one ``record_run`` call.  None of that
may be visible: a trace (and each sink) fed any interleaving of single events
and runs must answer exactly as the ordered list of ``AccessEvent``s does,
whatever order it interned its ``(op, region)`` pairs in.  The guards at the
end pin the saving without reading a clock: the batched sort appends one run.
"""

import hashlib
import os
import struct
import tempfile
from array import array
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import KEY, fresh_context

from repro.crypto.provider import FastProvider
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.events import (
    GET,
    PUT,
    AccessEvent,
    Trace,
    event_digest_bytes,
    run_digest_bytes,
)
from repro.oblivious.networks import exact_transfers, wired_network
from repro.oblivious.sort import oblivious_sort
from repro.obs.sinks import (
    DivergenceTrace,
    JsonlTrace,
    StreamingTrace,
    TeeTrace,
    read_jsonl_events,
)
from repro.parallel import ClusterExecutor, ShardTask, TaskIO

# Region names of several encoded widths (one not ASCII), so runs mix strides.
PAIRS = st.tuples(st.sampled_from([GET, PUT]),
                  st.sampled_from(["A", "B", "out", "left_exp", "é"]))
INDICES = st.one_of(
    st.integers(0, 50),
    st.integers(-(2 ** 63), -1),
    st.integers(2 ** 32, 2 ** 63 - 1),
)


@st.composite
def runs(draw):
    """One ``(table, codes, indices)`` run: empty, patterned or arbitrary."""
    table = draw(st.lists(PAIRS, min_size=1, max_size=5))  # duplicates allowed
    code = st.integers(0, len(table) - 1)
    if draw(st.booleans()):  # a short pattern repeated, as a section declares
        pattern = draw(st.lists(code, min_size=1, max_size=9))
        codes = pattern * draw(st.integers(0, 40))
    else:
        codes = draw(st.lists(code, max_size=30))
    indices = draw(st.lists(INDICES, min_size=len(codes), max_size=len(codes)))
    return tuple(table), bytes(codes), array("q", indices)


#: A step is one single event or one run.
STEPS = st.lists(st.one_of(st.tuples(PAIRS, INDICES), runs()), max_size=12)


def feed(sink, steps, one_at_a_time=False):
    """Drive ``sink`` with ``steps``; return the plain list of their events."""
    model = []
    for step in steps:
        if len(step) == 2:
            (op, region), index = step
            sink.record(op, region, index)
            model.append(AccessEvent(op, region, index))
            continue
        table, codes, indices = step
        events = [AccessEvent(*table[c], i) for c, i in zip(codes, indices)]
        if one_at_a_time:
            for event in events:
                sink.record(*event)
        else:
            sink.record_run(table, codes, indices)
        model.extend(events)
    return sink, model


def list_fingerprint(events):
    digest = hashlib.sha256()
    for event in events:
        digest.update(event_digest_bytes(*event))
    return digest.hexdigest()


def list_divergence(a, b):
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i
    return None if len(a) == len(b) else min(len(a), len(b))


class TestTraceAgainstAList:
    @settings(max_examples=150, deadline=None)
    @given(STEPS, STEPS)
    def test_every_query_agrees_with_the_list(self, steps, other_steps):
        trace, model = feed(Trace(), steps)
        assert len(trace) == trace.transfer_count() == len(model)
        assert trace.events == model
        assert list(trace) == model
        for i in range(-len(model), len(model)):
            assert trace[i] == model[i]
        with pytest.raises(IndexError):
            trace[len(model)]
        assert trace[1:] == model[1:]
        assert trace[-3:] == model[-3:]
        assert trace[::2] == model[::2]
        assert trace[4:2] == []
        histogram = Counter((e.op, e.region) for e in model)
        assert trace.by_region() == histogram
        assert set(trace.by_region()) == set(histogram)  # no zero entries
        assert trace.regions() == {e.region for e in model}
        assert trace.count() == len(model)
        assert trace.count(op=GET) == sum(e.op == GET for e in model)
        assert trace.count(region="A") == sum(e.region == "A" for e in model)
        assert trace.count(op=PUT, region="é") == histogram[(PUT, "é")]
        assert trace.fingerprint() == list_fingerprint(model)

        other, other_model = feed(Trace(), other_steps)
        assert (trace == other) == (model == other_model)
        assert trace.first_divergence(other) == list_divergence(model, other_model)
        assert other.first_divergence(trace) == list_divergence(other_model, model)

    @settings(max_examples=100, deadline=None)
    @given(STEPS, st.lists(PAIRS, max_size=8), st.integers(0, 40), INDICES)
    def test_interning_order_is_invisible(self, steps, strangers, position, index):
        """Equal events compare equal under any coding; one changed event does not."""
        plain, model = feed(Trace(), steps, one_at_a_time=True)
        shuffled = Trace()
        shuffled.record_run(tuple(strangers), b"", array("q"))  # interns, records nothing
        feed(shuffled, steps)
        assert shuffled == plain and plain == shuffled
        assert shuffled.first_divergence(plain) is None
        assert shuffled.fingerprint() == plain.fingerprint()
        assert shuffled.by_region() == plain.by_region()
        if model:
            position %= len(model)
            changed, _ = feed(Trace(), [((e.op, e.region), index if k == position else e.index)
                                        for k, e in enumerate(model)])
            assert (changed == shuffled) == (index == model[position].index)

    def test_equal_code_columns_under_different_tables_differ(self):
        gets, puts = Trace(), Trace()
        gets.record(GET, "A", 7)
        puts.record(PUT, "A", 7)
        assert gets._codes == puts._codes and gets._indices == puts._indices
        assert gets != puts
        assert gets.first_divergence(puts) == 0
        assert gets.fingerprint() != puts.fingerprint()
        # ... also when one side holds a pair the other never interned.
        wider = Trace()
        wider.record_run(((PUT, "B"), (GET, "A")), b"\1", array("q", [7]))
        assert wider == gets and gets == wider and wider != puts and puts != wider

    def test_more_pairs_than_codes_raises_and_never_wraps(self):
        trace = Trace()
        for k in range(255):
            trace.record(GET, f"r{k}", k)
        with pytest.raises(ValueError):
            trace.record(GET, "one-too-many", 0)
        with pytest.raises(ValueError):
            trace.record_run(((PUT, "another"),), b"\0", array("q", [0]))
        assert len(trace) == 255 and trace[254] == (GET, "r254", 254)
        assert trace.by_region() == Counter({(GET, f"r{k}"): 1 for k in range(255)})
        with pytest.raises(ValueError):  # a run's own table is bounded the same way
            Trace().record_run(tuple((GET, f"r{k}") for k in range(300)),
                               bytes(range(256)), array("q", range(256)))
        streaming = StreamingTrace()  # no table, no bound
        for k in range(300):
            streaming.record(GET, f"r{k}", k)
        assert len(streaming.by_region()) == 300

    @pytest.mark.parametrize("sink", [Trace, StreamingTrace])
    def test_malformed_runs_are_rejected_whole(self, sink):
        for table, codes, indices in [
            (((GET, "A"),), b"\0\0", [1]),          # more codes than indices
            (((GET, "A"),), b"\0", [1, 2]),         # more indices than codes
            (((GET, "A"),), b"\0\1", [1, 2]),       # code outside the table
            ((), b"\0", [1]),
        ]:
            target = sink()
            with pytest.raises(ValueError):
                target.record_run(table, codes, array("q", indices))
            assert len(target) == 0 and not target.by_region()
        with pytest.raises(OverflowError):  # beyond signed 64 bits: as to_bytes(8) was
            sink().record_run(((GET, "A"),), b"\0", [2 ** 63])


class TestRunDigest:
    @settings(max_examples=150, deadline=None)
    @given(runs())
    def test_byte_for_byte_the_per_event_encoding(self, run):
        table, codes, indices = run
        expected = b"".join(event_digest_bytes(*table[c], i) for c, i in zip(codes, indices))
        assert run_digest_bytes(table, codes, indices) == expected
        assert run_digest_bytes(table, bytearray(codes), list(indices)) == expected

    def test_a_sort_sized_run(self):
        wires = wired_network(64)
        table, codes = ((GET, "scratch"), (PUT, "scratch")), b"\0\0\1\1" * (len(wires) // 4)
        trace = Trace()
        trace.record_run(table, codes, wires)
        assert trace.fingerprint() == list_fingerprint(trace.events)
        assert hashlib.sha256(run_digest_bytes(table, codes, wires)).hexdigest() \
            == trace.fingerprint()


class TestSinksFedRuns:
    @settings(max_examples=60, deadline=None)
    @given(STEPS, STEPS)
    def test_runs_and_single_events_are_indistinguishable(self, steps, reference_steps):
        _, model = feed(Trace(), steps)
        _, reference = feed(Trace(), reference_steps)
        with tempfile.TemporaryDirectory() as scratch:
            observed = []
            for one_at_a_time in (False, True):
                streaming = StreamingTrace()
                tee = TeeTrace(Trace(), StreamingTrace())
                divergence = DivergenceTrace(iter(reference))
                path = os.path.join(scratch, f"trace-{one_at_a_time}.jsonl")
                with JsonlTrace(path) as jsonl:
                    for sink in (streaming, tee, divergence, jsonl):
                        feed(sink, steps, one_at_a_time)
                with open(path, "rb") as handle:
                    written = handle.read()
                assert list(read_jsonl_events(path)) == model
                assert tee.sinks[0].events == model
                observed.append((
                    [(len(s), s.fingerprint(), s.by_region())
                     for s in (streaming, tee, tee.sinks[1], divergence, jsonl)],
                    (streaming.regions(), streaming.count(op=GET), tee.count(region="A")),
                    divergence.finish(), written,
                ))
            assert observed[0] == observed[1]
            summaries, _, located, _ = observed[0]
            assert summaries[0] == (len(model), list_fingerprint(model),
                                    Counter((e.op, e.region) for e in model))
            position = list_divergence(model, reference)
            if position is None:
                assert located is None
            else:
                assert located.position == position
                assert located.got == (model[position] if position < len(model) else None)
                assert located.expected == (
                    reference[position] if position < len(reference) else None)

    def test_jsonl_escapes_the_region_name(self, tmp_path):
        """A quote or backslash in a region name used to break the replay."""
        path = str(tmp_path / "t.jsonl")
        events = [AccessEvent(GET, 'a"b\\c', 3), AccessEvent(PUT, "plain", -1)]
        with JsonlTrace(path) as sink:
            sink.record(*events[0])
            sink.record_run(((PUT, "plain"), (GET, 'a"b\\c')), b"\0\1",
                            array("q", [-1, 3]))
        assert list(read_jsonl_events(path)) == [events[0], events[1], events[0]]
        with open(path, encoding="utf-8") as handle:
            assert handle.readline() == '["get","a\\"b\\\\c",3]\n'
            assert handle.readline() == '["put","plain",-1]\n'  # the format is unchanged


# -- regression guards: the saving, without reading a clock --------------------

class CountingTrace(Trace):
    """A materialized trace that counts how its events arrived."""

    def __init__(self):
        super().__init__()
        self.singles = 0
        self.runs = 0

    def record(self, op, region, index):
        self.singles += 1
        super().record(op, region, index)

    def record_run(self, table, codes, indices):
        self.runs += 1
        super().record_run(table, codes, indices)


def int_key(plaintext):
    return struct.unpack(">q", plaintext)[0]


def loaded_context(values, region="R"):
    context = fresh_context(trace_factory=CountingTrace)
    context.host.allocate(region, len(values))
    context.coprocessor.put_range(region, 0, [struct.pack(">q", v) for v in values])
    context.coprocessor.reset_trace()
    return context


def double_both(coprocessor, region, first):
    for index in (first, first + 1):
        value = int_key(coprocessor.get(region, index))
        coprocessor.put(region, index, struct.pack(">q", 2 * value))


class TestTheLedgerIsOneAppend:
    def test_a_batched_sort_appends_exactly_one_run(self):
        size = 1024
        context = loaded_context([(v * 7919) % size for v in range(size)])
        coprocessor = context.coprocessor
        assert type(coprocessor) is SecureCoprocessor
        before = coprocessor.decryptions + coprocessor.encryptions
        oblivious_sort(coprocessor, "R", size, int_key)
        trace = coprocessor.trace
        assert (trace.runs, trace.singles) == (1, 0)
        assert len(trace) == exact_transfers(size)
        assert trace.by_region() == {(GET, "R"): len(trace) // 2, (PUT, "R"): len(trace) // 2}
        assert coprocessor.decryptions + coprocessor.encryptions - before == len(trace)
        assert [int_key(p) for p in coprocessor.get_range("R", 0, size)] == list(range(size))

    def test_consecutive_same_size_sorts_declare_equal_traces(self):
        """The cached wire column is shared, so nothing may write to it."""
        size = 96
        pristine = array("q", wired_network(size))
        traces = []
        for salt in (5, 11):
            context = loaded_context([(v * salt) % size for v in range(size)])
            oblivious_sort(context.coprocessor, "R", size, int_key)
            traces.append(context.coprocessor.reset_trace())
        assert traces[0] == traces[1]
        assert traces[0].fingerprint() == traces[1].fingerprint()
        assert wired_network(size) is wired_network(size)  # cached ...
        assert wired_network(size) == pristine                # ... and untouched
        context = loaded_context(list(range(size, 0, -1)))
        oblivious_sort(context.coprocessor, "R", size // 2, int_key, start=size // 2)
        shifted = context.coprocessor.trace
        assert {e.index for e in shifted} == set(range(size // 2, size))
        assert wired_network(size // 2) == array("q", wired_network(size // 2))

    def test_an_executor_round_appends_one_run_per_task(self):
        provider = FastProvider(KEY)
        context = fresh_context()
        cluster = Cluster(context.host, provider, count=2, trace_factory=CountingTrace)
        context.host.allocate("R", 4)
        for index in range(4):
            cluster[0].put("R", index, struct.pack(">q", index))
        for device in cluster:
            device.reset_trace()
        with ClusterExecutor(workers=1) as executor:
            executor.run_tasks(cluster, [
                ShardTask(device=0, fn=double_both,
                          io=TaskIO(reads={"R": [(0, 2)]}), args=("R", 0)),
                ShardTask(device=1, fn=double_both,
                          io=TaskIO(reads={"R": [(2, 4)]}), args=("R", 2)),
            ])
        for worker, device in enumerate(cluster):
            assert (device.trace.runs, device.trace.singles) == (1, 0)
            first = 2 * worker
            assert device.trace.events == [
                (GET, "R", first), (PUT, "R", first),
                (GET, "R", first + 1), (PUT, "R", first + 1),
            ]
