"""Tests for the oblivious primitives: networks, sort, shuffle, decoy filter."""

import random
import struct
from array import array
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import decoy_priority, is_real, make_decoy, make_real
from repro.costs.chapter5 import exact_filter_transfers
from repro.crypto.provider import FastProvider, decrypt_batch, encrypt_batch
from repro.errors import ConfigurationError
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.faulty import FaultyHost
from repro.hardware.host import HostMemory
from repro.oblivious.filterbuf import emit_kept, oblivious_filter
from repro.oblivious.networks import (
    compaction_column,
    comparator_count,
    distribution_column,
    exact_transfers,
    is_merging_network,
    is_sorting_network,
    merge_comparator_count,
    merging_column,
    merging_network,
    paper_transfers,
    sorting_column,
    sorting_network,
)
from repro.oblivious.shuffle import oblivious_shuffle
from repro.oblivious.sort import oblivious_sort

KEY = b"oblivious-test-key-0123456789ab"


def rig(limit=8):
    host = HostMemory()
    t = SecureCoprocessor(host, FastProvider(KEY), memory_limit=limit)
    return host, t


class TestNetworks:
    @pytest.mark.parametrize("n", list(range(0, 21)))
    def test_zero_one_principle_exhaustive(self, n):
        assert is_sorting_network(n)

    @pytest.mark.parametrize("n", [17, 23, 31, 32, 45, 100])
    def test_zero_one_principle_sampled(self, n):
        assert is_sorting_network(n, trials=300)

    @pytest.mark.parametrize("n", list(range(0, 41, 2)))
    def test_merging_network_merges_every_sorted_halves_input(self, n):
        assert is_merging_network(n)

    @pytest.mark.slow
    def test_zero_one_principle_exhaustive_large(self):
        assert all(is_sorting_network(n) for n in range(21, 25))
        assert all(is_merging_network(n) for n in range(42, 129, 2))

    @pytest.mark.parametrize("n", [2, 5, 8, 13, 20])
    def test_check_rejects_a_network_missing_an_end_comparator(self, n):
        network = sorting_network(n)
        assert not is_sorting_network(n, network=network[1:])
        assert not is_sorting_network(n, network=network[:-1])
        merge = merging_network(2 * n)
        assert not is_merging_network(2 * n, network=merge[1:])
        assert not is_merging_network(2 * n, network=merge[:-1])

    def test_odd_merging_network_rejected(self):
        with pytest.raises(ConfigurationError):
            merging_network(5)

    def test_comparators_are_in_bounds_and_ordered(self):
        for n in (37, 64):
            for size, network in ((n, sorting_network(n)),
                                  (2 * n, merging_network(2 * n))):
                assert all(0 <= comp.low < comp.high < size for comp in network)

    def test_power_of_two_comparator_count_is_classical(self):
        # Merge-exchange on 2^k inputs has (k^2 - k + 4) 2^(k-2) - 1
        # comparators; merging two halves of 2^(k-1), (k - 1) 2^(k-1) + 1.
        for k in range(1, 9):
            n = 1 << k
            assert comparator_count(n) == (k * k - k + 4) * n // 4 - 1
            assert merge_comparator_count(n) == (k - 1) * n // 2 + 1

    def test_counts_at_the_benchmark_sizes(self):
        assert [comparator_count(n) for n in (48, 512, 1024, 2048)] == [
            367, 9727, 24063, 58367]

    def test_merging_network_has_the_classical_size(self):
        for k in range(1, 11):
            assert len(merging_network(1 << k)) == (k - 1) * (1 << (k - 1)) + 1

    def test_exact_transfers_is_four_per_comparator(self):
        assert exact_transfers(16) == 4 * comparator_count(16)

    def test_paper_transfers_formula(self):
        assert paper_transfers(16) == pytest.approx(16 * 4**2)
        assert paper_transfers(1) == 0.0


# --- the wire columns against the per-comparator build they replaced ---------

def _round(n, p):
    """Round ``p`` of Algorithm M over ``n`` wires, one comparator at a time
    (the per-comparator build, kept here as the columns' oracle)."""
    q, r, d = 1 << ((n - 1).bit_length() - 1), 0, p
    while True:
        for i in range(n - d):
            if i & p == r:
                yield i, i + d
        if q == p:
            return
        q, r, d = q >> 1, p, q - p


def oracle_sort(n):
    rounds = (n - 1).bit_length() if n > 1 else 0
    return [comp for j in range(rounds - 1, -1, -1) for comp in _round(n, 1 << j)]


def oracle_merge(n):
    half = n // 2
    wire = [i // 2 + half * (i % 2) for i in range(n)]
    out = []
    for low, high in _round(n, 1):
        a, b = wire[low], wire[high]
        if a > b:
            wire[low], wire[high] = a, b = b, a
        out.append((a, b))
    return out


def oracle_steps(m):
    return [1 << j for j in range(64) if 1 << j < m]


def oracle_distribute(m):
    return [(i, i + step) for step in reversed(oracle_steps(m))
            for i in range(m - step - 1, -1, -1)]


def oracle_compact(n):
    return [(i, i + step) for step in oracle_steps(n) for i in range(n - step)]


def oracle_column(comparators):
    return array("q", chain.from_iterable((a, b, a, b) for a, b in comparators))


COLUMN_SIZES = [*range(0, 65), 100, 1000, 1024, 2048]


class TestWireColumns:
    @pytest.mark.parametrize("build,oracle", [
        (sorting_column, oracle_sort),
        (distribution_column, oracle_distribute),
        (compaction_column, oracle_compact),
    ], ids=["sort", "distribute", "compact"])
    def test_column_is_the_per_comparator_build(self, build, oracle):
        for n in COLUMN_SIZES:
            assert build(n).tobytes() == oracle_column(oracle(n)).tobytes(), n

    def test_merging_column_is_the_per_comparator_build(self):
        for n in COLUMN_SIZES:
            if n % 2 == 0:
                merge = oracle_merge(n)
                assert merging_column(n).tobytes() == oracle_column(merge).tobytes(), n
                assert merge_comparator_count(n) == len(merge)

    def test_count_by_passes_is_the_column_length(self):
        rng = random.Random(4096)
        sizes = [*range(0, 300), *rng.sample(range(300, 4097), 24),
                 *((1 << k) + d for k in range(9, 13) for d in (-1, 0, 1))]
        for n in sizes:
            assert comparator_count(n) == len(sorting_column(n)) // 4, n
        assert comparator_count(1024) == 24_063

    @pytest.mark.slow
    def test_count_by_passes_is_the_column_length_to_4096(self):
        for n in range(4097):
            assert comparator_count(n) == len(sorting_column(n)) // 4, n

    def test_negative_and_odd_sizes_are_refused(self):
        for build in (sorting_column, merging_column, distribution_column,
                      compaction_column, comparator_count, merge_comparator_count):
            with pytest.raises(ConfigurationError):
                build(-2)
        for build in (merging_column, merge_comparator_count):
            with pytest.raises(ConfigurationError):
                build(7)



class TestObliviousSort:
    def _load(self, host, t, values):
        host.allocate("R", len(values))
        for i, v in enumerate(values):
            t.put("R", i, struct.pack(">q", v))
        t.reset_trace()

    def _read(self, host, t, n):
        return [struct.unpack(">q", t.get("R", i))[0] for i in range(n)]

    def test_sorts_encrypted_values(self):
        host, t = rig()
        values = [5, 3, 9, 1, 7, 7, 0]
        self._load(host, t, values)
        oblivious_sort(t, "R", len(values), key=lambda p: p)
        assert self._read(host, t, len(values)) == sorted(values)

    def test_transfer_count_matches_exact_model(self):
        host, t = rig()
        values = list(range(10, 0, -1))
        self._load(host, t, values)
        oblivious_sort(t, "R", len(values), key=lambda p: p)
        assert t.trace.transfer_count() == exact_transfers(len(values))

    def test_trace_is_data_independent(self):
        traces = []
        for values in ([4, 2, 9, 1, 5, 5], [0, 0, 0, 0, 0, 0]):
            host, t = rig()
            self._load(host, t, values)
            oblivious_sort(t, "R", len(values), key=lambda p: p)
            traces.append(t.trace)
        assert traces[0] == traces[1]

    def test_uses_exactly_two_enclave_slots(self):
        host, t = rig(limit=2)  # a sort fits even in a 2-slot enclave
        self._load(host, t, [3, 1, 2])
        oblivious_sort(t, "R", 3, key=lambda p: p)
        assert t.peak_in_use == 2
        assert t.slots_in_use == 0

    def test_partial_region_sort_with_start(self):
        host, t = rig()
        values = [9, 8, 3, 1, 2, 0]
        self._load(host, t, values)
        oblivious_sort(t, "R", 3, key=lambda p: p, start=2)
        assert self._read(host, t, 6) == [9, 8, 1, 2, 3, 0]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-100, max_value=100), min_size=1, max_size=24))
    def test_sort_property(self, values):
        """Signed values need a decoding key (raw big-endian misorders them)."""
        host, t = rig()
        self._load(host, t, values)
        oblivious_sort(t, "R", len(values), key=lambda p: struct.unpack(">q", p)[0])
        assert self._read(host, t, len(values)) == sorted(values)


class TestObliviousShuffle:
    def test_preserves_multiset(self):
        host, t = rig()
        host.allocate("R", 12)
        values = [struct.pack(">q", i) for i in range(12)]
        for i, v in enumerate(values):
            t.put("R", i, v)
        oblivious_shuffle(t, "R", 12, random.Random(3))
        out = [t.get("R", i) for i in range(12)]
        assert sorted(out) == sorted(values)

    def test_actually_permutes(self):
        host, t = rig()
        host.allocate("R", 16)
        for i in range(16):
            t.put("R", i, struct.pack(">q", i))
        oblivious_shuffle(t, "R", 16, random.Random(1))
        out = [struct.unpack(">q", t.get("R", i))[0] for i in range(16)]
        assert out != list(range(16))

    def test_trace_is_data_independent(self):
        traces = []
        for base in (0, 1000):
            host, t = rig()
            host.allocate("R", 8)
            for i in range(8):
                t.put("R", i, struct.pack(">q", base + i))
            t.reset_trace()
            oblivious_shuffle(t, "R", 8, random.Random(7))
            traces.append(t.trace)
        assert traces[0] == traces[1]


class TestObliviousFilter:
    def _load_otuples(self, host, t, flags, payload_size=8):
        host.allocate("src", len(flags))
        reals = 0
        for i, flag in enumerate(flags):
            if flag:
                t.put("src", i, make_real(struct.pack(">q", i)))
                reals += 1
            else:
                t.put("src", i, make_decoy(payload_size))
        t.reset_trace()
        return reals

    @pytest.mark.parametrize(
        "flags,delta",
        [
            ([1, 0, 0, 1, 0, 0, 0, 1, 0, 0], 2),
            ([0] * 10, 3),
            ([1] * 6, 2),
            ([0, 0, 0, 0, 1], 1),
            ([1, 0] * 8, 5),
        ],
    )
    def test_filter_keeps_all_reals(self, flags, delta):
        host, t = rig()
        reals = self._load_otuples(host, t, flags)
        region = oblivious_filter(t, "src", len(flags), keep=reals, delta=delta,
                                  priority=decoy_priority)
        kept = [t.get(region, i) for i in range(reals)]
        assert all(is_real(p) for p in kept)
        expected = {struct.pack(">q", i) for i, f in enumerate(flags) if f}
        assert {p[1:] for p in kept} == expected

    def test_filter_transfers_match_exact_model(self):
        flags = [1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0]
        for delta in (1, 2, 3, 5, 9):
            host, t = rig()
            reals = self._load_otuples(host, t, flags)
            oblivious_filter(t, "src", len(flags), keep=reals, delta=delta,
                             priority=decoy_priority)
            assert t.trace.transfer_count() == exact_filter_transfers(
                len(flags), reals, delta
            )

    def test_filter_trace_is_position_independent(self):
        traces = []
        for flags in ([1, 1, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1, 1, 1]):
            host, t = rig()
            reals = self._load_otuples(host, t, flags)
            oblivious_filter(t, "src", len(flags), keep=reals, delta=2,
                             priority=decoy_priority)
            traces.append(t.trace)
        assert traces[0] == traces[1]

    def test_keep_equals_source_is_a_copy(self):
        host, t = rig()
        reals = self._load_otuples(host, t, [1, 1, 1])
        region = oblivious_filter(t, "src", 3, keep=3, delta=1, priority=decoy_priority)
        assert t.trace.transfer_count() == 0  # pure host-side copy
        assert all(is_real(t.get(region, i)) for i in range(reals))

    def test_emit_kept_strips_flag(self):
        host, t = rig()
        reals = self._load_otuples(host, t, [1, 0, 1, 0])
        region = oblivious_filter(t, "src", 4, keep=reals, delta=1,
                                  priority=decoy_priority)
        host.allocate("out", 0)
        emitted = emit_kept(t, region, reals, "out", is_real=is_real, strip=1)
        assert emitted == reals
        payloads = {t.get("out", i) for i in range(reals)}
        assert payloads == {struct.pack(">q", 0), struct.pack(">q", 2)}

    @pytest.mark.parametrize("flags", [[1, 0, 1, 1, 0, 0, 1], [1, 1, 0], [0, 0], []])
    def test_emit_section_is_the_per_row_loop(self, flags):
        """The fast path's emit (one gather, one staged append, one declared
        run) records, admits to the fault clock and leaves behind what the
        per-row get/put_append loop does, over a buffer that need not be
        reals-first and an output that already holds a row."""

        class ClockLog:
            def __init__(self):
                self.ops = []

            def consult(self, op_number, op, region):
                self.ops.append((op, region))
                return []

        runs = []
        for device in (ReferenceCoprocessor, SecureCoprocessor):
            clock = ClockLog()
            host = FaultyHost(HostMemory(), clock)
            provider = FastProvider(KEY)
            t = device(host, provider)
            host.allocate_from("buf", encrypt_batch(provider, [
                make_real(struct.pack(">q", i)) if flag else make_decoy(8)
                for i, flag in enumerate(flags)]))
            host.allocate_from("out", encrypt_batch(provider, [b"earlier row"]))
            emitted = emit_kept(t, "buf", len(flags), "out", is_real=is_real, strip=1)
            runs.append((emitted, list(t.trace), clock.ops,
                         decrypt_batch(provider, host.region_bytes("out")),
                         (t.encryptions, t.decryptions, t.physical_decryptions,
                          t.cache_hits, t.ops_completed)))
            if device is SecureCoprocessor:
                assert t.batched_ops == (flags != []) + (sum(flags) > 0)
        assert runs[0] == runs[1]
        assert runs[1][0] == sum(flags)

    def test_invalid_keep_rejected(self):
        from repro.errors import ConfigurationError

        host, t = rig()
        self._load_otuples(host, t, [1, 0])
        with pytest.raises(ConfigurationError):
            oblivious_filter(t, "src", 2, keep=3, delta=1, priority=decoy_priority)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.booleans(), min_size=1, max_size=20),
        st.integers(min_value=1, max_value=8),
    )
    def test_filter_property(self, flags, delta):
        host, t = rig()
        reals = self._load_otuples(host, t, flags)
        region = oblivious_filter(t, "src", len(flags), keep=reals, delta=delta,
                                  priority=decoy_priority)
        kept = [t.get(region, i) for i in range(reals)]
        expected = {struct.pack(">q", i) for i, f in enumerate(flags) if f}
        assert {p[1:] for p in kept} == expected
