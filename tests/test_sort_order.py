"""Which permutation an oblivious sort applies, and that both modes agree.

The merge-exchange network is a sort's declaration; the fast path computes
the permutation with one stable ``sorted`` on the total key ``(key, rank)``.
These tests pin that the network, run on that total key, yields exactly the
fast path's permutation (full sorts and merges, duplicate-heavy keys), that
equal keys keep their input order, that the fast path builds none of the
network's comparators, and that the scalar reference and the fast path
leave the same rows in the same order on all-duplicate keys end to end.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import KEY, keyed

import repro.oblivious.networks as networks
from repro.core.algorithm1 import algorithm1
from repro.core.algorithm1v import algorithm1_variant
from repro.core.algorithm3 import algorithm3
from repro.core.algorithm4 import algorithm4
from repro.core.algorithm6 import algorithm6
from repro.core.algorithm7 import algorithm7
from repro.core.algorithm8 import algorithm8
from repro.core.base import JoinContext, decoy_priority, make_decoy, make_real
from repro.crypto.provider import FastProvider, OcbProvider, decrypt_batch, encrypt_batch
from repro.hardware.cluster import Cluster
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.counters import TransferStats
from repro.hardware.host import HostMemory
from repro.oblivious.filterbuf import oblivious_filter
from repro.oblivious.networks import (
    exact_transfers,
    merging_network,
    sorting_network,
    wired_network,
)
from repro.oblivious.parallel_sort import parallel_oblivious_sort
from repro.oblivious.sort import oblivious_sort, oblivious_sort_indices
from repro.parallel import ClusterExecutor
from repro.relational.predicates import BinaryAsMulti, Equality

# --- (a) the network on (key, rank) is the fast path's permutation ----------

#: Duplicate-heavy key families: every draw comes from a handful of values.
KEYS = {
    "int": st.integers(0, 3),
    "bytes": st.sampled_from([b"", b"a", b"ab", b"b"]),
    "tuple": st.tuples(st.integers(0, 2), st.sampled_from([b"", b"x"])),
}


def merge_layout(n):
    """The slot list a block merge runs over: two ascending chunks, the first
    on the even slots and the second on the odd ones, so neither is
    contiguous (the parallel sort's chunks need not be adjacent)."""
    half = n // 2
    return [*range(0, 2 * half, 2), *range(1, 2 * half, 2)]


def network_image(slot_keys, indices, merge):
    """Slot -> source slot after the comparator network runs on the total
    key.  A wire's rank is its place in the slot list."""
    n = len(indices)
    wires = [(slot_keys[slot], w, slot) for w, slot in enumerate(indices)]
    for comp in (merging_network if merge else sorting_network)(n):
        low, high = wires[comp.low], wires[comp.high]
        if low[:2] > high[:2]:
            wires[comp.low], wires[comp.high] = high, low
    image = list(range(len(slot_keys)))
    for slot, (_, _, source) in zip(indices, wires):
        image[slot] = source
    return image


def fast_path_image(slot_keys, indices, merge):
    """Slot -> source slot after ``oblivious_sort_indices`` on the fast path."""
    provider = FastProvider(KEY)
    host = HostMemory()
    t = SecureCoprocessor(host, provider)
    host.allocate_from("R", encrypt_batch(
        provider, [struct.pack(">H", slot) for slot in range(len(slot_keys))]))
    oblivious_sort_indices(
        t, "R", indices, lambda plain: slot_keys[struct.unpack(">H", plain)[0]],
        merge=merge)
    return [struct.unpack(">H", plain)[0]
            for plain in decrypt_batch(provider, host.region_bytes("R"))]


def check_full_sort(slot_keys):
    indices = list(range(len(slot_keys)))
    image = fast_path_image(slot_keys, indices, merge=False)
    assert image == network_image(slot_keys, indices, merge=False)
    assert image == sorted(indices, key=slot_keys.__getitem__)


def check_merge(slot_keys):
    half = len(slot_keys) // 2
    indices = merge_layout(len(slot_keys))
    chunks = sorted(slot_keys[:half]) + sorted(slot_keys[half:])
    for slot, key in zip(indices, chunks):
        slot_keys[slot] = key
    image = fast_path_image(slot_keys, indices, merge=True)
    assert image == network_image(slot_keys, indices, merge=True)
    assert [slot_keys[image[slot]] for slot in indices] == sorted(slot_keys)


@pytest.mark.parametrize("family", sorted(KEYS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_network_on_the_total_key_is_the_fast_paths_permutation(family, data):
    check_full_sort(data.draw(st.lists(KEYS[family], max_size=130)))


@pytest.mark.parametrize("family", sorted(KEYS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_merge_network_on_the_total_key_is_the_fast_paths_permutation(family, data):
    half = data.draw(st.integers(0, 65))
    check_merge(data.draw(st.lists(KEYS[family], min_size=2 * half, max_size=2 * half)))


@pytest.mark.slow
@pytest.mark.parametrize("family", sorted(KEYS))
def test_network_on_the_total_key_exhaustively(family):
    """Every n in 0..1100 (every even n for merges), three duplicate-heavy
    inputs each."""
    rng = random.Random(0x5047)
    draw = {
        "int": lambda: rng.randrange(4),
        "bytes": lambda: rng.choice([b"", b"a", b"ab", b"b"]),
        "tuple": lambda: (rng.randrange(3), rng.choice([b"", b"x"])),
    }[family]
    for n in range(1101):
        for _ in range(3):
            check_full_sort([draw() for _ in range(n)])
            if n % 2 == 0:
                check_merge([draw() for _ in range(n)])
        # A size is never revisited; 256 cached networks of ~1000 wires would
        # hold about a gigabyte.
        wired_network.cache_clear()


# --- (b) equal keys keep their input order -----------------------------------

def equal_keyed_host(provider, n):
    host = HostMemory()
    plains = [b"k" + struct.pack(">q", i) for i in range(n)]
    host.allocate_from("R", encrypt_batch(provider, plains))
    return host, plains


def same_key(plain):
    return plain[:1]


#: The two device types, as the differentials below name them.
DEVICES = pytest.mark.parametrize("device", [ReferenceCoprocessor, SecureCoprocessor],
                                  ids=["reference", "fast"])


@DEVICES
@pytest.mark.parametrize("provider_cls", [FastProvider, OcbProvider],
                         ids=lambda cls: cls.__name__)
def test_a_sort_over_equal_keys_moves_nothing(provider_cls, device):
    provider = provider_cls(KEY)
    host, plains = equal_keyed_host(provider, 37)
    t = device(host, provider)
    oblivious_sort(t, "R", 37, key=same_key)
    assert decrypt_batch(provider, host.region_bytes("R")) == plains
    assert t.trace.transfer_count() == exact_transfers(37)


@DEVICES
@pytest.mark.parametrize("provider_cls", [FastProvider, OcbProvider],
                         ids=lambda cls: cls.__name__)
def test_a_two_chunk_parallel_sort_over_equal_keys_moves_nothing(
        provider_cls, device):
    provider = provider_cls(KEY)
    host, plains = equal_keyed_host(provider, 24)
    cluster = Cluster(host, provider, count=2, device=device)
    parallel_oblivious_sort(cluster, "R", 24, key=same_key)
    assert decrypt_batch(provider, host.region_bytes("R")) == plains


# --- (c) the fast path builds no comparator ----------------------------------

def no_comparator(*_):
    raise AssertionError("the fast path built a comparator")


def test_fast_path_declares_the_network_without_walking_it(monkeypatch):
    """The sort declares the cached wire column; it builds no comparator."""
    networks.wired_network.cache_clear()
    monkeypatch.setattr(networks, "Comparator", no_comparator)
    provider = FastProvider(KEY)
    host = HostMemory()
    rng = random.Random(2048)
    values = [rng.randrange(64) for _ in range(2048)]
    host.allocate_from("R", encrypt_batch(provider, [struct.pack(">q", v) for v in values]))
    t = SecureCoprocessor(host, provider)
    calls = []

    def key(plain):
        calls.append(plain)
        return plain

    oblivious_sort(t, "R", 2048, key=key)
    assert len(calls) == 2048
    assert [struct.unpack(">q", p)[0]
            for p in decrypt_batch(provider, host.region_bytes("R"))] == sorted(values)
    assert t.trace.transfer_count() == exact_transfers(2048)


# --- (d) reference and fast path agree on all-duplicate keys, end to end -----

PRED = BinaryAsMulti(Equality("key"))
LEFT = keyed("L", [(7, i) for i in range(12)])
RIGHT = keyed("R", [(7, 100 + i) for i in range(12)])

#: name -> runner(context); every join over 12 x 12 rows sharing one key.
ALGORITHMS = {
    "algorithm1": lambda c: algorithm1(c, LEFT, RIGHT, Equality("key"), 12),
    "algorithm1v": lambda c: algorithm1_variant(c, LEFT, RIGHT, Equality("key"), 12),
    "algorithm3": lambda c: algorithm3(c, LEFT, RIGHT, "key", 12),
    "algorithm4": lambda c: algorithm4(c, [LEFT, RIGHT], PRED),
    "algorithm6": lambda c: algorithm6(c, [LEFT, RIGHT], PRED, memory=12),
    "algorithm7": lambda c: algorithm7(c, [LEFT, RIGHT], PRED),
    "algorithm8": lambda c: algorithm8(c, [LEFT, RIGHT], PRED, mode="semi"),
}


@pytest.mark.parametrize("name", ["algorithm1", "algorithm4", "algorithm7",
                                  "algorithm8"])
def test_no_join_builds_a_comparator(name, monkeypatch):
    """Sorts, routes and cost models read wire columns and pass counts."""
    networks.wired_network.cache_clear()
    networks.network_stages.cache_clear()
    monkeypatch.setattr(networks, "Comparator", no_comparator)
    context = JoinContext.fresh(provider=FastProvider(KEY), seed=0)
    assert len(ALGORITHMS[name](context).result) == (12 if name == "algorithm8" else 144)


def test_no_parallel_sort_builds_a_comparator(monkeypatch):
    networks.wired_network.cache_clear()
    networks.network_stages.cache_clear()
    monkeypatch.setattr(networks, "Comparator", no_comparator)
    provider = FastProvider(KEY)
    host = HostMemory()
    host.allocate_from("R", encrypt_batch(provider, [bytes([i % 5]) for i in range(24)]))
    parallel_oblivious_sort(Cluster(host, provider, count=4), "R", 24, key=same_key)


def image(host, provider):
    """Every region's plaintexts — the host image a recipient could decrypt."""
    return {name: decrypt_batch(provider, [c for c in host.region_bytes(name)
                                           if c is not None])
            for name in host.region_names()}


def counters(t):
    return (t.encryptions, t.decryptions, t.physical_decryptions, t.cache_hits,
            t.ops_completed)


@pytest.mark.parametrize("provider_cls", [FastProvider, OcbProvider],
                         ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("name", sorted(ALGORITHMS))
def test_join_on_all_duplicate_keys_is_the_same_in_both_modes(name, provider_cls):
    runs = []
    for batched_io in (False, True):
        context = JoinContext.fresh(provider=provider_cls(KEY), seed=0,
                                    batched_io=batched_io)
        out = ALGORITHMS[name](context)
        runs.append((list(out.result), image(context.host, context.provider),
                     out.trace.fingerprint(), out.stats, counters(context.coprocessor)))
    reference, fast = runs
    assert len(reference[0]) == (12 if name == "algorithm8" else 144)
    assert reference == fast


def duplicate_heavy(n, pattern):
    return [b"\0" if pattern == "all-equal" else bytes([i % 3 == 0]) for i in range(n)]


@pytest.mark.parametrize("pattern", ["all-equal", "two-valued"])
@pytest.mark.parametrize("processors", [2, 4])
def test_parallel_sort_on_duplicate_keys_is_the_same_in_both_modes(
        processors, pattern):
    runs = []
    for device in (ReferenceCoprocessor, SecureCoprocessor):
        provider = FastProvider(KEY)
        host = HostMemory()
        host.allocate_from("R", encrypt_batch(provider, [
            key + struct.pack(">q", i)
            for i, key in enumerate(duplicate_heavy(24, pattern))]))
        cluster = Cluster(host, provider, count=processors, device=device)
        report = parallel_oblivious_sort(cluster, "R", 24, key=same_key)
        runs.append((image(host, provider), report,
                     [t.trace.fingerprint() for t in cluster],
                     [TransferStats.from_trace(t.trace) for t in cluster],
                     [counters(t) for t in cluster]))
    assert runs[0] == runs[1]


def test_pooled_reference_sort_runs_the_reference_in_the_workers():
    """The device type crosses the process boundary: every task, run inline
    (one worker) or on the pool, builds a ``ReferenceCoprocessor``, so the
    two runs agree and no device ever counts a batch."""
    runs = []
    for workers in (1, 2):
        provider = FastProvider(KEY)
        host = HostMemory()
        host.allocate_from("R", encrypt_batch(provider, [
            key + struct.pack(">q", i)
            for i, key in enumerate(duplicate_heavy(24, "two-valued"))]))
        cluster = Cluster(host, provider, count=2, device=ReferenceCoprocessor)
        with ClusterExecutor(workers=workers) as executor:
            parallel_oblivious_sort(cluster, "R", 24, key=same_key, executor=executor)
        assert (executor.tasks_pooled > 0) == (workers > 1)
        assert all(t.batched_ops == t.batch_rows == 0 for t in cluster)
        runs.append((image(host, provider),
                     [t.trace.fingerprint() for t in cluster],
                     [counters(t) for t in cluster]))
    assert runs[0] == runs[1]


def test_filter_on_duplicate_keys_is_the_same_in_both_modes():
    flags = [i % 5 == 0 for i in range(40)]
    runs = []
    for device in (ReferenceCoprocessor, SecureCoprocessor):
        provider = FastProvider(KEY)
        host = HostMemory()
        host.allocate_from("src", encrypt_batch(provider, [
            make_real(struct.pack(">q", i)) if real else make_decoy(8)
            for i, real in enumerate(flags)]))
        t = device(host, provider)
        oblivious_filter(t, "src", len(flags), keep=sum(flags), delta=3,
                         priority=decoy_priority)
        runs.append((image(host, provider), t.trace.fingerprint(),
                     TransferStats.from_trace(t.trace), counters(t)))
    assert runs[0] == runs[1]
