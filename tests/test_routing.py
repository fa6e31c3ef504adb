"""The two routing networks: distribution (Algorithm 7's expansion) and
compaction (Algorithm 8's align).

Each network is the declaration; T writes its closed-form image (every row
at its slot, one identical filler plaintext everywhere else), and
``ReferenceCoprocessor`` walks the declared column op by op.  For
every size up to 130 (1100 under ``--runslow``), with hypothesis drawing
which slots hold rows, these tests pin that

* the network, walked on plaintexts under the rule the networks document,
  never swaps a row onto a row and leaves every row at its slot;
* that walk's image is the fast path's host image, and the reference's host
  image and trace are the fast path's;
* the network has ``route(m) / 4`` comparators, ``route`` being the exact
  cost model's;
* the cached wire column is shared and unchanged after use, and the fast
  path builds no comparator;

and the edge sizes 0, 1, 2, 3 and ``2^k +- 1``.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.conftest import KEY

import repro.oblivious.networks as networks
from repro.costs.bitonic import exact_route_transfers
from repro.crypto.provider import FastProvider, OcbProvider, decrypt_batch, encrypt_batch
from repro.hardware.coprocessor import ReferenceCoprocessor, SecureCoprocessor
from repro.hardware.host import HostMemory
from repro.oblivious.networks import (
    compaction_column,
    compaction_network,
    distribution_column,
    distribution_network,
    wired_network,
)
from repro.oblivious.sort import oblivious_compact, oblivious_distribute

#: One identical plaintext in every slot that holds no row.
FILLER = b"f" + bytes(4)

EDGE_SIZES = sorted({0, 1, 2, 3} | {(1 << k) + d for k in range(1, 8) for d in (-1, 0, 1)})


def row(slot, ident):
    return b"r" + struct.pack(">HH", slot, ident)


def slot_of(plain):
    return None if plain[:1] == b"f" else struct.unpack(">H", plain[1:3])[0]


def distribution_layout(mask):
    """Rows first, sorted by the destinations ``mask`` marks; fillers after."""
    destinations = [slot for slot, marked in enumerate(mask) if marked]
    return ([row(d, k) for k, d in enumerate(destinations)]
            + [FILLER] * (len(mask) - len(destinations)))


def compaction_layout(mask):
    """Rows where ``mask`` marks, stamped 0, 1, ... in slot order."""
    rows = iter(range(len(mask)))
    return [row(next(rows), slot) if marked else FILLER
            for slot, marked in enumerate(mask)]


def distribution_rule(comp, low, high):
    target = slot_of(low)
    return target is not None and target >= comp.high


def compaction_rule(comp, low, high):
    target = slot_of(high)
    return target is not None and bool((comp.high - target) & (comp.high - comp.low))


NETWORKS = {
    "distribute": (distribution_network, distribution_layout, distribution_rule,
                   oblivious_distribute),
    "compact": (compaction_network, compaction_layout, compaction_rule,
                oblivious_compact),
}

COLUMNS = {"distribute": distribution_column, "compact": compaction_column}


def walked_image(name, plains):
    """The network walked on plaintexts under the documented swap rule,
    failing on the first comparator that would swap a row onto a row."""
    build, _, rule, _ = NETWORKS[name]
    wires = list(plains)
    for comp in build(len(wires)):
        low, high = wires[comp.low], wires[comp.high]
        if rule(comp, low, high):
            assert FILLER in (low, high), f"{name}: {comp} swaps two rows"
            wires[comp.low], wires[comp.high] = high, low
    return wires


def expected_image(plains):
    image = [FILLER] * len(plains)
    for plain in plains:
        if slot_of(plain) is not None:
            image[slot_of(plain)] = plain
    return image


def run_route(name, plains, device, provider_cls=FastProvider):
    """The host image and trace after routing ``plains`` through T."""
    provider = provider_cls(KEY)
    host = HostMemory()
    host.allocate_from("R", encrypt_batch(provider, plains))
    t = device(host, provider)
    NETWORKS[name][3](t, "R", len(plains), slot_of)
    return decrypt_batch(provider, host.region_bytes("R")), t.trace


def check(name, mask, reference=True):
    plains = NETWORKS[name][1](mask)
    image = walked_image(name, plains)
    assert image == expected_image(plains)
    fast, fast_trace = run_route(name, plains, SecureCoprocessor)
    assert fast == image
    assert fast_trace.transfer_count() == exact_route_transfers(len(mask))
    if reference:
        slow, slow_trace = run_route(name, plains, ReferenceCoprocessor)
        assert slow == image
        assert slow_trace.fingerprint() == fast_trace.fingerprint()


# --- (a)+(b) no collision, closed form == walk == reference -------------------

masks = st.integers(0, 130).flatmap(
    lambda m: st.lists(st.booleans(), min_size=m, max_size=m))


@pytest.mark.parametrize("name", sorted(NETWORKS))
@settings(max_examples=80, deadline=None)
@given(mask=masks)
def test_route_lands_every_row_without_collision(name, mask):
    check(name, mask)


@pytest.mark.parametrize("name", sorted(NETWORKS))
@pytest.mark.parametrize("size", EDGE_SIZES)
def test_edge_sizes(name, size):
    rng = random.Random(size)
    for mask in ([True] * size, [False] * size,
                 [rng.random() < 0.5 for _ in range(size)]):
        check(name, mask)


@pytest.mark.parametrize("name", sorted(NETWORKS))
@pytest.mark.parametrize("provider_cls", [FastProvider, OcbProvider],
                         ids=lambda cls: cls.__name__)
def test_reference_and_fast_path_agree_under_each_provider(name, provider_cls):
    plains = NETWORKS[name][1]([i % 3 != 1 for i in range(37)])
    fast = run_route(name, plains, SecureCoprocessor, provider_cls)
    slow = run_route(name, plains, ReferenceCoprocessor, provider_cls)
    assert fast[0] == slow[0] == expected_image(plains)
    assert fast[1].fingerprint() == slow[1].fingerprint()


@pytest.mark.slow
@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_route_exhaustively(name):
    """Every size 0..1100, three masks each (dense, sparse, half), against
    the walk; the op-by-op reference is covered up to 130 above."""
    rng = random.Random(0x2007)
    for size in range(1101):
        for density in (0.9, 0.1, 0.5):
            check(name, [rng.random() < density for _ in range(size)],
                  reference=False)
        # A size is never revisited; keep the caches small.
        wired_network.cache_clear()


# --- (c) comparator counts ----------------------------------------------------

@pytest.mark.parametrize("size", [*range(0, 131), 512, 1100, 2048])
def test_comparator_count_is_a_quarter_of_the_route_model(size):
    assert (len(distribution_network(size)) == len(compaction_network(size))
            == exact_route_transfers(size) // 4)
    assert exact_route_transfers(size) % 4 == 0


def test_comparator_counts_at_the_benchmark_sizes():
    assert len(distribution_network(512)) == 4_097
    assert len(compaction_network(2048)) == 20_481


# --- (d) the wire column is shared, unchanged, and never walked ---------------

@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_wire_column_is_shared_and_unchanged_after_use(name):
    column = COLUMNS[name]
    wires = wired_network(100, column)
    pristine = wires.tolist()
    assert pristine == [wire for comp in NETWORKS[name][0](100)
                        for wire in (comp.low, comp.high, comp.low, comp.high)]
    check(name, [i % 4 == 0 for i in range(100)])
    assert wired_network(100, column) is wires
    assert wires.tolist() == pristine


def no_comparator(*_):
    raise AssertionError("the fast path built a comparator")


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_fast_path_declares_the_network_without_walking_it(name, monkeypatch):
    networks.wired_network.cache_clear()
    monkeypatch.setattr(networks, "Comparator", no_comparator)
    plains = NETWORKS[name][1]([i % 5 != 0 for i in range(1024)])
    image, trace = run_route(name, plains, SecureCoprocessor)
    assert image == expected_image(plains)
    assert trace.transfer_count() == exact_route_transfers(1024)
