"""Oblivious sorting of host regions through the secure coprocessor.

What the host observes of a sort is fixed by a bitonic comparator network:
each comparator brings two encrypted elements into T and writes both back,
re-encrypted under fresh nonces, possibly swapped (Section 4.4.1).  Because
the comparator positions depend only on the region size, the declared access
pattern is identical for every input of the same size — no observer learns
the relationship between input and output positions.

H sees two things of a sort: the declared wire column and the re-encrypted
final image.  How T computes the permutation inside the enclave is not
observable, so the network is the declaration and T sorts however it likes.
So that every way of sorting agrees, each sort key is made total:
``(key, rank)``, where a slot's rank is its position in tie-break order.
With no two keys equal a comparator network has exactly one output, the
sorted order, and both physical modes produce it:

* the fast path (``batched_io``) gathers the slots, computes the order with
  one stable ``sorted`` over the tie-break order, scatters, and declares the
  network's events with one ``charge_boundary``;
* the reference (``batched_io=False``) walks the network comparator by
  comparator, comparing ``(key, rank)`` and swapping ranks alongside the
  plaintexts.

The tie-break order of a full sort is the slot list itself, so equal keys
keep their input order.  A merge (the parallel sort's block exchange) runs
over two sorted halves, the first laid out descending, so its tie-break order
is the slot list with the first half reversed: the halves read ascending.
"""

from __future__ import annotations

from array import array
from typing import Callable, Sequence

from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.events import GET, PUT
from repro.oblivious.networks import (
    bitonic_merge_network,
    bitonic_network,
    wired_network,
)

#: Extracts a sort key from a plaintext tuple.  Keys must be comparable.
KeyFunction = Callable[[bytes], object]


def _tiebreak_order(n: int, merge: bool) -> Sequence[int]:
    """The ``n`` wire positions in tie-break order: a wire's rank is its place.

    A full sort breaks ties by position; a merge by position with the first
    half (``n // 2`` wires, laid out descending) reversed.
    """
    if not merge:
        return range(n)
    half = n // 2
    return [*range(half - 1, -1, -1), *range(half, n)]


def oblivious_sort_indices(
    coprocessor: SecureCoprocessor,
    region: str,
    indices: list[int],
    key: KeyFunction,
    merge: bool = False,
) -> None:
    """Obliviously sort the slots at ``indices`` (in index-list order) by
    ``(key, rank)``.

    The generalization used by the parallel bitonic sort of Section 5.3.5:
    a block compare-exchange works on the union of two coprocessors' chunks,
    whose slots need not be contiguous — with ``merge`` it declares only the
    merge network, which sorts a sequence that is already bitonic.  The
    comparator positions depend only on ``len(indices)``, so obliviousness is
    preserved.

    On the fast path the permutation is one ``sorted`` call (Timsort turns a
    merge's two runs into one linear pass) and the declared index column is
    the network's cached wire column mapped through ``indices``; the scalar
    reference executes every comparator on the total key.  Both leave the
    same plaintext in every slot.
    """
    order = _tiebreak_order(len(indices), merge)
    if coprocessor.batched_io:
        network, wires = wired_network(len(indices), merge)
        with coprocessor.hold(2):
            if not network:
                return
            plains = coprocessor.gather_slots(region, indices)
            keys = [key(plain) for plain in plains]
            coprocessor.scatter_slots(
                region, indices, [plains[i] for i in sorted(order, key=keys.__getitem__)])
            if indices != list(range(len(indices))):  # else the wire column is the answer
                wires = array("q", [indices[wire] for wire in wires])
            coprocessor.charge_boundary(
                ((GET, region), (PUT, region)), b"\0\0\1\1" * len(network), wires)
        return
    network = (bitonic_merge_network if merge else bitonic_network)(len(indices))
    rank = [0] * len(indices)
    for position, wire in enumerate(order):
        rank[wire] = position
    get_many = coprocessor.get_many
    put_many = coprocessor.put_many
    with coprocessor.hold(2):
        for comp in network:
            low, high = comp.low, comp.high
            low_index = indices[low]
            high_index = indices[high]
            # One boundary call per comparator pair in each direction; the
            # write-back slot cache serves the re-reads of just-rewritten
            # slots without a physical decrypt.
            low_plain, high_plain = get_many(
                ((region, low_index), (region, high_index))
            )
            out_of_order = (
                (key(low_plain), rank[low]) > (key(high_plain), rank[high])
            ) == comp.ascending
            if out_of_order:
                low_plain, high_plain = high_plain, low_plain
                rank[low], rank[high] = rank[high], rank[low]
            put_many(
                ((region, low_index, low_plain), (region, high_index, high_plain))
            )


def oblivious_sort(
    coprocessor: SecureCoprocessor,
    region: str,
    size: int,
    key: KeyFunction,
    start: int = 0,
) -> None:
    """Sort ``region[start : start+size]`` ascending by ``key``, obliviously.

    Equal keys keep their input order.  Uses exactly two enclave tuple slots
    regardless of ``size`` — the property that lets even a minimal
    coprocessor sort arbitrarily large host arrays (Section 5.3.1 notes
    Algorithm 4 needs "a memory size of two ... during the oblivious
    shuffling phase").  Both compared positions are always rewritten under
    fresh nonces, so the host cannot tell whether a swap happened.
    """
    oblivious_sort_indices(
        coprocessor, region, list(range(start, start + size)), key
    )
