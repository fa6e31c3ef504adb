"""Oblivious sorting of host regions through the secure coprocessor.

What the host observes of a sort is fixed by a comparator network (Batcher's
merge-exchange, :func:`~repro.oblivious.networks.sorting_column`): each
comparator brings two encrypted elements into T and writes both back,
re-encrypted under fresh nonces, possibly swapped (Section 4.4.1).  Because
the comparator positions depend only on the region size, the declared access
pattern is identical for every input of the same size — no observer learns
the relationship between input and output positions.

H sees two things of a sort: the declared wire column and the re-encrypted
final image.  How T computes the permutation inside the enclave is not
observable, so the network is the declaration and T sorts however it likes:
it gathers the slots, computes the order with one stable ``sorted``,
scatters, and declares the network's events with one ``charge_boundary`` —
which ``ReferenceCoprocessor`` walks op by op.  Each sort
key is made total, ``(key, rank)``, where a slot's rank is its place in the
slot list; with no two keys equal a comparator network has exactly one
output, the sorted order, so the network run on the total key agrees with
``sorted`` (``tests/test_sort_order.py``), and equal keys keep their input
order.  A merge (the parallel sort's block exchange) runs over two ascending
halves; each is sorted on the total key too, since ranks rise along it.

Rows whose final slots are already known need no sort.  The distribution
network (:func:`oblivious_distribute`) and the compaction network
(:func:`oblivious_compact`) route them in ``O(n log n)`` conditional swaps,
declared the same way, with the closed-form image (every row at its slot,
one identical filler plaintext everywhere else) as what T writes.  One
function, ``_run_network``, runs every network.
"""

from __future__ import annotations

from array import array
from typing import Callable

from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.events import GET, PUT
from repro.oblivious.networks import (
    compaction_column,
    distribution_column,
    merging_column,
    sorting_column,
    wired_network,
)

#: Extracts a sort key from a plaintext tuple.  Keys must be comparable.
KeyFunction = Callable[[bytes], object]

#: A row's final slot in a routing network, or ``None`` for a filler.
SlotFunction = Callable[[bytes], int | None]


def oblivious_sort_indices(
    coprocessor: SecureCoprocessor,
    region: str,
    indices: list[int],
    key: KeyFunction,
    merge: bool = False,
) -> None:
    """Obliviously sort the slots at ``indices`` (in index-list order) by
    ``(key, rank)``.

    The generalization used by the parallel sort of Section 5.3.5: a block
    compare-exchange works on the union of two coprocessors' chunks, whose
    slots need not be contiguous — with ``merge`` each half of ``indices``
    already lists its slots in key order and only the merging network is
    declared.  The comparator positions depend only on ``len(indices)``, so
    obliviousness is preserved.

    The permutation is one ``sorted`` call (Timsort turns a merge's two runs
    into one linear pass) and the declared index column is the network's
    cached wire column mapped through ``indices``.
    """
    def image(plains: list[bytes]) -> list[bytes]:
        keys = [key(plain) for plain in plains]
        return [plains[i] for i in sorted(range(len(plains)), key=keys.__getitem__)]

    _run_network(coprocessor, region, indices,
                 merging_column if merge else sorting_column, image)


def _run_network(
    coprocessor: SecureCoprocessor,
    region: str,
    indices: list[int],
    build: Callable[[int], array],
    image: Callable[[list[bytes]], list[bytes]],
) -> None:
    """Run the size-``len(indices)`` network made by ``build`` over the slots
    at ``indices`` as one section.

    The network is never walked: T scatters ``image`` of the gathered slots
    (the network's output, computed in the enclave) and declares the
    network's cached wire column with one ``charge_boundary``.  Every
    comparator reads both of its slots and writes both back under fresh
    nonces, so the host cannot tell whether they traded places.
    """
    wires = wired_network(len(indices), build)
    with coprocessor.hold(2):
        if not wires:
            return
        coprocessor.scatter_slots(
            region, indices, image(coprocessor.gather_slots(region, indices)))
        if indices != list(range(len(indices))):  # else the wire column is the answer
            wires = array("q", [indices[wire] for wire in wires])
        coprocessor.charge_boundary(
            ((GET, region), (PUT, region)), b"\0\0\1\1" * (len(wires) // 4), wires)


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


def _routed_image(slot_of: SlotFunction) -> Callable[[list[bytes]], list[bytes]]:
    """The closed-form image of a routing network: every row at its final
    slot and the filler in every other slot.

    Exact because the fillers are one identical plaintext and the network
    only ever swaps a row with a filler, so which filler ends where cannot
    show.
    """
    def image(plains: list[bytes]) -> list[bytes]:
        slots = [slot_of(plain) for plain in plains]
        filler = next((plain for plain, slot in zip(plains, slots) if slot is None), None)
        out = [filler] * len(plains)
        for plain, slot in zip(plains, slots):
            if slot is not None:
                out[slot] = plain
        return out
    return image


def oblivious_distribute(
    coprocessor: SecureCoprocessor,
    region: str,
    size: int,
    destination: SlotFunction,
) -> None:
    """Spread the rows at the front of ``region[0:size]`` to their
    destinations, obliviously (Algorithm 7's expansion).

    A row is a slot whose ``destination`` is not ``None``.  The rows must
    form a prefix, sorted by distinct destinations below ``size``, and every
    other slot must hold one identical filler plaintext.  The declaration is
    :func:`~repro.oblivious.networks.distribution_column`; T writes its
    closed-form image.
    """
    _run_network(coprocessor, region, list(range(size)), distribution_column,
                 _routed_image(destination))


def oblivious_compact(
    coprocessor: SecureCoprocessor,
    region: str,
    size: int,
    target: SlotFunction,
) -> None:
    """Pull the rows of ``region[0:size]`` forward to their targets, order
    preserved, obliviously (Algorithm 8's align).

    A row is a slot whose ``target`` is not ``None``.  Rows must be stamped
    ``0, 1, ...`` in slot order, and every other slot must hold one identical
    filler plaintext.  The declaration is
    :func:`~repro.oblivious.networks.compaction_column`; T writes its
    closed-form image.
    """
    _run_network(coprocessor, region, list(range(size)), compaction_column,
                 _routed_image(target))
