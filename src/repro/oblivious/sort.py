"""Oblivious sorting of host regions through the secure coprocessor.

The executor walks a bitonic comparator network: each comparator brings the
two encrypted elements into T, decrypts and compares them, and writes both
back (re-encrypted under fresh nonces) to their original positions, possibly
swapped (Section 4.4.1).  Because the comparator positions depend only on the
region size, the recorded access pattern is identical for every input of the
same size — no observer learns the relationship between input and output
positions.
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


def run_network_vectorized(
    coprocessor: SecureCoprocessor,
    region: str,
    indices: Sequence[int],
    key: KeyFunction,
    ascending: bool = True,
    merge: bool = False,
) -> None:
    """Execute the sort (or merge) network as one gather / in-memory pass / scatter.

    The physical execution differs from the scalar walk — one batched
    decrypt pass over the gathered slots, compare-exchanges on resident
    plaintexts with each slot's key evaluated exactly once, one batched
    encrypt pass on scatter — but every observable is identical: the logical
    trace is the scalar network's event sequence (settled afterwards via
    ``charge_boundary``, valid because within-wire comparator order is
    preserved and wire-disjoint comparators commute), modeled counters match
    the scalar path op for op, and the final host plaintexts are the same.
    The declared index column is the network's cached wire column mapped
    through ``indices``.

    Callers must check ``coprocessor.batched_io`` first.
    """
    network, wires = wired_network(len(indices), merge)
    if not network:
        with coprocessor.hold(2):
            return
    with coprocessor.hold(2):
        plains = coprocessor.gather_slots(region, indices)
        keys = [key(plain) for plain in plains]
        for comp in network:
            low, high = comp.low, comp.high
            want_ascending = comp.ascending == ascending
            if (keys[low] > keys[high]) == want_ascending:
                plains[low], plains[high] = plains[high], plains[low]
                keys[low], keys[high] = keys[high], keys[low]
        coprocessor.scatter_slots(region, indices, plains)
        if indices != list(range(len(indices))):  # else the wire column is the answer
            wires = array("q", [indices[wire] for wire in wires])
        coprocessor.charge_boundary(
            ((GET, region), (PUT, region)), b"\0\0\1\1" * len(network), wires)


def oblivious_sort_indices(
    coprocessor: SecureCoprocessor,
    region: str,
    indices: list[int],
    key: KeyFunction,
    ascending: bool = True,
    merge: bool = False,
) -> None:
    """Obliviously sort the slots at ``indices`` (in index-list order).

    The generalization used by the parallel bitonic sort of Section 5.3.5:
    a block compare-exchange works on the union of two coprocessors' chunks,
    whose slots need not be contiguous — with ``merge`` it runs only the
    merge network, which sorts a sequence that is already bitonic.  The
    comparator positions depend only on ``len(indices)``, so obliviousness is
    preserved.
    """
    if coprocessor.batched_io:
        run_network_vectorized(coprocessor, region, indices, key, ascending, merge)
        return
    network = (bitonic_merge_network if merge else bitonic_network)(len(indices))
    get_many = coprocessor.get_many
    put_many = coprocessor.put_many
    with coprocessor.hold(2):
        for comp in network:
            low_index = indices[comp.low]
            high_index = indices[comp.high]
            # One boundary call per comparator pair in each direction; the
            # write-back slot cache serves the re-reads of just-rewritten
            # slots without a physical decrypt.
            low_plain, high_plain = get_many(
                ((region, low_index), (region, high_index))
            )
            want_ascending = comp.ascending == ascending
            out_of_order = (key(low_plain) > key(high_plain)) == want_ascending
            if out_of_order:
                low_plain, high_plain = high_plain, low_plain
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

    Uses exactly two enclave tuple slots regardless of ``size`` — the property
    that lets even a minimal coprocessor sort arbitrarily large host arrays
    (Section 5.3.1 notes Algorithm 4 needs "a memory size of two ... during
    the oblivious shuffling phase").  Both compared positions are always
    rewritten under fresh nonces, so the host cannot tell whether a swap
    happened.
    """
    oblivious_sort_indices(
        coprocessor, region, list(range(start, start + size)), key
    )
