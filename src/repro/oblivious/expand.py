"""Oblivious linear-pass, copy, and zip primitives for the O(n log n) joins.

The sort-merge equi-join of Krastnikov/Kerschbaum/Stebila (arXiv 2003.09481)
and the Arasu-Kaushik oblivious query-processing primitives (arXiv 1312.4012)
replace the cartesian scan with phases that are either oblivious sorts
(:mod:`repro.oblivious.sort`) or *linear passes*: every slot of a region is
read and rewritten exactly once in a fixed order, with a constant number of
in-enclave register slots carrying state between steps.  Because each slot is
always rewritten under a fresh nonce, the host observes the same
``G(r,i) P(r,i)`` sequence whatever the data — the access pattern depends
only on the region size.

Each primitive is one section: one
:meth:`~repro.hardware.coprocessor.SecureCoprocessor.gather_slots` per input
region, the pass on resident plaintexts, one :meth:`scatter_slots`, and a
:meth:`charge_boundary` declaring the per-slot ``G P`` sequence (which the
``ReferenceCoprocessor`` walks op by op).  A linear pass is a sequence
of wire-disjoint read-modify-write steps, so the declaration fixes the
trace, the modeled counters and the final host state.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Callable

from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.events import GET, PUT

#: Sentinel destination/extraction key ordering after every real position.
#: Encoded as a big-endian signed 64-bit integer it stays positive, so
#: byte-lexicographic comparison agrees with numeric comparison.
INFINITY = 1 << 62

#: Rewrites one slot: (slot index, plaintext in) -> plaintext out.
StepFunction = Callable[[int, bytes], bytes]

#: Transforms one tuple while copying between regions.
TransformFunction = Callable[[int, bytes], bytes]

#: Combines two aligned tuples into one output tuple.
CombineFunction = Callable[[int, bytes, bytes], bytes]


def oblivious_linear_pass(
    coprocessor: SecureCoprocessor,
    region: str,
    size: int,
    step: StepFunction,
    reverse: bool = False,
    start: int = 0,
) -> None:
    """Read and rewrite every slot of ``region[start:start+size]`` once.

    ``step`` may carry state across slots through its closure (the in-enclave
    registers of the counting/filling passes); it must return a plaintext for
    every slot so the write pattern is unconditional.  ``reverse`` walks the
    slots high-to-low (the backward counting pass).
    """
    if size <= 0:
        return
    if reverse:
        indices = list(range(start + size - 1, start - 1, -1))
    else:
        indices = list(range(start, start + size))
    with coprocessor.hold(2):
        plains = coprocessor.gather_slots(region, indices)
        outs = [step(i, plain) for i, plain in zip(indices, plains)]
        coprocessor.scatter_slots(region, indices, outs)
        coprocessor.charge_boundary(
            ((GET, region), (PUT, region)), b"\0\1" * size,
            array("q", chain.from_iterable(zip(indices, indices))))


def oblivious_fill(
    coprocessor: SecureCoprocessor,
    region: str,
    start: int,
    count: int,
    plaintext: bytes,
) -> None:
    """Write ``plaintext`` into every slot of ``region[start:start+count]``.

    T generates the cells, so the pass reads nothing: one put per slot in
    slot order, a pattern of ``count`` alone.
    """
    if count <= 0:
        return
    indices = range(start, start + count)
    coprocessor.scatter_slots(region, indices, [plaintext] * count)
    coprocessor.charge_boundary(((PUT, region),), bytes(count), array("q", indices))


def oblivious_transform_copy(
    coprocessor: SecureCoprocessor,
    source_region: str,
    source_start: int,
    dest_region: str,
    dest_start: int,
    count: int,
    transform: TransformFunction,
) -> None:
    """Copy ``count`` tuples between regions, transforming each in-enclave.

    Step ``k`` reads ``source[source_start+k]`` and writes
    ``dest[dest_start+k]`` — one get and one put per tuple in a fixed order,
    with ``transform`` receiving the *relative* index ``k``.
    """
    if count <= 0:
        return
    src_indices = list(range(source_start, source_start + count))
    dst_indices = list(range(dest_start, dest_start + count))
    with coprocessor.hold(2):
        plains = coprocessor.gather_slots(source_region, src_indices)
        outs = [transform(k, plain) for k, plain in enumerate(plains)]
        coprocessor.scatter_slots(dest_region, dst_indices, outs)
        coprocessor.charge_boundary(
            ((GET, source_region), (PUT, dest_region)), b"\0\1" * count,
            array("q", chain.from_iterable(zip(src_indices, dst_indices))))


def oblivious_zip_write(
    coprocessor: SecureCoprocessor,
    left_region: str,
    right_region: str,
    count: int,
    output_region: str,
    combine: CombineFunction,
) -> None:
    """Pair up two aligned regions into ``output_region[0:count]``.

    Step ``r`` reads ``left[r]`` and ``right[r]`` and writes ``output[r]`` —
    the final filter-free emission of the expanded join: exactly ``count``
    output tuples, no decoys, pattern a function of ``count`` alone.  The
    output region must be pre-allocated with ``count`` slots.
    """
    if count <= 0:
        return
    indices = list(range(count))
    with coprocessor.hold(3):
        left_plains = coprocessor.gather_slots(left_region, indices)
        right_plains = coprocessor.gather_slots(right_region, indices)
        outs = [
            combine(r, a, b)
            for r, (a, b) in enumerate(zip(left_plains, right_plains))
        ]
        coprocessor.scatter_slots(output_region, indices, outs)
        coprocessor.charge_boundary(
            ((GET, left_region), (GET, right_region), (PUT, output_region)),
            b"\0\1\2" * count,
            array("q", chain.from_iterable(zip(indices, indices, indices))))
