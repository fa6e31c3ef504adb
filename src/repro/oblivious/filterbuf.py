"""The optimized oblivious decoy filter of Section 5.2.2.

Problem: a host region holds ``omega`` encrypted oTuples of which at most
``mu`` are real join results and the rest are decoys; remove the decoys
without revealing which positions held them.  The naive answer — one oblivious
sort of the whole list — costs ``omega (log2 omega)^2`` transfers.  The
paper's optimization sorts a small buffer of ``mu + delta`` elements
repeatedly:

1. copy the first ``mu + delta`` source elements into the buffer and
   obliviously sort it, real results first;
2. the bottom ``delta`` slots now hold only expendable elements (at most
   ``mu`` elements are ever kept), so overwrite them with the next ``delta``
   source elements and re-sort;
3. repeat until the source is exhausted; the top ``mu`` buffer slots hold
   every real result.

The refills are copies that declare nothing; only the sorts cross the T/H
boundary, and the modeled transfer/decryption counts below do not depend on
how a copy is carried out.  :func:`oblivious_filter` copies with
:meth:`~repro.hardware.coprocessor.SecureCoprocessor.copy_slots`.  Inside a
fused section (Algorithms 4 and 6 run the filter and its emit as one) T
stages the copied oTuples' plaintexts in the buffer slots, reading the
source range in one authenticated ranged call whose cells T wrote itself
(slot-cache hits), so the buffer's sorts gather staged plaintexts, no buffer
cell is decrypted and the close writes the buffer once under fresh nonces.
Outside a section the host moves the ciphertexts and T carries its
slot-cache entries to the copies, so the sorts' gathers hit the cache too,
but each sort is a section of its own and re-encrypts the whole buffer.
The parallel filter (:mod:`repro.oblivious.parallel_filter`) keeps the
host-side copy: its sorts span the cluster.  The boundary cost expression is
``C(omega, mu)(delta) = ((omega - mu)/delta) * ((mu+delta)/4) * [log2(mu+delta)]^2``
comparisons (Section 5.2.2) whose optimal ``delta*`` is computed in
:mod:`repro.costs.filter_opt`.
"""

from __future__ import annotations

from array import array
from functools import partial
from typing import Any, Callable

from repro.errors import ConfigurationError
from repro.hardware.coprocessor import SecureCoprocessor
from repro.hardware.events import GET, PUT
from repro.hardware.host import HostMemory
from repro.oblivious.sort import KeyFunction, oblivious_sort


def oblivious_filter(
    coprocessor: SecureCoprocessor,
    source_region: str,
    source_size: int,
    keep: int,
    delta: int,
    priority: KeyFunction,
    buffer_region: str = "__filter",
) -> str:
    """Condense ``source_region`` so its real elements occupy the buffer top.

    ``priority`` must order real elements strictly before decoys (e.g. return
    the decoy flag byte).  At most ``keep`` (= mu) elements may be real.
    Returns the buffer region name; its first ``keep`` slots contain every
    real element (padded with decoys when there are fewer than ``keep``).
    """
    _condense(coprocessor.host, source_region, source_size, keep, delta,
              buffer_region, partial(oblivious_sort, coprocessor, key=priority),
              coprocessor.copy_slots)
    return buffer_region


def filter_delta(source_size: int, keep: int, delta: int) -> int:
    """The swap-area size the filter runs with for a requested ``delta``:
    clamped to ``[1, source_size - keep]`` (1 when nothing is removed)."""
    return max(1, min(delta, source_size - keep))


def _condense(
    host: HostMemory,
    source_region: str,
    source_size: int,
    keep: int,
    delta: int,
    buffer_region: str,
    sort: Callable[[str, int], Any],
    copy: Callable[[str, int, int, str, int], None],
) -> list[Any]:
    """The copy/sort/refill loop of :func:`oblivious_filter`.

    ``sort(region, size)`` sorts the buffer, reals first: one coprocessor's
    :func:`~repro.oblivious.sort.oblivious_sort`, or the cluster's parallel
    sort in :mod:`repro.oblivious.parallel_filter`.  ``copy(src, src_start,
    count, dst, dst_start)`` fills the buffer: the coprocessor's
    section-aware ``copy_slots``, or the host's ``host_copy_into``.  Returns
    what each sort returned, in order (so its length is the number of sorts).
    """
    if keep < 0 or source_size < 0:
        raise ConfigurationError("sizes must be non-negative")
    if keep > source_size:
        raise ConfigurationError("cannot keep more elements than the source holds")
    if host.has_region(buffer_region):
        host.free(buffer_region)

    if keep == source_size:
        # Nothing to remove; the source is the answer.
        host.allocate(buffer_region, source_size)
        copy(source_region, 0, source_size, buffer_region, 0)
        return []

    delta = filter_delta(source_size, keep, delta)
    buffer_size = min(keep + delta, source_size)
    host.allocate(buffer_region, buffer_size)
    copy(source_region, 0, buffer_size, buffer_region, 0)
    sorts = [sort(buffer_region, buffer_size)]
    position = buffer_size
    while position < source_size:
        take = min(delta, source_size - position)
        # Overwrite the lowest-priority slots with fresh source elements;
        # a copy declares nothing, so this is transfer-free.
        copy(source_region, position, take, buffer_region, buffer_size - take)
        position += take
        sorts.append(sort(buffer_region, buffer_size))
    return sorts


def emit_kept(
    coprocessor: SecureCoprocessor,
    buffer_region: str,
    keep: int,
    output_region: str,
    is_real: KeyFunction,
    strip: int = 0,
) -> int:
    """Read the top ``keep`` buffer slots and append the real ones to output.

    This is the final "remove decoys and output S results" step of Algorithms
    4 and 6: by this point the top slots are exactly the real results possibly
    followed by decoys, so emitting only reals reveals nothing beyond the
    output size S, which Definition 3 treats as public.  ``strip`` bytes are
    removed from the front of each emitted plaintext (flag bytes).
    Returns the number of real tuples emitted.

    This is one declared section: one gather of the top ``keep`` slots, the
    real rows staged as one append, and one ``charge_boundary`` declaring,
    in slot order, ``GET buffer[i]``, then ``PUT output[j]`` if slot ``i``
    is real.  After a reals-first filter that is ``(GET, PUT) * S + GET *
    (keep - S)``, a function of the public S.
    """
    with coprocessor.hold(1):
        if keep <= 0:
            return 0
        plains = coprocessor.gather_slots(buffer_region, range(keep))
        real = [bool(is_real(plain)) for plain in plains]
        slots = iter(coprocessor.stage_append(
            output_region, [plain[strip:] for plain, flag in zip(plains, real) if flag]))
        codes, indices = bytearray(), array("q")
        for i, flag in enumerate(real):
            if flag:
                codes += b"\0\1"
                indices.extend((i, next(slots)))
            else:
                codes.append(0)
                indices.append(i)
        coprocessor.charge_boundary(
            ((GET, buffer_region), (PUT, output_region)), bytes(codes), indices)
    return sum(real)
