"""Oblivious shuffle of a host region (used by Section 4.5's false starts).

The standard construction [24]: tag every element with a random key inside
the enclave, obliviously sort by the key, then strip the keys.  Because the
sort is oblivious and the keys are secret, no observer learns the permutation.
Costs 2n transfers for tagging, the sort, and 2n for stripping.
"""

from __future__ import annotations

import random
import struct

from repro.hardware.coprocessor import SecureCoprocessor
from repro.oblivious.expand import oblivious_transform_copy
from repro.oblivious.sort import oblivious_sort

_KEY_BYTES = 8


def oblivious_shuffle(
    coprocessor: SecureCoprocessor,
    region: str,
    size: int,
    rng: random.Random,
    scratch_region: str = "__shuffle",
) -> None:
    """Randomly permute ``region[0:size]`` without revealing the permutation."""
    host = coprocessor.host
    if host.has_region(scratch_region):
        host.free(scratch_region)
    host.allocate(scratch_region, size)
    # Tag: read each tuple, prepend a random sort key, write to scratch.
    oblivious_transform_copy(
        coprocessor, region, 0, scratch_region, 0, size,
        lambda _, plain: struct.pack(">Q", rng.getrandbits(64)) + plain)
    oblivious_sort(coprocessor, scratch_region, size, key=lambda p: p[:_KEY_BYTES])
    # Strip: move the permuted tuples back without their tags.
    oblivious_transform_copy(coprocessor, scratch_region, 0, region, 0, size,
                             lambda _, tagged: tagged[_KEY_BYTES:])
    host.free(scratch_region)
