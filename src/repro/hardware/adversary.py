"""Malicious-adversary machinery (Section 3.3.1).

"A malicious adversary can additionally modify H's memory contents.  We
propose to use authenticated encryption to detect memory tampering.  Upon
detection of such tampering, T terminates the program execution immediately."

:class:`TamperingHost` is a host that corrupts ciphertext on a chosen read;
the test suite drives every algorithm against it and asserts the coprocessor
aborts with :class:`~repro.errors.AuthenticationError` before emitting any
further output — the reduction from the malicious to the honest-but-curious
model the paper relies on.  :class:`ReplayingHost` mounts the subtler attack
of answering a read with a *different but validly encrypted* slot
(ciphertext replay/reordering), which per-tuple authenticated encryption
alone does not detect — documented as the residual gap a deployment closes
with position-bound nonces or MACed addresses.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hardware.host import HostMemory


class TamperingHost(HostMemory):
    """A host that flips one ciphertext bit on its n-th read.

    The inherited ranged calls loop over :meth:`read_slot`, so the n-th read
    may fall inside a batch.  For the verdict "T stopped there" the host keeps
    ``image_at_tamper``, its storage at that instant, and ``rereads``, later
    reads of the tampered slot (a retried batch would be one).
    """

    def __init__(self, tamper_at_read: int, bit: int = 0) -> None:
        super().__init__()
        if tamper_at_read < 1:
            raise ConfigurationError("tamper_at_read counts from 1")
        self.tamper_at_read = tamper_at_read
        self.bit = bit
        self.reads_served = 0
        self.tampered = False
        self.tampered_slot: tuple[str, int] | None = None
        self.image_at_tamper: dict | None = None
        self.rereads = 0

    def read_slot(self, name: str, index: int) -> bytes:
        value = super().read_slot(name, index)
        self.reads_served += 1
        if (name, index) == self.tampered_slot:
            self.rereads += 1
        if self.reads_served == self.tamper_at_read:
            self.tampered = True
            self.tampered_slot = (name, index)
            self.image_at_tamper = self.snapshot_regions()
            corrupted = bytearray(value)
            corrupted[self.bit // 8] ^= 1 << (self.bit % 8)
            return bytes(corrupted)
        return value


class ReplayingHost(HostMemory):
    """A host that answers one read with another (valid) slot's ciphertext.

    Every slot individually authenticates, so OCB's per-tuple tag does not
    flag the swap; catching it requires binding ciphertexts to addresses
    (e.g. address-derived nonces), which Section 3.3.3's scheme provides for
    sequentially encrypted relations via the offset chain.  The tests use
    this host to document exactly which substitutions the per-tuple provider
    model does and does not detect.
    """

    def __init__(self, replay_at_read: int, source: tuple[str, int]) -> None:
        super().__init__()
        if replay_at_read < 1:
            raise ConfigurationError("replay_at_read counts from 1")
        self.replay_at_read = replay_at_read
        self.source = source
        self.reads_served = 0
        self.replayed = False

    def read_slot(self, name: str, index: int) -> bytes:
        self.reads_served += 1
        if self.reads_served == self.replay_at_read:
            self.replayed = True
            return super().read_slot(*self.source)
        return super().read_slot(name, index)
