"""Per-tuple encryption providers used by hosts, coprocessors, and parties.

All traffic between the data providers, the host ``H`` and the secure
coprocessor ``T`` is encrypted tuple-by-tuple (Section 3.2).  The algorithms
only need three properties from the scheme, captured by the
:class:`CryptoProvider` interface:

* **semantic security** — two encryptions of the same plaintext (decoys!) are
  indistinguishable, implemented by drawing a fresh nonce per encryption;
* **authenticity** — decryption of a tampered ciphertext raises
  :class:`AuthenticationError` (Section 3.3.1);
* **fixed expansion** — equal-length plaintexts yield equal-length
  ciphertexts, preserving the *Fixed Size* principle.

Three implementations trade fidelity for speed:

* :class:`OcbProvider` — the paper's OCB mode, faithful structure;
* :class:`FastProvider` — SHAKE-256 keystream + truncated MAC, much faster,
  used for larger benchmark runs;
* :class:`NullProvider` — no confidentiality (checksum-only integrity), for
  cost-model validation runs where only access patterns and transfer counts
  matter.

Batches do their batch-wide work once: ``encrypt_many``/``decrypt_many``
reserve the nonces and XOR the whole batch as one big int, and the
keystream providers' ``decrypt`` (and Fast's ``encrypt``) is a batch of one.

Nonce uniqueness
----------------
Every scheme here is only semantically secure while nonces never repeat
*under a key*, not merely within one provider object: two providers sharing a
key (two ``JoinContext.fresh()`` calls with the default session key, a
restarted service, parallel workers) must not emit overlapping nonce
sequences.  A bare counter restarting at 1 per instance violates exactly
that — for the keystream providers the two streams cancel into a two-time
pad, and for OCB it voids the mode's security theorem.  :class:`_NonceCounter`
therefore prefixes each instance's counter with fresh random bytes, so
sequences from independent instances are disjoint except with negligible
probability (2^-64 per instance pair).
"""

from __future__ import annotations

import itertools
import os
from hashlib import sha256, shake_256

from typing import Protocol, runtime_checkable

from repro.crypto.ocb import NONCE_SIZE, TAG_SIZE, Ocb
from repro.errors import AuthenticationError, ConfigurationError


@runtime_checkable
class CryptoProvider(Protocol):
    """Semantically secure authenticated encryption of byte strings."""

    #: Bytes added to every plaintext (nonce + tag).
    overhead: int

    def encrypt(self, plaintext: bytes) -> bytes:
        """Encrypt under a fresh nonce; output is nonce || ciphertext || tag."""
        ...

    def decrypt(self, ciphertext: bytes) -> bytes:
        """Decrypt and authenticate; raises AuthenticationError on tamper."""
        ...


class _NonceCounter:
    """Nonce sequence: per-instance random prefix || monotone counter.

    OCB (and the keystream schemes) require nonces unique per *key*; the
    random prefix keeps instances that share a key from colliding, while the
    counter keeps each instance trivially collision-free with itself.
    """

    PREFIX_SIZE = NONCE_SIZE // 2

    def __init__(self) -> None:
        self._prefix = os.urandom(self.PREFIX_SIZE)
        self._counter = itertools.count(1)
        self._limit = 1 << (8 * (NONCE_SIZE - self.PREFIX_SIZE))

    def next_nonce(self) -> bytes:
        return self.next_nonces(1)[0]

    def next_nonces(self, count: int) -> list[bytes]:
        """Reserve ``count`` consecutive nonces in one call; the prefix
        rotates when the counter segment is exhausted (2^64 encryptions)."""
        width = NONCE_SIZE - self.PREFIX_SIZE
        out = []
        counter = self._counter
        prefix = self._prefix
        limit = self._limit
        for _ in range(count):
            value = next(counter)
            if value >= limit:
                prefix = self._prefix = os.urandom(self.PREFIX_SIZE)
                counter = self._counter = itertools.count(2)
                value = 1
            out.append(prefix + value.to_bytes(width, "big"))
        return out


def _xor_split(parts: list[bytes], streams: list[bytes]) -> list[bytes]:
    """XOR each part with its equal-length stream, as one big-int operation.

    The batch is joined, XORed once and sliced back into parts: by stride
    when every part has one width, by running offsets otherwise.
    """
    joined = b"".join(parts)
    total = len(joined)
    mixed = (int.from_bytes(joined, "big")
             ^ int.from_bytes(b"".join(streams), "big")).to_bytes(total, "big")
    if len(parts) < 2:
        return [mixed] if parts else []
    lengths = list(map(len, parts))
    width = lengths[0]
    if lengths.count(width) == len(lengths):
        return [mixed[start:start + width] for start in range(0, total, width)]
    return [mixed[end - length:end]
            for end, length in zip(itertools.accumulate(lengths), lengths)]


#: Ranged ("span") cell layout used by :meth:`OcbProvider.encrypt_many`:
#: ``nonce(16) || body(len(plaintext)) || meta(4) || tag(12)``.  The meta
#: field is the message's keystream index *within its span* — deliberately
#: not bound to any host slot number, so host-side relocations
#: (``host_copy_into`` refills in the oblivious filter) keep decrypting.
#: Total expansion is NONCE_SIZE + TAG_SIZE, exactly the scalar cell's, so
#: equal-length plaintexts still yield equal-length cells whichever path
#: produced them (the Fixed Size principle).
_SPAN_META_SIZE = 4
_SPAN_TAG_SIZE = 12
_SPAN_TRAILER = _SPAN_META_SIZE + _SPAN_TAG_SIZE
_SPAN_KS_DOMAIN = b"ocb-span-keystream"
_SPAN_MAC_DOMAIN = b"ocb-span-mac"
#: Bound on the per-provider span-seed memo (nonce -> Z[0]); cleared when
#: exceeded so adversarial nonce streams cannot grow it without limit.
_SPAN_SEED_CACHE_LIMIT = 4096


class OcbProvider:
    """The paper's OCB authenticated encryption (Section 3.3.3).

    Ranged batch crypto
    -------------------
    :meth:`encrypt_many` amortizes the expensive per-message OCB setup over a
    whole span of messages, the Section 4.4.1 idea (one nonce covering a
    range of blocks, random-access offsets) applied at tuple granularity:

    * one fresh nonce ``I`` covers the span; the OCB base offset
      ``Z[0] = E_k(I xor E_k(0^n))`` is computed **once** (one block-cipher
      call instead of three per message);
    * message ``i`` is encrypted under the keystream
      ``SHAKE-256(domain || Z[0] || i)`` — ``Z[0]`` is a PRF output under the
      key, so distinct ``(I, i)`` pairs give independent pads;
    * each cell authenticates individually under a key-derived MAC (derived
      once in ``__init__``; the amortized key schedule), so single-cell
      decryption, reordering, and host-side relocation all keep working.

    The span tag is 12 bytes (vs. OCB's 16) to keep the cell expansion equal
    to the scalar path's; forgery probability is 2^-96 per attempt (see
    docs/THREAT_MODEL.md).  :meth:`decrypt_many` (and :meth:`decrypt`, a
    batch of one) accepts both cell kinds: a cheap span-tag check first, then
    the scalar OCB path — a tampered cell fails both and raises
    :class:`AuthenticationError` before any plaintext of its batch is
    released.  :meth:`encrypt` keeps the scalar OCB format.
    """

    overhead = NONCE_SIZE + TAG_SIZE

    def __init__(self, key: bytes) -> None:
        self._key = key
        self._ocb = Ocb(key)
        self._nonces = _NonceCounter()
        self._span_mac_key = sha256(_SPAN_MAC_DOMAIN + key).digest()
        self._span_seeds: dict[bytes, bytes] = {}

    def _span_seed(self, nonce: bytes) -> bytes:
        """``Z[0]`` for a span nonce, memoized so sibling cells pay nothing."""
        seed = self._span_seeds.get(nonce)
        if seed is None:
            if len(self._span_seeds) >= _SPAN_SEED_CACHE_LIMIT:
                self._span_seeds.clear()
            seed = self._ocb.base_offset(nonce)
            self._span_seeds[nonce] = seed
        return seed

    def encrypt_many(self, plaintexts) -> list[bytes]:
        """Encrypt a batch as one ranged span (see the class docstring)."""
        plaintexts = list(plaintexts)
        count = len(plaintexts)
        if not count:
            return []
        if count > 0xFFFFFFFF:
            raise ConfigurationError("span batches are limited to 2^32 messages")
        lengths = list(map(len, plaintexts))
        if 0 in lengths:
            raise ConfigurationError("messages must be non-empty")
        nonce = self._nonces.next_nonce()
        ks_prefix = _SPAN_KS_DOMAIN + self._span_seed(nonce)
        mac_prefix = self._span_mac_key + nonce
        metas = [i.to_bytes(_SPAN_META_SIZE, "big") for i in range(count)]
        bodies = _xor_split(plaintexts, [
            shake_256(ks_prefix + meta).digest(length)
            for meta, length in zip(metas, lengths)
        ])
        return [
            nonce + body + meta
            + sha256(mac_prefix + meta + body).digest()[:_SPAN_TAG_SIZE]
            for body, meta in zip(bodies, metas)
        ]

    def decrypt_many(self, ciphertexts) -> list[bytes]:
        """Decrypt a batch of span or scalar cells, in any mixture.

        Cells are authenticated in order; one whose span tag fails takes the
        scalar OCB path (which raises on tamper).  Then one XOR decrypts the
        span cells' bodies."""
        plains: list[bytes | None] = []
        bodies, streams = [], []
        mac_key, seeds = self._span_mac_key, self._span_seeds
        for cell in ciphertexts:
            if len(cell) <= NONCE_SIZE + TAG_SIZE:
                raise AuthenticationError("ciphertext too short")
            nonce = cell[:NONCE_SIZE]
            body = cell[NONCE_SIZE:-_SPAN_TRAILER]
            meta = cell[-_SPAN_TRAILER:-_SPAN_TAG_SIZE]
            tag = cell[-_SPAN_TAG_SIZE:]
            if sha256(mac_key + nonce + meta + body).digest()[:_SPAN_TAG_SIZE] != tag:
                plains.append(self._ocb.decrypt(nonce, cell[NONCE_SIZE:]))
                continue
            seed = seeds.get(nonce) or self._span_seed(nonce)
            plains.append(None)
            bodies.append(body)
            streams.append(shake_256(_SPAN_KS_DOMAIN + seed + meta).digest(len(body)))
        decrypted = _xor_split(bodies, streams)
        if len(decrypted) == len(plains):
            return decrypted
        decrypted = iter(decrypted)
        return [next(decrypted) if plain is None else plain for plain in plains]

    def clone(self) -> "OcbProvider":
        """A fresh instance under the same key with its own nonce sequence.

        The unit a parallel worker must hold: ciphertexts interoperate (same
        key) while the fresh random nonce prefix keeps the clone's sequence
        disjoint from every other instance's — copying a live provider into
        another process would replay its prefix *and* counter, re-creating
        exactly the cross-instance reuse :class:`_NonceCounter` exists to
        prevent.
        """
        return OcbProvider(self._key)

    def encrypt(self, plaintext: bytes) -> bytes:
        nonce = self._nonces.next_nonce()
        return nonce + self._ocb.encrypt(nonce, plaintext)

    def decrypt(self, ciphertext: bytes) -> bytes:
        return self.decrypt_many((ciphertext,))[0]


class FastProvider:
    """Keystream + MAC authenticated encryption (fast simulation substitute).

    The keystream is a single SHAKE-256 squeeze over (key || nonce) — one
    hash call per message instead of one SHA-256 per 32 bytes — and the
    plaintext/keystream XOR runs as one big-int operation per batch.
    """

    overhead = NONCE_SIZE + TAG_SIZE

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise ConfigurationError("keys must be at least 16 bytes")
        self._key = key
        self._enc_key = sha256(b"fast-enc" + key).digest()
        self._mac_key = sha256(b"fast-mac" + key).digest()
        self._nonces = _NonceCounter()

    def clone(self) -> "FastProvider":
        """Same-key instance with an independent nonce sequence (see
        :meth:`OcbProvider.clone`)."""
        return FastProvider(self._key)

    def encrypt(self, plaintext: bytes) -> bytes:
        return self.encrypt_many((plaintext,))[0]

    def decrypt(self, ciphertext: bytes) -> bytes:
        return self.decrypt_many((ciphertext,))[0]

    def encrypt_many(self, plaintexts) -> list[bytes]:
        """Cells ``nonce || body || tag``, each with its own nonce, keystream
        and tag; the batch shares the nonce reservation and one XOR."""
        plaintexts = list(plaintexts)
        lengths = list(map(len, plaintexts))
        if 0 in lengths:
            raise ConfigurationError("messages must be non-empty")
        nonces = self._nonces.next_nonces(len(plaintexts))
        enc_key, mac_key = self._enc_key, self._mac_key
        bodies = _xor_split(plaintexts, [
            shake_256(enc_key + nonce).digest(length)
            for nonce, length in zip(nonces, lengths)
        ])
        return [
            nonce + body + sha256(mac_key + nonce + body).digest()[:TAG_SIZE]
            for nonce, body in zip(nonces, bodies)
        ]

    def decrypt_many(self, ciphertexts) -> list[bytes]:
        """Authenticate every cell, in order, then decrypt with one XOR."""
        bodies, streams = [], []
        enc_key, mac_key = self._enc_key, self._mac_key
        for cell in ciphertexts:
            if len(cell) < NONCE_SIZE + TAG_SIZE + 1:
                raise AuthenticationError("ciphertext too short")
            nonce = cell[:NONCE_SIZE]
            body = cell[NONCE_SIZE:-TAG_SIZE]
            if sha256(mac_key + nonce + body).digest()[:TAG_SIZE] != cell[-TAG_SIZE:]:
                raise AuthenticationError("MAC mismatch: ciphertext was tampered with")
            bodies.append(body)
            streams.append(shake_256(enc_key + nonce).digest(len(body)))
        return _xor_split(bodies, streams)


class NullProvider:
    """No confidentiality; integrity via checksum.  For cost-only experiments.

    Encryptions still carry a fresh nonce so equal plaintexts remain
    byte-distinct (the property the algorithms rely on for decoys), but the
    plaintext is stored in the clear.
    """

    overhead = NONCE_SIZE + TAG_SIZE

    def __init__(self, key: bytes = b"") -> None:
        self._nonces = _NonceCounter()

    def clone(self) -> "NullProvider":
        return NullProvider()

    @staticmethod
    def _checksum(nonce: bytes, body: bytes) -> bytes:
        return sha256(b"null" + nonce + body).digest()[:TAG_SIZE]

    def encrypt(self, plaintext: bytes) -> bytes:
        return self.encrypt_many((plaintext,))[0]

    def decrypt(self, ciphertext: bytes) -> bytes:
        if len(ciphertext) < NONCE_SIZE + TAG_SIZE + 1:
            raise AuthenticationError("ciphertext too short")
        nonce = ciphertext[:NONCE_SIZE]
        body = ciphertext[NONCE_SIZE:-TAG_SIZE]
        tag = ciphertext[-TAG_SIZE:]
        if self._checksum(nonce, body) != tag:
            raise AuthenticationError("checksum mismatch: ciphertext was tampered with")
        return body

    def encrypt_many(self, plaintexts) -> list[bytes]:
        plaintexts = list(plaintexts)
        for plain in plaintexts:
            if not plain:
                raise ConfigurationError("messages must be non-empty")
        nonces = self._nonces.next_nonces(len(plaintexts))
        checksum = self._checksum
        return [
            nonce + plain + checksum(nonce, plain)
            for nonce, plain in zip(nonces, plaintexts)
        ]

    def decrypt_many(self, ciphertexts) -> list[bytes]:
        return list(map(self.decrypt, ciphertexts))


def encrypt_batch(provider: CryptoProvider, plaintexts) -> list[bytes]:
    """Batch-encrypt through ``encrypt_many`` when the provider has one.

    The default adapter of the ranged I/O layer: third-party providers that
    only implement the scalar :class:`CryptoProvider` surface keep working —
    they simply pay one :meth:`~CryptoProvider.encrypt` call per message.
    """
    many = getattr(provider, "encrypt_many", None)
    if many is not None:
        return many(plaintexts)
    encrypt = provider.encrypt
    return [encrypt(plain) for plain in plaintexts]


def decrypt_batch(provider: CryptoProvider, ciphertexts) -> list[bytes]:
    """Batch-decrypt through ``decrypt_many`` when the provider has one."""
    many = getattr(provider, "decrypt_many", None)
    if many is not None:
        return many(ciphertexts)
    decrypt = provider.decrypt
    return [decrypt(cell) for cell in ciphertexts]


def default_provider(key: bytes) -> CryptoProvider:
    """The provider algorithms use unless told otherwise (faithful OCB)."""
    return OcbProvider(key)


def clone_provider(provider: CryptoProvider) -> CryptoProvider:
    """A fresh same-key instance for a parallel worker or isolated join.

    Every built-in provider supports :meth:`clone`; a custom provider handed
    to the parallel executor must too, because shipping the *same* instance
    (or a byte-copy of it) into another process would duplicate its nonce
    counter state.
    """
    clone = getattr(provider, "clone", None)
    if clone is None:
        raise ConfigurationError(
            f"{type(provider).__name__} cannot be cloned for a parallel "
            "worker; implement clone() returning a same-key instance with a "
            "fresh nonce sequence"
        )
    return clone()
