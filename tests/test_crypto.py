"""Unit and property tests for the crypto substrate (block cipher, OCB, providers)."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.blockcipher import BLOCK_SIZE, BlockCipher, gf_double, xor_bytes
from repro.crypto.ocb import NONCE_SIZE, TAG_SIZE, Ocb
from repro.crypto.provider import FastProvider, NullProvider, OcbProvider, _NonceCounter
from repro.errors import AuthenticationError, ConfigurationError

KEY = b"0123456789abcdef0123456789abcdef"

#: Ciphertexts captured from the reference implementation before the
#: performance work (offset hoisting, big-int XOR); any byte drift here means
#: an optimization changed the cipher, not just its speed.
OCB_GOLDEN = {
    1: "e6ac14ebbc942c965f408d6fe2b1a4e830",
    16: "609d5037013a44a30bdfba24c024a72a38ee58ec9f0e93c5874687433ac0a3e4",
    33: "b32d698f297b6beffbd8a858f77fa5c0ae1c62061d2c4a4c5e2867b678741900"
        "517aaea809cd08e2850edc96c0a7dd2cd4",
    65: "b32d698f297b6beffbd8a858f77fa5c0ae1c62061d2c4a4c5e2867b678741900"
        "7064097e539e5d9a70dfb9e168e67bcbbe6c9052ac12b20d3c2866b08858da42"
        "c1f9d9eab1eedeb04f850e1c376bb395c6",
}


class TestBlockCipher:
    def test_roundtrip(self):
        cipher = BlockCipher(KEY)
        block = bytes(range(16))
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_wrong_block_size_rejected(self):
        cipher = BlockCipher(KEY)
        with pytest.raises(ConfigurationError):
            cipher.encrypt_block(b"short")
        with pytest.raises(ConfigurationError):
            cipher.decrypt_block(b"x" * 17)

    def test_short_key_rejected(self):
        with pytest.raises(ConfigurationError):
            BlockCipher(b"short")

    def test_permutation_is_injective_on_sample(self):
        cipher = BlockCipher(KEY)
        inputs = [i.to_bytes(16, "big") for i in range(256)]
        outputs = {cipher.encrypt_block(b) for b in inputs}
        assert len(outputs) == 256

    def test_different_keys_differ(self):
        block = bytes(16)
        assert BlockCipher(KEY).encrypt_block(block) != BlockCipher(
            KEY[::-1]
        ).encrypt_block(block)

    @settings(max_examples=80)
    @given(st.binary(min_size=16, max_size=16))
    def test_roundtrip_property(self, block):
        cipher = BlockCipher(KEY)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block


class TestGfDouble:
    def test_shifts_left(self):
        assert gf_double((1).to_bytes(16, "big")) == (2).to_bytes(16, "big")

    def test_reduction_on_overflow(self):
        top = (1 << 127).to_bytes(16, "big")
        assert gf_double(top) == (0x87).to_bytes(16, "big")

    def test_xor_bytes(self):
        assert xor_bytes(b"\x0f\xf0", b"\xff\xff") == b"\xf0\x0f"


class TestOcb:
    def nonce(self, i=1):
        return i.to_bytes(NONCE_SIZE, "big")

    @pytest.mark.parametrize("size", [1, 15, 16, 17, 31, 32, 33, 100])
    def test_roundtrip_various_sizes(self, size):
        ocb = Ocb(KEY)
        plaintext = bytes(range(256))[:size] or b"\x00"
        ciphertext = ocb.encrypt(self.nonce(), plaintext)
        assert len(ciphertext) == size + TAG_SIZE
        assert ocb.decrypt(self.nonce(), ciphertext) == plaintext

    def test_tamper_detection_every_byte(self):
        ocb = Ocb(KEY)
        ciphertext = bytearray(ocb.encrypt(self.nonce(), b"secret join tuple!"))
        for i in range(len(ciphertext)):
            corrupted = bytearray(ciphertext)
            corrupted[i] ^= 0x01
            with pytest.raises(AuthenticationError):
                ocb.decrypt(self.nonce(), bytes(corrupted))

    def test_wrong_nonce_fails_authentication(self):
        ocb = Ocb(KEY)
        ciphertext = ocb.encrypt(self.nonce(1), b"payload-bytes")
        with pytest.raises(AuthenticationError):
            ocb.decrypt(self.nonce(2), ciphertext)

    def test_same_plaintext_different_nonces_differ(self):
        ocb = Ocb(KEY)
        assert ocb.encrypt(self.nonce(1), b"decoy!") != ocb.encrypt(self.nonce(2), b"decoy!")

    def test_deterministic_under_same_nonce(self):
        ocb = Ocb(KEY)
        assert ocb.encrypt(self.nonce(), b"abc") == ocb.encrypt(self.nonce(), b"abc")

    def test_random_access_offset_matches_sequential(self):
        """Section 4.4.1: Z[i] reachable by applying f i times from Z[0]."""
        ocb = Ocb(KEY)
        nonce = self.nonce(9)
        sequential = ocb._offsets(nonce, 8)
        for i in range(8):
            assert ocb.offset(nonce, i) == sequential[i]

    def test_empty_message_rejected(self):
        with pytest.raises(ConfigurationError):
            Ocb(KEY).encrypt(self.nonce(), b"")

    def test_truncated_ciphertext_rejected(self):
        with pytest.raises(AuthenticationError):
            Ocb(KEY).decrypt(self.nonce(), b"short")

    @pytest.mark.parametrize("size", sorted(OCB_GOLDEN))
    def test_golden_vectors(self, size):
        """The micro-optimized OCB is byte-identical to the reference."""
        ciphertext = Ocb(KEY).encrypt(self.nonce(7), bytes(range(size)))
        assert ciphertext.hex() == OCB_GOLDEN[size]

    @settings(max_examples=60)
    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=2**64))
    def test_roundtrip_property(self, plaintext, nonce_value):
        ocb = Ocb(KEY)
        nonce = nonce_value.to_bytes(NONCE_SIZE, "big")
        assert ocb.decrypt(nonce, ocb.encrypt(nonce, plaintext)) == plaintext


@pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider, NullProvider])
class TestProviders:
    def test_roundtrip(self, provider_cls):
        provider = provider_cls(KEY)
        assert provider.decrypt(provider.encrypt(b"hello tuple")) == b"hello tuple"

    def test_semantic_security(self, provider_cls):
        """Two encryptions of the same plaintext must be byte-distinct."""
        provider = provider_cls(KEY)
        assert provider.encrypt(b"decoy") != provider.encrypt(b"decoy")

    def test_fixed_expansion(self, provider_cls):
        provider = provider_cls(KEY)
        c1 = provider.encrypt(b"a" * 24)
        c2 = provider.encrypt(b"b" * 24)
        assert len(c1) == len(c2) == 24 + provider.overhead

    def test_tamper_detection(self, provider_cls):
        provider = provider_cls(KEY)
        ciphertext = bytearray(provider.encrypt(b"join result payload"))
        ciphertext[-1] ^= 0xFF
        with pytest.raises(AuthenticationError):
            provider.decrypt(bytes(ciphertext))

    def test_too_short_ciphertext(self, provider_cls):
        provider = provider_cls(KEY)
        with pytest.raises(AuthenticationError):
            provider.decrypt(b"tiny")

    def test_empty_plaintext_rejected(self, provider_cls):
        """encrypt(b"") must fail loudly, matching OCB's split check, instead
        of emitting a ciphertext that cannot round-trip."""
        with pytest.raises(ConfigurationError):
            provider_cls(KEY).encrypt(b"")

    def test_tamper_detection_every_byte(self, provider_cls):
        """Nonce, body, or tag: one flipped bit anywhere must be detected."""
        provider = provider_cls(KEY)
        ciphertext = provider.encrypt(b"oTuple!!")
        for i in range(len(ciphertext)):
            corrupted = bytearray(ciphertext)
            corrupted[i] ^= 0x01
            with pytest.raises(AuthenticationError):
                provider.decrypt(bytes(corrupted))

    @settings(max_examples=40)
    @given(st.binary(min_size=1, max_size=512))
    def test_roundtrip_property(self, provider_cls, plaintext):
        provider = provider_cls(KEY)
        ciphertext = provider.encrypt(plaintext)
        assert len(ciphertext) == len(plaintext) + provider.overhead
        assert provider.decrypt(ciphertext) == plaintext


@pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider, NullProvider])
class TestNonceUniqueness:
    """Regression tests for the cross-instance nonce-reuse bug.

    Nonces must be unique per *key*: a counter restarting at 1 in every
    provider instance made any two same-key instances emit identical nonce
    sequences — a two-time pad for the keystream providers and a violation of
    OCB's security theorem.
    """

    @staticmethod
    def nonces(provider, count=64):
        return {provider.encrypt(b"x" * 8)[:NONCE_SIZE] for _ in range(count)}

    def test_same_key_instances_use_disjoint_nonces(self, provider_cls):
        first = self.nonces(provider_cls(KEY))
        second = self.nonces(provider_cls(KEY))
        assert len(first) == len(second) == 64
        assert not first & second



@pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider])
def test_two_time_pad_no_longer_reproduces(provider_cls):
    """Before the fix, same-key instances encrypting under colliding nonces
    leaked XOR(p1, p2) = XOR(c1, c2) from the keystream provider (NullProvider
    is excluded: it carries the plaintext in the clear by design)."""
    p1, p2 = b"attack at dawn!!", b"retreat at dusk!"
    c1 = provider_cls(KEY).encrypt(p1)
    c2 = provider_cls(KEY).encrypt(p2)
    body1 = c1[NONCE_SIZE:NONCE_SIZE + len(p1)]
    body2 = c2[NONCE_SIZE:NONCE_SIZE + len(p2)]
    pad = bytes(a ^ b for a, b in zip(body1, body2))
    assert pad != bytes(a ^ b for a, b in zip(p1, p2))


class TestNonceCounter:
    def test_monotone_within_instance(self):
        counter = _NonceCounter()
        drawn = [counter.next_nonce() for _ in range(256)]
        assert len(set(drawn)) == 256
        assert all(len(n) == NONCE_SIZE for n in drawn)

    def test_prefix_rotates_on_counter_exhaustion(self):
        import itertools

        counter = _NonceCounter()
        before = counter.next_nonce()[:_NonceCounter.PREFIX_SIZE]
        counter._counter = itertools.count(counter._limit)  # force overflow
        after = counter.next_nonce()
        assert after[:_NonceCounter.PREFIX_SIZE] != before
        # The rotated segment restarts its counter and keeps yielding.
        following = counter.next_nonce()
        assert following[:_NonceCounter.PREFIX_SIZE] == after[:_NonceCounter.PREFIX_SIZE]
        assert following != after


#: ``encrypt_many`` cells under a pinned nonce prefix (all zero, counter from
#: 1), captured from the per-cell loops before the batch kernels replaced
#: them: sha256 of each batch's concatenated cells.  Any drift means a
#: kernel changed the cell format, not just its speed.
BATCH_LENGTHS = {1: (17,), 2: (16, 33), 7: (1, 15, 16, 17, 33, 49, 16)}
BATCH_GOLDEN = {
    (OcbProvider, 1): "efff4b5fd2b1e2475767eccf8dc1adea2ace556555496b76007d1c43b490b3e2",
    (OcbProvider, 2): "a3df16326fd62bd900b78e51a0418c171a4d9107af241357880f3c963148d287",
    (OcbProvider, 7): "ad1899fb880e58d400959498a4e0396f6daf0b505dda613b86b61300d084d760",
    (FastProvider, 1): "cf19ba4b17ac0ba6fe4e19456eba121fb3e71e50c5703e4cd0950145f751fab5",
    (FastProvider, 2): "61c55f8f5bdc80a62352a5865f215f388a3af8d6403825790ff1d64be918a890",
    (FastProvider, 7): "16dbe4c1bc9a8c8ee2de314808335be8a81438805c938c5b21cefe9beb48eb63",
}
#: The two-cell batches in full, so the decrypt side is pinned to bytes too.
BATCH_CELLS = {
    OcbProvider: (
        "000000000000000000000000000000015a581395cac15f617777ab4925fc93ca"
        "00000000cf0e5b5752833210693ac178",
        "00000000000000000000000000000001495ba908c13e53b18561165570ebc39d"
        "ef9521654eced230b15d389c817b04d0f7000000013de6baec005284bf36143c4c",
    ),
    FastProvider: (
        "000000000000000000000000000000013b9ac594af586ebc4525cbd3086d0376"
        "77919505b55d401af4f76ba2293816ab",
        "0000000000000000000000000000000236ddf7fac71393e5bb8c9b056a35c8e0"
        "be16621cb548344cf9b7d51ae74cbc9dd440256f407ea00977c6532a16f8b9a928",
    ),
}
FAST_SCALAR_GOLDEN = (
    "000000000000000000000000000000013b9ac594af586ebc4525cbd3086d0376"
    "37f8af9a6fb569ab9b303fc77f005ce41f"
)


def pinned(provider_cls):
    """A provider whose nonces are the all-zero prefix and counter 1, 2, ..."""
    provider = provider_cls(KEY)
    provider._nonces._prefix = bytes(_NonceCounter.PREFIX_SIZE)
    return provider


def batch_plaintexts(lengths):
    return [bytes((7 * i + j) & 0xFF for j in range(n)) for i, n in enumerate(lengths)]


def mixed_batch(provider):
    """Span cells of one ``encrypt_many`` interleaved with scalar cells."""
    plains = batch_plaintexts(BATCH_LENGTHS[7])
    spans = provider.encrypt_many(plains[0::2])
    scalars = [provider.encrypt(plain) for plain in plains[1::2]]
    cells = [None] * len(plains)
    cells[0::2], cells[1::2] = spans, scalars
    return plains, cells


@pytest.mark.parametrize("provider_cls", [OcbProvider, FastProvider])
class TestBatchKernels:
    @pytest.mark.parametrize("size", sorted(BATCH_LENGTHS))
    def test_encrypt_many_golden_vectors(self, provider_cls, size):
        lengths = BATCH_LENGTHS[size]
        cells = pinned(provider_cls).encrypt_many(batch_plaintexts(lengths))
        assert [len(cell) for cell in cells] == [
            n + provider_cls.overhead for n in lengths]
        digest = hashlib.sha256(b"".join(cells)).hexdigest()
        assert digest == BATCH_GOLDEN[provider_cls, size]

    def test_two_cell_batch_in_full(self, provider_cls):
        expected = [bytes.fromhex(cell) for cell in BATCH_CELLS[provider_cls]]
        plains = batch_plaintexts(BATCH_LENGTHS[2])
        assert pinned(provider_cls).encrypt_many(plains) == expected
        assert provider_cls(KEY).decrypt_many(expected) == plains
        assert [provider_cls(KEY).decrypt(cell) for cell in expected] == plains

    def test_mixed_batch_decrypts(self, provider_cls):
        provider = provider_cls(KEY)
        plains, cells = mixed_batch(provider)
        assert provider.decrypt_many(cells) == plains
        assert provider_cls(KEY).decrypt_many(iter(cells)) == plains

    def test_flipped_bit_in_any_cell_fails_the_batch(self, provider_cls):
        provider = provider_cls(KEY)
        _, cells = mixed_batch(provider)
        for position, cell in enumerate(cells):
            for offset in range(len(cell)):
                corrupted = bytearray(cell)
                corrupted[offset] ^= 0x01
                batch = list(cells)
                batch[position] = bytes(corrupted)
                with pytest.raises(AuthenticationError):
                    provider.decrypt_many(batch)

    def test_too_short_cell_fails_the_batch(self, provider_cls):
        provider = provider_cls(KEY)
        _, cells = mixed_batch(provider)
        for position in range(len(cells)):
            for short in (b"", cells[position][:NONCE_SIZE + TAG_SIZE]):
                batch = list(cells)
                batch[position] = short
                with pytest.raises(AuthenticationError):
                    provider.decrypt_many(batch)

    def test_empty_batch(self, provider_cls):
        provider = provider_cls(KEY)
        assert provider.encrypt_many([]) == []
        assert provider.decrypt_many([]) == []


def test_fast_scalar_encrypt_golden_vector():
    plain = batch_plaintexts(BATCH_LENGTHS[1])[0]
    cell = pinned(FastProvider).encrypt(plain)
    assert cell.hex() == FAST_SCALAR_GOLDEN
    assert FastProvider(KEY).decrypt(cell) == plain
