import hashlib
from types import SimpleNamespace

import numpy as np
import pytest

import fcnaug.rng
from fcnaug.rng import RngStream

MASK64 = (1 << 64) - 1
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1]


def reference_generator(seed: int, digest: bytes) -> np.random.Generator:
    """The generator built from Python ints, as SeedSequence documents it."""
    words = [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8)]
    seq = np.random.SeedSequence([seed & MASK64, *words])
    return np.random.Generator(np.random.PCG64(seq))


def assert_same_stream(gen: np.random.Generator, ref: np.random.Generator) -> None:
    assert gen.bit_generator.state == ref.bit_generator.state
    np.testing.assert_array_equal(gen.integers(0, 2**62, size=6),
                                  ref.integers(0, 2**62, size=6))
    np.testing.assert_array_equal(gen.permutation(17), ref.permutation(17))
    a, b = gen.uniform(size=5), ref.uniform(size=5)
    assert a.tobytes() == b.tobytes()


def digest_of(*words: int) -> bytes:
    return b"".join(w.to_bytes(8, "little") for w in words)


# Four 64-bit digest words with zero high halves, one of them all zero.  No
# label is known whose sha256 has such a word (about one in 2**30 has), so
# these digests are substituted for the hash.
CRAFTED_DIGESTS = [
    digest_of(0x1234_5678, 2**64 - 1, 0, 0xDEAD_BEEF_0000_0001),
    digest_of(2**63, 7, 0xFFFF_FFFF, 2**32),
    digest_of(0, 0, 0, 0),
]


class TestGeneratorSeeding:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("label", ["root", "root/augment/3/window/1", "é/∂"])
    def test_matches_seed_sequence_of_python_ints(self, seed, label):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        assert_same_stream(RngStream(seed, label).generator(),
                           reference_generator(seed, digest))

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("digest", CRAFTED_DIGESTS, ids=["mixed", "high-only", "zero"])
    def test_digest_words_with_zero_high_half(self, monkeypatch, seed, digest):
        hashed = SimpleNamespace(sha256=lambda data: SimpleNamespace(digest=lambda: digest))
        monkeypatch.setattr(fcnaug.rng, "hashlib", hashed)
        assert_same_stream(RngStream(seed, "any").generator(),
                           reference_generator(seed, digest))
