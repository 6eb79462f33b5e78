"""Reproducible random streams.

Every source of randomness in the package is an :class:`RngStream`: a
(seed, label) pair from which a fresh numpy generator can be created at
any time.  Identical (seed, label) pairs always produce identical draw
sequences, and child streams are derived purely from the parent's label,
so a whole experiment is a function of its base seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """A named, seeded source of pseudo-random numbers."""

    seed: int
    label: str = "root"

    def child(self, *parts: object) -> "RngStream":
        """Derive a sub-stream by appending path components to the label."""
        suffix = "/".join(str(p) for p in parts)
        return RngStream(self.seed, f"{self.label}/{suffix}")

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream.

        The label is hashed (sha256, platform independent) into the seed
        material, so distinct labels give statistically independent
        streams for the same seed.  The stream is the one of
        ``SeedSequence([seed & MASK64, *words])`` with ``words`` the digest's
        four little-endian 64-bit words.  That entropy is passed as the
        uint32 array SeedSequence would build from the list, because its
        conversion of Python ints one at a time costs more than the rest of
        the generator: each int becomes its 32-bit words, low word first,
        with no zero word kept at the high end (0 becomes ``[0]``).
        """
        digest = hashlib.sha256(self.label.encode("utf-8")).digest()
        entropy = []
        for word in (self.seed & _MASK64,
                     *(int.from_bytes(digest[i : i + 8], "little") for i in range(0, 32, 8))):
            entropy.append(word & _MASK32)
            if word >> 32:
                entropy.append(word >> 32)
        seq = np.random.SeedSequence(np.array(entropy, dtype=np.uint32))
        return np.random.Generator(np.random.PCG64(seq))


def derive_seed(base_seed: int, *parts: object) -> int:
    """Mix a base seed with identifying parts into a stable 64-bit seed.

    Used to give each row of a threshold sweep its own independent yet
    reproducible seed.
    """
    h = hashlib.sha256()
    h.update(str(base_seed & _MASK64).encode("ascii"))
    for p in parts:
        h.update(b"\x1f")
        h.update(str(p).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")
