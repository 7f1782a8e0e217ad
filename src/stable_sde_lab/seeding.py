"""Deterministic seed derivation for replicate-parallel Monte Carlo.

Each (master seed, replicate index, stream tag) triple maps to an
independent 64-bit seed through a splitmix64 avalanche chain.  The mixing is
fixed for all time: changing it silently would break byte-level
reproducibility of every experiment.

A replicate's generator is ``np.random.default_rng(seed)``, a PCG64 seeded
through numpy's ``SeedSequence(seed)``.  ``replicate_rng`` builds one that
way and is the reference.  ``replicate_rngs`` builds the generators of a
whole range of replicates: it computes the four 64-bit words that
``SeedSequence(seed).generate_state(4, np.uint64)`` would give for every
seed in one vectorised pass, and hands each row to ``np.random.PCG64``,
which seeds itself from them.  Its generators have the same PCG64 states as
``replicate_rng``'s, but carry no ``SeedSequence``, so they cannot
``spawn``: a stream that spawns children takes its generator from
``replicate_rng``.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import lru_cache

import numpy as np

__all__ = ["splitmix64", "derive_seed", "replicate_rng", "replicate_rngs"]

_MASK = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 step: full-avalanche mix of a 64-bit word."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


@lru_cache(maxsize=256)
def _fold_tag(tag: str) -> int:
    h = 0x8B1A9953C4611296
    for byte in tag.encode("utf-8"):
        h = splitmix64(h ^ byte)
    return h


def derive_seed(master: int, replicate: int, tag: str = "") -> int:
    """Collision-resistant 64-bit seed for one replicate of one stream.

    Distinct tags give mutually independent streams, so resampling one stage
    (for example, growing the replicate count) never disturbs another.
    """
    h = splitmix64(master & _MASK)
    h = splitmix64(h ^ splitmix64(replicate & _MASK))
    h = splitmix64(h ^ _fold_tag(tag))
    return h


def replicate_rng(master: int, replicate: int, tag: str = "") -> np.random.Generator:
    """Fresh PCG64 generator for the derived seed."""
    return np.random.default_rng(derive_seed(master, replicate, tag))


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx), pool size 4.
# Its multiplier advances once per hash whatever the data, so the constants
# of every step are fixed: hash k of the pool mixing XORs with _MIX[k] and
# multiplies by _MIX[k + 1], and output word j does the same with _OUT.
def _powers(init: int, mult: int, n: int) -> tuple[np.uint32, ...]:
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return tuple(np.uint32(c) for c in out)


_POOL = 4
_MIX = _powers(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_OUT = _powers(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_L = np.uint32(0xCA01F9DD)
_MIX_R = np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash(value: np.ndarray, xor: np.uint32, mult: np.uint32) -> np.ndarray:
    value = (value ^ xor) * mult
    return value ^ (value >> _SHIFT)


def _seed_words(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for every uint64 seed s.

    One row per seed.  numpy takes a seed below 2**32 as one 32-bit entropy
    word and a larger one as two, and fills the pool with hashes of 0; both
    equal the pool of the words (low, high) filled with zero words.
    """
    # Seeds split into 32-bit words, and output words pair up into 64-bit
    # ones, little-endian by views, as numpy pairs them.  Splitting and
    # joining by shifts and masks instead raised the peak memory of a
    # 5000-replicate weak-agree run by about 0.1 MiB.
    halves = np.asarray(seeds, "<u8").view("<u4").reshape(-1, 2)
    zero = np.zeros(len(halves), np.uint32)
    entropy = (halves[:, 0], halves[:, 1], zero, zero)
    mix = zip(_MIX, _MIX[1:])
    pool = [_hash(word, *next(mix)) for word in entropy]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], *next(mix))
                pool[dst] = mixed ^ (mixed >> _SHIFT)
    state = np.empty((len(halves), 2 * _POOL), np.uint32)
    for j, consts in enumerate(zip(_OUT, _OUT[1:])):
        state[:, j] = _hash(pool[j % _POOL], *consts)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def replicate_rngs(
    master: int, replicates: range, tag: str = ""
) -> Iterator[np.random.Generator]:
    """A fresh generator per replicate of the range, in order.

    Each has the PCG64 state of ``replicate_rng(master, r, tag)``; the seed
    words of the whole range are computed in one pass when the first
    generator is drawn.  The generators cannot ``spawn``.
    """
    # Imported here: numpy.random stays unloaded until a stream is drawn.
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    class Words(ISeedSequence):
        """The seed words of one replicate, as PCG64 asks for them."""

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != _POOL or dtype is not np.uint64:
                raise ValueError("holds the 4 uint64 seed words of one PCG64 only")
            return self.words

    seeds = (derive_seed(master, r, tag) for r in replicates)
    for words in _seed_words(np.fromiter(seeds, np.uint64, len(replicates))):
        yield Generator(PCG64(Words(words)))
