"""Internal helpers: deterministic seed derivation, ordered parallel fan-out,
and stable float formatting for report files.
"""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np


def child_seed(seed: int, index: int) -> int:
    """Derive a 64-bit child seed from a root seed and a task index.

    The derivation hashes the (seed, index) pair, so child streams do not
    depend on how many sibling tasks exist or in which order they run.
    """
    ss = np.random.SeedSequence((int(seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def child_rng(seed: int, index: int) -> np.random.Generator:
    """Generator seeded from the (seed, index) hash; see child_seed."""
    return np.random.default_rng(np.random.SeedSequence((int(seed), int(index))))


# The constants of numpy's SeedSequence hash (O'Neill's seed_seq_fe).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


class _SeedState(np.random.bit_generator.ISeedSequence):
    """A SeedSequence's generate_state(4, uint64) output, computed already."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _words(value: int) -> list:
    """The 32-bit words SeedSequence reads an entropy integer as, low first."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & 0xFFFFFFFF]
    while value > 0xFFFFFFFF:
        value >>= 32
        words.append(value & 0xFFFFFFFF)
    return words


def _hash_steps(const: int, mult: int):
    """The (xor, multiplier) pairs of successive hash steps: the constant,
    then the constant times mult, which the next step xors in."""
    while True:
        step = const * mult & 0xFFFFFFFF
        yield np.uint32(const), np.uint32(step)
        const = step


def _hashmix(value: np.ndarray, steps) -> np.ndarray:
    """SeedSequence's hashmix of uint32 words, at the next of steps."""
    xor, mult = next(steps)
    value = (value ^ xor) * mult
    return value ^ (value >> np.uint32(16))


def _pcg_states(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence(row).generate_state(4, uint64) for every row of a (K, L)
    array of 32-bit entropy words, the hash run on all rows at once: the
    hash constants evolve alike for every row, and uint32 products wrap as
    the hash's do."""
    steps = _hash_steps(_INIT_A, _MULT_A)

    def mix(x, y):  # SeedSequence's mix of two pool words
        result = np.uint32(_MIX_L) * x - np.uint32(_MIX_R) * y
        return result ^ (result >> np.uint32(16))

    words = [entropy[:, i] for i in range(entropy.shape[1])]
    zero = np.zeros(entropy.shape[0], dtype=np.uint32)
    pool = [_hashmix(words[i] if i < len(words) else zero, steps) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], _hashmix(pool[src], steps))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], _hashmix(word, steps))
    steps = _hash_steps(_INIT_B, _MULT_B)
    state = np.stack([_hashmix(pool[dst % 4], steps) for dst in range(8)], axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def child_rngs(keys) -> list:
    """[child_rng(seed, index) for seed, index in keys], bit for bit.

    Seeding one generator hashes its key twice (SeedSequence, then its
    state), about two thirds of the cost of drawing a short permutation
    from it; here the hashes of all keys run as a few array operations and
    each generator only seeds PCG64 from its state.
    """
    words = [_words(seed) + _words(index) for seed, index in keys]
    states = np.empty((len(words), 4), dtype=np.uint64)
    for length in {len(w) for w in words}:
        rows = [i for i, w in enumerate(words) if len(w) == length]
        states[rows] = _pcg_states(np.array([words[i] for i in rows], dtype=np.uint32))
    return [np.random.Generator(np.random.PCG64(_SeedState(state))) for state in states]


def unit_scaled(values) -> tuple:
    """values times 2**-e, with e the frexp exponent of their largest magnitude, and e.

    The scaled values lie in (-1, 1). A power-of-two scaling is exact unless
    a value falls below the normal range, so a statistic that is equivariant
    under scaling keeps its bits on the scaled values, while their squares
    and products can no longer overflow or underflow.
    """
    values = np.asarray(values, dtype=float)
    e = math.frexp(float(np.max(np.abs(values))))[1]
    return np.ldexp(values, -e), e


def ordered_map(fn, items, threads: int = 1) -> list:
    """Apply fn to each item, optionally on a thread pool.

    Results are collected in input order, so the output is identical for
    every thread count as long as fn is a pure function of its argument.
    """
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def fmt_float(value) -> str:
    """Render a float with 10 significant digits for byte-stable CSV output."""
    if isinstance(value, float) and value != value:
        return "nan"
    return format(float(value), ".10g")
