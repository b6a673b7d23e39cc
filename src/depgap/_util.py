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
