"""Permutation-based independence testing and power estimation.

One engine serves every measure in the registry: the observed statistic is
compared against the null distribution obtained by permuting the y values.
Signed measures (Pearson, Spearman, Kendall) are tested on their absolute
value so the one-sided count detects dependence in either direction.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._util import child_rngs, child_seed, ordered_map
from .kde import _BATCH_VALUES, PairedSample
from .measures import _MEASURES, SIGNED_TAGS, MeasureKind, _seeded_pairs
from .synth import SynthSpec, generate


@dataclass
class PermTestResult:
    """Observed statistic and its permutation p-value."""

    observed: float
    p_value: float
    n_perms: int
    seed: int


def permutation_test(
    kind, sample: PairedSample, n_perms: int = 200, seed: int = 0, threads: int = 1
) -> PermTestResult:
    """Permutation independence test with the add-one p-value estimator.

    p = (1 + #{b : stat_b >= observed}) / (n_perms + 1), where each stat_b is
    the measure on (xs, permuted ys). aLDG's threshold shuffles are re-seeded
    per permutation, so each permuted dataset draws its own threshold and
    the null stays exchangeable. Statistic b equals
    measure(kind_with_seed(kind, child_seed(seed, b)), ...), b = 0 being the
    observed one.

    xs and ys are prepared once (the measure's `prepare` step), and every
    prepared ys permutes exactly, so no permuted ys is prepared afresh: a
    permuted axis of the local-density family keeps its own standard
    deviation and bandwidth, which can differ from ys's in the last bits
    (np.std sums in another order). The permutations are taken in chunks
    of about _BATCH_VALUES values, at least one per thread; the
    local-density family counts a chunk's rows, aLDG's y-shuffles of each
    included, in one batched joint count. Each statistic is the same for
    every chunk and thread count.
    """
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    if n_perms < 1:
        raise ValueError("n_perms must be at least 1")
    n = sample.n
    prepare = _MEASURES[kind.tag][0]
    pairs = _seeded_pairs(kind, n, seed)
    x, y = prepare(sample.xs), prepare(sample.ys)

    def stats(indices, perms=None) -> np.ndarray:
        values = np.array(pairs(indices, x, y, perms))
        return np.abs(values) if kind.tag in SIGNED_TAGS else values

    def chunk(indices) -> np.ndarray:
        rngs = child_rngs([(seed, b) for b in indices])
        return stats(indices, np.array([rng.permutation(n) for rng in rngs]))

    observed = stats([0])[0]
    count = max(threads, -(-n_perms * n // _BATCH_VALUES))
    parts = np.array_split(np.arange(1, n_perms + 1), min(count, n_perms))
    null_stats = np.concatenate(ordered_map(chunk, parts, threads))
    exceed = int(np.count_nonzero(null_stats >= observed))
    return PermTestResult(
        observed=float(observed),
        p_value=(1 + exceed) / (n_perms + 1),
        n_perms=n_perms,
        seed=seed,
    )


def power_estimate(
    spec: SynthSpec,
    kind,
    level: float = 0.05,
    n_perms: int = 200,
    n_trials: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> float:
    """Fraction of independent trials whose permutation test rejects at `level`.

    Each trial draws fresh data from the spec under a derived seed and runs
    its own permutation test, also under a derived seed.
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must lie in (0, 1)")
    if n_trials < 1:
        raise ValueError("n_trials must be at least 1")

    def one(trial):
        data_seed = child_seed(seed, 2 * trial)
        test_seed = child_seed(seed, 2 * trial + 1)
        data = generate(replace(spec, seed=data_seed))
        result = permutation_test(kind, data, n_perms, test_seed)
        return result.p_value <= level

    rejections = ordered_map(one, range(n_trials), threads)
    return sum(rejections) / n_trials
