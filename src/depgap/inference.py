"""Permutation-based independence testing and power estimation.

One engine serves every measure in the registry: the observed statistic is
compared against the null distribution obtained by permuting the y values.
Signed measures (Pearson, Spearman, Kendall) are tested on their absolute
value so the one-sided count detects dependence in either direction.
"""

from dataclasses import dataclass, replace

import numpy as np

from ._util import child_rng, child_seed, ordered_map
from .kde import Margin, PairedSample
from .measures import _MEASURES, SIGNED_TAGS, MeasureKind, _seeded_pair
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

    xs and ys are prepared once (the measure's `prepare` step). A width-0
    margin of ys is permuted as it stands; any other prepared ys is built
    afresh from the permuted values, since a permuted axis's standard
    deviation can differ from the original's in its last bits (np.std sums
    in another order).
    """
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    if n_perms < 1:
        raise ValueError("n_perms must be at least 1")
    signed = kind.tag in SIGNED_TAGS
    prepare = _MEASURES[kind.tag][0]
    pair = _seeded_pair(kind, sample.n, seed)
    x, y = prepare(sample.xs), prepare(sample.ys)
    permuted = y.permuted if isinstance(y, Margin) else lambda perm: prepare(sample.ys[perm])

    def stat(b, y):
        value = pair(b, x, y)
        return abs(value) if signed else value

    observed = stat(0, y)
    null_stats = ordered_map(
        lambda b: stat(b, permuted(child_rng(seed, b).permutation(sample.n))),
        range(1, n_perms + 1),
        threads,
    )
    exceed = int(np.count_nonzero(np.asarray(null_stats) >= observed))
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
