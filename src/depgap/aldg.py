"""Averaged local density gap (aLDG) estimation.

The estimator is the fraction of sample points whose gap statistic T clears a
threshold t. Sub-modules of the problem live here as well: the three
threshold-selection rules (uniform-error, asymptotic-norm, inflection-point),
the avgCSN contingency-table predecessor, the non-thresholded mean-T variant,
and Monte Carlo population/influence quantities for bivariate Gaussians.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from ._util import child_rngs
from .errors import DegenerateCurve, TooFewSamples
from .kde import (
    GaussianSpec,
    KdeConfig,
    Margin,
    PairedSample,
    _BATCH_VALUES,
    _axes,
    _gap,
    _gaussian_densities,
    _scaled_pair,
    _t_values,
    joint_counts,
    t_statistic_population,
)
from .synth import gaussian_pair

RULE_KINDS = ("fixed", "uniform-error", "asymptotic-norm", "inflection-point", "auto")
# The rules that draw y-shuffles. They read their seed, and so does auto,
# which hands it to uniform-error.
_SHUFFLE_KINDS = ("uniform-error", "inflection-point")


def default_n_shuffles(n: int) -> int:
    """Number of random shuffles used by the shuffle-based threshold rules."""
    return max(1000 // n, 5)


@dataclass
class ThresholdRule:
    """Tagged choice of how the aLDG threshold t is obtained.

    kind is one of "fixed" (uses t), "uniform-error" and "inflection-point"
    (use n_shuffles, seed, and for the latter an optional t grid),
    "asymptotic-norm" (closed form, parameter free), or "auto", which picks
    uniform-error for n <= 200 and asymptotic-norm otherwise.
    `draws_shuffles` and `reseeded` say which kinds draw y-shuffles and read
    a seed; callers ask the rule instead of listing kinds.
    """

    kind: str
    t: float | None = None
    n_shuffles: int | None = None
    grid: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in RULE_KINDS:
            raise ValueError(f"unknown threshold rule kind {self.kind!r}")
        if self.kind == "fixed":
            if self.t is None or not self.t >= 0:
                raise ValueError("fixed rule needs a threshold t >= 0")
        elif self.t is not None:
            raise ValueError(f"rule {self.kind!r} does not take a fixed t")
        if self.n_shuffles is not None and self.n_shuffles < 1:
            raise ValueError("n_shuffles must be at least 1")
        if self.grid is not None:
            self.grid = np.asarray(self.grid, dtype=float)
            if self.grid.size < 5 or not np.all(np.diff(self.grid) > 0):
                raise ValueError("grid must be strictly increasing with >= 5 points")

    @property
    def draws_shuffles(self) -> bool:
        """Whether the rule draws seeded y-shuffles (auto may, once resolved)."""
        return self.kind in _SHUFFLE_KINDS

    def reseeded(self, seed: int) -> "ThresholdRule":
        """This rule with another seed. Fixed and asymptotic-norm read no
        seed, so they come back as they are."""
        if self.draws_shuffles or self.kind == "auto":
            return replace(self, seed=seed)
        return self

    @classmethod
    def fixed(cls, t: float) -> "ThresholdRule":
        return cls("fixed", t=float(t))

    @classmethod
    def uniform_error(cls, n_shuffles: int | None = None, seed: int = 0) -> "ThresholdRule":
        return cls("uniform-error", n_shuffles=n_shuffles, seed=seed)

    @classmethod
    def asymptotic_norm(cls) -> "ThresholdRule":
        return cls("asymptotic-norm")

    @classmethod
    def inflection_point(
        cls, grid=None, n_shuffles: int | None = None, seed: int = 0
    ) -> "ThresholdRule":
        return cls("inflection-point", grid=grid, n_shuffles=n_shuffles, seed=seed)

    @classmethod
    def auto(cls, seed: int = 0) -> "ThresholdRule":
        return cls("auto", seed=seed)


@dataclass
class AldgResult:
    """aLDG value together with the threshold actually applied."""

    value: float
    t_used: float
    rule: ThresholdRule


def aldg_fixed_t(sample: PairedSample, cfg: KdeConfig, t: float) -> float:
    """Fraction of sample points with gap statistic T >= t (closed inequality)."""
    return aldg(sample, ThresholdRule.fixed(t), cfg).value


def threshold_asymptotic_norm(n: int, sigma_x: float, sigma_y: float) -> float:
    """Closed-form threshold Phi^{-1}(1 - 1/n) / (sqrt(sigma_x sigma_y) n^{1/3})."""
    if n < 2:
        raise TooFewSamples("asymptotic-norm threshold needs n >= 2")
    if not (sigma_x > 0 and sigma_y > 0):
        raise ValueError("sigmas must be positive")
    from scipy.special import ndtri  # imported here: slow, and most CLI runs never need it

    scaled_x, scaled_y, k = _scaled_pair(sigma_x, sigma_y)
    root = math.ldexp(math.sqrt(scaled_x * scaled_y), k)
    return float(ndtri(1.0 - 1.0 / n)) / (root * n ** (1.0 / 3.0))


def _shuffles(rules, n: int) -> np.ndarray:
    """The y-shuffles of n values that resolved shuffle rules with one
    n_shuffles draw: n_shuffles seeded permutations each, shape
    (len(rules), n_shuffles, n)."""
    rngs = child_rngs([(rule.seed, index) for rule in rules for index in range(rule.n_shuffles)])
    return np.array([rng.permutation(n) for rng in rngs]).reshape(len(rules), -1, n)


def _share_at_least(tvals, grid) -> np.ndarray:
    """The share of the T values at or above each threshold of grid."""
    return (tvals[None, :] >= grid[:, None]).mean(axis=1)


def _median_of_maxima(t_arrays):
    """The median over shuffles of the largest T: a float for the T rows of
    one sample's shuffles, shape (S, n), or an array for a batch of them,
    shape (B, S, n). np.median takes each row's median as it takes one."""
    medians = np.median(np.max(t_arrays, axis=-1), axis=-1)
    return float(medians) if medians.ndim == 0 else medians


def threshold_uniform_error(
    sample: PairedSample,
    cfg: KdeConfig,
    n_shuffles: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> float:
    """Median over shuffles of the largest T on independence-enforced data.

    Each shuffle permutes ys (a seeded Fisher-Yates permutation), recomputes
    T at all shuffled sample points, and records the maximum; the median of
    those maxima estimates the uniform estimation error of T under
    independence. Defaults to max(1000 // n, 5) shuffles. The arguments are
    checked as `ThresholdRule.uniform_error` checks them.
    """
    rule = _resolve_rule(ThresholdRule.uniform_error(n_shuffles, seed), sample.n)
    x, y = _axes(sample, cfg)
    return _median_of_maxima(_t_values(x, [y], _shuffles([rule], sample.n), threads)[0])


def threshold_inflection_point(
    sample: PairedSample,
    cfg: KdeConfig,
    grid=None,
    n_shuffles: int | None = None,
    seed: int = 0,
    threads: int = 1,
) -> float:
    """Median over shuffles of the flattening point of the aLDG-versus-t curve.

    For each shuffle the curve t -> aldg_fixed_t on the shuffled (independent)
    data is evaluated on the grid, and the grid point maximizing the discrete
    second difference (the steepest transition from fast to slow decline) is
    taken as that shuffle's estimate. Defaults: 51 grid points from 0 to twice
    the uniform-error threshold, and max(1000 // n, 5) shuffles. The default
    grid's upper end comes from the same shuffles as the curves. The
    arguments are checked as `ThresholdRule.inflection_point` checks them.
    """
    rule = _resolve_rule(ThresholdRule.inflection_point(grid, n_shuffles, seed), sample.n)
    x, y = _axes(sample, cfg)
    return _inflection_point(_t_values(x, [y], _shuffles([rule], sample.n), threads)[0], rule.grid)


def _inflection_point(t_arrays, grid) -> float:
    if grid is None:
        upper = 2.0 * _median_of_maxima(t_arrays)
        if not upper > 0:
            raise DegenerateCurve("shuffle maxima give no positive threshold range")
        grid = np.linspace(0.0, upper, 51)

    def one(tvals):
        curve = _share_at_least(tvals, grid)
        if np.all(curve == curve[0]):
            raise DegenerateCurve("aLDG-versus-t curve is constant on the grid")
        second_diff = curve[2:] - 2.0 * curve[1:-1] + curve[:-2]
        return float(grid[int(np.argmax(second_diff)) + 1])

    return float(np.median([one(tvals) for tvals in t_arrays]))


def _resolve_rule(rule: ThresholdRule | None, n: int) -> ThresholdRule:
    """The rule that applies at sample size n: auto (also None) picks its
    branch, and a shuffle rule without a shuffle count gets
    `default_n_shuffles(n)`. This is the only place that count is filled in.
    """
    if rule is None:
        rule = ThresholdRule.auto()
    if rule.kind == "auto" and n <= 200:
        rule = ThresholdRule.uniform_error(seed=rule.seed)
    elif rule.kind == "auto":
        rule = ThresholdRule.asymptotic_norm()
    if rule.draws_shuffles and rule.n_shuffles is None:
        rule = replace(rule, n_shuffles=default_n_shuffles(n))
    return rule


def aldg(
    sample: PairedSample,
    rule: ThresholdRule | None = None,
    cfg: KdeConfig | None = None,
    threads: int = 1,
) -> AldgResult:
    """aLDG with the threshold resolved by the given rule (default: auto).

    Bandwidths default to sigma_hat * n^{-1/6} per axis when cfg is omitted.
    """
    x, y = _axes(sample, cfg)
    return _aldg_of_axes(x, [y], [_resolve_rule(rule, sample.n)], threads)[0]


def _aldg_of_axes(x, ys, rules, threads: int = 1) -> list:
    """aLDG of a prepared x axis (`kde._Axis`) against each prepared axis of
    ys, under the resolved rule of rules at the same position.

    The rules differ at most in their seeds. When they draw shuffles, each
    y's unshuffled margin and its own shuffles are rows of one batch,
    counted for all of ys together; otherwise the unshuffled margins alone
    are; ys are then taken in batches of about _BATCH_VALUES values over
    all their rows.
    """
    n, kind = x.values.size, rules[0].kind
    if rules[0].draws_shuffles:
        step = max(1, _BATCH_VALUES // ((1 + rules[0].n_shuffles) * n))
        if len(ys) > step:
            return [result for i in range(0, len(ys), step)
                    for result in _aldg_of_axes(x, ys[i:i + step], rules[i:i + step], threads)]
        unshuffled = np.broadcast_to(np.arange(n), (len(rules), 1, n))
        t_all = _t_values(x, ys, np.concatenate([unshuffled, _shuffles(rules, n)], axis=1), threads)
        tvals, t_arrays = t_all[:, 0], t_all[:, 1:]
    else:
        tvals = _t_values(x, ys, threads=threads)
    if kind == "fixed":
        ts = [rule.t for rule in rules]
    elif kind == "asymptotic-norm":
        ts = [threshold_asymptotic_norm(n, x.sd, y.sd) for y in ys]
    elif kind == "uniform-error":
        ts = _median_of_maxima(t_arrays).tolist()
    else:
        ts = [_inflection_point(arrays, rule.grid) for arrays, rule in zip(t_arrays, rules)]
    results = []
    for values, t, rule in zip(tvals, ts, rules):
        t = max(float(t), 0.0)
        results.append(AldgResult(int(np.count_nonzero(values >= t)) / n, t, rule))
    return results


def mean_t(sample: PairedSample, cfg: KdeConfig | None = None) -> float:
    """Arithmetic mean of the gap statistic T over all sample points."""
    x, y = _axes(sample, cfg)
    return _mean_t_of_axes(x, [y])[0]


def _mean_t_of_axes(x, ys) -> list:
    """Mean T of a prepared x axis against each prepared axis of ys."""
    return [float(np.mean(tvals)) for tvals in _t_values(x, ys)]


def avgcsn(
    sample: PairedSample, cfg: KdeConfig | None = None, alpha: float = 0.01
) -> float:
    """Average of per-point one-sided contingency-table test indicators.

    For each sample point j the n observations are cross-classified by the
    window conditions |x - x_j| <= h_x and |y - y_j| <= h_y, the normalized
    statistic

        S = sqrt(n) (n * n_xy - n_x n_y) / sqrt(n_x n_y (n - n_x)(n - n_y))

    is compared against the normal quantile Phi^{-1}(1 - alpha) (strict
    inequality), and the indicators are averaged. Degenerate tables, where a
    marginal count is 0 or n, contribute indicator 0.
    """
    _check_alpha(alpha)
    x, y = _axes(sample, cfg)
    return _avgcsn_of_axes(x, [y], alpha)[0]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _avgcsn_of_axes(x, ys, alpha: float = 0.01) -> list:
    """avgCSN of a prepared x axis against each prepared axis of ys, all
    joint windows counted in one batch."""
    from scipy.special import ndtri  # imported here: slow, and most CLI runs never need it

    my = Margin.stacked([y.margin for y in ys])
    nx, ny, nxy = x.margin.counts, my.counts, joint_counts(x.margin, my)
    n = nx.size
    z = float(ndtri(1.0 - alpha))
    denom = nx * ny * (n - nx) * (n - ny)
    ok = denom > 0
    s = np.zeros(ny.shape)
    s[ok] = (
        math.sqrt(n)
        * (nxy[ok] * n - np.broadcast_to(nx, ny.shape)[ok] * ny[ok])
        / np.sqrt(denom[ok].astype(float))
    )
    return (np.count_nonzero(ok & (s > z), axis=1) / n).tolist()


def population_aldg_gaussian(
    spec: GaussianSpec, t, n_mc: int = 100_000, seed: int = 0
) -> float | np.ndarray:
    """Monte Carlo estimate of Pr{T(X, Y) > t} for a bivariate Gaussian.

    The population definition uses the strict inequality, so independence
    (rho = 0) gives exactly 0 at every t >= 0. t may also be an array of
    thresholds, all compared with one draw; the result then has t's shape.
    """
    if n_mc < 1000:
        raise ValueError("n_mc must be at least 1000")
    draw = gaussian_pair(spec, n_mc, seed)
    tvals = t_statistic_population(spec, draw.xs, draw.ys)
    share = np.count_nonzero(tvals > np.asarray(t, dtype=float)[..., None], axis=-1) / n_mc
    return float(share) if np.ndim(t) == 0 else share


def influence_approx(
    spec: GaussianSpec,
    t: float,
    eps: float,
    point: tuple[float, float],
    n_mc: int = 100_000,
    seed: int = 0,
) -> float:
    """Finite-difference influence of a point-mass contamination on aLDG_t.

    The contaminated population mixes the Gaussian with mass eps at `point`.
    On the continuous part the gap statistic shifts to T + eps * sqrt(f_X f_Y),
    while the atom itself carries an unbounded density spike that clears any
    finite threshold, contributing eps regardless of where the point sits.
    Both the clean and contaminated probabilities are estimated on one shared
    Monte Carlo draw and the scaled difference is returned.
    """
    if not 0.0 < eps <= 0.01:
        raise ValueError("eps must lie in (0, 0.01]")
    draw = gaussian_pair(spec, n_mc, seed)
    fx, fy, fxy = _gaussian_densities(spec, draw.xs, draw.ys)
    root = np.sqrt(fx * fy)
    tvals = _gap(fx, fy, fxy)
    base = float(np.mean(tvals > t))
    contaminated = eps + (1.0 - eps) * float(np.mean(tvals + eps * root > t))
    return (contaminated - base) / eps
