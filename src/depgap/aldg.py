"""Averaged local density gap (aLDG) estimation.

The estimator is the fraction of sample points whose gap statistic T clears a
threshold t. Sub-modules of the problem live here as well: the three
threshold-selection rules (uniform-error, asymptotic-norm, inflection-point),
the avgCSN contingency-table predecessor, the non-thresholded mean-T variant,
and Monte Carlo population/influence quantities for bivariate Gaussians.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from ._util import child_rng, ordered_map
from .errors import DegenerateCurve, TooFewSamples
from .kde import (
    GaussianSpec,
    KdeConfig,
    Margin,
    PairedSample,
    _axes,
    _gap,
    _gaussian_densities,
    _scaled_pair,
    joint_counts,
    t_from_counts,
    t_statistic_at_sample_points,
    t_statistic_population,
)
from .synth import gaussian_pair

RULE_KINDS = ("fixed", "uniform-error", "asymptotic-norm", "inflection-point", "auto")


def default_n_shuffles(n: int) -> int:
    """Number of random shuffles used by the shuffle-based threshold rules."""
    return max(1000 // n, 5)


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.size < 5 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly increasing with >= 5 points")
    return grid


@dataclass
class ThresholdRule:
    """Tagged choice of how the aLDG threshold t is obtained.

    kind is one of "fixed" (uses t), "uniform-error" and "inflection-point"
    (use n_shuffles, seed, and for the latter an optional t grid),
    "asymptotic-norm" (closed form, parameter free), or "auto", which picks
    uniform-error for n <= 200 and asymptotic-norm otherwise.
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
            self.grid = _checked_grid(self.grid)

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
    if not t >= 0:
        raise ValueError("threshold t must be nonnegative")
    tvals = t_statistic_at_sample_points(sample, cfg)
    return int(np.count_nonzero(tvals >= t)) / sample.n


def threshold_asymptotic_norm(n: int, sigma_x: float, sigma_y: float) -> float:
    """Closed-form threshold Phi^{-1}(1 - 1/n) / (sqrt(sigma_x sigma_y) n^{1/3})."""
    if n < 2:
        raise TooFewSamples("asymptotic-norm threshold needs n >= 2")
    if not (sigma_x > 0 and sigma_y > 0):
        raise ValueError("sigmas must be positive")
    scaled_x, scaled_y, k = _scaled_pair(sigma_x, sigma_y)
    root = math.ldexp(math.sqrt(scaled_x * scaled_y), k)
    return float(ndtri(1.0 - 1.0 / n)) / (root * n ** (1.0 / 3.0))


def _t_of_margins(mx: Margin, my: Margin, cfg: KdeConfig) -> np.ndarray:
    """Gap statistic T at every sample point from the two margins at cfg."""
    return t_from_counts(mx.counts, my.counts, joint_counts(mx, my), cfg)


def _shuffled_t_values(mx: Margin, my: Margin, cfg: KdeConfig, seed: int, index: int):
    # T on (xs, ys[perm]): the shuffled y margin is my permuted, so only the
    # joint count is new.
    shuffled = my.permuted(child_rng(seed, index).permutation(my.rank.size))
    return _t_of_margins(mx, shuffled, cfg)


def _shuffled_t_arrays(mx: Margin, my: Margin, cfg, n_shuffles, seed, threads) -> list:
    if n_shuffles is None:
        n_shuffles = default_n_shuffles(mx.rank.size)
    return ordered_map(
        lambda index: _shuffled_t_values(mx, my, cfg, seed, index),
        range(n_shuffles),
        threads,
    )


def _share_at_least(tvals, grid) -> np.ndarray:
    """The share of the T values at or above each threshold of grid."""
    return (tvals[None, :] >= grid[:, None]).mean(axis=1)


def _median_of_maxima(t_arrays) -> float:
    return float(np.median([float(np.max(tvals)) for tvals in t_arrays]))


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
    independence. Defaults to max(1000 // n, 5) shuffles.
    """
    mx, my = Margin.of(sample.xs, cfg.h_x), Margin.of(sample.ys, cfg.h_y)
    return _median_of_maxima(_shuffled_t_arrays(mx, my, cfg, n_shuffles, seed, threads))


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
    grid's upper end comes from the same shuffles as the curves.
    """
    if grid is not None:
        grid = _checked_grid(grid)
    mx, my = Margin.of(sample.xs, cfg.h_x), Margin.of(sample.ys, cfg.h_y)
    return _inflection_point(_shuffled_t_arrays(mx, my, cfg, n_shuffles, seed, threads), grid)


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


def _resolve_rule(rule: ThresholdRule, n: int) -> ThresholdRule:
    if rule.kind != "auto":
        resolved = rule
    elif n <= 200:
        resolved = ThresholdRule.uniform_error(seed=rule.seed)
    else:
        resolved = ThresholdRule.asymptotic_norm()
    if resolved.kind in ("uniform-error", "inflection-point") and resolved.n_shuffles is None:
        resolved = ThresholdRule(
            resolved.kind,
            n_shuffles=default_n_shuffles(n),
            grid=resolved.grid,
            seed=resolved.seed,
        )
    return resolved


def aldg(
    sample: PairedSample,
    rule: ThresholdRule | None = None,
    cfg: KdeConfig | None = None,
    threads: int = 1,
) -> AldgResult:
    """aLDG with the threshold resolved by the given rule (default: auto).

    Bandwidths default to sigma_hat * n^{-1/6} per axis when cfg is omitted.
    """
    if rule is None:
        rule = ThresholdRule.auto()
    x, y, cfg = _axes(sample, cfg)
    return _aldg_of_axes(x, y, cfg, _resolve_rule(rule, sample.n), threads)


def _aldg_of_axes(x, y, cfg: KdeConfig, rule: ThresholdRule, threads: int = 1) -> AldgResult:
    """aLDG of two prepared axes (`kde._Axis`) under a resolved rule.

    Both margins are built once and serve the shuffles and the final count.
    """
    mx, my = x.margin(), y.margin()
    if rule.kind == "fixed":
        t = float(rule.t)
    elif rule.kind == "asymptotic-norm":
        t = threshold_asymptotic_norm(x.values.size, x.sd, y.sd)
    else:
        t_arrays = _shuffled_t_arrays(mx, my, cfg, rule.n_shuffles, rule.seed, threads)
        if rule.kind == "uniform-error":
            t = _median_of_maxima(t_arrays)
        else:
            t = _inflection_point(t_arrays, rule.grid)
    t = max(t, 0.0)
    tvals = _t_of_margins(mx, my, cfg)
    return AldgResult(int(np.count_nonzero(tvals >= t)) / tvals.size, t, rule)


def mean_t(sample: PairedSample, cfg: KdeConfig | None = None) -> float:
    """Arithmetic mean of the gap statistic T over all sample points."""
    return _mean_t_of_axes(*_axes(sample, cfg))


def _mean_t_of_axes(x, y, cfg: KdeConfig) -> float:
    return float(np.mean(_t_of_margins(x.margin(), y.margin(), cfg)))


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
    return _avgcsn_of_axes(*_axes(sample, cfg), alpha)


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")


def _avgcsn_of_axes(x, y, cfg: KdeConfig, alpha: float) -> float:
    mx, my = x.margin(), y.margin()
    nx, ny, nxy = mx.counts, my.counts, joint_counts(mx, my)
    n = nx.size
    z = float(ndtri(1.0 - alpha))
    denom = nx * ny * (n - nx) * (n - ny)
    ok = denom > 0
    s = np.zeros(n)
    s[ok] = (
        math.sqrt(n)
        * (nxy[ok] * n - nx[ok] * ny[ok])
        / np.sqrt(denom[ok].astype(float))
    )
    return int(np.count_nonzero(ok & (s > z))) / n


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
