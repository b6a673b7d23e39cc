"""Boxcar product-kernel density estimation and the local density-gap statistic T.

The estimators follow the plain boxcar kernel

    K_h(q, u) = 1{|q - u| <= h} / (2h)

with closed inequalities on both window edges, so a query at a sample point
always counts the point itself. The gap statistic at a point (qx, qy) is

    T = (f_xy - f_x * f_y) / sqrt(f_x * f_y)

with either the boxcar plug-in densities (empirical variant) or closed-form
bivariate Gaussian densities (population variant).
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewSamples, ZeroMarginalDensity, ZeroVariance


@dataclass
class PairedSample:
    """Two aligned real-valued sequences, one observation pair per index."""

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=float)
        self.ys = np.asarray(self.ys, dtype=float)
        if self.xs.ndim != 1 or self.ys.ndim != 1:
            raise DimensionMismatch("xs and ys must be one-dimensional")
        if self.xs.shape != self.ys.shape:
            raise DimensionMismatch(
                f"xs has length {self.xs.size}, ys has length {self.ys.size}"
            )
        if self.xs.size < 2:
            raise TooFewSamples("a paired sample needs at least 2 observations")
        if not (np.isfinite(self.xs).all() and np.isfinite(self.ys).all()):
            raise DimensionMismatch("sample values must be finite (no NaN or inf)")

    @property
    def n(self) -> int:
        return self.xs.size

    def swapped(self) -> "PairedSample":
        """The same sample with the axes exchanged."""
        return PairedSample(self.ys.copy(), self.xs.copy())


@dataclass
class KdeConfig:
    """Per-axis boxcar bandwidths for the product density estimator."""

    h_x: float
    h_y: float

    def __post_init__(self):
        if not (self.h_x > 0 and self.h_y > 0):
            raise ValueError("bandwidths must be positive")

    def swapped(self) -> "KdeConfig":
        return KdeConfig(self.h_y, self.h_x)


@dataclass
class GaussianSpec:
    """Bivariate Gaussian parameters for population (closed-form) quantities."""

    rho: float
    mu_x: float = 0.0
    mu_y: float = 0.0
    sigma_x: float = 1.0
    sigma_y: float = 1.0

    def __post_init__(self):
        if not abs(self.rho) < 1:
            raise ValueError("rho must lie strictly inside (-1, 1)")
        if not (self.sigma_x > 0 and self.sigma_y > 0):
            raise ValueError("sigmas must be positive")


def default_bandwidth(values) -> float:
    """Boxcar bandwidth sigma_hat * n**(-1/6), sample standard deviation with divisor n-1.

    Raises
    ------
    TooFewSamples
        If fewer than 2 values are given.
    ZeroVariance
        If all values are equal.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise TooFewSamples("bandwidth selection needs at least 2 values")
    sd = float(np.std(values, ddof=1))
    if sd == 0.0:
        raise ZeroVariance("bandwidth selection met a constant sequence")
    return sd * n ** (-1.0 / 6.0)


def default_config(sample: PairedSample) -> KdeConfig:
    """Per-axis default bandwidths for a paired sample."""
    return KdeConfig(default_bandwidth(sample.xs), default_bandwidth(sample.ys))


def marginal_density(values, h: float, q: float) -> float:
    """Boxcar kernel density estimate of one margin at query point q."""
    if not h > 0:
        raise ValueError("bandwidth must be positive")
    values = np.asarray(values, dtype=float)
    count = int(np.count_nonzero(np.abs(q - values) <= h))
    return count / (2.0 * h) / values.size


def joint_density(sample: PairedSample, cfg: KdeConfig, qx: float, qy: float) -> float:
    """Product-kernel joint density estimate at (qx, qy)."""
    in_x = np.abs(qx - sample.xs) <= cfg.h_x
    in_y = np.abs(qy - sample.ys) <= cfg.h_y
    count = int(np.count_nonzero(in_x & in_y))
    # The window areas are multiplied before dividing so the value is
    # bit-identical when the axes (and bandwidths) are swapped.
    return count / ((2.0 * cfg.h_x) * (2.0 * cfg.h_y)) / sample.n


def t_statistic_empirical(
    sample: PairedSample, cfg: KdeConfig, qx: float, qy: float
) -> float:
    """Plug-in gap statistic T at an arbitrary query point.

    Raises ZeroMarginalDensity when the query lies outside every boxcar
    window on either axis, which makes the normalization vanish.
    """
    fx = marginal_density(sample.xs, cfg.h_x, qx)
    fy = marginal_density(sample.ys, cfg.h_y, qy)
    if fx * fy == 0.0:
        raise ZeroMarginalDensity(
            f"no sample mass around query ({qx}, {qy}); T is undefined there"
        )
    return _gap(fx, fy, joint_density(sample, cfg, qx, qy))


def window_counts(sample: PairedSample, cfg: KdeConfig):
    """Closed boxcar window counts (cx, cy, cxy) at every sample point.

    cx[j] counts the points k with |x_j - x_k| <= h_x, cy[j] likewise on y,
    and cxy[j] the points inside both windows, j itself included. Queries
    are processed in blocks to keep the n x n indicator workspace bounded.
    """
    xs, ys = sample.xs, sample.ys
    n = sample.n
    cx = np.empty(n, dtype=np.int64)
    cy = np.empty(n, dtype=np.int64)
    cxy = np.empty(n, dtype=np.int64)
    block = max(1, int(4_000_000 // n))
    for start in range(0, n, block):
        stop = start + block
        in_x = np.abs(xs[start:stop, None] - xs[None, :]) <= cfg.h_x
        in_y = np.abs(ys[start:stop, None] - ys[None, :]) <= cfg.h_y
        in_x.sum(axis=1, out=cx[start:stop])
        in_y.sum(axis=1, out=cy[start:stop])
        (in_x & in_y).sum(axis=1, out=cxy[start:stop])
    return cx, cy, cxy


def t_statistic_at_sample_points(sample: PairedSample, cfg: KdeConfig) -> np.ndarray:
    """Gap statistic T evaluated at every sample point, as a length-n array.

    Self-inclusion of the boxcar window guarantees both marginals are
    positive at sample points, so the result is always finite.
    """
    cx, cy, cxy = window_counts(sample, cfg)
    n = sample.n
    fx = cx / (2.0 * cfg.h_x) / n
    fy = cy / (2.0 * cfg.h_y) / n
    # Same denominator grouping as joint_density: swap-symmetric bits.
    fxy = cxy / ((2.0 * cfg.h_x) * (2.0 * cfg.h_y)) / n
    return _gap(fx, fy, fxy)


def _gap(fx, fy, fxy):
    # The one place the T formula is written; scalars or arrays alike.
    return (fxy - fx * fy) / np.sqrt(fx * fy)


def _gaussian_densities(spec: GaussianSpec, qx, qy):
    # The joint factors as f_X(x) * f_{Y|X}(y|x). Writing it that way makes
    # rho = 0 reduce to the marginal product exactly, so T is identically 0
    # under independence rather than floating-point noise around 0.
    zx = (np.asarray(qx, dtype=float) - spec.mu_x) / spec.sigma_x
    zy = (np.asarray(qy, dtype=float) - spec.mu_y) / spec.sigma_y
    root_two_pi = np.sqrt(2.0 * np.pi)
    fx = np.exp(-0.5 * zx**2) / (spec.sigma_x * root_two_pi)
    fy = np.exp(-0.5 * zy**2) / (spec.sigma_y * root_two_pi)
    one_minus = 1.0 - spec.rho**2
    cond = np.exp(-0.5 * (zy - spec.rho * zx) ** 2 / one_minus) / (
        spec.sigma_y * np.sqrt(one_minus) * root_two_pi
    )
    return fx, fy, fx * cond


def t_statistic_population(spec: GaussianSpec, qx, qy):
    """Closed-form T for a bivariate Gaussian; vectorizes over query arrays."""
    t = _gap(*_gaussian_densities(spec, qx, qy))
    if np.ndim(t) == 0:
        return float(t)
    return t
