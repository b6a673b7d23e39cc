"""Boxcar product-kernel density estimation and the local density-gap statistic T.

The estimators follow the plain boxcar kernel

    K_h(q, u) = 1{|q - u| <= h} / (2h)

with closed inequalities on both window edges, so a query at a sample point
always counts the point itself. The gap statistic at a point (qx, qy) is

    T = (f_xy - f_x * f_y) / sqrt(f_x * f_y)

with either the boxcar plug-in densities (empirical variant) or closed-form
bivariate Gaussian densities (population variant).

At the sample points everything rests on three closed window counts per
point, (cx, cy, cxy), which `window_counts` finds without an n x n pass:

- On one axis a window is a contiguous run of the sorted values: q - x
  rounds to a value non-increasing in x, so the x with |q - x| <= h form
  one run around q. searchsorted on the rounded q -+ h finds its edges up
  to the values that rounding decides, and each edge is then stepped, a run
  of ties at a time, until it agrees with |q - x| <= h itself (`Margin`).
- cxy counts the points whose x rank and y rank fall in both runs, a
  rectangle in rank space: a prefix table over blocks of about sqrt(n) x
  ranks plus a scan of at most one block per edge (`joint_counts`). The
  table grows its blocks to stay within about _WORKSPACE elements and the
  scans run in chunks, so memory stays bounded for every n.
- Shuffling y permutes its margin and keeps every window, so a y-shuffle
  costs one joint count.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import unit_scaled
from .errors import (
    DepgapError,
    DimensionMismatch,
    TooFewSamples,
    ZeroMarginalDensity,
    ZeroVariance,
)


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


def _sample_sd(values: np.ndarray) -> float:
    """Sample standard deviation (divisor n-1), taken of the unit-scaled values.

    The scaling back is exact, so the bits are np.std's wherever its squares
    stay normal floats, and elsewhere they can neither overflow nor underflow.
    """
    scaled, e = unit_scaled(values)
    try:
        return math.ldexp(float(np.std(scaled, ddof=1)), e)
    except OverflowError:
        raise DepgapError("standard deviation exceeds the float range") from None


def _scaled_pair(a: float, b: float) -> tuple:
    """(a * 2**-ea, b * 2**-eb, k) for positive a and b, both scaled into [0.5, 2).

    ea + eb = 2k is even, so the square root of the scaled product times
    2**k is exactly the root of a * b, where a * b is a normal float, and
    stays in range where it is not.
    """
    ea, eb = math.frexp(a)[1], math.frexp(b)[1]
    eb += (ea + eb) % 2
    return math.ldexp(a, -ea), math.ldexp(b, -eb), (ea + eb) // 2


def default_bandwidth(values) -> float:
    """Boxcar bandwidth sigma_hat * n**(-1/6), sample standard deviation with divisor n-1.

    Raises
    ------
    TooFewSamples
        If fewer than 2 values are given.
    ZeroVariance
        If all values are equal.
    DepgapError
        If the standard deviation exceeds the float range.
    """
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise TooFewSamples("bandwidth selection needs at least 2 values")
    return _bandwidth_of_sd(_sample_sd(values), n)


def _bandwidth_of_sd(sd: float, n: int) -> float:
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


# Elements allowed in the joint count's prefix table, which bounds memory,
# and in one chunk of its block scans, sized to stay in cache.
_WORKSPACE = 4_000_000
_SCAN_CHUNK = 1 << 15


@dataclass(frozen=True, eq=False)
class Margin:
    """One axis of a sample with the closed boxcar window of every point.

    rank[k] is the position of point k in sorted order, and the points j with
    |v_k - v_j| <= h are exactly those at sorted positions [lo[k], hi[k]).
    Windows hold whole runs of tied values, so any ranking that sorts the
    values serves; `permuted` relies on that.

    `joint_counts` reads [lo, hi) as any run of sorted positions, not only a
    window: `measures._hoeffd` and `measures._mr` pass the runs [0, lo) and
    [0, hi) of width-0 margins, and `_mr` also [lo, rank).
    """

    rank: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, h: float) -> "Margin":
        order = np.argsort(values, kind="stable")
        ordered = values[order]
        rank = np.empty(values.size, dtype=np.intp)
        rank[order] = np.arange(values.size)
        # q - x rounds to a value non-increasing in x, so "x lies left of
        # q's window" (q - x > h) and "x does not lie right of it"
        # (q - x >= -h) each hold on a prefix of the sorted values, and each
        # edge is that prefix's length. Near +-1.8e308 the differences
        # overflow to infinities of the right sign, which still compare
        # correctly with h.
        with np.errstate(over="ignore"):
            lo = _prefix_length(ordered, values, ordered.searchsorted(values - h, "left"),
                                lambda d: d > h)
            hi = _prefix_length(ordered, values, ordered.searchsorted(values + h, "right"),
                                lambda d: d >= -h)
        return cls(rank, lo, hi)

    @property
    def counts(self) -> np.ndarray:
        return self.hi - self.lo

    def permuted(self, perm) -> "Margin":
        """The margin of values[perm]; every point keeps its own window."""
        return Margin(self.rank[perm], self.lo[perm], self.hi[perm])

    @cached_property
    def blocks(self):
        """The x side of `joint_counts`, kept across y-shuffles.

        The block size, each point's cell in the prefix table (its y rank
        still to add), and the block and offset of each window edge.
        """
        n = self.rank.size
        # sqrt(n) balances the table (n^2 / block) against the scans (n * block).
        block = max(math.isqrt(n), -(-n * (n + 1) // _WORKSPACE))
        cells = self.rank // block * (n + 1) + (n + 2)
        return block, cells, *np.divmod(np.concatenate((self.hi, self.lo)).reshape(2, n), block)


def _prefix_length(ordered, q, edge, holds):
    # searchsorted on the rounded q -+ h can put an edge off by the values
    # that rounding decides. Step it across whole runs of ties until the
    # value before it satisfies holds(q - x) and the value at it does not.
    n = ordered.size
    todo = np.arange(q.size)
    while True:
        e, d = edge[todo], q[todo]
        at, before = ordered[np.minimum(e, n - 1)], ordered[e - 1]
        up = (e < n) & holds(d - at)
        down = (e > 0) & ~holds(d - before)
        moved = up | down
        if not moved.any():
            return edge
        e[up] = ordered.searchsorted(at[up], "right")
        e[down] = ordered.searchsorted(before[down], "left")
        todo = todo[moved]
        edge[todo] = e[moved]


def joint_counts(mx: Margin, my: Margin) -> np.ndarray:
    """Points inside both windows of every point, from two margins.

    With y_at[p] the y rank of the point at x rank p, the count for point k
    is #{p in [mx.lo[k], mx.hi[k]) : my.lo[k] <= y_at[p] < my.hi[k]}, a
    rank rectangle. F(a, b) = #{p < a : y_at[p] < b} splits into a prefix
    table over whole blocks of x ranks and a scan of at most one block.
    """
    n = mx.rank.size
    block, cells, corner_block, corner_rest = mx.blocks
    rows = n // block + 1
    y_at = np.full(rows * block, -1, dtype=np.intp)
    y_at[mx.rank] = my.rank
    # table[m, b] = #{p < m * block : y_at[p] < b}
    table = np.zeros((rows + 1, n + 1), dtype=np.intp)
    table.reshape(-1)[cells + my.rank] = 1
    table.cumsum(axis=0, out=table)
    table.cumsum(axis=1, out=table)
    # y_cols[t, m] = y_at[m * block + t]
    y_cols = y_at.reshape(rows, block).T
    offsets = np.arange(block)[:, None, None]
    cxy = np.empty(n, dtype=np.int64)
    chunk = max(1, _SCAN_CHUNK // (2 * block))
    for start in range(0, n, chunk):
        part = slice(start, start + chunk)
        m, rest = corner_block[:, part], corner_rest[:, part]
        b_lo, b_hi = my.lo[part], my.hi[part]
        # lo <= y < hi as one unsigned comparison; the -1 padding wraps high.
        scan = (y_cols[:, m] - b_lo).view(np.uintp)
        hits = (scan < (b_hi - b_lo).view(np.uintp)) & (offsets < rest)
        f = table[m, b_hi] - table[m, b_lo] + hits.sum(axis=0)
        cxy[part] = f[0] - f[1]
    return cxy


class _Axis:
    """One axis of a sample, prepared once: the local-density family's
    `prepare` step (see `measures`), so a row serves every pair it is in.

    It holds the values (a reference, not a copy), their sample standard
    deviation, the boxcar bandwidth h and the margin at h. h defaults to
    sd * n**(-1/6), which computes sd at once; with a given h, sd is only
    computed when first read. Per input value that is the margin's three
    index arrays, 24 bytes on a 64-bit platform. `margin()` hands out a new
    `Margin` on those arrays, so the joint-count blocks cached on it
    (`Margin.blocks`, another 40 bytes per value) live only as long as the
    caller's computation, not on axes that threads share.
    """

    def __init__(self, values: np.ndarray, h: float | None = None):
        self.values = values
        self.h = _bandwidth_of_sd(self.sd, values.size) if h is None else h
        built = Margin.of(values, self.h)
        self._arrays = built.rank, built.lo, built.hi

    @cached_property
    def sd(self) -> float:
        return _sample_sd(self.values)

    def margin(self) -> Margin:
        return Margin(*self._arrays)


def _axes(sample: PairedSample, cfg: KdeConfig | None = None) -> tuple:
    """The sample's two prepared axes, at cfg's bandwidths or the defaults.

    Without cfg the bandwidths' errors are those of `default_config`, the x
    axis's first.
    """
    if cfg is None:
        return _Axis(sample.xs), _Axis(sample.ys)
    return _Axis(sample.xs, cfg.h_x), _Axis(sample.ys, cfg.h_y)


def window_counts(sample: PairedSample, cfg: KdeConfig):
    """Closed boxcar window counts (cx, cy, cxy) at every sample point.

    cx[j] counts the points k with |x_j - x_k| <= h_x, cy[j] likewise on y,
    and cxy[j] the points inside both windows, j itself included. Each axis
    is sorted once; a window is a contiguous run of the sorted values, since
    x_j - x_k rounds monotonically in x_k, and its searchsorted edges are
    repaired against |x_j - x_k| <= h_x where rounding decides (`Margin`).
    cxy is a rectangle count in rank space (`joint_counts`) whose
    temporaries stay within a fixed number of elements for every n.
    """
    mx = Margin.of(sample.xs, cfg.h_x)
    my = Margin.of(sample.ys, cfg.h_y)
    return mx.counts, my.counts, joint_counts(mx, my)


def t_from_counts(cx, cy, cxy, cfg: KdeConfig) -> np.ndarray:
    """Gap statistic T at sample points from their closed window counts.

    The densities are formed with the bandwidths scaled by powers of two
    into [0.5, 2), and T is scaled back by the root of that factor
    (`_scaled_pair`). Both steps are exact, so T keeps its bits where the
    plain densities are normal floats, while at extreme bandwidths the
    densities can no longer overflow or underflow.
    """
    n = cx.size
    h_x, h_y, k = _scaled_pair(cfg.h_x, cfg.h_y)
    fx = cx / (2.0 * h_x) / n
    fy = cy / (2.0 * h_y) / n
    # Same denominator grouping as joint_density: swap-symmetric bits.
    fxy = cxy / ((2.0 * h_x) * (2.0 * h_y)) / n
    return np.ldexp(_gap(fx, fy, fxy), -k)


def t_statistic_at_sample_points(sample: PairedSample, cfg: KdeConfig) -> np.ndarray:
    """Gap statistic T evaluated at every sample point, as a length-n array.

    Self-inclusion of the boxcar window guarantees both marginals are
    positive at sample points, so the result is always finite.
    """
    return t_from_counts(*window_counts(sample, cfg), cfg)


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
