"""Boxcar product-kernel density estimation and the local density-gap statistic T.

The estimators follow the plain boxcar kernel

    K_h(q, u) = 1{|q - u| <= h} / (2h)

with closed inequalities on both window edges, so a query at a sample point
always counts the point itself. The gap statistic at a point (qx, qy) is

    T = (f_xy - f_x * f_y) / sqrt(f_x * f_y)

with either the boxcar plug-in densities (empirical variant) or closed-form
bivariate Gaussian densities (population variant).

At the sample points everything rests on three closed window counts per
point, (cx, cy, cxy), found without an n x n pass; `_t_values` turns them
into T:

- On one axis a window is a contiguous run of the sorted values: q - x
  rounds to a value non-increasing in x, so the x with |q - x| <= h form
  one run around q. searchsorted on the rounded q -+ h finds its edges up
  to the values that rounding decides, and each edge is then stepped, a run
  of ties at a time, until it agrees with |q - x| <= h itself. At width 0
  the window is q's run of ties, whose edges are where the sorted values
  change (`Margin.of`, the one builder of margins from values).
- cxy counts the points whose x rank and y rank fall in both runs, a
  rectangle in rank space, so four corners of F(a, b), the number of
  points with x rank below a and y rank below b (`corner_counts`). F is
  read from a table of the x ranks packed 64 to a 64-bit word: for every
  y-rank bound b, the mask of the x ranks whose y rank is below b, word by
  word, and the running bit count over the words. Building it costs
  n^2 / 64 word operations and each corner one lookup. The bounds are
  swept in blocks of about _WORKSPACE table elements, so memory stays
  bounded for every n.
- Shuffling y permutes its margin and keeps every window, so a y-shuffle
  costs one joint count, and a batch of shuffled y margins (arrays of
  shape (S, n)) is counted against one x margin in one call.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._util import ordered_map, unit_scaled
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
        If all values are equal, or their spread is so small that the
        bandwidth rounds to 0.
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
    h = sd * n ** (-1.0 / 6.0)
    if h == 0.0:
        raise ZeroVariance(f"the bandwidth of standard deviation {sd!r} rounds to 0")
    return h


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


# Elements allowed in one block of the joint count's mask table, which
# bounds its memory for every n and every batch of y margins: 13 bytes
# each with the bit counts. Blocks four times larger were a third slower
# at n = 20000.
_WORKSPACE = 1_000_000
# _BIT[i] has bit i set, and _LOW[i] the i bits below it.
_BIT = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))
_LOW = _BIT - np.uint64(1)


@dataclass(frozen=True, eq=False)
class Margin:
    """One axis of a sample with the closed boxcar window of every point.

    rank[k] is the position of point k in sorted order, and the points j with
    |v_k - v_j| <= h are exactly those at sorted positions [lo[k], hi[k]).
    Windows hold whole runs of tied values, so any ranking that sorts the
    values serves: `permuted` relies on that, and `of` ranks by an unstable
    argsort, several times faster than a stable one on thousands of values.
    h defaults to 0, where each window is one run of ties: lo counts the
    values below a point and hi those at or below it.

    The arrays may also hold a batch of margins of one axis, shape (S, n),
    such as the y-shuffles of `permuted` with a batch of permutations;
    `joint_counts` counts them all against one x margin. `measures._kendall`,
    `measures._hoeffd` and `measures._mr` read the edges of width-0 margins
    as corners of `corner_counts` instead, and `measures._ranks` reads them
    as average ranks.
    """

    rank: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, h: float = 0.0) -> "Margin":
        n = values.size
        order = np.argsort(values)
        ordered = values[order]
        rank = np.empty(n, dtype=np.intp)
        rank[order] = np.arange(n)
        if h == 0.0:
            # |q - x| <= 0 only for x == q: each window is the run of q's
            # ties, read off where the sorted values change.
            new = np.empty(n, dtype=bool)
            new[0] = True
            np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
            starts = np.flatnonzero(new)
            run = (np.cumsum(new) - 1)[rank]
            return cls(rank, starts[run], np.append(starts[1:], n)[run])
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
        """The margin of values[perm]; every point keeps its own window.

        perm may be a batch of permutations, shape (S, n), which gives a
        batch of margins.
        """
        return Margin(self.rank[perm], self.lo[perm], self.hi[perm])


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


def corner_counts(x_rank, y_rank, a, b) -> np.ndarray:
    """F(a, b) = #{points with x rank < a and y rank < b} at many corners.

    x_rank is a permutation of range(n), and y_rank one too or a batch of
    them with shape (S, n). a has shape (I, n) and b (J, n) or (J, S, n);
    result[j, i, ..., k] is F(a[i, k], b[j, ..., k]), counted with the y
    ranks of the same batch row.

    x ranks are packed 64 to a word, behind a zero word. For each y margin
    and y-rank bound b, masks[c, b] is word c of the set of x ranks whose
    y rank is below b, and below[c, b] counts the bits of words 0..c. So
    F(a, b) = below[a >> 6, b] + popcount(masks[(a >> 6) + 1, b] & low
    bits of a), one lookup per corner. Along b, masks[c] is the OR-prefix
    of its word's points in y-rank order, so it is built by repeating each
    prefix over the bounds it holds for. The bounds are swept in blocks,
    and the margins taken in groups, of about _WORKSPACE table elements.
    """
    n, shape = x_rank.size, b.shape[1:]
    y_rank = y_rank.reshape(-1, n)
    b = b.reshape(b.shape[0], -1, n)
    out = np.empty((b.shape[0], a.shape[0], *y_rank.shape), dtype=np.intp)
    cols = (n >> 6) + 2
    rows = min(n + 1, max(1, _WORKSPACE // cols))
    # A margin's table block has rows * cols elements, its sort keys 64 * cols.
    group = max(1, _WORKSPACE // (max(rows, 64) * cols))
    slot = (x_rank & 63) + 64
    x_word, x_low = a >> 6, _LOW[a & 63]
    for s0 in range(0, y_rank.shape[0], group):
        ranks, bound = y_rank[s0:s0 + group], b[:, s0:s0 + group]
        size = ranks.shape[0]
        # 64 (y + 1) + i for the point at x rank 64 (c - 1) + i, sorted
        # within each word c; 64 (n + 1) where a word has no point.
        key = np.full((size, cols * 64), 64 * (n + 1))
        key[:, x_rank + 64] = ranks * 64 + slot
        key = np.sort(key.reshape(size, cols, 64), axis=2)
        steps = key >> 6
        prefix = np.zeros((size, cols, 65), dtype=np.uint64)
        np.bitwise_or.accumulate(_BIT[key & 63], axis=2, out=prefix[:, :, 1:])
        for b0 in range(0, n + 1, rows):
            b1 = min(b0 + rows, n + 1)
            height = b1 - b0
            # prefix[..., m], the OR of a word's first m points, holds from
            # the m-th point's step to the next one's.
            lengths = np.empty((size, cols, 65), dtype=np.intp)
            lengths[:, :, :64] = steps if height > n else steps.clip(b0, b1) - b0
            lengths[:, :, 64] = height
            lengths[:, :, 1:] -= lengths[:, :, :64]
            masks = np.repeat(prefix.reshape(-1), lengths.reshape(-1))
            masks = masks.reshape(size, cols, height)
            below = np.bitwise_count(masks).astype(np.int32)
            for c in range(1, cols):
                np.add(below[:, c - 1], below[:, c], out=below[:, c])
            row = bound if height > n else bound.clip(b0, b1 - 1) - b0
            at = (np.arange(size)[:, None] * cols + x_word[:, None]) * height + row[:, None]
            words = masks.reshape(-1)[at + height] & x_low[:, None]
            f = below.reshape(-1)[at] + np.bitwise_count(words)
            if height > n:
                out[:, :, s0:s0 + size] = f
            else:
                inside = (bound >= b0) & (bound < b1)
                np.copyto(out[:, :, s0:s0 + size], f, where=inside[:, None])
    return out.reshape(b.shape[0], a.shape[0], *shape)


def joint_counts(mx: Margin, my: Margin) -> np.ndarray:
    """Points inside both windows of every point, from two margins.

    With y_at[p] the y rank of the point at x rank p, the count for point k
    is #{p in [mx.lo[k], mx.hi[k]) : my.lo[k] <= y_at[p] < my.hi[k]}, a
    rank rectangle: four corners of `corner_counts`. my's arrays may hold a
    batch of y margins with shape (S, n), such as y-shuffles of one margin,
    all counted against mx in one call; the result then has that shape.
    """
    f = corner_counts(mx.rank, my.rank, np.array((mx.lo, mx.hi)), np.array((my.lo, my.hi)))
    return f[1, 1] - f[1, 0] - f[0, 1] + f[0, 0]


class _Axis:
    """One axis of a sample, prepared once: the local-density family's
    `prepare` step (see `measures`), so a row serves every pair it is in.

    It holds the values (a reference, not a copy), their sample standard
    deviation, the boxcar bandwidth h and the `Margin` at h. h defaults to
    sd * n**(-1/6), which computes sd at once; with a given h, sd is only
    computed when first read. Per input value that is the margin's three
    index arrays, 24 bytes on a 64-bit platform. A `Margin` is immutable
    and the joint count builds its mask table per call, so threads can
    share an axis.
    """

    def __init__(self, values: np.ndarray, h: float | None = None):
        self.values = values
        self.h = _bandwidth_of_sd(self.sd, values.size) if h is None else h
        self.margin = Margin.of(values, self.h)

    @cached_property
    def sd(self) -> float:
        return _sample_sd(self.values)


def _axes(sample: PairedSample, cfg: KdeConfig | None = None) -> tuple:
    """The sample's two prepared axes, at cfg's bandwidths or the defaults.

    Without cfg the bandwidths' errors are those of `default_config`, the x
    axis's first.
    """
    if cfg is None:
        return _Axis(sample.xs), _Axis(sample.ys)
    return _Axis(sample.xs, cfg.h_x), _Axis(sample.ys, cfg.h_y)


def _t_values(x: _Axis, y: _Axis, perms=None, threads: int = 1) -> np.ndarray:
    """Gap statistic T at every sample point of two prepared axes.

    With perms, a sequence of permutations of range(n), the result has one
    row per perm: T on (xs, ys[perm]). A permuted y margin keeps every
    window, so all rows come from one fancy index of y's margin and one
    batched joint count; threads split the rows into that many batches, and
    each row is the same for every split.

    The densities are formed with the bandwidths scaled by powers of two
    into [0.5, 2), and T is scaled back by the root of that factor
    (`_scaled_pair`). Both steps are exact, so T keeps its bits where the
    plain densities are normal floats, while at extreme bandwidths the
    densities can no longer overflow or underflow.
    """
    mx, n = x.margin, x.values.size
    h_x, h_y, k = _scaled_pair(x.h, y.h)
    fx = mx.counts / (2.0 * h_x) / n

    def rows(my: Margin) -> np.ndarray:
        fy = my.counts / (2.0 * h_y) / n
        # Same denominator grouping as joint_density: swap-symmetric bits.
        fxy = joint_counts(mx, my) / ((2.0 * h_x) * (2.0 * h_y)) / n
        return np.ldexp(_gap(fx, fy, fxy), -k)

    if perms is None:
        return rows(y.margin)
    perms = np.asarray(perms)
    parts = np.array_split(perms, min(threads, len(perms))) if threads > 1 else [perms]
    return np.concatenate(ordered_map(lambda part: rows(y.margin.permuted(part)), parts, threads))


def t_statistic_at_sample_points(sample: PairedSample, cfg: KdeConfig) -> np.ndarray:
    """Gap statistic T evaluated at every sample point, as a length-n array.

    Self-inclusion of the boxcar window guarantees both marginals are
    positive at sample points, so the result is always finite.
    """
    return _t_values(*_axes(sample, cfg))


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
