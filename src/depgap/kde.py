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


def _sample_sd(values: np.ndarray):
    """Sample standard deviation (divisor n-1), taken of the unit-scaled values.

    The scaling back is exact, so the bits are np.std's wherever its squares
    stay normal floats, and elsewhere they can neither overflow nor underflow.
    values may also be a batch of permutations of one sequence, shape (S, n),
    which gives a list of one deviation per row: np.std sums each row as it
    sums a sequence alone, so every row has the bits of its own call.
    """
    scaled, e = unit_scaled(values)
    sd = np.std(scaled, axis=-1, ddof=1)
    try:
        return [math.ldexp(row, e) for row in sd.tolist()] if sd.ndim else math.ldexp(sd, e)
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
# Values of the y margins counted in one group. A group's corner lookups
# take about 270 bytes per value, so this keeps them near 0.5 MB. On 2,211
# permuted margins of 100 values, one group of all took 40 ms and groups
# of 16 to 128 margins 16 to 18 ms (2-core host).
_GROUP_VALUES = 2048
# Values of permuted rows held at once: `inference.permutation_test`
# takes its permutations, and `aldg._aldg_of_axes` its y rows with their
# shuffles, in batches of about this many.
_BATCH_VALUES = 16_384
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
    as average ranks. `measures._hhg` builds a batch of width-0 margins, one
    row per center, on each axis and counts them row against row.
    """

    rank: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def of(cls, values: np.ndarray, h: float = 0.0) -> "Margin":
        """The margin of values at width h; at width 0 values may also be a
        batch of sequences, shape (S, n), each row a margin of its own."""
        n = values.shape[-1]
        # Where each row begins in the flat arrays, so that one fancy index
        # serves a batch as it serves a single row.
        offset = np.arange(0, values.size, n).reshape(*values.shape[:-1], 1)
        order = np.argsort(values) + offset
        ordered = values.reshape(-1)[order]
        rank = np.empty(values.shape, dtype=np.intp)
        rank.reshape(-1)[order] = np.arange(n)
        if h == 0.0:
            # |q - x| <= 0 only for x == q: each window is the run of q's
            # ties, read off where the sorted values change. In the flat
            # arrays every row starts a run.
            new = np.empty(values.shape, dtype=bool)
            new[..., 0] = True
            np.not_equal(ordered[..., 1:], ordered[..., :-1], out=new[..., 1:])
            starts = np.flatnonzero(new)
            run = (np.cumsum(new) - 1)[rank + offset]
            return cls(rank, starts[run] - offset, np.append(starts[1:], values.size)[run] - offset)
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

    @classmethod
    def stacked(cls, margins, perms=None) -> "Margin":
        """One batch of margins of one axis: row i is margins[i], or with
        perms, R permutations for each margin (shape (len(margins), R, n)),
        row i * R + r is margins[i] permuted by perms[i][r]."""
        n, rows = margins[0].rank.size, 1 if perms is None else len(perms[0])
        out = cls(*(np.empty((len(margins) * rows, n), dtype=np.intp) for _ in range(3)))
        for i, margin in enumerate(margins):
            index = slice(None) if perms is None else np.asarray(perms[i])
            for name in ("rank", "lo", "hi"):
                getattr(out, name)[i * rows:(i + 1) * rows] = getattr(margin, name)[index]
        return out


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
    ranks of the same batch row. x_rank may be a batch of shape (S, n) as
    well, paired row by row with y_rank's, and a then has shape (I, S, n),
    each row bounding the x ranks of its own batch row.

    x ranks are packed 64 to a word, behind a zero word. For each y margin
    and y-rank bound b, masks[c, b] is word c of the set of x ranks whose
    y rank is below b, and below[c, b] counts the bits of words 0..c. So
    F(a, b) = below[a >> 6, b] + popcount(masks[(a >> 6) + 1, b] & low
    bits of a), one lookup per corner. Along b, masks[c] is the OR-prefix
    of its word's points in y-rank order, so it is built by repeating each
    prefix over the bounds it holds for. The bounds are swept in blocks of
    about _WORKSPACE table elements, and the margins taken in groups of
    about _GROUP_VALUES values that also fit in _WORKSPACE.
    """
    n, shape = x_rank.shape[-1], b.shape[1:]
    y_rank = y_rank.reshape(-1, n)
    b = b.reshape(b.shape[0], -1, n)
    out = np.empty((b.shape[0], a.shape[0], *y_rank.shape), dtype=np.intp)
    cols = (n >> 6) + 2
    rows = min(n + 1, max(1, _WORKSPACE // cols))
    # A margin's table block has rows * cols elements, its sort keys 64 * cols.
    group = max(1, min(_WORKSPACE // (max(rows, 64) * cols), _GROUP_VALUES // n))
    slot = (x_rank & 63) + 64
    batched = x_rank.ndim > 1
    if not batched:
        a = a[:, None]  # one x margin's bounds serve every batch row
    x_word, x_low = a >> 6, _LOW[a & 63]
    for s0 in range(0, y_rank.shape[0], group):
        ranks, bound = y_rank[s0:s0 + group], b[:, s0:s0 + group]
        size = ranks.shape[0]
        # 64 (y + 1) + i for the point at x rank 64 (c - 1) + i, sorted
        # within each word c; 64 (n + 1) where a word has no point.
        key = np.full((size, cols * 64), 64 * (n + 1))
        if batched:
            rows_x = slice(s0, s0 + size)
            np.put_along_axis(key, x_rank[rows_x] + 64, ranks * 64 + slot[rows_x], 1)
            word, low = x_word[:, rows_x], x_low[:, rows_x]
        else:
            key[:, x_rank + 64] = ranks * 64 + slot
            word, low = x_word, x_low
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
            at = (np.arange(size)[:, None] * cols + word) * height + row[:, None]
            words = masks.reshape(-1)[at + height] & low
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

    def __init__(self, values: np.ndarray, h: float | None = None, margin: Margin | None = None):
        self.values = values
        self.h = _bandwidth_of_sd(self.sd, values.size) if h is None else h
        self.margin = Margin.of(values, self.h) if margin is None else margin

    @cached_property
    def sd(self) -> float:
        return _sample_sd(self.values)

    def permuted(self, perms) -> list:
        """The axes _Axis(values[perm]) at their default bandwidths, one per
        perm of a batch (shape (S, n)), without sorting any of them.

        A permuted sd can differ from the axis's own in its last bits (np.std
        sums in another order), and so can its bandwidth, so each row takes
        both from its own values (`_sample_sd` of the batch). A permuted
        margin keeps every window, so each distinct bandwidth gets one
        margin of the values, which its rows permute; a test of a few
        hundred permutations meets a few.
        """
        rows, n = self.values[perms], self.values.size
        sds = _sample_sd(rows)
        hs = [_bandwidth_of_sd(sd, n) for sd in sds]
        margins = {h: Margin.of(self.values, h) for h in set(hs)}
        axes = []
        for values, sd, h, perm in zip(rows, sds, hs, perms):
            axis = _Axis(values, h, margins[h].permuted(perm))
            axis.sd = sd
            axes.append(axis)
        return axes


def _axes(sample: PairedSample, cfg: KdeConfig | None = None) -> tuple:
    """The sample's two prepared axes, at cfg's bandwidths or the defaults.

    Without cfg the bandwidths' errors are those of `default_config`, the x
    axis's first.
    """
    if cfg is None:
        return _Axis(sample.xs), _Axis(sample.ys)
    return _Axis(sample.xs, cfg.h_x), _Axis(sample.ys, cfg.h_y)


def _t_values(x: _Axis, ys, perms=None, threads: int = 1) -> np.ndarray:
    """Gap statistic T at every sample point of x against each prepared axis
    of ys, a sequence of axes of n values: shape (len(ys), n).

    With perms, shape (len(ys), R, n), holding R permutations of range(n)
    for each y, the result has shape (len(ys), R, n): row [i, r] is T on
    (xs, ys[i].values[perms[i, r]]) at ys[i]'s bandwidth. A permuted y
    margin keeps every window, so all rows come from fancy indexes of the y
    margins and one batched joint count; threads split the rows into that
    many batches, and each row is the same for every split and batch.
    Callers keep a batch near _BATCH_VALUES values over all its rows.

    The densities are formed with the bandwidths scaled by powers of two
    into [0.5, 2), and T is scaled back by the root of that factor
    (`_scaled_pair`). Both steps are exact, so T keeps its bits where the
    plain densities are normal floats, while at extreme bandwidths the
    densities can no longer overflow or underflow.
    """
    mx, n = x.margin, x.values.size
    # h_x scales alone; each y's rows get its own scaled h_y and exponent k.
    scaled = [_scaled_pair(x.h, y.h) for y in ys]
    h_x = scaled[0][0]
    fx = mx.counts / (2.0 * h_x) / n

    def t_of(cy, cxy, h_y, k):
        fy = cy / (2.0 * h_y) / n
        # Same denominator grouping as joint_density: swap-symmetric bits.
        fxy = cxy / ((2.0 * h_x) * (2.0 * h_y)) / n
        return np.ldexp(_gap(fx, fy, fxy), -k)

    if perms is None and len(ys) == 1:
        # One pair, as a single measure or a matrix cell counts it: no batch.
        my = ys[0].margin
        return t_of(my.counts, joint_counts(mx, my), *scaled[0][1:])[None]
    my = Margin.stacked([y.margin for y in ys], perms)
    total = my.rank.shape[0]
    count = min(max(threads, 1), total)
    parts = [slice(total * i // count, total * (i + 1) // count) for i in range(count)]
    cxy = np.concatenate(ordered_map(
        lambda rows: joint_counts(mx, Margin(my.rank[rows], my.lo[rows], my.hi[rows])),
        parts, threads))
    # Exponents as C ints: np.ldexp is several times slower on 64-bit ones.
    shape = (len(ys), -1, n)
    h_y, k = np.array([h for _, h, _ in scaled]), np.array([k for *_, k in scaled], dtype=np.intc)
    t = t_of(my.counts.reshape(shape), cxy.reshape(shape), h_y[:, None, None], k[:, None, None])
    return t[:, 0] if perms is None else t


def t_statistic_at_sample_points(sample: PairedSample, cfg: KdeConfig) -> np.ndarray:
    """Gap statistic T evaluated at every sample point, as a length-n array.

    Self-inclusion of the boxcar window guarantees both marginals are
    positive at sample points, so the result is always finite.
    """
    x, y = _axes(sample, cfg)
    return _t_values(x, [y])[0]


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
