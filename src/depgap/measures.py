"""Registry of dependence measures sharing one calling convention.

Each measure maps a PairedSample to a single float. The registry covers the
classical global measures (Pearson, Spearman, Kendall tau-b, Hoeffding's D,
distance correlation, HSIC, HHG, matching ranks) next to the local-density
family (aLDG, avgCSN, mean-T), so tests and batch drivers can treat them
uniformly.

Every entry is two functions. `prepare(values)` does one axis's own work:
a `kde._Axis` for the local-density family, the width-0 `Margin.of(values)`
for Kendall's tau, Hoeffding's D and matching ranks, the average ranks read
off that margin for Spearman, and the values themselves for the rest.
`pair(x, y, **params)` is the measure on two prepared axes. So `measure` is
pair(prepare(xs), prepare(ys)), while `pairwise_matrix` prepares each row once and
`permutation_test` prepares x once, whatever the measure, and y once for
the width-0 margins, which permute exactly.
"""

import inspect
import math
import sys
import threading
from dataclasses import dataclass, field

import numpy as np

from ._util import child_seed, ordered_map, unit_scaled
from .aldg import (
    ThresholdRule,
    _aldg_of_axes,
    _avgcsn_of_axes,
    _check_alpha,
    _mean_t_of_axes,
    _resolve_rule,
)
from .errors import DepgapError, TooFewSamples, UnknownMeasure, ZeroVariance
from .kde import Margin, PairedSample, _Axis, corner_counts

# Tags whose sign carries direction rather than strength; permutation tests
# compare their absolute values.
SIGNED_TAGS = ("pearson", "spearman", "kendall")


@dataclass
class MeasureKind:
    """A measure tag plus its optional parameters."""

    tag: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.tag not in MEASURE_TAGS:
            raise UnknownMeasure(f"unknown measure {self.tag!r}")
        extra = set(self.params) - _ALLOWED_PARAMS[self.tag]
        if extra:
            raise UnknownMeasure(
                f"measure {self.tag!r} does not take parameters {sorted(extra)}"
            )
        if "alpha" in self.params:
            _check_alpha(self.params["alpha"])


def _pearson(xs: np.ndarray, ys: np.ndarray) -> float:
    # r is scale-free, and on unit-scaled values the sums of squares can
    # neither overflow nor underflow.
    xs, ys = unit_scaled(xs)[0], unit_scaled(ys)[0]
    # Told by the values, not by the sums of squares: the computed mean of a
    # constant can miss it by an ulp, as for nine copies of -1.7976931348623157e308.
    if xs.min() == xs.max() or ys.min() == ys.max():
        raise ZeroVariance("Pearson correlation needs non-constant inputs")
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    return float(dx @ dy) / math.sqrt(float(dx @ dx) * float(dy @ dy))


def _ranks(values: np.ndarray) -> np.ndarray:
    """Average ranks from 1, ties sharing the mean of their positions: exact
    half-integers, scipy's `rankdata` to the bit."""
    m = Margin.of(values)
    return (m.lo + m.hi + 1) / 2


# Above this many values scipy's O(n log n) merge count beats the mask
# table, whose words grow as n^2 / 64: on a 2-core host the two cross
# between 3,000 and 4,000 values (BENCH_rank_measures.json).
_KENDALL_MASK_MAX = 3000


def _kendall(mx: Margin, my: Margin) -> float:
    """Kendall's tau-b from pair counts on width-0 margins.

    lo_x - lh counts the points strictly left of a point and strictly above
    it, so its sum counts each discordant pair once. A margin's counts are
    the points tied with a point on its axis, and hh - hl - lh + ll those
    tied with it on both, the point itself included each time, so those
    sums count each tied pair twice. The tau formula is scipy's
    `kendalltau` (variant "b") in its order of operations, so the bits
    agree. Above _KENDALL_MASK_MAX values scipy counts instead, on the lo
    edges, which order the points as their values do.
    """
    n = mx.rank.size
    # A constant axis is one run of ties: its first point's window holds all n.
    if mx.hi[0] - mx.lo[0] == n or my.hi[0] - my.lo[0] == n:
        raise ZeroVariance("Kendall tau-b is undefined when one input is constant")
    if n > _KENDALL_MASK_MAX:
        from scipy.stats import kendalltau  # imported here: slow, and only large n needs it

        return float(kendalltau(mx.lo, my.lo, variant="b")[0])
    tot = n * (n - 1) // 2
    xtie = int(np.sum(mx.counts - 1)) // 2
    ytie = int(np.sum(my.counts - 1)) // 2
    (ll, hl), (lh, hh) = corner_counts(mx.rank, my.rank, np.array((mx.lo, mx.hi)),
                                       np.array((my.lo, my.hi)))
    ntie = int(np.sum(hh - hl - lh + ll - 1)) // 2
    dis = int(np.sum(mx.lo - lh))
    tau = (tot - xtie - ytie + ntie - 2 * dis) / np.sqrt(tot - xtie) / np.sqrt(tot - ytie)
    return float(min(1.0, max(-1.0, tau)))


def _hoeffd(mx: Margin, my: Margin) -> float:
    """Classical finite-sample Hoeffding D statistic, on width-0 margins.

    r and s count the points at or below each point on each axis, and c the
    other points at or below it on both axes. Counting ties that way makes
    the statistic equal the 5-point U-statistic of Hoeffding's kernel with
    indicators 1{x_j <= x_i}. Slightly negative values are possible for
    nearly independent data.
    """
    n = mx.rank.size
    if n < 5:
        raise TooFewSamples("Hoeffding's D needs at least 5 observations")
    r = mx.hi.astype(float)
    s = my.hi.astype(float)
    c = (corner_counts(mx.rank, my.rank, mx.hi[None], my.hi[None])[0, 0] - 1).astype(float)
    # The blocks exist only to fix the rounding order of the float sums,
    # which the statistic's last bits depend on.
    block = max(1, int(4_000_000 // n))
    d1, d2, d3 = (
        sum(float(np.sum(terms[start:start + block])) for start in range(0, n, block))
        for terms in (c * (c - 1.0), (r - 1.0) * (r - 2.0) * (s - 1.0) * (s - 2.0),
                      (r - 2.0) * (s - 2.0) * c)
    )
    numerator = (n - 2) * (n - 3) * d1 + d2 - 2.0 * (n - 2) * d3
    denominator = float(n * (n - 1) * (n - 2) * (n - 3) * (n - 4))
    return 30.0 * numerator / denominator


_dcor_work = threading.local()


def _dcor_blocks(rows: int, n: int) -> list:
    """The calling thread's three (rows, n) float64 work arrays for _dcor.

    They are kept between calls and grown on demand: fresh n×n temporaries
    on every call cost more in page faults than the arithmetic itself.
    """
    flat = getattr(_dcor_work, "flat", ())
    if not flat or flat[0].size < rows * n:
        flat = _dcor_work.flat = [np.empty(rows * n) for _ in range(3)]
    return [buf[: rows * n].reshape(rows, n) for buf in flat]


def _dcor(xs: np.ndarray, ys: np.ndarray) -> float:
    """Distance correlation from the V-statistic moments S1 + S2 - 2 S3.

    dCor is scale-free, so it is computed on unit-scaled values, whose
    distance products can neither overflow nor underflow.
    """
    xs, ys = unit_scaled(xs)[0], unit_scaled(ys)[0]
    n = xs.size
    s1_xy = s1_xx = s1_yy = 0.0
    row_a = np.zeros(n)
    row_b = np.zeros(n)
    block = max(1, int(2_000_000 // n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        a, b, prod = _dcor_blocks(stop - start, n)
        np.abs(np.subtract(xs[start:stop, None], xs[None, :], out=a), out=a)
        np.abs(np.subtract(ys[start:stop, None], ys[None, :], out=b), out=b)
        s1_xy += float(np.sum(np.multiply(a, b, out=prod)))
        s1_xx += float(np.sum(np.multiply(a, a, out=prod)))
        s1_yy += float(np.sum(np.multiply(b, b, out=prod)))
        row_a[start:stop] = a.sum(axis=1)
        row_b[start:stop] = b.sum(axis=1)
    sum_a = float(row_a.sum())
    sum_b = float(row_b.sum())

    def v_squared(s1, total_1, total_2, rows_1, rows_2):
        s2 = total_1 * total_2 / n**4
        s3 = float(rows_1 @ rows_2) / n**3
        return max(s1 / n**2 + s2 - 2.0 * s3, 0.0)

    vxx = v_squared(s1_xx, sum_a, sum_a, row_a, row_a)
    vyy = v_squared(s1_yy, sum_b, sum_b, row_b, row_b)
    if vxx == 0.0 or vyy == 0.0:
        raise ZeroVariance("distance correlation needs non-constant inputs")
    vxy = v_squared(s1_xy, sum_a, sum_b, row_a, row_b)
    return math.sqrt(vxy / math.sqrt(vxx * vyy))


def median_pairwise_width(values: np.ndarray) -> float:
    """Median of the nonzero pairwise absolute differences (kernel width heuristic)."""
    values = np.asarray(values, dtype=float)
    n = values.size
    diffs = np.abs(values[:, None] - values[None, :])[np.triu_indices(n, k=1)]
    diffs = diffs[diffs > 0]
    if diffs.size == 0:
        raise ZeroVariance("median-heuristic width is undefined for constant input")
    return float(np.median(diffs))


def _two_squared(width: float) -> float:
    """2 w^2 for a Gaussian kernel width w; DepgapError when it is not a normal float."""
    try:
        value = 2.0 * width**2
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise DepgapError(f"HSIC kernel width {width!r} squares outside the float range")
    return value


# The most values _hsic accepts: its n x n kernels and their centred copies
# peak at 40 n^2 bytes, with or without a given width, so 954 MiB here.
_HSIC_MAX = 5000


def _hsic(xs: np.ndarray, ys: np.ndarray, width: float | None = None) -> float:
    """Biased HSIC with Gaussian kernels exp(-(a-b)^2 / (2 w^2)) per axis.

    The width defaults to the per-axis median heuristic; a caller-provided
    width applies to both axes. The heuristic scales with the data, so the
    kernels are computed on unit-scaled values then, whose squares can
    neither overflow nor underflow. A width whose square leaves the normal
    float range raises DepgapError, and so do more than _HSIC_MAX values,
    before anything of size n^2 is allocated.
    """
    if xs.size > _HSIC_MAX:
        raise DepgapError(
            f"HSIC takes at most {_HSIC_MAX} values, got {xs.size}: "
            f"its kernels need 40 bytes per pair of values"
        )
    if width is None:
        xs, ys = unit_scaled(xs)[0], unit_scaled(ys)[0]
        wx, wy = median_pairwise_width(xs), median_pairwise_width(ys)
    else:
        wx = wy = float(width)
    if not (wx > 0 and wy > 0):
        raise ValueError("kernel width must be positive")
    # With a given width the values are not scaled: differences near
    # +-1.8e308 overflow to infinities, whose kernel value 0 is exact.
    with np.errstate(over="ignore"):
        k = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / _two_squared(wx))
        l = np.exp(-((ys[:, None] - ys[None, :]) ** 2) / _two_squared(wy))

    def center(m):
        row = m.mean(axis=1, keepdims=True)
        col = m.mean(axis=0, keepdims=True)
        return m - row - col + m.mean()

    return float(np.mean(center(k) * center(l)))


def _hhg(xs: np.ndarray, ys: np.ndarray) -> float:
    """Sum over ordered point pairs of the 2x2 ball-membership chi-square.

    For a pair (i, j), the remaining n-2 points are classified by whether
    they fall inside the closed x-ball and y-ball of radius |x_j - x_i| and
    |y_j - y_i| around point i. Terms with a degenerate margin contribute 0.
    The computation is O(n^3): one n x n membership table per center i,
    built for blocks of 250_000 // n^2 centers to cut per-center overhead.
    """
    n = xs.size
    if n < 4:
        raise TooFewSamples("the HHG statistic needs at least 4 observations")
    total = 0.0
    block = max(1, int(250_000 // (n * n)))
    for start in range(0, n, block):
        stop = min(start + block, n)
        # Distances between values near +-1.8e308 overflow to inf, which
        # still compares correctly against every finite radius.
        with np.errstate(over="ignore"):
            dx = np.abs(xs[None, :] - xs[start:stop, None])
            dy = np.abs(ys[None, :] - ys[start:stop, None])
        in_x = dx[:, None, :] <= dx[:, :, None]
        in_y = dy[:, None, :] <= dy[:, :, None]
        # The center (k = i) and the radius point (k = j) always satisfy the
        # closed inequalities, so dropping them is a constant correction.
        ax = in_x.sum(axis=2) - 2
        ay = in_y.sum(axis=2) - 2
        axy = (in_x & in_y).sum(axis=2) - 2
        px = ax / (n - 2)
        py = ay / (n - 2)
        pxy = axy / (n - 2)
        denom = px * (1.0 - px) * py * (1.0 - py)
        rows = np.arange(stop - start)
        valid = denom > 0.0
        valid[rows, start + rows] = False
        terms = np.divide((n - 2) * (pxy - px * py) ** 2, denom,
                          out=np.zeros_like(denom), where=valid)
        # Summed per center in index order: rounding ignores the block size.
        for center_terms, center_valid in zip(terms, valid):
            total += float(np.add.reduce(center_terms[center_valid]))
    return total


def _mr(mx: Margin, my: Margin) -> float:
    """Matching ranks: the share of 3-subsequences whose within-subsequence
    rank pattern agrees forward (with y) or backward (with -y), normalized
    by twice the subsequence count.

    A triple matches forward when every pair in it agrees in sign: strictly
    concordant, or identical in both coordinates. Ordering points by
    "strictly below-left", and identical points by x rank, makes the
    matching triples exactly the 3-chains of that order, which number
    sum_j L(j) U(j) with L(j) and U(j) the points before and after j. The
    backward count is the same on (x, -y). The count is exact, so perfectly
    monotone data, which matches every subsequence in exactly one
    direction, scores exactly 1/2, the maximum.

    The counts are corners of F(a, b) on width-0 margins (`corner_counts`).
    The identical points before a point are those at x ranks [lo, rank)
    that tie with it on y. Over k identical points that count runs through
    0..k-1 however the ties were ranked, so the sum is the same for any
    ranking.
    """
    n = mx.rank.size
    if n < 3:
        raise TooFewSamples(f"matching ranks needs at least 3 observations, got {n}")
    # ll counts the points below a point on both axes, hh those at or below
    # it on both; lh and hl mix the two. rl and rh stop at the point's own
    # x rank.
    x_edges, y_edges = np.array((mx.lo, mx.hi, mx.rank)), np.array((my.lo, my.hi))
    (ll, hl, rl), (lh, hh, rh) = corner_counts(mx.rank, my.rank, x_edges, y_edges)
    same = hh - hl - lh + ll
    before = rh - lh - rl + ll
    after = same - 1 - before
    forward = int((ll + before) @ (n - mx.hi - my.hi + hh + after))
    backward = int((mx.lo - lh + before) @ (my.lo - hl + after))
    return (forward + backward) / (2.0 * math.comb(n, 3))


def _aldg(x: _Axis, y: _Axis, rule: ThresholdRule | None = None) -> float:
    return _aldg_of_axes(x, y, _resolve_rule(rule, x.values.size)).value


def _values(values: np.ndarray) -> np.ndarray:
    return values


# tag: (prepare, pair). The registry order is the CLI's choice order and
# the experiments' column order; a measure's parameters are its pair
# function's keywords. `Margin.of` at its default width 0 is the prepare
# step of the rank measures that count on margins.
_MEASURES = {
    "pearson": (_values, _pearson),
    "spearman": (_ranks, _pearson),
    "kendall": (Margin.of, _kendall),
    "hoeffd": (Margin.of, _hoeffd),
    "dcor": (_values, _dcor),
    "hsic": (_values, _hsic),
    "hhg": (_values, _hhg),
    "mr": (Margin.of, _mr),
    "aldg": (_Axis, _aldg),
    "avgcsn": (_Axis, _avgcsn_of_axes),
    "mean-t": (_Axis, _mean_t_of_axes),
}
MEASURE_TAGS = tuple(_MEASURES)
_ALLOWED_PARAMS = {
    tag: set(list(inspect.signature(pair).parameters)[2:]) for tag, (_, pair) in _MEASURES.items()
}


def measure(kind, sample: PairedSample) -> float:
    """Evaluate one dependence measure on a paired sample.

    kind may be a MeasureKind or a bare tag string.
    """
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    prepare, pair = _MEASURES[kind.tag]
    return float(pair(prepare(sample.xs), prepare(sample.ys), **kind.params))


def kind_with_seed(kind: MeasureKind, seed: int) -> MeasureKind:
    """Rebind the stochastic parts of a measure to a derived seed.

    aLDG is the only stochastic measure: a shuffle-based threshold rule gets
    the new seed. Every other measure, and aLDG with a fixed or closed-form
    threshold, is returned unchanged.
    """
    if kind.tag == "aldg":
        rule = kind.params.get("rule") or ThresholdRule.auto()
        reseeded = rule.reseeded(seed)
        if reseeded is not rule:
            return MeasureKind("aldg", {**kind.params, "rule": reseeded})
    return kind


def _seeded_pair(kind: MeasureKind, n: int, seed: int):
    """f(index, x, y): the measure of kind_with_seed(kind, child_seed(seed,
    index)) on two axes of n values prepared by the kind's `prepare`.

    This is where batch callers resolve aLDG's rule, once for n; a task's
    seed is derived only when the resolved rule draws shuffles.
    """
    pair, params = _MEASURES[kind.tag][1], kind.params
    if kind.tag == "aldg":
        rule = _resolve_rule(params.get("rule"), n)
        if rule.draws_shuffles:
            return lambda index, x, y: pair(x, y, rule.reseeded(child_seed(seed, index)))
        params = {"rule": rule}
    return lambda index, x, y: pair(x, y, **params)


def _prepared_row(prepare, row: np.ndarray):
    """A row's prepared state, its preparation's DepgapError, or None when
    PairedSample's checks fail on it (too few or non-finite values)."""
    if row.size < 2 or not np.isfinite(row).all():
        return None
    try:
        return prepare(row)
    except DepgapError as exc:
        return exc


@dataclass
class PairwiseResult:
    """Symmetric measure matrix plus per-pair failure diagnostics."""

    matrix: np.ndarray
    diagnostics: list


def pairwise_matrix(data, kind, threads: int = 1, seed: int = 0) -> PairwiseResult:
    """Measure every unordered pair of rows of a p x n data matrix.

    Each unordered pair is computed once and mirrored. The diagonal holds the
    measure's self-dependence value: exactly 1 for the correlation-scaled
    measures (Pearson, Spearman, Kendall, dCor), and the measure of a row
    against itself otherwise. Pair failures become NaN entries plus a
    diagnostics record instead of aborting the whole matrix. Stochastic
    measures receive per-task seeds derived from (seed, task index), so the
    result does not depend on the thread count.

    Each row is prepared once (the measure's `prepare` step), so a pair only
    runs the measure's `pair` step: for the local-density family it counts
    the joint windows and applies the threshold rule. Errors come in the
    order of measure(kind, PairedSample(data[i], data[j])): PairedSample's
    checks, then the preparation's (the bandwidths), the x row's first,
    then the pair's own.
    """
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("data must be a p x n matrix with p >= 2")
    p = data.shape[0]
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    self_is_one = kind.tag in ("pearson", "spearman", "kendall", "dcor")
    prepare = _MEASURES[kind.tag][0]
    rows = ordered_map(lambda row: _prepared_row(prepare, row), data, threads)
    # Below 2 values every task fails PairedSample's checks before its pair,
    # and at 0 values the aLDG rule has no default shuffle count.
    if data.shape[1] >= 2:
        pair = _seeded_pair(kind, data.shape[1], seed)

    def one(task):
        index, i, j = task
        x, y = rows[i], rows[j]
        try:
            if x is None or y is None:
                PairedSample(data[i], data[j])  # raises the checks' own error
            failed = [row for row in (x, y) if isinstance(row, DepgapError)]
            return failed[0] if failed else pair(index, x, y)
        except DepgapError as exc:
            return exc

    tasks = [(index, i, j) for index, (i, j) in enumerate(pairs)]
    if not self_is_one:
        tasks += [(len(pairs) + i, i, i) for i in range(p)]
    results = ordered_map(one, tasks, threads)

    matrix = np.empty((p, p))
    diagnostics = []
    for (index, i, j), value in zip(tasks, results):
        if isinstance(value, DepgapError):
            diagnostics.append(
                {"i": i, "j": j, "error": type(value).__name__, "message": str(value)}
            )
            value = float("nan")
        matrix[i, j] = value
        matrix[j, i] = value
    if self_is_one:
        np.fill_diagonal(matrix, 1.0)
    return PairwiseResult(matrix, diagnostics)
