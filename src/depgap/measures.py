"""Registry of dependence measures sharing one calling convention.

Each measure maps a PairedSample to a single float. The registry covers the
classical global measures (Pearson, Spearman, Kendall tau-b, Hoeffding's D,
distance correlation, HSIC, HHG, matching ranks) next to the local-density
family (aLDG, avgCSN, mean-T), so tests and batch drivers can treat them
uniformly.
"""

import inspect
import math
import sys
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from ._util import child_seed, ordered_map, unit_scaled
from .aldg import (
    ThresholdRule,
    _aldg_of_axes,
    _avgcsn_of_axes,
    _check_alpha,
    _mean_t_of_axes,
    _resolve_rule,
    aldg,
    avgcsn,
    mean_t,
)
from .errors import DepgapError, TooFewSamples, UnknownMeasure, ZeroVariance
from .kde import KdeConfig, Margin, PairedSample, _Axis, joint_counts

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


def _pearson(sample: PairedSample) -> float:
    # r is scale-free, and on unit-scaled values the sums of squares can
    # neither overflow nor underflow.
    xs, ys = unit_scaled(sample.xs)[0], unit_scaled(sample.ys)[0]
    dx = xs - xs.mean()
    dy = ys - ys.mean()
    sxx = float(dx @ dx)
    syy = float(dy @ dy)
    if sxx == 0.0 or syy == 0.0:
        raise ZeroVariance("Pearson correlation needs non-constant inputs")
    return float(dx @ dy) / math.sqrt(sxx * syy)


def _spearman(sample: PairedSample) -> float:
    from scipy.stats import rankdata  # imported here: slow, and most CLI runs never need it

    ranked = PairedSample(rankdata(sample.xs), rankdata(sample.ys))
    return _pearson(ranked)


def _kendall(sample: PairedSample) -> float:
    from scipy.stats import kendalltau  # imported here: slow, and most CLI runs never need it

    tau = kendalltau(sample.xs, sample.ys, variant="b")[0]
    if not np.isfinite(tau):
        raise ZeroVariance("Kendall tau-b is undefined when one input is constant")
    return float(tau)


def _hoeffd(sample: PairedSample) -> float:
    """Classical finite-sample Hoeffding D statistic.

    r and s count the points at or below each point on each axis, and c the
    other points at or below it on both axes. Counting ties that way makes
    the statistic equal the 5-point U-statistic of Hoeffding's kernel with
    indicators 1{x_j <= x_i}. Slightly negative values are possible for
    nearly independent data.
    """
    n = sample.n
    if n < 5:
        raise TooFewSamples("Hoeffding's D needs at least 5 observations")
    mx, my = _tie_margins(sample)
    r = mx.hi.astype(float)
    s = my.hi.astype(float)
    c = (joint_counts(_below(mx.rank, mx.hi), _below(my.rank, my.hi)) - 1).astype(float)
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


def _tie_margins(sample: PairedSample) -> tuple[Margin, Margin]:
    """Width-0 margins: lo counts the values below each point, hi those at or below it."""
    return Margin.of(sample.xs, 0.0), Margin.of(sample.ys, 0.0)


def _below(rank: np.ndarray, edge: np.ndarray) -> Margin:
    """The run [0, edge[k]) of sorted positions for every point k.

    With these runs on both axes `joint_counts` gives F(a, b) = #{x rank < a,
    y rank < b} at each point's corner (a, b).
    """
    return Margin(rank, np.zeros_like(edge), edge)


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


def _dcor(sample: PairedSample) -> float:
    """Distance correlation from the V-statistic moments S1 + S2 - 2 S3.

    dCor is scale-free, so it is computed on unit-scaled values, whose
    distance products can neither overflow nor underflow.
    """
    xs, ys = unit_scaled(sample.xs)[0], unit_scaled(sample.ys)[0]
    n = sample.n
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


def _hsic(sample: PairedSample, width: float | None = None) -> float:
    """Biased HSIC with Gaussian kernels exp(-(a-b)^2 / (2 w^2)) per axis.

    The width defaults to the per-axis median heuristic; a caller-provided
    width applies to both axes. The heuristic scales with the data, so the
    kernels are computed on unit-scaled values then, whose squares can
    neither overflow nor underflow. A width whose square leaves the normal
    float range raises DepgapError.
    """
    xs, ys = sample.xs, sample.ys
    if width is None:
        xs, ys = unit_scaled(xs)[0], unit_scaled(ys)[0]
        wx, wy = median_pairwise_width(xs), median_pairwise_width(ys)
    else:
        wx = wy = float(width)
    if not (wx > 0 and wy > 0):
        raise ValueError("kernel width must be positive")
    k = np.exp(-((xs[:, None] - xs[None, :]) ** 2) / _two_squared(wx))
    l = np.exp(-((ys[:, None] - ys[None, :]) ** 2) / _two_squared(wy))

    def center(m):
        row = m.mean(axis=1, keepdims=True)
        col = m.mean(axis=0, keepdims=True)
        return m - row - col + m.mean()

    return float(np.mean(center(k) * center(l)))


def _hhg(sample: PairedSample) -> float:
    """Sum over ordered point pairs of the 2x2 ball-membership chi-square.

    For a pair (i, j), the remaining n-2 points are classified by whether
    they fall inside the closed x-ball and y-ball of radius |x_j - x_i| and
    |y_j - y_i| around point i. Terms with a degenerate margin contribute 0.
    The computation is O(n^3): one n x n membership table per center i,
    built for blocks of 250_000 // n^2 centers to cut per-center overhead.
    """
    n = sample.n
    if n < 4:
        raise TooFewSamples("the HHG statistic needs at least 4 observations")
    xs, ys = sample.xs, sample.ys
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


def _mr(sample: PairedSample) -> float:
    """Matching ranks: the share of 3-subsequences whose within-subsequence
    rank pattern agrees forward (with y) or backward (with -y), normalized
    by twice the subsequence count.

    A triple matches forward when every pair in it agrees in sign: strictly
    concordant, or identical in both coordinates. Ordering points by
    "strictly below-left", and identical points by index, makes the matching
    triples exactly the 3-chains of that order, which number
    sum_j L(j) U(j) with L(j) and U(j) the points before and after j. The
    backward count is the same on (x, -y). The count is exact, so perfectly
    monotone data, which matches every subsequence in exactly one
    direction, scores exactly 1/2, the maximum.

    The counts are corners of F(a, b) on width-0 margins (`_below`). Their
    stable ranks keep tied values in index order, so the identical points
    before a point are those at x ranks [lo, rank) that tie with it on y.
    """
    n = sample.n
    if n < 3:
        raise TooFewSamples(f"matching ranks needs at least 3 observations, got {n}")
    mx, my = _tie_margins(sample)
    x_lo, x_hi = _below(mx.rank, mx.lo), _below(mx.rank, mx.hi)
    y_lo, y_hi = _below(my.rank, my.lo), _below(my.rank, my.hi)
    # ll counts the points below a point on both axes, hh those at or below
    # it on both; lh and hl mix the two.
    ll, lh = joint_counts(x_lo, y_lo), joint_counts(x_lo, y_hi)
    hl, hh = joint_counts(x_hi, y_lo), joint_counts(x_hi, y_hi)
    same = hh - hl - lh + ll
    before = joint_counts(Margin(mx.rank, mx.lo, mx.rank), my)
    after = same - 1 - before
    forward = int((ll + before) @ (n - mx.hi - my.hi + hh + after))
    backward = int((mx.lo - lh + before) @ (my.lo - hl + after))
    return (forward + backward) / (2.0 * math.comb(n, 3))


def _aldg_measure(sample: PairedSample, rule: ThresholdRule | None = None) -> float:
    return aldg(sample, rule).value


def _avgcsn_measure(sample: PairedSample, alpha: float = 0.01) -> float:
    return avgcsn(sample, alpha=alpha)


def _mean_t_measure(sample: PairedSample) -> float:
    return mean_t(sample)


# The local-density family on rows prepared once (`kde._Axis`): for rows
# of n values, f(n, seed, **params) gives the function of (task index, x
# row, y row, their KdeConfig) that equals the measure of
# kind_with_seed(kind, child_seed(seed, index)) on the pair.


def _aldg_pairs(n: int, seed: int, rule: ThresholdRule | None = None):
    # n is fixed, so the rule is resolved once; only shuffles read the seed.
    rule = _resolve_rule(ThresholdRule.auto() if rule is None else rule, n)
    if rule.kind in ("uniform-error", "inflection-point"):
        return lambda index, x, y, cfg: _aldg_of_axes(
            x, y, cfg, replace(rule, seed=child_seed(seed, index))).value
    return lambda index, x, y, cfg: _aldg_of_axes(x, y, cfg, rule).value


def _avgcsn_pairs(n: int, seed: int, alpha: float = 0.01):
    _check_alpha(alpha)
    return lambda index, x, y, cfg: _avgcsn_of_axes(x, y, cfg, alpha)


def _mean_t_pairs(n: int, seed: int):
    return lambda index, x, y, cfg: _mean_t_of_axes(x, y, cfg)


_PREPARED_PAIRS = {"aldg": _aldg_pairs, "avgcsn": _avgcsn_pairs, "mean-t": _mean_t_pairs}


def _prepared_pair_values(kind: MeasureKind, data: np.ndarray, seed: int, threads: int):
    """The value of task (index, i, j) from rows prepared once, or its DepgapError.

    Errors come in the order of measure(kind, PairedSample(data[i],
    data[j])): PairedSample's checks, the measure's parameter checks, then
    the bandwidths, the x row's first.
    """
    rows = ordered_map(_prepared_row, data, threads)
    # Every row has its diagonal task, so some task reaches the parameter
    # checks iff some row passes PairedSample's.
    if any(row is not None for row in rows):
        pair_value = _PREPARED_PAIRS[kind.tag](data.shape[1], seed, **kind.params)

    def value_of(index, i, j):
        x, y = rows[i], rows[j]
        if x is None or y is None:
            PairedSample(data[i], data[j])  # raises the checks' own error
        failed = [row for row in (x, y) if isinstance(row, DepgapError)]
        return failed[0] if failed else pair_value(index, x, y, KdeConfig(x.h, y.h))

    return value_of


def _prepared_row(row: np.ndarray):
    """A row's `_Axis` at the default bandwidth, its bandwidth's DepgapError,
    or None when PairedSample's checks fail on it (too few or non-finite values)."""
    if row.size < 2 or not np.isfinite(row).all():
        return None
    try:
        return _Axis(row)
    except DepgapError as exc:
        return exc


_IMPLS = {
    "pearson": _pearson,
    "spearman": _spearman,
    "kendall": _kendall,
    "hoeffd": _hoeffd,
    "dcor": _dcor,
    "hsic": _hsic,
    "hhg": _hhg,
    "mr": _mr,
    "aldg": _aldg_measure,
    "avgcsn": _avgcsn_measure,
    "mean-t": _mean_t_measure,
}

# The registry order is the CLI's choice order and the experiments' column
# order; a measure's parameters are its implementation's keywords.
MEASURE_TAGS = tuple(_IMPLS)
_ALLOWED_PARAMS = {
    tag: set(inspect.signature(impl).parameters) - {"sample"} for tag, impl in _IMPLS.items()
}


def measure(kind, sample: PairedSample) -> float:
    """Evaluate one dependence measure on a paired sample.

    kind may be a MeasureKind or a bare tag string.
    """
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    return float(_IMPLS[kind.tag](sample, **kind.params))


def kind_with_seed(kind: MeasureKind, seed: int) -> MeasureKind:
    """Rebind the stochastic parts of a measure to a derived seed.

    aLDG is the only stochastic measure: a shuffle-based threshold rule gets
    the new seed. Every other measure, and aLDG with a fixed or closed-form
    threshold, is returned unchanged.
    """
    if kind.tag == "aldg":
        rule = kind.params.get("rule") or ThresholdRule.auto()
        if rule.kind in ("uniform-error", "inflection-point", "auto"):
            return MeasureKind("aldg", {**kind.params, "rule": replace(rule, seed=seed)})
        return kind
    return kind


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
    result does not depend on the thread count. For the local-density
    family (aldg, avgcsn, mean-t) each row's standard deviation, bandwidth
    and window margin are prepared once, so a pair only counts its joint
    windows and applies its threshold rule.
    """
    if isinstance(kind, str):
        kind = MeasureKind(kind)
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] < 2:
        raise ValueError("data must be a p x n matrix with p >= 2")
    p = data.shape[0]
    pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    self_is_one = kind.tag in ("pearson", "spearman", "kendall", "dcor")

    if kind.tag in _PREPARED_PAIRS:
        value_of = _prepared_pair_values(kind, data, seed, threads)
    else:
        def value_of(index, i, j):
            return measure(kind, PairedSample(data[i], data[j]))

    def one(task):
        try:
            return value_of(*task)
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
