"""Scripted simulation studies producing CSV tables, JSON metadata, and SVG plots.

Every experiment is a plain function returning an ExperimentReport; the
EXPERIMENTS registry maps command-line names onto those functions. Reports
are deterministic for a given seed: all wall-clock information is confined
to the "timing" entry of the metadata so the remaining artifact bytes can
be compared across runs and thread counts.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ._util import child_seed, fmt_float, ordered_map
from .aldg import (
    ThresholdRule,
    _share_at_least,
    aldg,
    default_n_shuffles,
    influence_approx,
    population_aldg_gaussian,
    threshold_asymptotic_norm,
    threshold_uniform_error,
)
from .errors import DepgapError
from .kde import GaussianSpec, default_config, t_statistic_at_sample_points
from .inference import power_estimate
from .measures import MEASURE_TAGS, MeasureKind, kind_with_seed, measure
from .synth import (
    FUNCTIONAL_FAMILIES,
    GRID_FAMILIES,
    ContaminationSpec,
    SynthSpec,
    contaminate,
    gauss_mix3,
    gaussian_pair,
    generate,
    nb_mix3,
    shuffle_y,
)


@dataclass
class ExperimentReport:
    """Tabular result of one experiment run.

    rows hold CSV-ready cells (floats, ints, or short strings such as error
    markers); meta carries parameters, seeds, error details, and a "timing"
    section with everything wall-clock dependent; plot, when present,
    describes a line chart over the columns ({"x", "y", optional "group",
    optional "where": [column, value]}).
    """

    name: str
    columns: list
    rows: list
    meta: dict
    plot: Optional[dict] = None


def _cell_text(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return fmt_float(float(value))


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def write_report(report: ExperimentReport, out_dir, svg: bool = False) -> dict:
    """Write <name>.csv and <name>.meta.json (plus <name>.svg on request).

    The CSV uses UTF-8 with LF line endings and ten significant digits for
    floats. Cells are joined naively with commas, so string cells must stay
    free of commas and newlines; every value this module emits does. Returns
    the paths written, keyed by artifact kind.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    csv_path = out / f"{report.name}.csv"
    lines = [",".join(str(c) for c in report.columns)]
    for row in report.rows:
        lines.append(",".join(_cell_text(cell) for cell in row))
    csv_path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))

    meta = dict(report.meta)
    if report.plot is not None:
        meta.setdefault("plot", report.plot)
    meta_path = out / f"{report.name}.meta.json"
    meta_path.write_bytes(
        (json.dumps(meta, sort_keys=True, indent=2, default=_json_default) + "\n").encode("utf-8")
    )

    paths = {"csv": str(csv_path), "meta": str(meta_path)}
    if svg:
        text = render_svg(report)
        if text is not None:
            svg_path = out / f"{report.name}.svg"
            svg_path.write_bytes(text.encode("utf-8"))
            paths["svg"] = str(svg_path)
    return paths


_PALETTE = (
    "#1f77b4",
    "#ff7f0e",
    "#2ca02c",
    "#d62728",
    "#9467bd",
    "#8c564b",
    "#e377c2",
    "#7f7f7f",
    "#bcbd22",
    "#17becf",
)

_SVG_W, _SVG_H = 640, 480
_ML, _MR, _MT, _MB = 70, 150, 40, 50


def render_svg(report: ExperimentReport) -> Optional[str]:
    """Render the report's plot spec as a small self-contained SVG string.

    Returns None when the report declares no plot or no finite points
    survive filtering. Output is fully deterministic: fixed canvas, fixed
    palette, and fixed-precision coordinates.
    """
    plot = report.plot
    if plot is None:
        return None
    col = {c: i for i, c in enumerate(report.columns)}
    rows = report.rows
    where = plot.get("where")
    if where is not None:
        rows = [r for r in rows if str(r[col[where[0]]]) == str(where[1])]

    series: dict = {}
    gname = plot.get("group")
    for r in rows:
        try:
            x = float(r[col[plot["x"]]])
            y = float(r[col[plot["y"]]])
        except (TypeError, ValueError):
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        key = str(r[col[gname]]) if gname else str(plot["y"])
        series.setdefault(key, []).append((x, y))
    if not series:
        return None

    xs = [p[0] for pts in series.values() for p in pts]
    ys = [p[1] for pts in series.values() for p in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 == y0:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(x):
        return _ML + (x - x0) / (x1 - x0) * (_SVG_W - _ML - _MR)

    def py(y):
        return _SVG_H - _MB - (y - y0) / (y1 - y0) * (_SVG_H - _MT - _MB)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<text x="{_ML}" y="20" font-family="monospace" font-size="14">{report.name}</text>',
        f'<line x1="{_ML}" y1="{_SVG_H - _MB}" x2="{_SVG_W - _MR}" y2="{_SVG_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_SVG_H - _MB}" '
        'stroke="black" stroke-width="1"/>',
    ]
    label = "font-family=\"monospace\" font-size=\"11\""
    parts.append(
        f'<text x="{_ML}" y="{_SVG_H - _MB + 16}" {label}>{x0:.6g}</text>'
    )
    parts.append(
        f'<text x="{_SVG_W - _MR - 30}" y="{_SVG_H - _MB + 16}" {label}>{x1:.6g}</text>'
    )
    parts.append(f'<text x="8" y="{_SVG_H - _MB}" {label}>{y0:.6g}</text>')
    parts.append(f'<text x="8" y="{_MT + 10}" {label}>{y1:.6g}</text>')
    parts.append(
        f'<text x="{(_ML + _SVG_W - _MR) // 2}" y="{_SVG_H - 12}" {label}>{plot["x"]}</text>'
    )

    for si, (key, pts) in enumerate(series.items()):
        color = _PALETTE[si % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        for x, y in pts:
            parts.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
            )
        parts.append(
            f'<text x="{_SVG_W - _MR + 10}" y="{_MT + 14 + 16 * si}" {label} '
            f'fill="{color}">{key}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


class _Study:
    """One run of an experiment: its meta, its grid of cells and its clock.

    The meta names the study once and holds its parameters and seed. Wall
    clock readings go only into its "timing" block, so every other byte of
    the report is the same at every thread count.
    """

    def __init__(self, name: str, seed: int, **parameters):
        self.name = name
        self.meta = {"name": name, "parameters": parameters, "seed": seed}
        self.started = time.time(), time.perf_counter()
        self.cell_seconds = []

    def grid(self, one, *lengths, trials: Optional[int] = None, threads: int = 1) -> list:
        """Run one(cell, *index) over every index of a grid with these axis lengths.

        A trials count, when given, must be at least 1 and is the last axis.
        cell numbers the grid's cells from 0 in itertools.product order, the
        last axis fastest, so it depends on the index alone. Returns the
        results nested by axis, and records each cell's wall seconds.
        """
        if trials is not None:
            if trials < 1:
                raise ValueError(f"trials must be at least 1, got {trials}")
            lengths += (trials,)
        indices = list(itertools.product(*map(range, lengths)))

        def timed(cell):
            t0 = time.perf_counter()
            out = one(cell, *indices[cell])
            return out, round(time.perf_counter() - t0, 6)

        done = ordered_map(timed, range(len(indices)), threads)
        self.cell_seconds += [seconds for _, seconds in done]
        results = np.empty(lengths, dtype=object)
        for index, (out, _) in zip(indices, done):
            results[index] = out
        return results.tolist()

    def report(self, columns, rows, plot=None, errors=None, **timing) -> ExperimentReport:
        """The report, with errors (when given) and the timing block added to the meta.

        timing adds entries to the block next to its start time, total
        seconds and per-cell seconds.
        """
        meta = dict(self.meta)
        if errors is not None:
            meta["errors"] = errors
        wall0, perf0 = self.started
        meta["timing"] = {
            "started_unix": round(wall0, 3),
            "total_seconds": round(time.perf_counter() - perf0, 6),
            "cell_seconds": self.cell_seconds,
            **timing,
        }
        return ExperimentReport(self.name, columns, rows, meta, plot)


def _sd(values) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def _as_kinds(kinds) -> list:
    return [k if isinstance(k, MeasureKind) else MeasureKind(str(k)) for k in kinds]


def _kind_labels(kinds) -> list:
    labels = []
    for kind in kinds:
        label = kind.tag
        serial = 2
        while label in labels:
            label = f"{kind.tag}-{serial}"
            serial += 1
        labels.append(label)
    return labels


def _error_cell(exc: DepgapError, errors: list, **where) -> str:
    """Record a failed cell in errors and return its error:<Type> marker."""
    errors.append({**where, "message": str(exc)})
    return f"error:{type(exc).__name__}"


def _or_error(fn, *args, **kwargs):
    """fn's value, or the DepgapError it raised, which becomes an error cell."""
    try:
        return fn(*args, **kwargs)
    except DepgapError as exc:
        return exc


def run_nonlinearity_grid(
    n: int = 200,
    trials: int = 50,
    noise_level: float = 0.0,
    families: Sequence[str] = GRID_FAMILIES,
    kinds: Sequence = MEASURE_TAGS,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Mean value of every measure on every synthetic relationship family.

    For each family, `trials` independent datasets of size n are drawn and
    each measure is averaged over the draws where it succeeded. Cells where
    every trial raised a domain error hold an error marker instead of a
    number; partial failures are averaged over the successes and counted in
    the metadata.
    """
    families = list(families)
    kinds = _as_kinds(kinds)
    labels = _kind_labels(kinds)
    study = _Study(
        "nonlinearity-grid", seed,
        n=n, trials=trials, noise_level=noise_level, families=families, measures=labels,
    )
    data_root = child_seed(seed, 0)
    measure_root = child_seed(seed, 1)

    def one(cell, fi, trial):
        spec = SynthSpec(
            families[fi], n, noise_level=noise_level, seed=child_seed(data_root, cell)
        )
        data = generate(spec)
        return [
            _or_error(
                measure, kind_with_seed(kind, child_seed(measure_root, cell * len(kinds) + ki)), data
            )
            for ki, kind in enumerate(kinds)
        ]

    results = study.grid(one, len(families), trials=trials, threads=threads)

    rows = []
    errors = []
    for family, per_trial in zip(families, results):
        row = [family]
        for label, outcomes in zip(labels, zip(*per_trial)):
            values = [v for v in outcomes if not isinstance(v, DepgapError)]
            failures = [v for v in outcomes if isinstance(v, DepgapError)]
            if failures:
                marker = _error_cell(
                    failures[0], errors, family=family, measure=label, count=len(failures)
                )
            row.append(float(np.mean(values)) if values else marker)
        rows.append(row)
    return study.report(["family"] + labels, rows, errors=errors)


def _aldg_sweep(study, seed, draw, groups, levels, trials, threads, paired=False) -> list:
    """[group, level, mean, sd] rows of aLDG (auto rule) over trials draws per cell.

    draw(group index, level index, seed) returns one sample. A cell's data
    and rule seeds are derived from its cell number; when paired, every
    level of a group reuses the trial's seed pair instead, so the sweep over
    levels is a paired comparison.
    """
    data_root = child_seed(seed, 0)
    rule_root = child_seed(seed, 1)

    def one(cell, gi, li, trial):
        index = gi * trials + trial if paired else cell
        sample = draw(gi, li, child_seed(data_root, index))
        return aldg(sample, ThresholdRule.auto(seed=child_seed(rule_root, index))).value

    results = study.grid(one, len(groups), len(levels), trials=trials, threads=threads)
    return [
        [group, level, float(np.mean(values)), _sd(values)]
        for group, per_level in zip(groups, results)
        for level, values in zip(levels, per_level)
    ]


def run_noise_monotonicity(
    n: int = 100,
    trials: int = 50,
    c_grid: Optional[Sequence[float]] = None,
    families: Sequence[str] = FUNCTIONAL_FAMILIES,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """aLDG as a function of the noise level c on the functional families.

    Y = h(X) + c * eps with c swept over c_grid (default 0 to 1 in steps of
    0.1); each (family, c) cell reports the mean and standard deviation of
    aLDG over `trials` fresh datasets, thresholds chosen by the auto rule.
    """
    families = list(families)
    if c_grid is None:
        c_grid = np.linspace(0.0, 1.0, 11)
    c_grid = [float(c) for c in c_grid]
    study = _Study(
        "noise-monotonicity", seed, n=n, trials=trials, c_grid=c_grid, families=families
    )

    def draw(fi, ci, data_seed):
        return generate(SynthSpec(families[fi], n, noise_level=c_grid[ci], seed=data_seed))

    rows = _aldg_sweep(study, seed, draw, families, c_grid, trials, threads)
    return study.report(
        ["family", "noise", "aldg_mean", "aldg_sd"],
        rows,
        plot={"x": "noise", "y": "aldg_mean", "group": "family"},
    )


def run_mixture_accumulation(
    n: int = 200,
    trials: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """aLDG against the number of dependent components in 3-part mixtures.

    Both the Gaussian and the negative binomial mixture are swept over
    m = 0..3 correlated components; each cell reports mean and standard
    deviation of aLDG over `trials` datasets of size n (auto threshold).
    Within one trial every m reuses the same data and rule seeds, so the
    sweep is a paired comparison and the m -> m+1 ordering is not drowned
    by between-dataset noise.
    """
    mixtures = (("gauss-mix3", gauss_mix3), ("nb-mix3", nb_mix3))
    m_grid = (0, 1, 2, 3)
    study = _Study("mixture-accumulation", seed, n=n, trials=trials, m_grid=list(m_grid))

    def draw(mi, li, data_seed):
        return mixtures[mi][1](m_grid[li], n, seed=data_seed)

    rows = _aldg_sweep(
        study, seed, draw, [name for name, _ in mixtures], m_grid, trials, threads, paired=True
    )
    return study.report(
        ["mixture", "m_correlated", "aldg_mean", "aldg_sd"],
        rows,
        plot={"x": "m_correlated", "y": "aldg_mean", "group": "mixture"},
    )


# Measures cheap enough to recompute inside every permutation at the default
# grid sizes. hhg costs O(n^3) per evaluation and would multiply the suite
# runtime roughly tenfold. mr is cheap now, but stays out so that the suite's
# report keeps its columns and its runtime. Pass either in `kinds` explicitly
# to include it.
POWER_SUITE_KINDS = tuple(t for t in MEASURE_TAGS if t not in ("hhg", "mr"))


def run_power_suite(
    n_grid: Sequence[int] = (50, 100, 200),
    families: Sequence[str] = ("independent", "linear", "quadratic", "sine"),
    kinds: Sequence = POWER_SUITE_KINDS,
    noise_level: float = 0.2,
    level: float = 0.05,
    n_perms: int = 200,
    trials: int = 50,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Permutation-test rejection rates across families, sample sizes, measures.

    Every (family, n, measure) cell runs `trials` independent trials of a
    two-sided permutation test with `n_perms` permutations and reports the
    fraction of p-values at or below `level`. On the independent family the
    cell estimates the empirical type I error instead of power. noise_level
    applies to the functional families and is ignored elsewhere.
    """
    families = list(families)
    n_grid = [int(v) for v in n_grid]
    kinds = _as_kinds(kinds)
    labels = _kind_labels(kinds)
    study = _Study(
        "power-suite", seed,
        n_grid=n_grid, families=families, measures=labels, noise_level=noise_level,
        level=level, n_perms=n_perms, trials=trials,
    )
    power_root = child_seed(seed, 0)

    def one(cell, fi, ni, ki):
        c = noise_level if families[fi] in FUNCTIONAL_FAMILIES else 0.0
        spec = SynthSpec(families[fi], n_grid[ni], noise_level=c, seed=0)
        return _or_error(
            power_estimate,
            spec,
            kinds[ki],
            level=level,
            n_perms=n_perms,
            n_trials=trials,
            seed=child_seed(power_root, cell),
        )

    results = study.grid(one, len(families), len(n_grid), len(kinds), threads=threads)

    rows = []
    errors = []
    for family, per_n in zip(families, results):
        for n, per_kind in zip(n_grid, per_n):
            row = [family, n]
            for label, got in zip(labels, per_kind):
                if isinstance(got, DepgapError):
                    got = _error_cell(got, errors, family=family, n=n, measure=label)
                row.append(got)
            rows.append(row)
    plot = None
    if "aldg" in labels:
        plot = {"x": "n", "y": "aldg", "group": "family"}
    return study.report(["family", "n"] + labels, rows, plot=plot, errors=errors)


def run_threshold_comparison(
    n: int = 1000,
    trials: int = 20,
    small_n: int = 100,
    rho: float = 0.5,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """How the threshold rules behave on correlated Gaussian data.

    Long-format table with four sections. "curve": the empirical aldg-vs-t
    curve on one dataset of size n, for the observed pairing, each
    independence shuffle, and the Monte Carlo population reference.
    "threshold": asymptotic-norm versus uniform-error thresholds across
    `trials` datasets of size small_n. "estimate" and "estimate-threshold":
    the aLDG value and the threshold from each data-driven rule across
    `trials` datasets of size n.
    """
    grid = np.linspace(0.0, 0.5, 51)
    study = _Study(
        "threshold-comparison", seed,
        n=n, small_n=small_n, trials=trials, rho=rho,
        t_grid=[float(grid[0]), float(grid[-1]), int(grid.size)],
    )
    spec = GaussianSpec(rho=rho)
    data_root = child_seed(seed, 0)
    rule_root = child_seed(seed, 1)

    data = gaussian_pair(spec, n, seed=child_seed(data_root, 0))
    cfg = default_config(data)

    def curve_rows(series, tvals):
        return [
            ["curve", series, float(t), float(share)]
            for t, share in zip(grid, _share_at_least(tvals, grid))
        ]

    rows = curve_rows("observed", t_statistic_at_sample_points(data, cfg))
    for k in range(default_n_shuffles(n)):
        shuffled = shuffle_y(data, seed=child_seed(rule_root, k))
        rows += curve_rows(f"shuffle-{k}", t_statistic_at_sample_points(shuffled, cfg))
    population = population_aldg_gaussian(spec, grid, seed=child_seed(rule_root, 50))
    rows += [["curve", "population", float(t), float(share)] for t, share in zip(grid, population)]

    rule_kinds = ("uniform-error", "inflection-point", "asymptotic-norm")

    def one(cell, trial):
        small = gaussian_pair(spec, small_n, seed=child_seed(data_root, 1 + trial))
        t_an = threshold_asymptotic_norm(
            small_n, float(np.std(small.xs, ddof=1)), float(np.std(small.ys, ddof=1))
        )
        t_ue = threshold_uniform_error(
            small, default_config(small), seed=child_seed(rule_root, 100 + trial)
        )
        big = gaussian_pair(spec, n, seed=child_seed(data_root, 1000 + trial))
        estimates = [
            aldg(big, ThresholdRule(kind).reseeded(child_seed(rule_root, 1000 + trial * 8 + ridx)))
            for ridx, kind in enumerate(rule_kinds)
        ]
        return (t_an, t_ue), estimates

    results = study.grid(one, trials=trials, threads=threads)
    for trial, ((t_an, t_ue), _) in enumerate(results):
        rows.append(["threshold", "asymptotic-norm", trial, t_an])
        rows.append(["threshold", "uniform-error", trial, t_ue])
    for trial, (_, estimates) in enumerate(results):
        for rule_name, res in zip(rule_kinds, estimates):
            rows.append(["estimate", rule_name, trial, res.value])
            rows.append(["estimate-threshold", rule_name, trial, res.t_used])
    return study.report(
        ["section", "series", "x", "value"],
        rows,
        plot={"x": "x", "y": "value", "group": "series", "where": ["section", "curve"]},
    )


def run_robustness(
    n: int = 1000,
    trials: int = 50,
    d_n: int = 10,
    point: Sequence[float] = (1000.0, 1000.0),
    eps: float = 1e-6,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Contamination study: aLDG versus Pearson under planted outliers.

    Per trial an independent bivariate normal sample of size n is measured
    clean and with its last d_n pairs replaced by a fixed far point (rows
    aldg-clean, aldg-contaminated, pearson-clean, pearson-contaminated;
    Pearson is reported in absolute value). Two closing rows carry the
    population-level influence approximation of a point-mass contamination
    at thresholds 0 and 0.05.
    """
    point = (float(point[0]), float(point[1]))
    study = _Study("robustness", seed, n=n, trials=trials, d_n=d_n, point=list(point), eps=eps)
    data_root = child_seed(seed, 0)
    rule_root = child_seed(seed, 1)
    cspec = ContaminationSpec(d_n, point)

    def one(cell, trial):
        data = generate(
            SynthSpec("independent", n, seed=child_seed(data_root, trial))
        )
        dirty = contaminate(data, cspec)
        rule_seed = child_seed(rule_root, trial)
        return (
            aldg(data, ThresholdRule.auto(seed=rule_seed)).value,
            aldg(dirty, ThresholdRule.auto(seed=rule_seed)).value,
            abs(measure("pearson", data)),
            abs(measure("pearson", dirty)),
        )

    series = ("aldg-clean", "aldg-contaminated", "pearson-clean", "pearson-contaminated")
    rows = [
        [name, trial, value]
        for trial, values in enumerate(study.grid(one, trials=trials, threads=threads))
        for name, value in zip(series, values)
    ]

    gauss = GaussianSpec(rho=0.0)
    inf_seed = child_seed(rule_root, 10_000)
    rows.append(["influence-t0", 0, influence_approx(gauss, 0.0, eps, point, seed=inf_seed)])
    rows.append(
        ["influence-t0.05", 0, influence_approx(gauss, 0.05, eps, point, seed=inf_seed)]
    )
    return study.report(["series", "trial", "value"], rows)


MIN_TIMED_SECONDS = 0.5


def run_timing(
    n_grid: Sequence[int] = (100, 200, 400, 800),
    kinds: Sequence = ("aldg", "hhg"),
    repeats: int = 3,
    seed: int = 0,
    threads: int = 1,
) -> ExperimentReport:
    """Wall-clock scaling of measures with sample size on one core.

    For each n every measure gets the same correlated Gaussian dataset,
    seeded by n's place in the grid; after a warmup call each measure is
    evaluated at least `repeats` times and for at least MIN_TIMED_SECONDS,
    and the minimum wall time is kept, so the minimum of a sub-millisecond
    call does not rest on a few calls that a slowed host inflates alike.
    aLDG is timed under the asymptotic-norm threshold so the same algorithm
    runs at every n. The metadata records the fitted log-log slope per
    measure. Runs sequentially; `threads` is ignored so timings are not
    distorted by contention.
    """
    del threads
    n_grid = [int(v) for v in n_grid]
    tags = [str(k) for k in kinds]
    study = _Study("timing", seed, n_grid=n_grid, measures=tags, repeats=repeats)
    spec = GaussianSpec(rho=0.5)

    def evaluator(tag):
        if tag == "aldg":
            return lambda d: aldg(d, ThresholdRule.asymptotic_norm()).value
        kind = MeasureKind(tag)
        return lambda d: measure(kind, d)

    def one(cell, ni, ti):
        data = gaussian_pair(spec, n_grid[ni], seed=child_seed(seed, ni))
        fn = evaluator(tags[ti])
        fn(data)
        best, calls, deadline = math.inf, 0, time.perf_counter() + MIN_TIMED_SECONDS
        while calls < repeats or time.perf_counter() < deadline:
            t0 = time.perf_counter()
            fn(data)
            best = min(best, time.perf_counter() - t0)
            calls += 1
        return max(best, 1e-9)

    seconds = study.grid(one, len(n_grid), len(tags))
    rows = [
        [tag, n, best, math.log10(n), math.log10(best)]
        for n, per_tag in zip(n_grid, seconds)
        for tag, best in zip(tags, per_tag)
    ]

    # A slope needs at least two sample sizes; leave the mapping empty otherwise.
    slopes = {}
    if len(n_grid) >= 2:
        log_n = np.log10(np.asarray(n_grid, dtype=float))
        for ti, tag in enumerate(tags):
            log_s = np.log10(np.asarray([per_tag[ti] for per_tag in seconds]))
            slopes[tag] = round(float(np.polyfit(log_n, log_s, 1)[0]), 4)
    return study.report(
        ["measure", "n", "seconds", "log10_n", "log10_seconds"],
        rows,
        plot={"x": "log10_n", "y": "log10_seconds", "group": "measure"},
        slopes=slopes,
    )


EXPERIMENTS = {
    "nonlinearity-grid": run_nonlinearity_grid,
    "noise-monotonicity": run_noise_monotonicity,
    "mixture-accumulation": run_mixture_accumulation,
    "power-suite": run_power_suite,
    "threshold-comparison": run_threshold_comparison,
    "robustness": run_robustness,
    "timing": run_timing,
}
