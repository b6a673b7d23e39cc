"""Acceptance gate: twelve quantitative checks, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the checklist. Every
randomized check pins its seeds, so reruns are exactly reproducible; the
statistical bounds are stated inline next to each assertion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
from scipy import stats
from scipy.special import ndtri

from depgap import (
    ContaminationSpec,
    GaussianSpec,
    KdeConfig,
    MEASURE_TAGS,
    PairedSample,
    SynthSpec,
    ThresholdRule,
    aldg,
    aldg_fixed_t,
    avgcsn,
    contaminate,
    default_config,
    gaussian_pair,
    influence_approx,
    mean_t,
    measure,
    population_aldg_gaussian,
    power_estimate,
    unif_point_mass,
)
from depgap._util import child_seed
from depgap.cli import main as cli_main
from depgap.experiments import (
    run_mixture_accumulation,
    run_noise_monotonicity,
    run_timing,
    write_report,
)
from oracles import (
    aldg_fixed_brute,
    dcor_brute,
    hhg_brute,
    hoeffd_brute,
    kendall_taub_brute,
)


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def rel_err(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    return 0.0 if scale == 0.0 else abs(a - b) / scale


def undersmoothed_config(sample: PairedSample) -> KdeConfig:
    """Bandwidths sigma_hat * n**(-1/4), narrower than the estimation default."""
    shrink = sample.n ** -0.25
    return KdeConfig(
        float(np.std(sample.xs, ddof=1)) * shrink,
        float(np.std(sample.ys, ddof=1)) * shrink,
    )


def test_criterion_01_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(6, 13))
        if rng.random() < 0.5:
            xs = rng.normal(size=n)
            ys = 0.5 * xs + rng.normal(size=n)
        else:
            xs = rng.uniform(-1.0, 1.0, size=n)
            ys = xs**2 + 0.3 * rng.uniform(-1.0, 1.0, size=n)
        s = PairedSample(xs, ys)
        cfg = default_config(s)
        t = float(rng.uniform(0.0, 0.4))
        lx, ly = s.xs.tolist(), s.ys.tolist()
        pairs = [
            (aldg_fixed_t(s, cfg, t), aldg_fixed_brute(lx, ly, cfg.h_x, cfg.h_y, t)),
            (measure("hoeffd", s), hoeffd_brute(lx, ly)),
            (measure("dcor", s), dcor_brute(lx, ly)),
            (measure("hhg", s), hhg_brute(lx, ly)),
            (measure("kendall", s), kendall_taub_brute(lx, ly)),
        ]
        worst = max(worst, max(rel_err(a, b) for a, b in pairs))
    elapsed = time.monotonic() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    verdict(1, ok, f"max relative error {worst:.2e} over 100 samples in {elapsed:.1f} s")


def test_criterion_02_range_symmetry_monotonicity():
    rng = np.random.default_rng(202)
    grid = np.linspace(0.0, 0.8, 20)
    violations = 0
    for _ in range(1000):
        n = int(rng.integers(5, 41))
        shape = int(rng.integers(0, 3))
        if shape == 0:
            xs, ys = rng.normal(size=n), rng.normal(size=n)
        elif shape == 1:
            xs = rng.uniform(size=n)
            ys = xs + rng.normal(scale=0.2, size=n)
        else:
            xs, ys = rng.lognormal(size=n), rng.exponential(size=n)
        s = PairedSample(xs, ys)
        cfg = default_config(s)
        values = [aldg_fixed_t(s, cfg, float(t)) for t in grid]
        if any(not 0.0 <= v <= 1.0 for v in values):
            violations += 1
        if any(values[i + 1] > values[i] for i in range(len(values) - 1)):
            violations += 1
        mirrored = [
            aldg_fixed_t(PairedSample(ys, xs), cfg.swapped(), float(t)) for t in grid
        ]
        if mirrored != values:
            violations += 1
    verdict(2, violations == 0,
            f"{violations} violations of range, swap symmetry, or monotonicity "
            "across 1000 inputs x 20 thresholds")


def test_criterion_03_independence_null():
    start = time.monotonic()
    spec = GaussianSpec(rho=0.0)
    values = [
        aldg(
            gaussian_pair(spec, 200, seed=child_seed(303, trial)),
            ThresholdRule.auto(seed=child_seed(304, trial)),
        ).value
        for trial in range(50)
    ]
    mean_value = float(np.mean(values))
    elapsed = time.monotonic() - start
    ok = mean_value <= 0.05 and elapsed < 120.0
    verdict(3, ok,
            f"mean aLDG {mean_value:.4f} on independent Gaussians (50 trials, "
            f"n=200) in {elapsed:.1f} s")


def test_criterion_04_consistency():
    spec = GaussianSpec(rho=0.5)
    wins = 0
    for trial in range(50):
        errors = []
        for k, n in enumerate((200, 2000)):
            sample = gaussian_pair(spec, n, seed=child_seed(404, 2 * trial + k))
            result = aldg(sample, ThresholdRule.auto(seed=child_seed(405, 2 * trial + k)))
            target = population_aldg_gaussian(spec, result.t_used, seed=406)
            errors.append(abs(result.value - target))
        wins += errors[1] < errors[0]
    verdict(4, wins >= 45,
            f"n=2000 estimate closer to the population value than n=200 in "
            f"{wins}/50 paired trials")


def test_criterion_05_noise_monotonicity():
    report = run_noise_monotonicity(n=100, trials=50, seed=505, threads=4)
    by_family = {}
    for family, c, mean_val, _sd in report.rows:
        by_family.setdefault(family, []).append((c, mean_val))
    corrs = {
        family: float(stats.spearmanr([p[0] for p in pts], [p[1] for p in pts])[0])
        for family, pts in by_family.items()
    }
    ok = all(v <= -0.9 for v in corrs.values())
    detail = ", ".join(f"{fam} {corr:+.3f}" for fam, corr in corrs.items())
    verdict(5, ok, f"Spearman(noise level, mean aLDG): {detail}")


def test_criterion_06_mixture_accumulation():
    report = run_mixture_accumulation(n=200, trials=50, seed=606, threads=4)
    series = {}
    for mixture, m, mean_val, _sd in report.rows:
        series.setdefault(mixture, {})[m] = mean_val
    ok = True
    parts = []
    for mixture in sorted(series):
        means = [series[mixture][m] for m in sorted(series[mixture])]
        ok = ok and len(means) == 4
        ok = ok and all(means[i] < means[i + 1] for i in range(len(means) - 1))
        parts.append(mixture + " " + " -> ".join(f"{v:.3f}" for v in means))
    verdict(6, ok, f"mean aLDG over m=0..3 correlated components: {'; '.join(parts)}")


def test_criterion_07_power_and_size():
    start = time.monotonic()
    null_spec = SynthSpec("independent", 100)
    type1 = {
        tag: power_estimate(null_spec, tag, n_trials=50, n_perms=200,
                            seed=child_seed(707, i), threads=4)
        for i, tag in enumerate(MEASURE_TAGS)
    }
    powers = {
        family: power_estimate(SynthSpec(family, 200, noise_level=0.2), "aldg",
                               n_trials=50, n_perms=200,
                               seed=child_seed(708, i), threads=4)
        for i, family in enumerate(("linear", "quadratic", "sine"))
    }
    pearson_quad = power_estimate(SynthSpec("quadratic", 200, noise_level=0.2),
                                  "pearson", n_trials=50, n_perms=200,
                                  seed=709, threads=4)
    elapsed = time.monotonic() - start
    worst_type1 = max(type1.values())
    ok = (
        worst_type1 <= 0.15
        and all(p >= 0.8 for p in powers.values())
        and pearson_quad <= 0.2
        and elapsed < 1200.0
    )
    power_text = ", ".join(f"{fam} {val:.2f}" for fam, val in powers.items())
    verdict(7, ok,
            f"type-I max {worst_type1:.2f} ({max(type1, key=type1.get)}); "
            f"aLDG power {power_text}; Pearson on quadratic {pearson_quad:.2f}; "
            f"{elapsed:.0f} s")


def test_criterion_08_robustness():
    spec = GaussianSpec(rho=0.0)
    planted = ContaminationSpec(d_n=10, point=(1000.0, 1000.0))
    good = 0
    for trial in range(50):
        clean = gaussian_pair(spec, 1000, seed=child_seed(808, trial))
        dirty = contaminate(clean, planted)
        rule = ThresholdRule.auto(seed=child_seed(809, trial))
        aldg_shift = abs(aldg(dirty, rule).value - aldg(clean, rule).value)
        pearson_shift = abs(measure("pearson", dirty)) - abs(measure("pearson", clean))
        good += aldg_shift <= 0.1 and abs(pearson_shift) >= 0.5
    at_zero = abs(influence_approx(spec, 0.0, 1e-6, (5.0, 5.0), seed=810))
    away = abs(influence_approx(spec, 0.05, 1e-6, (5.0, 5.0), seed=810))
    ok = good >= 45 and at_zero >= 10.0 * away
    verdict(8, ok,
            f"{good}/50 trials with aLDG shift <= 0.1 and |Pearson| shift >= 0.5; "
            f"influence {at_zero:.3g} at t=0 vs {away:.3g} at t=0.05")


def test_criterion_09_threshold_merit():
    sample = unif_point_mass(0.1, 0.01, 5000, seed=909)
    cfg = undersmoothed_config(sample)
    result = aldg(sample, ThresholdRule.auto(seed=0), cfg)
    unthresholded = mean_t(sample, cfg)
    ok = 0.05 <= result.value <= 0.15 and unthresholded >= 3.0 * result.value
    verdict(9, ok,
            f"aLDG {result.value:.4f} at t={result.t_used:.4f} vs mean T "
            f"{unthresholded:.4f} on a 10% point-mass mixture")


def test_criterion_10_complexity_slopes():
    # aLDG counts windows from sorted margins: O(n log n) per axis and about
    # n^2 / 64 word operations for the joint count, so its slope must stay
    # below the dense n x n pass (~2 on these sizes) and above a timed no-op.
    # Below n = 200 fixed per-call costs flatten the curve, so it is timed
    # from there.
    aldg_slope = run_timing(n_grid=(200, 400, 800, 1600), kinds=("aldg",),
                            repeats=3, seed=1010).meta["timing"]["slopes"]["aldg"]
    hhg_slope = run_timing(n_grid=(100, 200, 400, 800), kinds=("hhg",),
                           repeats=3, seed=1010).meta["timing"]["slopes"]["hhg"]
    ok = 0.5 <= aldg_slope <= 1.7 and 2.6 <= hhg_slope <= 3.4
    verdict(10, ok,
            f"log-log runtime slopes: aldg {aldg_slope:.2f} (want 0.5..1.7), "
            f"hhg {hhg_slope:.2f} (want 2.6..3.4)")


def test_criterion_11_avgcsn_bridge():
    alpha = 0.01
    worst = 0.0
    for seed in (1111, 1112, 1113):
        sample = gaussian_pair(GaussianSpec(rho=0.5), 5000, seed=seed)
        cfg = undersmoothed_config(sample)
        t_bridge = float(ndtri(1.0 - alpha)) / math.sqrt(
            sample.n * (2.0 * cfg.h_x) * (2.0 * cfg.h_y)
        )
        gap = abs(avgcsn(sample, cfg, alpha) - aldg_fixed_t(sample, cfg, t_bridge))
        worst = max(worst, gap)
    verdict(11, worst <= 0.05,
            f"max |avgCSN - aLDG at the matching threshold| = {worst:.4f} "
            "over 3 samples (rho=0.5, n=5000)")


def test_criterion_12_determinism(tmp_path):
    rng = np.random.default_rng(1212)
    table_path = tmp_path / "expr.csv"
    lines = ["gene," + ",".join(f"c{i}" for i in range(40))]
    for g in range(6):
        row = rng.normal(size=40)
        lines.append(f"g{g}," + ",".join(format(v, ".17g") for v in row))
    table_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

    matrices = []
    for threads, stem in ((1, "a"), (8, "b")):
        out = tmp_path / f"{stem}.csv"
        code = cli_main(["matrix", str(table_path), "--measure", "aldg",
                         "--out", str(out), "--seed", "5", "--threads", str(threads)])
        assert code == 0
        matrices.append(
            (out.read_bytes(), out.with_suffix(".diagnostics.json").read_bytes())
        )
    matrix_same = matrices[0] == matrices[1]

    # Wall-clock lives only in the meta "timing" block, which is stripped
    # before comparison; all other report bytes must match across threads.
    reports = {}
    for threads in (1, 4):
        rep = run_noise_monotonicity(n=30, trials=3, c_grid=(0.0, 0.5),
                                     families=("linear", "sine"), seed=9,
                                     threads=threads)
        paths = write_report(rep, tmp_path / f"threads{threads}", svg=True)
        meta = json.loads(Path(paths["meta"]).read_text(encoding="utf-8"))
        meta.pop("timing", None)
        reports[threads] = (
            Path(paths["csv"]).read_bytes(),
            Path(paths["svg"]).read_bytes(),
            meta,
        )
    report_same = reports[1] == reports[4]

    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(
        {"family": "sine", "n": 50, "noise_level": 0.1, "seed": 3}
    ))
    sims = []
    for stem in ("s1", "s2"):
        out = tmp_path / f"{stem}.csv"
        assert cli_main(["simulate", "--spec", str(spec_path), "--out", str(out)]) == 0
        sims.append(out.read_bytes())
    sim_same = sims[0] == sims[1]

    ok = matrix_same and report_same and sim_same
    verdict(12, ok,
            f"threads 1 vs 8 matrix identical: {matrix_same}; threads 1 vs 4 "
            f"report identical net of wall-clock: {report_same}; repeated "
            f"simulation identical: {sim_same}")
