"""Experiment drivers: schemas, determinism, and report serialization."""

import json
from pathlib import Path

import numpy as np
import pytest

from depgap import (
    EXPERIMENTS,
    MeasureKind,
    ThresholdRule,
    render_svg,
    write_report,
)
from depgap.experiments import (
    POWER_SUITE_KINDS,
    run_mixture_accumulation,
    run_noise_monotonicity,
    run_nonlinearity_grid,
    run_power_suite,
    run_robustness,
    run_threshold_comparison,
    run_timing,
)


def meta_without_timing(report):
    meta = dict(report.meta)
    meta.pop("timing", None)
    return meta


class TestRegistry:
    def test_seven_experiments(self):
        assert set(EXPERIMENTS) == {
            "nonlinearity-grid",
            "noise-monotonicity",
            "mixture-accumulation",
            "power-suite",
            "threshold-comparison",
            "robustness",
            "timing",
        }

    def test_power_suite_default_kinds_skip_cubic_cost(self):
        assert "hhg" not in POWER_SUITE_KINDS
        assert "mr" not in POWER_SUITE_KINDS
        assert "aldg" in POWER_SUITE_KINDS


class TestNonlinearityGrid:
    def test_schema_and_values(self):
        report = run_nonlinearity_grid(
            n=30,
            trials=2,
            families=("linear", "independent"),
            kinds=("pearson", "mean-t"),
            seed=1,
        )
        assert report.columns == ["family", "pearson", "mean-t"]
        assert [row[0] for row in report.rows] == ["linear", "independent"]
        linear_pearson = report.rows[0][1]
        assert linear_pearson == pytest.approx(1.0, rel=1e-9)
        assert report.meta["errors"] == []
        assert "timing" in report.meta

    def test_total_failure_leaves_marker(self):
        report = run_nonlinearity_grid(
            n=4, trials=2, families=("linear",), kinds=("hoeffd",), seed=2
        )
        assert report.rows[0][1] == "error:TooFewSamples"
        assert report.meta["errors"][0]["count"] == 2

    def test_duplicate_tags_get_distinct_labels(self):
        kinds = (
            MeasureKind("aldg"),
            MeasureKind("aldg", {"rule": ThresholdRule.fixed(0.1)}),
        )
        report = run_nonlinearity_grid(
            n=20, trials=1, families=("linear",), kinds=kinds, seed=3
        )
        assert report.columns == ["family", "aldg", "aldg-2"]

    def test_deterministic_across_threads(self):
        kwargs = dict(
            n=25, trials=2, families=("sine", "circle"), kinds=("aldg",), seed=4
        )
        a = run_nonlinearity_grid(threads=1, **kwargs)
        b = run_nonlinearity_grid(threads=3, **kwargs)
        assert a.rows == b.rows
        assert meta_without_timing(a) == meta_without_timing(b)


class TestNoiseMonotonicity:
    def test_schema(self):
        report = run_noise_monotonicity(
            n=25, trials=2, c_grid=(0.0, 0.5), families=("linear",), seed=1
        )
        assert report.columns == ["family", "noise", "aldg_mean", "aldg_sd"]
        assert len(report.rows) == 2
        for row in report.rows:
            assert 0.0 <= row[2] <= 1.0
            assert row[3] >= 0.0
        assert report.plot == {"x": "noise", "y": "aldg_mean", "group": "family"}

    def test_deterministic_across_threads(self):
        kwargs = dict(n=25, trials=2, c_grid=(0.0, 1.0), families=("step",), seed=2)
        a = run_noise_monotonicity(threads=1, **kwargs)
        b = run_noise_monotonicity(threads=4, **kwargs)
        assert a.rows == b.rows


class TestMixtureAccumulation:
    def test_schema(self):
        report = run_mixture_accumulation(n=40, trials=2, seed=1)
        assert report.columns == ["mixture", "m_correlated", "aldg_mean", "aldg_sd"]
        assert len(report.rows) == 8
        assert {row[0] for row in report.rows} == {"gauss-mix3", "nb-mix3"}
        assert [row[1] for row in report.rows] == [0, 1, 2, 3, 0, 1, 2, 3]
        assert all(0.0 <= row[2] <= 1.0 for row in report.rows)

    def test_deterministic(self):
        a = run_mixture_accumulation(n=30, trials=2, seed=5)
        b = run_mixture_accumulation(n=30, trials=2, seed=5, threads=2)
        assert a.rows == b.rows


class TestPowerSuite:
    def test_schema_and_power_ordering(self):
        report = run_power_suite(
            n_grid=(25,),
            families=("linear", "independent"),
            kinds=("pearson",),
            noise_level=0.0,
            n_perms=40,
            trials=3,
            seed=1,
        )
        assert report.columns == ["family", "n", "pearson"]
        by_family = {row[0]: row for row in report.rows}
        assert by_family["linear"][1] == 25
        assert by_family["linear"][2] == 1.0
        assert by_family["independent"][2] <= 2.0 / 3.0
        assert report.meta["errors"] == []

    def test_plot_only_with_aldg(self):
        with_aldg = run_power_suite(
            n_grid=(20,), families=("linear",), kinds=("aldg",),
            n_perms=10, trials=1, seed=2,
        )
        assert with_aldg.plot == {"x": "n", "y": "aldg", "group": "family"}
        without = run_power_suite(
            n_grid=(20,), families=("linear",), kinds=("pearson",),
            n_perms=10, trials=1, seed=2,
        )
        assert without.plot is None

    def test_deterministic_across_threads(self):
        kwargs = dict(
            n_grid=(20,), families=("quadratic",), kinds=("spearman", "aldg"),
            n_perms=20, trials=2, seed=3,
        )
        a = run_power_suite(threads=1, **kwargs)
        b = run_power_suite(threads=4, **kwargs)
        assert a.rows == b.rows


class TestThresholdComparison:
    def test_sections_and_series(self):
        report = run_threshold_comparison(n=60, trials=2, small_n=30, seed=1)
        assert report.columns == ["section", "series", "x", "value"]
        sections = {row[0] for row in report.rows}
        assert sections == {"curve", "threshold", "estimate", "estimate-threshold"}
        curve_series = {row[1] for row in report.rows if row[0] == "curve"}
        assert "observed" in curve_series
        assert "population" in curve_series
        assert "shuffle-0" in curve_series
        rule_series = {row[1] for row in report.rows if row[0] == "estimate"}
        assert rule_series == {"uniform-error", "inflection-point", "asymptotic-norm"}

    def test_curves_live_on_the_unit_interval(self):
        report = run_threshold_comparison(n=50, trials=1, small_n=20, seed=2)
        for row in report.rows:
            if row[0] == "curve":
                assert 0.0 <= row[3] <= 1.0

    def test_deterministic_across_threads(self):
        a = run_threshold_comparison(n=40, trials=2, small_n=20, seed=3, threads=1)
        b = run_threshold_comparison(n=40, trials=2, small_n=20, seed=3, threads=4)
        assert a.rows == b.rows


class TestRobustness:
    def test_schema_and_influence_rows(self):
        report = run_robustness(n=120, trials=2, d_n=2, seed=1)
        assert report.columns == ["series", "trial", "value"]
        series = [row[0] for row in report.rows]
        for name in (
            "aldg-clean",
            "aldg-contaminated",
            "pearson-clean",
            "pearson-contaminated",
        ):
            assert series.count(name) == 2
        tail = {row[0]: row[2] for row in report.rows[-2:]}
        # Under independence the t=0 influence is exactly 1/eps and the
        # t=0.05 influence collapses to the atom's own mass.
        assert tail["influence-t0"] == pytest.approx(1e6, rel=1e-9)
        assert tail["influence-t0.05"] == 1.0

    def test_contamination_inflates_pearson(self):
        report = run_robustness(n=120, trials=2, d_n=2, seed=2)
        values = {}
        for name, trial, value in report.rows:
            values.setdefault(name, []).append(value)
        assert all(v > 0.5 for v in values["pearson-contaminated"])
        assert all(v < 0.5 for v in values["pearson-clean"])

    def test_deterministic_across_threads(self):
        a = run_robustness(n=100, trials=2, d_n=2, seed=3, threads=1)
        b = run_robustness(n=100, trials=2, d_n=2, seed=3, threads=2)
        assert a.rows == b.rows


class TestTiming:
    def test_schema_and_slopes(self):
        report = run_timing(n_grid=(40, 80), kinds=("pearson",), repeats=1, seed=1)
        assert report.columns == ["measure", "n", "seconds", "log10_n", "log10_seconds"]
        assert len(report.rows) == 2
        for row in report.rows:
            assert row[2] > 0.0
            assert row[3] == pytest.approx(np.log10(row[1]))
        assert "pearson" in report.meta["timing"]["slopes"]

    def test_data_is_seeded_even_though_times_vary(self):
        a = run_timing(n_grid=(40,), kinds=("pearson",), repeats=1, seed=2)
        b = run_timing(n_grid=(40,), kinds=("pearson",), repeats=1, seed=2)
        assert [row[:2] for row in a.rows] == [row[:2] for row in b.rows]


class TestWriteReport:
    def test_artifacts_on_disk(self, tmp_path):
        report = run_mixture_accumulation(n=30, trials=1, seed=1)
        paths = write_report(report, tmp_path)
        csv_bytes = (tmp_path / "mixture-accumulation.csv").read_bytes()
        assert paths["csv"].endswith("mixture-accumulation.csv")
        text = csv_bytes.decode("utf-8")
        assert b"\r" not in csv_bytes
        lines = text.strip().split("\n")
        assert lines[0] == "mixture,m_correlated,aldg_mean,aldg_sd"
        assert len(lines) == 9
        # Integer cells print without a decimal point.
        assert lines[1].split(",")[1] == "0"
        meta = json.loads((tmp_path / "mixture-accumulation.meta.json").read_text())
        assert meta["seed"] == 1
        assert "timing" in meta
        assert meta["plot"]["x"] == "m_correlated"

    def test_svg_only_for_plot_bearing_reports(self, tmp_path):
        plotless = run_robustness(n=80, trials=1, d_n=2, seed=1)
        paths = write_report(plotless, tmp_path, svg=True)
        assert "svg" not in paths
        plotted = run_noise_monotonicity(
            n=20, trials=1, c_grid=(0.0, 0.5), families=("linear",), seed=1
        )
        paths = write_report(plotted, tmp_path, svg=True)
        svg = (tmp_path / "noise-monotonicity.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg and "linear" in svg

    def test_rewrite_is_byte_identical_outside_timing(self, tmp_path):
        kwargs = dict(n=20, trials=2, c_grid=(0.0, 0.8), families=("sine",), seed=4)
        a = run_noise_monotonicity(**kwargs)
        b = run_noise_monotonicity(**kwargs)
        write_report(a, tmp_path / "a", svg=True)
        write_report(b, tmp_path / "b", svg=True)
        name = "noise-monotonicity"
        assert (tmp_path / "a" / f"{name}.csv").read_bytes() == (
            tmp_path / "b" / f"{name}.csv"
        ).read_bytes()
        assert (tmp_path / "a" / f"{name}.svg").read_bytes() == (
            tmp_path / "b" / f"{name}.svg"
        ).read_bytes()
        metas = []
        for run in ("a", "b"):
            doc = json.loads((tmp_path / run / f"{name}.meta.json").read_text())
            doc.pop("timing")
            metas.append(doc)
        assert metas[0] == metas[1]


# Tiny settings for every experiment whose report bytes must not depend on
# the thread count; timing's rows are wall-clock by design.
TINY_RUNS = {
    "nonlinearity-grid": dict(
        n=12, trials=2, families=("linear", "circle"), kinds=("pearson", "hoeffd", "aldg")
    ),
    "noise-monotonicity": dict(n=20, trials=3, c_grid=(0.0, 0.5), families=("linear", "sine")),
    "mixture-accumulation": dict(n=30, trials=2),
    "power-suite": dict(
        n_grid=(4, 20), families=("linear", "independent"), kinds=("hoeffd", "aldg"),
        n_perms=10, trials=2,
    ),
    "threshold-comparison": dict(n=40, trials=2, small_n=20),
    "robustness": dict(n=60, trials=2, d_n=2),
}


class TestThreadInvariance:
    @pytest.mark.parametrize("name", sorted(TINY_RUNS))
    def test_report_bytes_match_across_threads(self, tmp_path, name):
        written = []
        for threads in (1, 2):
            report = EXPERIMENTS[name](seed=6, threads=threads, **TINY_RUNS[name])
            paths = write_report(report, tmp_path / str(threads), svg=True)
            meta = json.loads(Path(paths.pop("meta")).read_text())
            assert meta.pop("timing")["cell_seconds"]
            written.append((meta, {kind: Path(p).read_bytes() for kind, p in paths.items()}))
        assert written[0] == written[1]

    @pytest.mark.parametrize("name", sorted(TINY_RUNS))
    def test_fewer_than_one_trial_is_rejected(self, name):
        with pytest.raises(ValueError, match="trials must be at least 1"):
            EXPERIMENTS[name](**{**TINY_RUNS[name], "trials": 0})


class TestRenderSvg:
    def test_no_plot_gives_none(self):
        report = run_robustness(n=80, trials=1, d_n=2, seed=1)
        assert render_svg(report) is None

    def test_where_filter_and_groups(self):
        report = run_threshold_comparison(n=40, trials=1, small_n=20, seed=1)
        svg = render_svg(report)
        assert svg is not None
        assert "observed" in svg and "population" in svg
        # Threshold-section series are filtered out of the plot.
        assert "asymptotic-norm" not in svg

    def test_deterministic_output(self):
        report = run_noise_monotonicity(
            n=20, trials=1, c_grid=(0.0, 0.5), families=("linear", "step"), seed=2
        )
        assert render_svg(report) == render_svg(report)
