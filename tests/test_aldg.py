"""The aLDG estimator, threshold rules, avgCSN, and population quantities."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from depgap import (
    DegenerateCurve,
    GaussianSpec,
    KdeConfig,
    PairedSample,
    ThresholdRule,
    TooFewSamples,
    aldg,
    aldg_fixed_t,
    avgcsn,
    default_config,
    default_n_shuffles,
    influence_approx,
    mean_t,
    population_aldg_gaussian,
    t_statistic_at_sample_points,
    threshold_asymptotic_norm,
    threshold_inflection_point,
    threshold_uniform_error,
)
from oracles import (
    aldg_fixed_brute,
    avgcsn_brute,
    gaussian_t_brute,
    mean_t_brute,
    t_values_brute,
)

DIAG = PairedSample([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
UNIT = KdeConfig(1.0, 1.0)


def random_sample(rng, n):
    xs = rng.normal(size=n)
    ys = 0.5 * xs + rng.normal(size=n)
    return PairedSample(xs, ys)


def shuffle_stream(seed, index):
    # Shuffle streams are derived from the (seed, shuffle index) pair; this
    # pins the reproducibility contract of the shuffle-based rules.
    return np.random.default_rng(np.random.SeedSequence((seed, index)))


class TestAldgFixedT:
    def test_hand_values_on_diagonal(self):
        # T values there are {1/6, 0, 1/6}.
        assert aldg_fixed_t(DIAG, UNIT, 0.1) == pytest.approx(2.0 / 3.0, rel=1e-15)
        assert aldg_fixed_t(DIAG, UNIT, 0.0) == 1.0
        assert aldg_fixed_t(DIAG, UNIT, 0.5) == 0.0

    def test_threshold_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            aldg_fixed_t(DIAG, UNIT, -0.01)

    def test_inequality_is_closed(self):
        from depgap import t_statistic_at_sample_points

        rng = np.random.default_rng(5)
        s = random_sample(rng, 30)
        cfg = default_config(s)
        top = float(np.max(t_statistic_at_sample_points(s, cfg)))
        if top >= 0:
            assert aldg_fixed_t(s, cfg, top) >= 1.0 / s.n

    def test_matches_brute(self):
        rng = np.random.default_rng(41)
        for _ in range(15):
            s = random_sample(rng, int(rng.integers(4, 30)))
            cfg = default_config(s)
            t = float(rng.uniform(0.0, 0.5))
            assert aldg_fixed_t(s, cfg, t) == aldg_fixed_brute(
                s.xs, s.ys, cfg.h_x, cfg.h_y, t
            )


class TestMeanT:
    def test_hand_value_on_diagonal(self):
        assert mean_t(DIAG, UNIT) == pytest.approx(1.0 / 9.0, rel=1e-15)

    def test_matches_brute(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            s = random_sample(rng, int(rng.integers(4, 30)))
            cfg = default_config(s)
            assert mean_t(s, cfg) == pytest.approx(
                mean_t_brute(s.xs, s.ys, cfg.h_x, cfg.h_y), rel=1e-12
            )

    def test_default_config_path(self):
        rng = np.random.default_rng(44)
        s = random_sample(rng, 25)
        assert mean_t(s) == mean_t(s, default_config(s))


class TestThresholdRuleValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ThresholdRule("median-split")

    def test_fixed_requires_nonnegative_t(self):
        with pytest.raises(ValueError):
            ThresholdRule("fixed")
        with pytest.raises(ValueError):
            ThresholdRule.fixed(-0.1)
        assert ThresholdRule.fixed(0.2).t == 0.2

    def test_only_fixed_takes_t(self):
        with pytest.raises(ValueError):
            ThresholdRule("asymptotic-norm", t=0.1)

    def test_n_shuffles_bounds(self):
        with pytest.raises(ValueError):
            ThresholdRule.uniform_error(n_shuffles=0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule.inflection_point(grid=[0.0, 0.1, 0.2])
        with pytest.raises(ValueError):
            ThresholdRule.inflection_point(grid=[0.0, 0.2, 0.1, 0.3, 0.4])
        rule = ThresholdRule.inflection_point(grid=np.linspace(0.0, 1.0, 6))
        assert rule.grid.size == 6

    def test_default_n_shuffles_values(self):
        assert default_n_shuffles(100) == 10
        assert default_n_shuffles(50) == 20
        assert default_n_shuffles(200) == 5
        assert default_n_shuffles(1000) == 5
        assert default_n_shuffles(5000) == 5


class TestAsymptoticNormThreshold:
    def test_hand_value(self):
        got = threshold_asymptotic_norm(1000, 1.0, 1.0)
        assert got == pytest.approx(0.3090232306, abs=1e-9)

    def test_matches_formula(self):
        for n, sx, sy in ((50, 1.0, 1.0), (200, 2.0, 0.5), (5000, 0.3, 3.0)):
            want = norm.ppf(1.0 - 1.0 / n) / (math.sqrt(sx * sy) * n ** (1.0 / 3.0))
            assert threshold_asymptotic_norm(n, sx, sy) == pytest.approx(
                want, rel=1e-14
            )

    def test_decreases_with_n(self):
        values = [threshold_asymptotic_norm(n, 1.0, 1.0) for n in (100, 1000, 10000)]
        assert values[0] > values[1] > values[2]

    def test_validation(self):
        with pytest.raises(TooFewSamples):
            threshold_asymptotic_norm(1, 1.0, 1.0)
        with pytest.raises(ValueError):
            threshold_asymptotic_norm(100, 0.0, 1.0)


class TestUniformErrorThreshold:
    def test_matches_brute_median_of_maxima(self):
        rng = np.random.default_rng(47)
        s = random_sample(rng, 40)
        cfg = default_config(s)
        seed, n_shuffles = 123, 5
        maxima = []
        for index in range(n_shuffles):
            ys = shuffle_stream(seed, index).permutation(s.ys)
            maxima.append(max(t_values_brute(s.xs, ys, cfg.h_x, cfg.h_y)))
        want = float(np.median(maxima))
        got = threshold_uniform_error(s, cfg, n_shuffles=n_shuffles, seed=seed)
        assert got == pytest.approx(want, rel=1e-12)

    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(48)
        s = random_sample(rng, 60)
        cfg = default_config(s)
        a = threshold_uniform_error(s, cfg, seed=9)
        b = threshold_uniform_error(s, cfg, seed=9)
        c = threshold_uniform_error(s, cfg, seed=9, threads=4)
        assert a == b == c
        assert a != threshold_uniform_error(s, cfg, seed=10)

    def test_default_shuffle_count(self):
        rng = np.random.default_rng(49)
        s = random_sample(rng, 150)
        cfg = default_config(s)
        auto = threshold_uniform_error(s, cfg, seed=2)
        explicit = threshold_uniform_error(
            s, cfg, n_shuffles=default_n_shuffles(s.n), seed=2
        )
        assert auto == explicit


class TestInflectionPointThreshold:
    def test_matches_brute_on_explicit_grid(self):
        rng = np.random.default_rng(53)
        s = random_sample(rng, 40)
        cfg = default_config(s)
        grid = np.linspace(0.0, 1.0, 21)
        seed, n_shuffles = 7, 5
        picks = []
        for index in range(n_shuffles):
            ys = shuffle_stream(seed, index).permutation(s.ys)
            tvals = np.asarray(t_values_brute(s.xs, ys, cfg.h_x, cfg.h_y))
            curve = np.array([(tvals >= t).mean() for t in grid])
            second = curve[2:] - 2.0 * curve[1:-1] + curve[:-2]
            picks.append(grid[int(np.argmax(second)) + 1])
        want = float(np.median(picks))
        got = threshold_inflection_point(
            s, cfg, grid=grid, n_shuffles=n_shuffles, seed=seed
        )
        assert got == pytest.approx(want, rel=1e-12)

    def test_default_grid_path_is_deterministic(self):
        rng = np.random.default_rng(54)
        s = random_sample(rng, 50)
        cfg = default_config(s)
        a = threshold_inflection_point(s, cfg, seed=3)
        assert a == threshold_inflection_point(s, cfg, seed=3)
        assert a >= 0.0

    def test_default_grid_computes_each_shuffle_once(self, monkeypatch):
        rng = np.random.default_rng(57)
        s = random_sample(rng, 50)
        cfg = default_config(s)
        upper = 2.0 * threshold_uniform_error(s, cfg, n_shuffles=10, seed=4)
        want = threshold_inflection_point(
            s, cfg, grid=np.linspace(0.0, upper, 51), n_shuffles=10, seed=4
        )
        # A shuffle reuses both margins and costs one joint count.
        module = importlib.import_module("depgap.aldg")
        real = module.joint_counts
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(module, "joint_counts", counted)
        assert threshold_inflection_point(s, cfg, n_shuffles=10, seed=4) == want
        assert len(calls) == 10

    def test_grid_above_all_t_values_degenerates(self):
        rng = np.random.default_rng(55)
        s = random_sample(rng, 30)
        cfg = default_config(s)
        with pytest.raises(DegenerateCurve):
            threshold_inflection_point(
                s, cfg, grid=np.linspace(100.0, 101.0, 6), n_shuffles=3, seed=1
            )

    def test_rejects_bad_grid(self):
        rng = np.random.default_rng(56)
        s = random_sample(rng, 20)
        cfg = default_config(s)
        with pytest.raises(ValueError):
            threshold_inflection_point(s, cfg, grid=[0.3, 0.2, 0.1, 0.0, -0.1])


class TestAldgDriver:
    def test_fixed_rule_equals_direct_call(self):
        rng = np.random.default_rng(59)
        s = random_sample(rng, 40)
        cfg = default_config(s)
        res = aldg(s, ThresholdRule.fixed(0.15), cfg)
        assert res.value == aldg_fixed_t(s, cfg, 0.15)
        assert res.t_used == 0.15
        assert res.rule.kind == "fixed"

    def test_auto_picks_uniform_error_at_small_n(self):
        rng = np.random.default_rng(60)
        s = random_sample(rng, 200)
        res = aldg(s, ThresholdRule.auto(seed=4))
        assert res.rule.kind == "uniform-error"
        assert res.rule.n_shuffles == default_n_shuffles(200)

    def test_auto_picks_asymptotic_norm_at_large_n(self):
        rng = np.random.default_rng(61)
        s = random_sample(rng, 201)
        res = aldg(s, ThresholdRule.auto())
        assert res.rule.kind == "asymptotic-norm"
        want = threshold_asymptotic_norm(
            201, float(np.std(s.xs, ddof=1)), float(np.std(s.ys, ddof=1))
        )
        assert res.t_used == want

    def test_default_rule_is_auto(self):
        rng = np.random.default_rng(62)
        s = random_sample(rng, 80)
        assert aldg(s).value == aldg(s, ThresholdRule.auto()).value

    def test_thread_invariance(self):
        rng = np.random.default_rng(63)
        s = random_sample(rng, 120)
        rule = ThresholdRule.uniform_error(seed=11)
        assert aldg(s, rule, threads=1).value == aldg(s, rule, threads=4).value

    @pytest.mark.parametrize("kind", ["auto", "uniform-error", "inflection-point",
                                      "asymptotic-norm", "fixed"])
    @pytest.mark.parametrize("given_cfg", [False, True])
    def test_equals_fixed_t_count_at_the_rules_threshold(self, kind, given_cfg):
        # The rule's threshold and the final count share one pair of margins;
        # both must keep the bits of the public functions run on their own.
        rng = np.random.default_rng(65)
        for n in (60, 260):
            s = random_sample(rng, n)
            cfg = KdeConfig(0.4, 0.6) if given_cfg else default_config(s)
            sds = float(np.std(s.xs, ddof=1)), float(np.std(s.ys, ddof=1))
            shuffles = default_n_shuffles(n)
            if kind == "fixed":
                rule, t = ThresholdRule.fixed(0.05), 0.05
            elif kind == "asymptotic-norm" or (kind == "auto" and n > 200):
                rule, t = ThresholdRule(kind), threshold_asymptotic_norm(n, *sds)
            elif kind == "inflection-point":
                rule = ThresholdRule.inflection_point(seed=8)
                t = threshold_inflection_point(s, cfg, n_shuffles=shuffles, seed=8)
            else:
                rule = ThresholdRule(kind, seed=8)
                t = threshold_uniform_error(s, cfg, n_shuffles=shuffles, seed=8)
            res = aldg(s, rule, cfg if given_cfg else None)
            assert res.t_used == max(t, 0.0)
            assert res.value == aldg_fixed_t(s, cfg, max(t, 0.0))

    def test_value_in_unit_interval(self):
        rng = np.random.default_rng(64)
        for _ in range(5):
            s = random_sample(rng, int(rng.integers(20, 100)))
            res = aldg(s)
            assert 0.0 <= res.value <= 1.0
            assert res.t_used >= 0.0


class TestAvgcsn:
    def test_matches_brute(self):
        rng = np.random.default_rng(67)
        for alpha in (0.01, 0.2):
            for _ in range(8):
                s = random_sample(rng, int(rng.integers(5, 40)))
                cfg = default_config(s)
                assert avgcsn(s, cfg, alpha=alpha) == avgcsn_brute(
                    s.xs, s.ys, cfg.h_x, cfg.h_y, alpha
                )

    def test_degenerate_windows_count_zero(self):
        # Windows that capture the entire sample give nx = n, a zero
        # denominator, and indicator 0 by convention.
        s = PairedSample([0.0, 1.0], [0.0, 1.0])
        assert avgcsn(s, KdeConfig(10.0, 10.0)) == 0.0

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            avgcsn(DIAG, UNIT, alpha=0.0)
        with pytest.raises(ValueError):
            avgcsn(DIAG, UNIT, alpha=1.0)


@st.composite
def lattice_inputs(draw):
    # Integer coordinates with bandwidths 0.5, 1 or 2: neighbours sit exactly
    # on a window edge, and the window areas are powers of two, so the
    # densities and T carry the same bits as the oracle's.
    n = draw(st.integers(2, 9))
    coords = st.lists(st.integers(-3, 3).map(float), min_size=n, max_size=n)
    widths = st.sampled_from([0.5, 1.0, 2.0])
    return draw(coords), draw(coords), KdeConfig(draw(widths), draw(widths))


class TestLatticeWindowEdges:
    @settings(derandomize=True, database=None, deadline=None)
    @given(lattice_inputs())
    def test_local_density_family_matches_brute(self, inputs):
        xs, ys, cfg = inputs
        s = PairedSample(xs, ys)
        hx, hy = cfg.h_x, cfg.h_y
        brute_t = t_values_brute(xs, ys, hx, hy)
        np.testing.assert_allclose(
            t_statistic_at_sample_points(s, cfg), brute_t, rtol=1e-12, atol=1e-13
        )
        # Thresholds equal to a T value test the closed inequality.
        for t in {0.0, 0.1, *(v for v in brute_t if v >= 0)}:
            assert aldg_fixed_t(s, cfg, t) == aldg_fixed_brute(xs, ys, hx, hy, t)
        assert mean_t(s, cfg) == pytest.approx(
            mean_t_brute(xs, ys, hx, hy), rel=1e-12, abs=1e-13
        )
        for alpha in (0.01, 0.2):
            assert avgcsn(s, cfg, alpha=alpha) == avgcsn_brute(xs, ys, hx, hy, alpha)


class TestPopulationAldg:
    def test_independence_is_exactly_zero(self):
        spec = GaussianSpec(rho=0.0)
        for t in (0.0, 0.05, 0.2):
            assert population_aldg_gaussian(spec, t, n_mc=2000, seed=1) == 0.0

    def test_matches_brute_on_shared_draws(self):
        spec = GaussianSpec(rho=0.5)
        seed, n_mc, t = 17, 2000, 0.05
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        z1 = rng.standard_normal(n_mc)
        z2 = rng.standard_normal(n_mc)
        qx = z1
        qy = spec.rho * z1 + math.sqrt(1.0 - spec.rho**2) * z2
        hits = sum(
            gaussian_t_brute(0.5, 0.0, 0.0, 1.0, 1.0, qx[i], qy[i]) > t
            for i in range(n_mc)
        )
        got = population_aldg_gaussian(spec, t, n_mc=n_mc, seed=seed)
        assert abs(got - hits / n_mc) <= 2.0 / n_mc

    def test_threshold_array_shares_one_draw(self):
        spec = GaussianSpec(rho=0.5)
        grid = np.linspace(0.0, 0.5, 11)
        got = population_aldg_gaussian(spec, grid, n_mc=5000, seed=7)
        assert got.shape == grid.shape
        for t, share in zip(grid, got):
            assert share == population_aldg_gaussian(spec, float(t), n_mc=5000, seed=7)

    def test_non_increasing_in_t(self):
        spec = GaussianSpec(rho=0.7)
        values = [
            population_aldg_gaussian(spec, t, n_mc=20000, seed=3)
            for t in (0.0, 0.05, 0.1, 0.2)
        ]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_n_mc_validation(self):
        with pytest.raises(ValueError):
            population_aldg_gaussian(GaussianSpec(rho=0.5), 0.1, n_mc=500)


class TestInfluenceApprox:
    def test_unbounded_at_t_zero(self):
        # Under independence T is identically 0, so any positive shift clears
        # t = 0 everywhere and the influence equals 1/eps exactly.
        spec = GaussianSpec(rho=0.0)
        eps = 1e-6
        got = influence_approx(spec, 0.0, eps, (1000.0, 1000.0), seed=5)
        assert got == pytest.approx(1.0 / eps, rel=1e-12)

    def test_bounded_at_positive_t(self):
        # The continuous shift eps * sqrt(fx fy) <= eps / sqrt(2 pi) cannot
        # reach t = 0.05, leaving only the atom's own mass eps.
        spec = GaussianSpec(rho=0.0)
        got = influence_approx(spec, 0.05, 1e-6, (1000.0, 1000.0), seed=5)
        assert got == 1.0

    def test_location_of_far_point_is_irrelevant(self):
        spec = GaussianSpec(rho=0.3)
        a = influence_approx(spec, 0.02, 1e-4, (50.0, -50.0), seed=8)
        b = influence_approx(spec, 0.02, 1e-4, (9999.0, 9999.0), seed=8)
        assert a == b

    def test_eps_validation(self):
        spec = GaussianSpec(rho=0.0)
        for eps in (0.0, -1e-6, 0.02):
            with pytest.raises(ValueError):
                influence_approx(spec, 0.0, eps, (0.0, 0.0))
