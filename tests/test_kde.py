"""Boxcar density estimation and the gap statistic T against brute references."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from depgap import (
    DepgapError,
    DimensionMismatch,
    GaussianSpec,
    KdeConfig,
    PairedSample,
    TooFewSamples,
    ZeroMarginalDensity,
    ZeroVariance,
    default_bandwidth,
    default_config,
    joint_density,
    marginal_density,
    t_statistic_at_sample_points,
    t_statistic_empirical,
    t_statistic_population,
)
from depgap import kde
from depgap.kde import Margin, corner_counts, joint_counts
from oracles import (
    gaussian_t_brute,
    joint_density_brute,
    marginal_density_brute,
    t_values_brute,
)

DIAG = PairedSample([0.0, 1.0, 2.0], [0.0, 1.0, 2.0])
UNIT = KdeConfig(1.0, 1.0)


def random_sample(rng, n):
    xs = rng.normal(size=n)
    ys = 0.5 * xs + rng.normal(size=n)
    return PairedSample(xs, ys)


def tied_sample(rng, n):
    # Rounding creates repeated values, so window edges hit exact ties.
    xs = np.round(rng.normal(size=n), 1)
    ys = np.round(0.5 * xs + rng.normal(size=n), 1)
    if np.std(xs) == 0 or np.std(ys) == 0:
        xs[0] += 1.0
        ys[0] += 1.0
    return PairedSample(xs, ys)


class TestPairedSample:
    def test_coerces_to_float_arrays(self):
        s = PairedSample([1, 2, 3], [4, 5, 6])
        assert s.xs.dtype == float and s.ys.dtype == float
        assert s.n == 3

    def test_rejects_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            PairedSample([1.0, 2.0], [1.0, 2.0, 3.0])

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(DimensionMismatch):
            PairedSample([[1.0, 2.0]], [[3.0, 4.0]])

    def test_rejects_single_observation(self):
        with pytest.raises(TooFewSamples):
            PairedSample([1.0], [2.0])

    def test_rejects_non_finite_values(self):
        with pytest.raises(DimensionMismatch):
            PairedSample([1.0, np.nan], [0.0, 1.0])
        with pytest.raises(DimensionMismatch):
            PairedSample([1.0, 2.0], [np.inf, 1.0])

    def test_swapped_exchanges_axes(self):
        s = PairedSample([1.0, 2.0], [3.0, 4.0])
        t = s.swapped()
        assert np.array_equal(t.xs, s.ys) and np.array_equal(t.ys, s.xs)


class TestConfigs:
    def test_kde_config_requires_positive_bandwidths(self):
        with pytest.raises(ValueError):
            KdeConfig(0.0, 1.0)
        with pytest.raises(ValueError):
            KdeConfig(1.0, -0.5)

    def test_kde_config_swapped(self):
        cfg = KdeConfig(0.25, 4.0)
        assert cfg.swapped() == KdeConfig(4.0, 0.25)

    def test_gaussian_spec_validation(self):
        with pytest.raises(ValueError):
            GaussianSpec(rho=1.0)
        with pytest.raises(ValueError):
            GaussianSpec(rho=0.5, sigma_x=0.0)
        GaussianSpec(rho=-0.999)


class TestDefaultBandwidth:
    def test_hand_value_sixty_four_points(self):
        # sd 2 with n = 64 gives 2 * 64**(-1/6) = 2 / 2 = 1 exactly.
        values = np.repeat([-2.0, 2.0], 32)
        sd = float(np.std(values, ddof=1))
        assert default_bandwidth(values) == pytest.approx(sd / 2.0, rel=1e-15)

    def test_matches_formula_on_random_data(self):
        rng = np.random.default_rng(7)
        for n in (5, 23, 200):
            values = rng.normal(size=n)
            expected = float(np.std(values, ddof=1)) * n ** (-1.0 / 6.0)
            assert default_bandwidth(values) == expected

    @pytest.mark.parametrize("exponent", [-1000, 1000])
    def test_power_of_two_scaling_keeps_the_bits(self, exponent):
        values = np.random.default_rng(8).normal(size=50)
        assert default_bandwidth(np.ldexp(values, exponent)) == np.ldexp(
            default_bandwidth(values), exponent
        )

    def test_beyond_float_range_is_typed(self):
        with pytest.raises(DepgapError, match="float range"):
            default_bandwidth([1.7976931348623157e308, -1.7976931348623157e308])

    def test_too_few_and_constant(self):
        with pytest.raises(TooFewSamples):
            default_bandwidth([1.0])
        with pytest.raises(ZeroVariance):
            default_bandwidth([3.0, 3.0, 3.0])

    def test_default_config_uses_both_margins(self):
        rng = np.random.default_rng(3)
        s = random_sample(rng, 40)
        cfg = default_config(s)
        assert cfg.h_x == default_bandwidth(s.xs)
        assert cfg.h_y == default_bandwidth(s.ys)


class TestMarginalDensity:
    def test_hand_values(self):
        assert marginal_density([0.0, 1.0], 0.5, 0.0) == 0.5
        assert marginal_density([0.0, 1.0, 2.0], 1.0, 1.0) == 0.5

    def test_window_edges_are_closed(self):
        # A point exactly h away from the query still counts.
        assert marginal_density([0.0, 2.0], 1.0, 1.0) == 0.5

    def test_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            marginal_density([0.0, 1.0], 0.0, 0.5)

    def test_matches_brute_on_random_queries(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            values = rng.normal(size=int(rng.integers(3, 40)))
            h = float(rng.uniform(0.1, 2.0))
            q = float(rng.normal())
            assert marginal_density(values, h, q) == marginal_density_brute(
                values, h, q
            )


class TestJointDensity:
    def test_hand_values_on_diagonal(self):
        assert joint_density(DIAG, UNIT, 1.0, 1.0) == 0.25
        assert joint_density(DIAG, UNIT, 0.0, 0.0) == pytest.approx(1.0 / 6.0, rel=1e-15)

    def test_matches_brute_on_random_queries(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            s = random_sample(rng, int(rng.integers(3, 40)))
            cfg = KdeConfig(float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
            qx, qy = float(rng.normal()), float(rng.normal())
            # The oracle divides by the window widths one at a time while the
            # implementation uses one symmetric product, so the results may
            # differ in the final bits.
            assert joint_density(s, cfg, qx, qy) == pytest.approx(
                joint_density_brute(s.xs, s.ys, cfg.h_x, cfg.h_y, qx, qy),
                rel=1e-14,
            )


class TestTStatisticEmpirical:
    def test_hand_values_on_diagonal(self):
        assert t_statistic_empirical(DIAG, UNIT, 1.0, 1.0) == 0.0
        assert t_statistic_empirical(DIAG, UNIT, 0.0, 0.0) == pytest.approx(
            1.0 / 6.0, rel=1e-12
        )

    def test_raises_far_from_all_mass(self):
        with pytest.raises(ZeroMarginalDensity):
            t_statistic_empirical(DIAG, UNIT, 50.0, 0.0)

    def test_matches_per_point_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = random_sample(rng, int(rng.integers(4, 30)))
            cfg = default_config(s)
            brute = t_values_brute(s.xs, s.ys, cfg.h_x, cfg.h_y)
            for i in range(s.n):
                got = t_statistic_empirical(s, cfg, float(s.xs[i]), float(s.ys[i]))
                assert got == pytest.approx(brute[i], rel=1e-12, abs=1e-15)


class TestTStatisticAtSamplePoints:
    def test_hand_values_on_diagonal(self):
        got = t_statistic_at_sample_points(DIAG, UNIT)
        assert got == pytest.approx([1.0 / 6.0, 0.0, 1.0 / 6.0], rel=1e-15, abs=0.0)

    def test_matches_brute(self):
        rng = np.random.default_rng(19)
        for seed in range(15):
            n = int(rng.integers(4, 35))
            s = tied_sample(rng, n) if seed % 3 == 0 else random_sample(rng, n)
            cfg = default_config(s)
            got = t_statistic_at_sample_points(s, cfg)
            brute = np.asarray(t_values_brute(s.xs, s.ys, cfg.h_x, cfg.h_y))
            # Where the joint density exactly equals the marginal product the
            # subtraction cancels, so agreement there is absolute, not relative.
            assert got.shape == brute.shape
            assert np.allclose(got, brute, rtol=1e-12, atol=1e-13)

    def test_chunked_path_matches_single_queries(self):
        # n large enough that the joint count spans many blocks of x ranks.
        rng = np.random.default_rng(23)
        s = random_sample(rng, 3000)
        cfg = default_config(s)
        got = t_statistic_at_sample_points(s, cfg)
        idx = rng.integers(0, s.n, size=50)
        for i in idx:
            single = t_statistic_empirical(s, cfg, float(s.xs[i]), float(s.ys[i]))
            assert got[i] == single

    def test_always_finite_at_sample_points(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            s = tied_sample(rng, int(rng.integers(4, 40)))
            assert np.isfinite(t_statistic_at_sample_points(s, default_config(s))).all()


def closed_counts(xs, ys, hx, hy):
    # The definition itself: |q - x| <= h on each axis, for every pair.
    in_x = np.abs(xs[:, None] - xs[None, :]) <= hx
    in_y = np.abs(ys[:, None] - ys[None, :]) <= hy
    return in_x.sum(axis=1), in_y.sum(axis=1), (in_x & in_y).sum(axis=1)


@st.composite
def edge_inputs(draw, max_n=60):
    # Integer lattices with points exactly h apart, or values on a 0.1 grid
    # with h in {0.1, 0.2, 0.3}, where searchsorted(x +- h) and |q - x| <= h
    # disagree (0.8 - 0.6 rounds above 0.2). Width 0, whose windows are the
    # runs of ties, is drawn on both.
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        values = rng.integers(-4, 5, size=(2, n)).astype(float)
        widths = (0.0, 0.5, 1.0, 2.0)
    else:
        values = rng.integers(-15, 16, size=(2, n)) / 10
        widths = (0.0, 0.1, 0.2, 0.3)
    hx, hy = (draw(st.sampled_from(widths)) for _ in range(2))
    return values[0], values[1], hx, hy


def window_counts(xs, ys, hx, hy):
    """(cx, cy, cxy) at every sample point, from both margins and their joint count."""
    mx, my = Margin.of(xs, hx), Margin.of(ys, hy)
    return mx.counts, my.counts, joint_counts(mx, my)


class TestWindowCounts:
    def test_rounded_grid_needs_the_edge_repair(self):
        xs = np.array([-1.0, -0.7, 0.6, 0.2, 0.8, 0.0])
        ordered = np.sort(xs)
        naive = ordered.searchsorted(xs + 0.2, "right") - ordered.searchsorted(xs - 0.2, "left")
        want = closed_counts(xs, xs, 0.2, 0.2)[0]
        assert not np.array_equal(naive, want)
        assert np.array_equal(Margin.of(xs, 0.2).counts, want)

    @settings(derandomize=True, database=None, deadline=None)
    @given(edge_inputs())
    def test_matches_closed_definition_on_ties(self, inputs):
        xs, ys, hx, hy = inputs
        got = window_counts(xs, ys, hx, hy)
        for a, b in zip(got, closed_counts(xs, ys, hx, hy)):
            assert np.array_equal(a, b)

    @settings(derandomize=True, database=None, deadline=None, max_examples=30)
    @given(edge_inputs(max_n=400), st.sampled_from([200, 2_000, 20_000]))
    def test_small_workspace_spans_blocks_and_chunks(self, inputs, workspace):
        # A small budget sweeps the mask table's y-rank bounds in many blocks.
        xs, ys, hx, hy = inputs
        want = closed_counts(xs, ys, hx, hy)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kde, "_WORKSPACE", workspace)
            got = window_counts(xs, ys, hx, hy)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)

    @settings(derandomize=True, database=None, deadline=None)
    @given(edge_inputs(), st.integers(0, 2**32 - 1), st.sampled_from([None, 1, 4, 16]))
    def test_permuting_y_permutes_its_margin(self, inputs, seed, batch):
        # batch None permutes once; otherwise a batch of that many shuffled
        # margins is counted in one call, optionally across several blocks
        # of y-rank bounds or several groups of margins (3 to a group, the
        # last one short when the batch has 16).
        xs, ys, hx, hy = inputs
        rng = np.random.default_rng(seed)
        mx, my = Margin.of(xs, hx), Margin.of(ys, hy)
        if batch is None:
            perm = rng.permutation(xs.size)
            shuffled = my.permuted(perm)
            assert np.array_equal(Margin.of(ys[perm], hy).counts, my.counts[perm])
            assert np.array_equal(shuffled.counts, my.counts[perm])
            assert np.array_equal(
                joint_counts(mx, shuffled), closed_counts(xs, ys[perm], hx, hy)[2]
            )
            return
        perms = np.array([rng.permutation(xs.size) for _ in range(batch)])
        budgets = ((kde._WORKSPACE, kde._GROUP_VALUES), (40, kde._GROUP_VALUES),
                   (kde._WORKSPACE, 3 * xs.size))
        for workspace, group in budgets:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(kde, "_WORKSPACE", workspace)
                mp.setattr(kde, "_GROUP_VALUES", group)
                got = joint_counts(mx, my.permuted(perms))
            assert got.shape == perms.shape
            for row, perm in zip(got, perms):
                assert np.array_equal(row, joint_counts(mx, my.permuted(perm)))
                assert np.array_equal(row, closed_counts(xs, ys[perm], hx, hy)[2])

    @pytest.mark.parametrize("pool", [None, (
        1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e300, 0.0, -0.0, 5e-324, 1.0,
    )])
    def test_extreme_magnitudes(self, pool):
        rng = np.random.default_rng(37)
        if pool is None:
            xs = np.round(rng.normal(size=300), 1) * 1e150
            ys = np.round(rng.normal(size=300), 1) * 1e150
            hx, hy = 1e149, 2e149
        else:
            # At width 0 the windows are runs of ties, and -0.0 and 0.0 share
            # one, as |q - x| <= 0 says.
            xs, ys = rng.choice(np.array(pool), size=(2, 300))
            hx = hy = 0.0
        got = window_counts(xs, ys, hx, hy)
        # The definition's differences overflow to inf near +-1.8e308.
        with np.errstate(over="ignore"):
            want = closed_counts(xs, ys, hx, hy)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def corner_brute(x_rank, y_rank, a, b):
    """F(a, b) by definition, per batch row s: #{k : x_rank[s, k] < a and
    y_rank[s, k] < b}, shape (J, I, S, n) as corner_counts gives it."""
    inside_x = x_rank[None, :, None, :] < a[:, :, :, None]
    inside_y = y_rank[None, :, None, :] < b[:, :, :, None]
    return (inside_x[None] & inside_y[:, None]).sum(axis=-1)


class TestBatchedX:
    EXTREMES = np.array([1.7976931348623157e308, -1.7976931348623157e308, 1e300, -1e300,
                         0.0, -0.0, 5e-324, 1.0])

    def batch(self, rng, kind, rows, n):
        if kind == "ties":
            return rng.integers(0, 4, size=(rows, n)).astype(float)
        if kind == "extreme":
            return rng.choice(self.EXTREMES, size=(rows, n))
        return rng.normal(size=(rows, n))

    # n across the 64-bit word edges; workspaces that sweep the y-rank
    # bounds in several blocks and split the rows into several groups.
    @pytest.mark.parametrize("n", [2, 5, 63, 64, 65, 127, 128, 129, 200])
    @pytest.mark.parametrize("workspace", [None, 40, 600])
    @pytest.mark.parametrize("kind", ["ties", "normal"])
    def test_corner_counts_against_brute(self, n, workspace, kind, monkeypatch):
        if workspace is not None:
            monkeypatch.setattr(kde, "_WORKSPACE", workspace)
        rng = np.random.default_rng(n * 7 + (workspace or 0))
        rows = 5
        mx = Margin.of(self.batch(rng, kind, rows, n))
        my = Margin.of(self.batch(rng, kind, rows, n))
        # The margins' own edges, and any bound from 0 to n.
        a = np.stack([mx.lo, mx.hi, rng.integers(0, n + 1, size=(rows, n))])
        b = np.stack([my.hi, rng.integers(0, n + 1, size=(rows, n))])
        got = corner_counts(mx.rank, my.rank, a, b)
        assert got.shape == (2, 3, rows, n)
        assert np.array_equal(got, corner_brute(mx.rank, my.rank, a, b))
        # Row by row, each batch row is its own one-x call.
        for s in range(rows):
            one = corner_counts(mx.rank[s], my.rank[s], a[:, s], b[:, s])
            assert np.array_equal(got[:, :, s], one)

    @pytest.mark.parametrize("n", [1, 2, 3, 64, 65, 300])
    @pytest.mark.parametrize("kind", ["ties", "extreme", "normal"])
    def test_width_zero_margin_rows_equal_one_row_calls(self, n, kind):
        rng = np.random.default_rng(n)
        values = self.batch(rng, kind, 4, n)
        batch = Margin.of(values)
        assert batch.rank.shape == batch.lo.shape == batch.hi.shape == values.shape
        for i, row in enumerate(values):
            margin = Margin.of(row)
            for name in ("rank", "lo", "hi"):
                assert np.array_equal(getattr(batch, name)[i], getattr(margin, name))
            # At width 0 a window is the run of ties, -0.0 and 0.0 sharing one.
            assert np.array_equal(margin.counts, (row[:, None] == row[None, :]).sum(axis=1))


class TestPermutedAxis:
    """`_Axis.permuted`: every row is the axis _Axis(values[perm]) prepared
    afresh, its sd and bandwidth to the bit, its windows and its joint
    counts against an x margin."""

    @staticmethod
    def check(xs, ys, hx, perms):
        try:
            fresh = [kde._Axis(ys[perm]) for perm in perms]
        except DepgapError as exc:
            with pytest.raises(type(exc)):
                kde._Axis(ys).permuted(perms)
            return
        rows = kde._Axis(ys).permuted(perms)
        mx = Margin.of(xs, hx)
        assert len(rows) == len(perms)
        for row, want, perm in zip(rows, fresh, perms):
            assert np.array_equal(row.values, ys[perm])
            assert np.float64(row.sd).tobytes() == np.float64(want.sd).tobytes()
            assert np.float64(row.h).tobytes() == np.float64(want.h).tobytes()
            assert np.array_equal(row.margin.counts, want.margin.counts)
            assert np.array_equal(joint_counts(mx, row.margin), joint_counts(mx, want.margin))

    @settings(derandomize=True, database=None, deadline=None)
    @given(edge_inputs(), st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_rows_equal_fresh_axes(self, inputs, seed, batch):
        # Integer lattices and 0.1 grids, constant axes included.
        xs, ys, hx, _ = inputs
        rng = np.random.default_rng(seed)
        self.check(xs, ys, hx, np.array([rng.permutation(ys.size) for _ in range(batch)]))

    @pytest.mark.parametrize("pool", [
        (1e300, -1e300, 0.0, -0.0, 5e-324, 1.0),
        (0.0, 5e-324, 3e-321, 1e-320),
        (1e300, 1.5e300, -1e300),
    ])
    @pytest.mark.parametrize("n", [2, 7, 100, 333])
    def test_rows_equal_fresh_axes_at_extreme_magnitudes(self, pool, n):
        rng = np.random.default_rng(n)
        xs, ys = rng.choice(np.array(pool), size=(2, n))
        self.check(xs, ys, 0.0, np.array([rng.permutation(n) for _ in range(40)]))

    def test_rows_take_their_own_bandwidths(self):
        # Rounded normal values: some permutations' sds differ from the
        # axis's own in the last bits, and the rows keep those differences.
        rng = np.random.default_rng(150)
        xs = rng.normal(size=150)
        ys = np.round(0.3 * xs + rng.normal(size=150), 1)
        perms = np.array([rng.permutation(150) for _ in range(40)])
        rows = kde._Axis(ys).permuted(perms)
        assert len({row.h for row in rows} - {kde._Axis(ys).h}) > 0
        self.check(xs, ys, 0.3, perms)


class TestTStatisticPopulation:
    def test_matches_brute_formula(self):
        rng = np.random.default_rng(31)
        for rho in (-0.8, -0.3, 0.0, 0.5, 0.9):
            spec = GaussianSpec(rho=rho, mu_x=0.5, mu_y=-1.0, sigma_x=2.0, sigma_y=0.7)
            for _ in range(10):
                qx, qy = float(rng.normal()), float(rng.normal())
                got = t_statistic_population(spec, qx, qy)
                want = gaussian_t_brute(rho, 0.5, -1.0, 2.0, 0.7, qx, qy)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-15)

    def test_independence_gives_exact_zero(self):
        spec = GaussianSpec(rho=0.0)
        qs = np.linspace(-3.0, 3.0, 25)
        assert np.all(t_statistic_population(spec, qs, qs[::-1]) == 0.0)

    def test_scalar_query_returns_float(self):
        value = t_statistic_population(GaussianSpec(rho=0.5), 0.3, -0.2)
        assert isinstance(value, float)

    def test_vector_query_matches_elementwise(self):
        spec = GaussianSpec(rho=0.6)
        qx = np.array([-1.0, 0.0, 1.5])
        qy = np.array([0.5, 0.0, -0.5])
        vec = t_statistic_population(spec, qx, qy)
        for i in range(3):
            assert vec[i] == t_statistic_population(spec, float(qx[i]), float(qy[i]))
