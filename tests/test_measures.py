"""The measure registry against brute-force references and its batch driver."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kendalltau, rankdata, spearmanr

from depgap import (
    MEASURE_TAGS,
    SIGNED_TAGS,
    DepgapError,
    MeasureKind,
    PairedSample,
    ThresholdRule,
    TooFewSamples,
    UnknownMeasure,
    ZeroVariance,
    aldg,
    avgcsn,
    mean_t,
    measure,
    median_pairwise_width,
    pairwise_matrix,
)
from depgap._util import child_seed
from depgap import measures as measures_module
from depgap.measures import _KENDALL_MASK_MAX, _ranks, kind_with_seed
from oracles import (
    dcor_brute,
    hhg_brute,
    hoeffd_brute,
    hsic_brute,
    kendall_taub_brute,
    mr_brute,
    pearson_brute,
    spearman_brute,
)


def random_sample(rng, n):
    xs = rng.normal(size=n)
    ys = 0.5 * xs + rng.normal(size=n)
    return PairedSample(xs, ys)


def tied_sample(rng, n):
    xs = np.round(rng.normal(size=n), 1)
    ys = np.round(0.5 * xs + rng.normal(size=n), 1)
    if np.std(xs) == 0 or np.std(ys) == 0:
        xs[0] += 1.0
        ys[0] += 1.0
    return PairedSample(xs, ys)


LINE = PairedSample(np.linspace(-1.0, 1.0, 24), 2.0 * np.linspace(-1.0, 1.0, 24) + 1.0)


# Value pools for rank-measure inputs: ties on a lattice and on a coarse
# grid, signed zeros, and magnitudes at the ends of the float range.
_TIED_POOLS = {
    "lattice": st.integers(0, 2).map(float),
    "tied": st.sampled_from([-1.5, -0.1, 0.1, 1.5]),
    "signed-zero": st.sampled_from([-0.0, 0.0, -1.0, 1.0]),
    "extreme": st.sampled_from(
        [-1.7976931348623157e308, -1e300, -5e-324, 0.0, 5e-324, 1e300, 1.7976931348623157e308]
    ),
}


# Magnitudes whose squares, products or window densities leave the float range.
_MAGNITUDE_POOLS = {
    "extreme": _TIED_POOLS["extreme"],
    "huge": st.floats(-4.0, 4.0).map(lambda v: v * 1e300),
    "tiny": st.floats(-4.0, 4.0).map(lambda v: v * 1e-170),
}


# Values near +-1.8e308 overflow intermediate differences to infinities
# that the code reads correctly, so the extreme-pool tests allow no warning.
NO_RUNTIME_WARNINGS = pytest.mark.filterwarnings("error::RuntimeWarning")


@st.composite
def tied_inputs(draw, min_n, pools=_TIED_POOLS, max_n=9):
    """Paired values of length min_n..max_n from one pool, sometimes with a constant axis."""
    n = draw(st.integers(min_n, max_n))
    pool = pools[draw(st.sampled_from(sorted(pools)))]
    xs = draw(st.lists(pool, min_size=n, max_size=n))
    ys = draw(st.lists(pool, min_size=n, max_size=n))
    constant = draw(st.sampled_from(["neither", "x", "y"]))
    if constant == "x":
        xs = [xs[0]] * n
    elif constant == "y":
        ys = [ys[0]] * n
    return xs, ys


class TestRegistry:
    def test_tag_listing(self):
        assert len(MEASURE_TAGS) == 11
        assert set(SIGNED_TAGS) == {"pearson", "spearman", "kendall"}
        assert set(SIGNED_TAGS) <= set(MEASURE_TAGS)

    def test_unknown_tag_rejected(self):
        with pytest.raises(UnknownMeasure):
            MeasureKind("mutual-information")

    def test_unknown_parameter_rejected(self):
        for tag, params in (("pearson", {"width": 1.0}), ("mr", {"seed": 1}), ("mr", {"k": 3})):
            with pytest.raises(UnknownMeasure):
                MeasureKind(tag, params)

    @pytest.mark.parametrize("alpha", [0, 1.0, -0.5, math.nan])
    def test_bad_alpha_rejected_when_the_kind_is_built(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            MeasureKind("avgcsn", {"alpha": alpha})

    def test_string_and_kind_agree(self):
        assert measure("pearson", LINE) == measure(MeasureKind("pearson"), LINE)


class TestPearson:
    def test_matches_brute(self):
        rng = np.random.default_rng(71)
        for _ in range(10):
            s = random_sample(rng, int(rng.integers(5, 50)))
            assert measure("pearson", s) == pytest.approx(
                pearson_brute(s.xs, s.ys), rel=1e-12
            )

    def test_perfect_line(self):
        assert measure("pearson", LINE) == pytest.approx(1.0, rel=1e-15)

    def test_constant_input(self):
        with pytest.raises(ZeroVariance):
            measure("pearson", PairedSample([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]))

    def test_constant_input_whose_mean_misses_it(self):
        # Nine copies of -1.7976931348623157e308 have a computed mean an ulp
        # off, so their centred sum of squares is not 0.
        constant, ramp = [-1.7976931348623157e308] * 9, np.arange(9.0)
        for xs, ys in ((constant, ramp), (ramp, constant)):
            with pytest.raises(ZeroVariance):
                measure("pearson", PairedSample(xs, ys))


class TestSpearman:
    def test_matches_brute_with_ties(self):
        rng = np.random.default_rng(73)
        for i in range(10):
            n = int(rng.integers(5, 40))
            s = tied_sample(rng, n) if i % 2 else random_sample(rng, n)
            assert measure("spearman", s) == pytest.approx(
                spearman_brute(s.xs.tolist(), s.ys.tolist()), rel=1e-12
            )

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(74)
        s = random_sample(rng, 30)
        warped = PairedSample(np.exp(s.xs), s.ys)
        assert measure("spearman", warped) == pytest.approx(
            measure("spearman", s), rel=1e-12
        )


class TestKendall:
    def test_matches_brute_with_ties(self):
        rng = np.random.default_rng(79)
        for i in range(10):
            n = int(rng.integers(5, 40))
            s = tied_sample(rng, n) if i % 2 else random_sample(rng, n)
            assert measure("kendall", s) == pytest.approx(
                kendall_taub_brute(s.xs.tolist(), s.ys.tolist()), rel=1e-12
            )

    def test_constant_input(self):
        with pytest.raises(ZeroVariance):
            measure("kendall", PairedSample([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]))


# Pools for the bit-identity tests against scipy: integer lattices, a 0.1
# grid, and signed zeros with magnitudes at the ends of the float range.
_SCIPY_POOLS = {
    "lattice": st.integers(-3, 3).map(float),
    "grid": st.integers(-20, 20).map(lambda k: k / 10),
    "extreme": st.sampled_from([-1.7976931348623157e308, -1e300, -0.0, 0.0, 5e-324, 1.0,
                                1e300, 1.7976931348623157e308]),
}
# Up to 150 values, so that the ranks span several 64-bit words.
SCIPY_BITS_INPUTS = tied_inputs(2, _SCIPY_POOLS, max_n=150)
# n = 2 with ties, signed zeros and the float range's ends.
N2_EXAMPLES = (([1.0, 2.0], [2.0, 1.0]), ([0.1, 0.1], [0.2, 0.1]), ([-0.0, 0.0], [1e300, -1e300]),
               ([-1.7976931348623157e308, 5e-324], [1.7976931348623157e308, 1.0]))


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def with_n2_examples(test):
    for inputs in N2_EXAMPLES:
        test = example(inputs=inputs)(test)
    return test


class TestScipyBits:
    """Spearman's ranks and Kendall's tau-b equal scipy's to the bit; the
    library computes both without scipy.stats, except Kendall above
    _KENDALL_MASK_MAX values, which scipy counts."""

    @NO_RUNTIME_WARNINGS
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(inputs=SCIPY_BITS_INPUTS)
    @with_n2_examples
    def test_spearman_is_pearson_of_rankdata(self, inputs):
        xs, ys = inputs
        assert _ranks(np.array(xs)).tobytes() == rankdata(xs).tobytes()
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            with pytest.raises(ZeroVariance):
                measure("spearman", PairedSample(xs, ys))
            return
        got = measure("spearman", PairedSample(xs, ys))
        assert same_bits(got, measure("pearson", PairedSample(rankdata(xs), rankdata(ys))))
        # spearmanr rounds in another order: equal to the last bits only.
        assert got == pytest.approx(spearmanr(xs, ys)[0], rel=1e-12, abs=1e-15)

    @NO_RUNTIME_WARNINGS
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(inputs=SCIPY_BITS_INPUTS)
    @with_n2_examples
    def test_kendall_is_kendalltau_b(self, inputs):
        xs, ys = inputs
        want = kendalltau(xs, ys, variant="b")[0]
        if len(set(xs)) == 1 or len(set(ys)) == 1:
            assert math.isnan(want)
            with pytest.raises(ZeroVariance):
                measure("kendall", PairedSample(xs, ys))
            return
        got = measure("kendall", PairedSample(xs, ys))
        assert same_bits(got, want)
        # The large-n route, scipy on the margins' lo edges, gives the same bits.
        with mock.patch.object(measures_module, "_KENDALL_MASK_MAX", 1):
            assert same_bits(measure("kendall", PairedSample(xs, ys)), want)

    @pytest.mark.parametrize("n", [2, 63, 64, 65, 400, _KENDALL_MASK_MAX, _KENDALL_MASK_MAX + 1])
    @pytest.mark.parametrize("sample", [random_sample, tied_sample])
    def test_kendall_bits_on_normal_data(self, n, sample):
        s = sample(np.random.default_rng(n), n)
        assert same_bits(measure("kendall", s), kendalltau(s.xs, s.ys, variant="b")[0])


def power_of_two_scaled(values):
    """values times the power of two that puts their largest magnitude in [0.5, 1)."""
    e = math.frexp(max(abs(v) for v in values))[1]
    return [math.ldexp(v, -e) for v in values]


@NO_RUNTIME_WARNINGS
@pytest.mark.parametrize("tag, oracle", [
    ("spearman", spearman_brute),
    ("kendall", kendall_taub_brute),
    ("pearson", pearson_brute),
    ("dcor", dcor_brute),
    ("hsic", hsic_brute),
])
@settings(derandomize=True, database=None, deadline=None)
@given(inputs=tied_inputs(3))
def test_rank_correlations_on_ties_and_extremes(tag, oracle, inputs):
    xs, ys = inputs
    if len(set(xs)) == 1 or len(set(ys)) == 1:
        with pytest.raises(ZeroVariance):
            measure(tag, PairedSample(xs, ys))
        return
    got = measure(tag, PairedSample(xs, ys))
    if tag in ("pearson", "dcor", "hsic"):
        # The oracles overflow on values near 1e300. These measures are
        # scale-free, so the oracle sees each axis scaled by a power of two.
        xs, ys = power_of_two_scaled(xs), power_of_two_scaled(ys)
    if tag == "dcor":
        # The square root magnifies the V-statistic's rounding near 0.
        assert got**2 == pytest.approx(oracle(xs, ys) ** 2, abs=1e-12)
    else:
        assert got == pytest.approx(oracle(xs, ys), rel=1e-12)


# Measures whose value does not change when an axis is scaled by a
# positive factor, so that power-of-two scalings must keep their bits.
SCALE_FREE_KINDS = {
    "pearson": MeasureKind("pearson"),
    "dcor": MeasureKind("dcor"),
    "hsic": MeasureKind("hsic"),
    "aldg": MeasureKind("aldg"),
    "aldg-asymptotic": MeasureKind("aldg", {"rule": ThresholdRule.asymptotic_norm()}),
    "avgcsn": MeasureKind("avgcsn"),
}


@NO_RUNTIME_WARNINGS
@pytest.mark.parametrize("kind", [*SCALE_FREE_KINDS.values(), MeasureKind("mean-t")],
                         ids=[*SCALE_FREE_KINDS, "mean-t"])
@settings(derandomize=True, database=None, deadline=None)
@given(inputs=tied_inputs(2, _MAGNITUDE_POOLS))
def test_extreme_magnitudes_give_a_number_or_a_typed_error(kind, inputs):
    try:
        value = measure(kind, PairedSample(*inputs))
    except DepgapError:
        return
    assert math.isfinite(value)


@pytest.mark.parametrize("kind", SCALE_FREE_KINDS.values(), ids=SCALE_FREE_KINDS)
@pytest.mark.parametrize("exponents", [(600, 600), (-600, -600), (900, -900)])
def test_power_of_two_scaling_keeps_the_bits(kind, exponents):
    for n in (12, 300):
        s = random_sample(np.random.default_rng(n), n)
        scaled = PairedSample(np.ldexp(s.xs, exponents[0]), np.ldexp(s.ys, exponents[1]))
        assert measure(kind, scaled) == measure(kind, s)


def test_mean_t_scales_by_the_root_of_the_bandwidths():
    s = random_sample(np.random.default_rng(5), 80)
    scaled = PairedSample(np.ldexp(s.xs, 700), np.ldexp(s.ys, 500))
    assert measure("mean-t", scaled) == np.ldexp(measure("mean-t", s), -600)


@NO_RUNTIME_WARNINGS
@pytest.mark.parametrize("tag", ["pearson", "dcor", "hsic", "aldg", "avgcsn", "mean-t"])
def test_matrix_of_huge_rows_has_no_nan(tag):
    rng = np.random.default_rng(0)
    rows = rng.choice([-1e300, 0.0, 1e300], size=(3, 50))
    result = pairwise_matrix(rows, tag)
    assert np.isfinite(result.matrix).all()
    assert result.diagnostics == []


class TestHoeffd:
    def test_matches_brute(self):
        rng = np.random.default_rng(83)
        for _ in range(6):
            s = random_sample(rng, int(rng.integers(6, 11)))
            assert measure("hoeffd", s) == pytest.approx(
                hoeffd_brute(s.xs, s.ys), rel=1e-12, abs=1e-12
            )

    @NO_RUNTIME_WARNINGS
    @settings(derandomize=True, database=None, deadline=None)
    @given(tied_inputs(5))
    def test_matches_brute_on_ties_and_extremes(self, inputs):
        # Ties count as "at or below" on every axis, as in the oracle's kernel.
        xs, ys = inputs
        assert measure("hoeffd", PairedSample(xs, ys)) == pytest.approx(
            hoeffd_brute(xs, ys), rel=1e-12, abs=1e-12
        )

    def test_lattice_ties_stay_in_range(self):
        xs = [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]
        ys = [2.0, 1.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0]
        value = measure("hoeffd", PairedSample(xs, ys))
        assert value == pytest.approx(hoeffd_brute(xs, ys), rel=1e-12)
        assert -0.5 <= value <= 1.0

    def test_needs_five_observations(self):
        with pytest.raises(TooFewSamples):
            measure("hoeffd", PairedSample([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]))

    def test_large_on_monotone_data(self):
        rng = np.random.default_rng(84)
        xs = rng.normal(size=100)
        s = PairedSample(xs, xs**3)
        assert measure("hoeffd", s) > 0.5


class TestDcor:
    def test_matches_brute(self):
        rng = np.random.default_rng(89)
        for _ in range(6):
            s = random_sample(rng, int(rng.integers(5, 25)))
            assert measure("dcor", s) == pytest.approx(
                dcor_brute(s.xs.tolist(), s.ys.tolist()), rel=1e-9, abs=1e-12
            )

    def test_perfect_line(self):
        assert measure("dcor", LINE) == pytest.approx(1.0, rel=1e-12)

    def test_constant_input(self):
        with pytest.raises(ZeroVariance):
            measure("dcor", PairedSample([3.0, 3.0, 3.0], [1.0, 2.0, 3.0]))

    def test_work_arrays_reused_across_sizes(self):
        # The per-thread work arrays grow for a multi-block call at n=1500
        # and are then sliced for smaller calls; no value may depend on that.
        rng = np.random.default_rng(90)
        small = random_sample(rng, 60)
        first = measure("dcor", small)
        xs = rng.normal(size=1500)
        big = PairedSample(xs, xs**2 + rng.normal(size=1500))
        a = np.abs(xs[:, None] - xs[None, :])
        b = np.abs(big.ys[:, None] - big.ys[None, :])
        a = a - a.mean(axis=0) - a.mean(axis=1)[:, None] + a.mean()
        b = b - b.mean(axis=0) - b.mean(axis=1)[:, None] + b.mean()
        want = math.sqrt(np.mean(a * b) / math.sqrt(np.mean(a * a) * np.mean(b * b)))
        assert measure("dcor", big) == pytest.approx(want, rel=1e-9)
        assert measure("dcor", small) == first


class TestHsic:
    def test_matches_brute_default_width(self):
        rng = np.random.default_rng(97)
        for _ in range(6):
            s = random_sample(rng, int(rng.integers(6, 25)))
            assert measure("hsic", s) == pytest.approx(
                hsic_brute(s.xs.tolist(), s.ys.tolist()), rel=1e-9, abs=1e-15
            )

    def test_nonnegative(self):
        rng = np.random.default_rng(98)
        for _ in range(5):
            s = random_sample(rng, 30)
            assert measure("hsic", s) >= -1e-12

    def test_width_override(self):
        rng = np.random.default_rng(99)
        s = PairedSample(rng.normal(size=30), 5.0 * rng.normal(size=30))
        narrow = measure(MeasureKind("hsic", {"width": 0.1}), s)
        default = measure("hsic", s)
        assert narrow != default

    @pytest.mark.parametrize("width", [1e200, 1e-200])
    def test_width_squared_outside_float_range_is_typed(self, width):
        s = random_sample(np.random.default_rng(100), 20)
        with pytest.raises(DepgapError, match="outside the float range"):
            measure(MeasureKind("hsic", {"width": width}), s)

    def test_median_width_helper(self):
        assert median_pairwise_width(np.array([0.0, 1.0, 3.0])) == 2.0
        with pytest.raises(ZeroVariance):
            median_pairwise_width(np.array([2.0, 2.0, 2.0]))


class TestHhg:
    def test_matches_brute(self):
        rng = np.random.default_rng(101)
        for i in range(6):
            n = int(rng.integers(8, 16))
            s = tied_sample(rng, n) if i % 2 else random_sample(rng, n)
            assert measure("hhg", s) == pytest.approx(
                hhg_brute(s.xs.tolist(), s.ys.tolist()), rel=1e-10, abs=1e-9
            )

    @NO_RUNTIME_WARNINGS
    @settings(derandomize=True, database=None, deadline=None)
    @given(tied_inputs(4))
    def test_matches_brute_on_ties_and_extremes(self, inputs):
        xs, ys = inputs
        assert measure("hhg", PairedSample(xs, ys)) == pytest.approx(
            hhg_brute(xs, ys), rel=1e-10, abs=1e-9
        )

    def test_needs_four_observations(self):
        with pytest.raises(TooFewSamples):
            measure("hhg", PairedSample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))


class TestMatchingRanks:
    def test_matches_brute_exact_path(self):
        rng = np.random.default_rng(103)
        for _ in range(5):
            s = random_sample(rng, int(rng.integers(7, 11)))
            assert measure("mr", s) == pytest.approx(
                mr_brute(s.xs.tolist(), s.ys.tolist(), 3), rel=1e-12
            )

    @NO_RUNTIME_WARNINGS
    @settings(derandomize=True, database=None, deadline=None)
    @given(tied_inputs(3))
    def test_equals_brute_on_ties_and_extremes(self, inputs):
        xs, ys = inputs
        assert measure("mr", PairedSample(xs, ys)) == mr_brute(xs, ys, 3)

    def test_large_lattice_equals_triangle_count(self):
        # Matching triples are the triangles of the graph joining two points
        # whose x and y order relations agree, ties included.
        rng = np.random.default_rng(105)
        n = 250
        xs = rng.integers(0, 6, n).astype(float)
        ys = rng.integers(0, 6, n).astype(float)

        def triangles(y):
            agree = np.sign(xs[:, None] - xs[None, :]) == np.sign(y[:, None] - y[None, :])
            adjacency = agree.astype(np.int64)
            np.fill_diagonal(adjacency, 0)
            return int(np.trace(np.linalg.matrix_power(adjacency, 3))) // 6

        want = (triangles(ys) + triangles(-ys)) / (2.0 * math.comb(n, 3))
        assert measure("mr", PairedSample(xs, ys)) == want

    def test_monotone_data_scores_one_half(self):
        # Perfectly monotone data matches every subsequence in exactly one
        # direction, so the normalized statistic caps at 1/2.
        rng = np.random.default_rng(104)
        xs = rng.normal(size=40)
        assert measure("mr", PairedSample(xs, 2.0 * xs)) == 0.5
        assert measure("mr", PairedSample(xs, -xs)) == 0.5

    def test_needs_three_observations(self):
        with pytest.raises(TooFewSamples):
            measure("mr", PairedSample([1.0, 2.0], [1.0, 2.0]))


class TestLocalDensityFamily:
    def test_aldg_tag_equals_driver(self):
        rng = np.random.default_rng(107)
        s = random_sample(rng, 60)
        assert measure("aldg", s) == aldg(s).value
        rule = ThresholdRule.fixed(0.1)
        assert measure(MeasureKind("aldg", {"rule": rule}), s) == aldg(s, rule).value

    def test_avgcsn_tag_equals_driver(self):
        rng = np.random.default_rng(108)
        s = random_sample(rng, 40)
        assert measure("avgcsn", s) == avgcsn(s)
        assert measure(MeasureKind("avgcsn", {"alpha": 0.1}), s) == avgcsn(s, alpha=0.1)

    def test_mean_t_tag_equals_driver(self):
        rng = np.random.default_rng(109)
        s = random_sample(rng, 40)
        assert measure("mean-t", s) == mean_t(s)


class TestKindWithSeed:
    def test_aldg_auto_rule_gets_seed(self):
        kind = kind_with_seed(MeasureKind("aldg"), 77)
        assert kind.params["rule"].seed == 77
        assert kind.params["rule"].kind == "auto"

    def test_aldg_fixed_rule_unchanged(self):
        base = MeasureKind("aldg", {"rule": ThresholdRule.fixed(0.2)})
        assert kind_with_seed(base, 77) is base

    def test_deterministic_measures_unchanged(self):
        for tag in ("pearson", "mr"):
            base = MeasureKind(tag)
            assert kind_with_seed(base, 123) is base


class TestBoundedScales:
    def test_correlation_scaled_measures_saturate_on_a_line(self):
        for tag in ("pearson", "spearman", "kendall", "dcor"):
            assert measure(tag, LINE) == pytest.approx(1.0, rel=1e-9)

    def test_unit_interval_measures_stay_inside(self):
        rng = np.random.default_rng(113)
        for _ in range(5):
            s = random_sample(rng, 50)
            for tag in ("aldg", "avgcsn"):
                assert 0.0 <= measure(tag, s) <= 1.0
            assert 0.0 <= measure("mr", s) <= 0.5
            assert 0.0 <= measure("dcor", s) <= 1.0
            assert -1.0 <= measure("kendall", s) <= 1.0


class TestPairwiseMatrix:
    def make_table(self, rng, p=4, n=30):
        rows = [rng.normal(size=n)]
        for _ in range(p - 1):
            rows.append(0.5 * rows[0] + rng.normal(size=n))
        return np.vstack(rows)

    def test_matches_per_pair_measure(self):
        rng = np.random.default_rng(127)
        data = self.make_table(rng)
        result = pairwise_matrix(data, "pearson")
        for i in range(4):
            for j in range(i + 1, 4):
                want = measure("pearson", PairedSample(data[i], data[j]))
                assert result.matrix[i, j] == want
                assert result.matrix[j, i] == want

    def test_correlation_diagonal_is_one(self):
        rng = np.random.default_rng(128)
        data = self.make_table(rng)
        for tag in ("pearson", "spearman", "kendall", "dcor"):
            assert np.all(np.diag(pairwise_matrix(data, tag).matrix) == 1.0)

    def test_other_diagonal_is_self_measure(self):
        rng = np.random.default_rng(129)
        data = self.make_table(rng, p=3)
        result = pairwise_matrix(data, "mean-t")
        for i in range(3):
            want = measure("mean-t", PairedSample(data[i], data[i]))
            assert result.matrix[i, i] == want

    def test_failed_pairs_become_nan_with_diagnostics(self):
        rng = np.random.default_rng(131)
        data = self.make_table(rng, p=3)
        data[1] = 7.0
        result = pairwise_matrix(data, "pearson")
        assert math.isnan(result.matrix[0, 1]) and math.isnan(result.matrix[1, 2])
        assert len(result.diagnostics) == 2
        assert all(d["error"] == "ZeroVariance" for d in result.diagnostics)
        assert {(d["i"], d["j"]) for d in result.diagnostics} == {(0, 1), (1, 2)}

    def test_thread_invariance_for_stochastic_measure(self):
        rng = np.random.default_rng(137)
        data = self.make_table(rng, p=4, n=40)
        one = pairwise_matrix(data, "aldg", threads=1, seed=3)
        four = pairwise_matrix(data, "aldg", threads=4, seed=3)
        assert np.array_equal(one.matrix, four.matrix)

    # Every measure runs on rows prepared once; n = 60 and 260 take the
    # auto rule's uniform-error and asymptotic-norm branches.
    PREPARED_KINDS = {
        **{tag: MeasureKind(tag) for tag in MEASURE_TAGS if tag not in ("aldg", "avgcsn")},
        "hsic-width": MeasureKind("hsic", {"width": 0.5}),
        "aldg-auto": MeasureKind("aldg"),
        "aldg-uniform-error": MeasureKind("aldg", {"rule": ThresholdRule.uniform_error(n_shuffles=4)}),
        "aldg-inflection-point": MeasureKind(
            "aldg", {"rule": ThresholdRule.inflection_point(n_shuffles=4)}),
        "aldg-fixed": MeasureKind("aldg", {"rule": ThresholdRule.fixed(0.05)}),
        "avgcsn": MeasureKind("avgcsn", {"alpha": 0.1}),
    }

    @NO_RUNTIME_WARNINGS
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("n", [60, 260])
    @pytest.mark.parametrize("name", PREPARED_KINDS)
    def test_prepared_rows_equal_per_pair_measure(self, name, n, threads):
        kind, seed = self.PREPARED_KINDS[name], 5
        rng = np.random.default_rng(139)
        data = self.make_table(rng, p=7, n=n)
        data[1] = 7.0  # constant: ZeroVariance
        data[2] = rng.choice([-1e300, 0.0, 1e300], size=n)  # a number
        data[3] = np.tile([-1.7976931348623157e308, 1.7976931348623157e308], n // 2)  # sd overflows
        data[5] = -2.0  # constant
        data[6, 3] = np.nan  # fails PairedSample's checks
        self_is_one = kind.tag in ("pearson", "spearman", "kendall", "dcor")
        tasks = [(i, j) for i in range(7) for j in range(i + 1, 7)]
        tasks += [] if self_is_one else [(i, i) for i in range(7)]
        want = np.ones((7, 7))
        diagnostics = []
        for index, (i, j) in enumerate(tasks):
            try:
                value = measure(kind_with_seed(kind, child_seed(seed, index)),
                                PairedSample(data[i], data[j]))
            except DepgapError as exc:
                diagnostics.append({"i": i, "j": j, "error": type(exc).__name__,
                                    "message": str(exc)})
                value = math.nan
            want[i, j] = want[j, i] = value
        got = pairwise_matrix(data, kind, threads=threads, seed=seed)
        assert got.matrix.tobytes() == want.tobytes()
        assert got.diagnostics == diagnostics
        errors = {(d["i"], d["j"]): d["error"] for d in got.diagnostics}
        # PairedSample's checks come first; of two failing rows, x's error.
        rows = range(6 if self_is_one else 7)
        assert all(errors[(i, 6)] == "DimensionMismatch" for i in rows)
        if kind.tag in ("aldg", "avgcsn", "mean-t"):
            assert errors[(1, 3)] == "ZeroVariance" and errors[(3, 5)] == "DepgapError"
            assert errors[(1, 2)] == "ZeroVariance" and errors[(2, 5)] == "ZeroVariance"

    @pytest.mark.parametrize("tag", ["aldg", "mean-t", "avgcsn"])
    def test_bandwidth_rounding_to_zero_is_a_diagnostic(self, tag):
        # The second row's sd is 5e-324, and 5e-324 * 100**(-1/6) rounds to 0.
        rng = np.random.default_rng(149)
        data = np.vstack([rng.normal(size=100), np.tile([5e-324, -5e-324], 50)])
        result = pairwise_matrix(data, tag)
        errors = {(d["i"], d["j"]): d["error"] for d in result.diagnostics}
        assert errors == {(0, 1): "ZeroVariance", (1, 1): "ZeroVariance"}
        assert math.isnan(result.matrix[0, 1]) and not math.isnan(result.matrix[0, 0])

    def test_rejects_degenerate_input(self):
        with pytest.raises(ValueError):
            pairwise_matrix(np.zeros((1, 10)), "pearson")
        with pytest.raises(ValueError):
            pairwise_matrix(np.zeros(10), "pearson")
