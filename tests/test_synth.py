"""Synthetic data generators: families, mixtures, contamination, shuffling."""

import numpy as np
import pytest

from depgap import (
    FUNCTIONAL_FAMILIES,
    GRID_FAMILIES,
    ContaminationSpec,
    GaussianSpec,
    SynthSpec,
    TooFewSamples,
    UnknownFamily,
    contaminate,
    gauss_mix3,
    gaussian_pair,
    generate,
    nb_mix3,
    shuffle_y,
    unif_point_mass,
)


def corr(sample):
    return float(np.corrcoef(sample.xs, sample.ys)[0, 1])


class TestSynthSpec:
    def test_family_lists(self):
        assert set(FUNCTIONAL_FAMILIES) <= set(GRID_FAMILIES)
        assert len(GRID_FAMILIES) == 10
        assert "independent" in GRID_FAMILIES

    def test_unknown_family(self):
        with pytest.raises(UnknownFamily):
            SynthSpec("helix", 100)

    def test_unknown_parameter(self):
        with pytest.raises(UnknownFamily):
            SynthSpec("linear", 100, params={"freq": 3.0})

    def test_bounds(self):
        with pytest.raises(ValueError):
            SynthSpec("linear", 1)
        with pytest.raises(ValueError):
            SynthSpec("linear", 100, noise_level=1.5)
        with pytest.raises(ValueError):
            SynthSpec("linear", 100, noise_level=-0.1)

    def test_dict_round_trip(self):
        spec = SynthSpec("sine", 50, noise_level=0.3, params={"freq": 1.5}, seed=9)
        assert SynthSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_defaults(self):
        spec = SynthSpec.from_dict({"family": "linear", "n": 10})
        assert spec.noise_level == 0.0 and spec.seed == 0 and spec.params == {}

    def test_custom_spec_cannot_serialize(self):
        spec = SynthSpec("custom", 10, params={"h": lambda xs: xs})
        with pytest.raises(ValueError):
            spec.to_dict()


class TestGenerate:
    def test_every_family_draws_n_finite_pairs(self):
        for family in GRID_FAMILIES:
            s = generate(SynthSpec(family, 64, seed=1))
            assert s.n == 64
            assert np.isfinite(s.xs).all() and np.isfinite(s.ys).all()

    def test_deterministic_in_seed(self):
        for family in GRID_FAMILIES:
            a = generate(SynthSpec(family, 40, noise_level=0.2, seed=5))
            b = generate(SynthSpec(family, 40, noise_level=0.2, seed=5))
            c = generate(SynthSpec(family, 40, noise_level=0.2, seed=6))
            assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
            assert not np.array_equal(a.xs, c.xs)

    def test_noiseless_functional_forms(self):
        n = 200
        linear = generate(SynthSpec("linear", n, seed=2))
        assert np.array_equal(linear.ys, linear.xs)
        quad = generate(SynthSpec("quadratic", n, seed=3))
        assert np.array_equal(quad.ys, quad.xs**2)
        cubic = generate(SynthSpec("cubic", n, seed=4))
        assert np.array_equal(cubic.ys, cubic.xs**3)
        sine = generate(SynthSpec("sine", n, seed=5))
        assert np.array_equal(sine.ys, np.sin(2.0 * np.pi * sine.xs))
        fast = generate(SynthSpec("sine", n, seed=5, params={"freq": 4.0}))
        assert np.array_equal(fast.ys, np.sin(4.0 * np.pi * fast.xs))

    def test_step_levels(self):
        s = generate(SynthSpec("step", 500, seed=6))
        assert set(np.unique(s.ys)) <= {-1.0, 0.0, 1.0}
        assert np.all(s.ys[s.xs < -1.0 / 3.0] == -1.0)
        assert np.all(s.ys[s.xs > 1.0 / 3.0] == 1.0)

    def test_circle_radius(self):
        s = generate(SynthSpec("circle", 300, seed=7))
        assert np.allclose(s.xs**2 + s.ys**2, 1.0, atol=1e-12)

    def test_x_cross_branches(self):
        s = generate(SynthSpec("x-cross", 300, seed=8))
        assert np.allclose(np.abs(s.ys), np.abs(s.xs), atol=1e-12)

    def test_checkerboard_active_cells(self):
        s = generate(SynthSpec("checkerboard", 600, seed=9))
        ax = np.floor((s.xs + 1.0) * 1.5).astype(int).clip(0, 2)
        ay = np.floor((s.ys + 1.0) * 1.5).astype(int).clip(0, 2)
        assert np.all((ax + ay) % 2 == 0)

    def test_spiral_stays_in_unit_disk(self):
        s = generate(SynthSpec("spiral", 300, seed=10))
        assert np.all(s.xs**2 + s.ys**2 <= 1.0 + 1e-12)

    def test_noise_perturbs_functional_families(self):
        clean = generate(SynthSpec("linear", 100, seed=11))
        noisy = generate(SynthSpec("linear", 100, noise_level=0.3, seed=11))
        assert np.array_equal(clean.xs, noisy.xs)
        assert not np.array_equal(clean.ys, noisy.ys)
        assert corr(noisy) > 0.7

    def test_custom_family_applies_callable(self):
        s = generate(SynthSpec("custom", 50, params={"h": lambda xs: 3.0 * xs}, seed=12))
        assert np.array_equal(s.ys, 3.0 * s.xs)

    def test_independent_family_near_zero_correlation(self):
        s = generate(SynthSpec("independent", 5000, seed=13))
        assert abs(corr(s)) < 0.05


class TestMixtures:
    def test_m_validation(self):
        # Checked as given, through a spec too: 2.5 is not truncated to 2,
        # nor the strings parsed.
        for bad in (-1, 4, 2.5, "2", "0.1"):
            with pytest.raises(ValueError):
                gauss_mix3(bad, 100)
            with pytest.raises(ValueError):
                nb_mix3(bad, 100)
            for family in ("gauss_mix3", "nb_mix3"):
                with pytest.raises(ValueError):
                    generate(SynthSpec(family, 100, params={"m": bad}))
        # The sample's own check, not SynthSpec's ValueError for n < 2.
        with pytest.raises(TooFewSamples):
            gauss_mix3(1, 1)

    def test_gauss_mixture_centers(self):
        s = gauss_mix3(0, 6000, seed=21)
        # Labels correspond to means (-4, -4), (0, 0), (4, 4); each third of
        # the data should sit within a few sigma of its center.
        near = (
            (np.abs(s.xs + 4.0) < 5.0) | (np.abs(s.xs) < 5.0) | (np.abs(s.xs - 4.0) < 5.0)
        )
        assert np.all(near)
        assert abs(float(np.mean(s.xs))) < 0.2

    def test_gauss_mixture_dependence_grows_with_m(self):
        values = [abs(corr(gauss_mix3(m, 4000, seed=22))) for m in (0, 3)]
        assert values[1] > values[0]

    def test_nb_mixture_integer_counts(self):
        s = nb_mix3(2, 500, seed=23)
        assert np.all(s.xs >= 0) and np.all(s.ys >= 0)
        assert np.array_equal(s.xs, np.round(s.xs))
        assert np.array_equal(s.ys, np.round(s.ys))

    def test_mixture_determinism(self):
        a = gauss_mix3(1, 100, seed=24)
        b = gauss_mix3(1, 100, seed=24)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        c = nb_mix3(1, 100, seed=25)
        d = nb_mix3(1, 100, seed=25)
        assert np.array_equal(c.xs, d.xs) and np.array_equal(c.ys, d.ys)

    def test_spec_dispatch_matches_direct_call(self):
        via_spec = generate(SynthSpec("gauss_mix3", 80, params={"m": 2}, seed=26))
        direct = gauss_mix3(2, 80, seed=26)
        assert np.array_equal(via_spec.xs, direct.xs)
        via_spec = generate(SynthSpec("nb_mix3", 80, params={"m": 1}, seed=27))
        direct = nb_mix3(1, 80, seed=27)
        assert np.array_equal(via_spec.ys, direct.ys)


class TestUnifPointMass:
    def test_support(self):
        s = unif_point_mass(0.5, 0.01, 4000, seed=31)
        assert np.all(np.abs(s.xs) <= 1.0) and np.all(np.abs(s.ys) <= 1.0)
        tight = (np.abs(s.xs) <= 0.01) & (np.abs(s.ys) <= 0.01)
        # About half of the draws concentrate on the tiny square.
        assert 0.4 < float(np.mean(tight)) < 0.6

    def test_parameter_validation(self):
        for alpha in (0.0, 1.0, 2.5, "2", "0.1"):
            with pytest.raises(ValueError):
                unif_point_mass(alpha, 0.01, 100)
            with pytest.raises(ValueError):
                generate(SynthSpec("unif_point_mass", 100, params={"alpha": alpha}))
        for r in (0.0, 1.5, 2.5, "2", "0.1"):
            with pytest.raises(ValueError):
                unif_point_mass(0.1, r, 100)
            with pytest.raises(ValueError):
                generate(SynthSpec("unif_point_mass", 100, params={"r": r}))
        with pytest.raises(TooFewSamples):
            unif_point_mass(0.1, 0.01, 1)

    def test_spec_dispatch(self):
        via_spec = generate(
            SynthSpec("unif_point_mass", 200, params={"alpha": 0.2, "r": 0.05}, seed=32)
        )
        direct = unif_point_mass(0.2, 0.05, 200, seed=32)
        assert np.array_equal(via_spec.xs, direct.xs)


class TestGaussianPair:
    def test_zero_rho_uses_independent_streams(self):
        spec = GaussianSpec(rho=0.0)
        s = gaussian_pair(spec, 5000, seed=41)
        assert abs(corr(s)) < 0.05

    def test_strong_rho(self):
        s = gaussian_pair(GaussianSpec(rho=0.9), 5000, seed=42)
        assert corr(s) > 0.85

    def test_location_and_scale(self):
        spec = GaussianSpec(rho=0.5, mu_x=10.0, mu_y=-3.0, sigma_x=0.5, sigma_y=2.0)
        s = gaussian_pair(spec, 20000, seed=43)
        assert float(np.mean(s.xs)) == pytest.approx(10.0, abs=0.05)
        assert float(np.mean(s.ys)) == pytest.approx(-3.0, abs=0.1)
        assert float(np.std(s.xs)) == pytest.approx(0.5, abs=0.05)
        assert float(np.std(s.ys)) == pytest.approx(2.0, abs=0.1)

    def test_determinism_and_n_bound(self):
        spec = GaussianSpec(rho=0.3)
        a = gaussian_pair(spec, 50, seed=44)
        b = gaussian_pair(spec, 50, seed=44)
        assert np.array_equal(a.xs, b.xs) and np.array_equal(a.ys, b.ys)
        with pytest.raises(ValueError):
            gaussian_pair(spec, 1)


class TestContaminate:
    def test_replaces_exactly_the_tail(self):
        rng = np.random.default_rng(51)
        base = gaussian_pair(GaussianSpec(rho=0.0), 20, seed=51)
        dirty = contaminate(base, ContaminationSpec(3, (100.0, -100.0)))
        assert np.array_equal(dirty.xs[:17], base.xs[:17])
        assert np.array_equal(dirty.ys[:17], base.ys[:17])
        assert np.all(dirty.xs[17:] == 100.0) and np.all(dirty.ys[17:] == -100.0)

    def test_leaves_input_untouched(self):
        base = gaussian_pair(GaussianSpec(rho=0.0), 10, seed=52)
        xs_before = base.xs.copy()
        contaminate(base, ContaminationSpec(2, (9.0, 9.0)))
        assert np.array_equal(base.xs, xs_before)

    def test_validation(self):
        base = gaussian_pair(GaussianSpec(rho=0.0), 10, seed=53)
        with pytest.raises(ValueError):
            ContaminationSpec(0, (1.0, 1.0))
        with pytest.raises(ValueError):
            contaminate(base, ContaminationSpec(10, (1.0, 1.0)))


class TestShuffleY:
    def test_permutes_only_y(self):
        base = gaussian_pair(GaussianSpec(rho=0.8), 100, seed=61)
        mixed = shuffle_y(base, seed=1)
        assert np.array_equal(mixed.xs, base.xs)
        assert not np.array_equal(mixed.ys, base.ys)
        assert np.array_equal(np.sort(mixed.ys), np.sort(base.ys))

    def test_deterministic(self):
        base = gaussian_pair(GaussianSpec(rho=0.8), 50, seed=62)
        assert np.array_equal(shuffle_y(base, seed=3).ys, shuffle_y(base, seed=3).ys)
        assert not np.array_equal(shuffle_y(base, seed=3).ys, shuffle_y(base, seed=4).ys)

    def test_breaks_dependence(self):
        base = gaussian_pair(GaussianSpec(rho=0.9), 2000, seed=63)
        assert abs(corr(shuffle_y(base, seed=5))) < 0.1
