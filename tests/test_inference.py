"""Permutation testing and power estimation."""

import importlib
import sys

import numpy as np
import pytest

from depgap import (
    MEASURE_TAGS,
    SIGNED_TAGS,
    MeasureKind,
    PairedSample,
    SynthSpec,
    ThresholdRule,
    default_bandwidth,
    generate,
    measure,
    permutation_test,
    power_estimate,
)
from depgap import inference, measures
from depgap._util import child_rng, child_seed
from depgap.measures import kind_with_seed


def linear_sample(n, slope=1.0, seed=0):
    rng = np.random.default_rng(seed)
    xs = rng.normal(size=n)
    return PairedSample(xs, slope * xs)


class TestPermutationTest:
    def test_strong_dependence_gives_smallest_p(self):
        s = linear_sample(50, seed=1)
        result = permutation_test("pearson", s, n_perms=200, seed=2)
        assert result.p_value == pytest.approx(1.0 / 201.0, rel=1e-12)
        assert result.n_perms == 200

    def test_observed_is_absolute_for_signed_measures(self):
        s = linear_sample(50, slope=-2.0, seed=3)
        result = permutation_test("pearson", s, n_perms=50, seed=4)
        assert result.observed == pytest.approx(1.0, rel=1e-12)
        assert result.p_value == pytest.approx(1.0 / 51.0, rel=1e-12)

    def test_observed_matches_measure(self):
        rng = np.random.default_rng(5)
        xs = rng.normal(size=40)
        s = PairedSample(xs, 0.5 * xs + rng.normal(size=40))
        result = permutation_test("dcor", s, n_perms=20, seed=6)
        assert result.observed == measure("dcor", s)

    def test_add_one_bounds(self):
        rng = np.random.default_rng(7)
        s = PairedSample(rng.normal(size=30), rng.normal(size=30))
        result = permutation_test("kendall", s, n_perms=99, seed=8)
        assert 1.0 / 100.0 <= result.p_value <= 1.0

    def test_deterministic_and_thread_invariant(self):
        rng = np.random.default_rng(9)
        s = PairedSample(rng.normal(size=60), rng.normal(size=60))
        a = permutation_test("aldg", s, n_perms=30, seed=10)
        b = permutation_test("aldg", s, n_perms=30, seed=10)
        c = permutation_test("aldg", s, n_perms=30, seed=10, threads=4)
        assert a.p_value == b.p_value == c.p_value
        assert a.observed == b.observed == c.observed

    def test_seed_changes_null_draws(self):
        rng = np.random.default_rng(11)
        s = PairedSample(rng.normal(size=40), rng.normal(size=40))
        a = permutation_test("spearman", s, n_perms=60, seed=1)
        b = permutation_test("spearman", s, n_perms=60, seed=2)
        assert a.observed == b.observed
        assert a.p_value != b.p_value

    def test_kind_with_parameters(self):
        s = linear_sample(60, seed=12)
        kind = MeasureKind("aldg", {"rule": ThresholdRule.fixed(0.05)})
        result = permutation_test(kind, s, n_perms=40, seed=13)
        assert result.p_value <= 0.1

    # Every tag, and aLDG under each rule; n = 150 and 230 take the auto
    # rule's uniform-error and asymptotic-norm branches.
    KINDS = {
        **{tag: MeasureKind(tag) for tag in MEASURE_TAGS},
        **{f"aldg-{rule.kind}": MeasureKind("aldg", {"rule": rule}) for rule in (
            ThresholdRule.fixed(0.05),
            ThresholdRule.uniform_error(n_shuffles=3),
            ThresholdRule.asymptotic_norm(),
            ThresholdRule.inflection_point(n_shuffles=3),
            ThresholdRule.auto(seed=4),
        )},
        "avgcsn-0.2": MeasureKind("avgcsn", {"alpha": 0.2}),
        # Kendall's large-n route (scipy) on permuted margins, forced at these n.
        "kendall-scipy": MeasureKind("kendall"),
    }

    @staticmethod
    def tied_sample(n):
        rng = np.random.default_rng(n)
        xs = rng.normal(size=n)
        return PairedSample(xs, np.round(0.3 * xs + rng.normal(size=n), 1))

    # threads, and whether a small batch budget takes the permutations one
    # chunk each and aLDG's rows one statistic per joint count.
    @pytest.mark.parametrize("threads, small_batches", [(1, False), (2, False), (3, False),
                                                        (1, True)])
    @pytest.mark.parametrize("n", [150, 230])
    @pytest.mark.parametrize("name", KINDS)
    def test_equals_a_loop_of_measure(self, name, n, threads, small_batches, monkeypatch):
        kind, seed, n_perms = self.KINDS[name], 17, 6
        if name == "kendall-scipy":
            monkeypatch.setattr(measures, "_KENDALL_MASK_MAX", 1)
        if small_batches:
            monkeypatch.setattr(inference, "_BATCH_VALUES", n)
            monkeypatch.setattr(importlib.import_module("depgap.aldg"), "_BATCH_VALUES", n)
        s = self.tied_sample(n)
        stats = [
            measure(kind_with_seed(kind, child_seed(seed, b)),
                    PairedSample(s.xs, child_rng(seed, b).permutation(s.ys) if b else s.ys))
            for b in range(n_perms + 1)
        ]
        if kind.tag in SIGNED_TAGS:
            stats = [abs(value) for value in stats]
        null, chunks = [], []
        seeded_pairs = inference._seeded_pairs

        def recording_pairs(*args):
            pairs = seeded_pairs(*args)

            def recorded(indices, x, y, perms=None):
                values = pairs(indices, x, y, perms)
                if perms is not None:
                    null.extend(zip(indices, values))
                    chunks.append(len(indices))
                return values

            return recorded

        # The null statistics themselves, to the bit, where the test gets
        # them from the measure: a p-value alone would miss a last-bit change.
        monkeypatch.setattr(inference, "_seeded_pairs", recording_pairs)
        result = permutation_test(kind, s, n_perms=n_perms, seed=seed, threads=threads)
        assert [b for b, _ in sorted(null)] == list(range(1, n_perms + 1))
        got = [abs(value) if kind.tag in SIGNED_TAGS else value for _, value in sorted(null)]
        assert np.array(got).tobytes() == np.array(stats[1:]).tobytes()
        assert len(chunks) == (n_perms if small_batches else threads)
        assert result.observed == stats[0]
        assert result.p_value == (1 + sum(value >= stats[0] for value in stats[1:])) / (n_perms + 1)

    @pytest.mark.parametrize("n", [150, 230])
    def test_loop_samples_permute_the_bandwidth(self, n):
        # The guard above runs where a permuted y's bandwidth, from its own
        # standard deviation, differs from y's own in the last bits, so
        # reusing y's margin would miss windows.
        s = self.tied_sample(n)
        own = default_bandwidth(s.ys)
        permuted = [default_bandwidth(child_rng(17, b).permutation(s.ys)) for b in range(1, 7)]
        assert any(h != own for h in permuted)

    def test_prepared_x_shared_by_more_threads_than_cores(self):
        # Every permutation reads the one prepared x; a short switch interval
        # interleaves the threads often.
        rng = np.random.default_rng(19)
        xs = rng.normal(size=80)
        s = PairedSample(xs, np.round(xs + rng.normal(size=80), 1))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for tag in ("spearman", "hoeffd", "mr", "aldg", "avgcsn"):
                one = permutation_test(tag, s, n_perms=40, seed=3)
                many = permutation_test(tag, s, n_perms=40, seed=3, threads=8)
                assert (many.observed, many.p_value) == (one.observed, one.p_value)
        finally:
            sys.setswitchinterval(interval)

    def test_n_perms_validation(self):
        s = linear_sample(20, seed=14)
        with pytest.raises(ValueError):
            permutation_test("pearson", s, n_perms=0)


class TestPowerEstimate:
    def test_full_power_on_noiseless_line(self):
        spec = SynthSpec("linear", 30)
        power = power_estimate(spec, "pearson", n_perms=60, n_trials=5, seed=1)
        assert power == 1.0

    def test_near_level_on_independence(self):
        spec = SynthSpec("independent", 40)
        power = power_estimate(spec, "pearson", n_perms=60, n_trials=10, seed=2)
        assert power <= 0.3

    def test_deterministic_and_thread_invariant(self):
        spec = SynthSpec("sine", 30, noise_level=0.2)
        a = power_estimate(spec, "spearman", n_perms=30, n_trials=6, seed=3)
        b = power_estimate(spec, "spearman", n_perms=30, n_trials=6, seed=3)
        c = power_estimate(spec, "spearman", n_perms=30, n_trials=6, seed=3, threads=3)
        assert a == b == c

    def test_each_trial_draws_fresh_data(self):
        # With one trial the rejection indicator is 0 or 1; across different
        # seeds both outcomes appear for borderline dependence.
        spec = SynthSpec("linear", 12, noise_level=1.0)
        outcomes = {
            power_estimate(spec, "pearson", n_perms=40, n_trials=1, seed=s)
            for s in range(12)
        }
        assert outcomes == {0.0, 1.0}

    def test_validation(self):
        spec = SynthSpec("linear", 20)
        with pytest.raises(ValueError):
            power_estimate(spec, "pearson", level=0.0)
        with pytest.raises(ValueError):
            power_estimate(spec, "pearson", level=1.0)
        with pytest.raises(ValueError):
            power_estimate(spec, "pearson", n_trials=0)
