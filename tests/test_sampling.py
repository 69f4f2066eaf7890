import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distrel.gp import KernelConfig, fit, predict_batch
from distrel.oracles import OracleError
from distrel.sampling import (
    LabeledSet,
    SamplerConfig,
    _CandidatePool,
    _observe,
    _refresh,
    acquisition,
    beta_coefficient,
    load_labeled_set,
    minority_label,
    run_gp_sampling,
    run_random_sampling,
    save_labeled_set,
    suggest_next,
)
from distrel.space import SearchSpace

from test_gp import gp_problems, unit_kernel_cond


def unit_space(d=2):
    return SearchSpace(
        names=tuple(f"x{i}" for i in range(d)),
        lowers=np.zeros(d),
        uppers=np.ones(d),
    )


class TestLabelAccuracy:
    """The labelling rule, as LabeledSet.from_accuracies applies it."""

    @staticmethod
    def label(accuracy, h):
        [label] = LabeledSet.from_accuracies([[0.5, 0.5]], [accuracy], h).labels
        return label

    def test_below_threshold_is_negative(self):
        # accuracy 0.82 against h = 0.95
        assert self.label(0.82, 0.95) == 0

    def test_tie_is_positive(self):
        assert self.label(0.7, 0.7) == 1

    def test_max_accuracy(self):
        assert self.label(1.0, 0.0) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            self.label(1.2, 0.5)
        with pytest.raises(ValueError):
            self.label(0.5, -0.1)


class TestBetaCoefficient:
    def test_printed_formula_value(self):
        # d=6, t=10, delta=0.1: 2*[ln(6*10*pi^2) - ln(0.6)]
        expected = 2.0 * (math.log(6 * 10 * math.pi**2) - math.log(0.6))
        assert beta_coefficient(10, 6, 0.1) == pytest.approx(expected, rel=1e-12)
        assert beta_coefficient(10, 6, 0.1) == pytest.approx(13.789, abs=5e-4)

    def test_zero_when_log_arguments_match(self):
        delta = math.pi**2 / 6.0  # d*t*pi^2 == 6*delta at d=t=1
        assert beta_coefficient(1, 1, delta) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_t_and_d(self):
        assert beta_coefficient(20, 6, 0.1) > beta_coefficient(10, 6, 0.1)
        assert beta_coefficient(10, 7, 0.1) > beta_coefficient(10, 6, 0.1)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            beta_coefficient(0, 6, 0.1)
        with pytest.raises(ValueError):
            beta_coefficient(1, 0, 0.1)
        with pytest.raises(ValueError):
            beta_coefficient(1, 1, 0.0)


class TestAcquisition:
    def fit_gp(self, x, y, ls=0.3, sv=1.0):
        x = np.atleast_2d(x)
        return fit(x, y, KernelConfig(np.full(x.shape[1], ls), sv, jitter=1e-10))

    def test_zero_sigma_and_mean_at_threshold(self):
        gp = self.fit_gp([[0.5, 0.5]], [0.7])
        # at a training point sigma is jitter-small and mu == target,
        # so q collapses toward 0 for any beta
        for beta in (0.0, 5.0, 50.0):
            q = acquisition(gp, [0.5, 0.5], 0.7, beta)
            assert abs(q) <= beta * 1e-3 + 1e-9

    def test_beta_zero_reduces_to_mean_minus_h(self):
        rng = np.random.default_rng(0)
        x = rng.random((6, 2))
        gp = self.fit_gp(x, rng.random(6))
        probe = rng.random(2)
        mean, _ = predict_batch(gp, probe[None])
        assert acquisition(gp, probe, 0.3, 0.0) == pytest.approx(mean[0] - 0.3, abs=1e-12)

    def test_higher_mean_scores_higher_at_equal_sigma(self):
        # symmetric design: two probes mirrored about a lone training point
        gp = self.fit_gp([[0.5]], [0.9], ls=0.2)
        lo = acquisition(gp, [0.3], 0.5, 1.0)
        hi = acquisition(gp, [0.7], 0.5, 1.0)
        assert hi == pytest.approx(lo, abs=1e-10)  # mirrored: equal mean and sigma
        gp2 = self.fit_gp([[0.2], [0.8]], [0.1, 0.9], ls=0.2)
        # equal sigma by symmetry at mirrored probes, mean higher near 0.8
        assert acquisition(gp2, [0.7], 0.5, 1.0) > acquisition(gp2, [0.3], 0.5, 1.0)

    def test_direction_flip_negates_mean_term(self):
        rng = np.random.default_rng(1)
        x = rng.random((5, 2))
        gp = self.fit_gp(x, rng.random(5))
        probe = rng.random(2)
        [mean], [var] = predict_batch(gp, probe[None])
        sigma = math.sqrt(var)
        above = acquisition(gp, probe, 0.4, 2.0, 1.0)
        below = acquisition(gp, probe, 0.4, 2.0, -1.0)
        assert above == pytest.approx(2.0 * sigma + (mean - 0.4), abs=1e-12)
        assert below == pytest.approx(2.0 * sigma + (0.4 - mean), abs=1e-12)

    def test_rejects_negative_beta(self):
        gp = self.fit_gp([[0.5, 0.5]], [0.7])
        with pytest.raises(ValueError, match="beta"):
            acquisition(gp, [0.1, 0.1], 0.5, -1.0)


class TestSuggestNext:
    def test_finds_sharp_bump(self):
        # high-mean bump at the center; dense-grid argmax is the oracle
        space = unit_space(1)
        x = np.array([[0.1], [0.3], [0.5], [0.7], [0.9]])
        y = np.array([0.1, 0.2, 0.95, 0.2, 0.1])
        gp = fit(x, y, KernelConfig(np.array([0.08]), 0.1, jitter=1e-10))
        cfg = SamplerConfig(budget=10, init_count=5, acquisition_candidates=512,
                            refine_steps=24, seed=3)
        rng = np.random.default_rng(3)
        suggestion = suggest_next(gp, space, 0.9, 0.5, cfg, rng)

        dense = np.linspace(0, 1, 4001)[:, None]
        q_dense = acquisition(gp, dense, 0.9, 0.5)
        q_best = q_dense.max()
        q_sugg = acquisition(gp, suggestion[None, :], 0.9, 0.5)[0]
        assert q_sugg >= q_best - 1e-6

    def test_flat_posterior_stays_in_bounds(self):
        space = unit_space(3)
        gp = fit(
            np.full((1, 3), 0.5), [0.5],
            KernelConfig(np.full(3, 1e-3), 1e-4, jitter=1e-10),
        )
        cfg = SamplerConfig(budget=10, init_count=2, acquisition_candidates=64,
                            refine_steps=8, seed=0)
        suggestion = suggest_next(gp, space, 0.5, 1.0, cfg, np.random.default_rng(0))
        assert space.contains(suggestion[None, :])[0]

    def test_deterministic_given_rng_state(self):
        space = unit_space(2)
        rng1 = np.random.default_rng(42)
        rng2 = np.random.default_rng(42)
        x = np.random.default_rng(5).random((8, 2))
        gp = fit(x, np.linspace(0.1, 0.9, 8), KernelConfig(np.full(2, 0.3), 0.5))
        cfg = SamplerConfig(budget=10, init_count=2, seed=0)
        s1 = suggest_next(gp, space, 0.5, 2.0, cfg, rng1)
        s2 = suggest_next(gp, space, 0.5, 2.0, cfg, rng2)
        assert np.array_equal(s1, s2)

    def test_never_duplicates_training_input(self):
        # peaked acquisition right on an existing input: must get nudged off
        # it. The hill climb clips to the box, so it lands exactly on a peak
        # in a corner, which only the nudge moves off.
        space = unit_space(2)
        cfg = SamplerConfig(budget=10, init_count=2, acquisition_candidates=256,
                            refine_steps=40, seed=1)
        for peak in ([0.5, 0.5], [1.0, 1.0]):
            x = np.array([peak, [0.1, 0.1], [0.9, 0.9]])
            y = np.array([0.99, 0.01, 0.01])
            gp = fit(x, y, KernelConfig(np.full(2, 0.05), 0.2, jitter=1e-10))
            for seed in range(5):
                s = suggest_next(gp, space, 0.9, 0.0, cfg, np.random.default_rng(seed))
                gaps = np.max(np.abs(gp.inputs - space.normalize(s)), axis=1)
                assert gaps.min() > 1e-9


class TestRandomSampling:
    def test_budget_zero_empty(self):
        space = unit_space(2)
        ls = run_random_sampling(lambda c: 0.5, space, 0.5, 0, 0)
        assert ls.n == 0

    def test_uniform_moments(self):
        space = SearchSpace(("a", "b"), np.array([0.0, 10.0]), np.array([2.0, 20.0]))
        ls = run_random_sampling(lambda c: 0.5, space, 0.9, 10_000, 7)
        assert np.all(space.contains(ls.levels))
        mid = (space.lowers + space.uppers) / 2
        se = space.ranges / math.sqrt(12.0) / math.sqrt(10_000)
        for j in range(2):
            assert abs(ls.levels[:, j].mean() - mid[j]) < 3 * se[j]

    def test_constant_oracle_at_threshold_all_positive(self):
        space = unit_space(2)
        ls = run_random_sampling(lambda c: 0.6, space, 0.6, 50, 0)
        assert ls.positive_count == 50

    def test_deterministic(self):
        space = unit_space(3)
        a = run_random_sampling(lambda c: float(np.mean(c)), space, 0.5, 40, 9)
        b = run_random_sampling(lambda c: float(np.mean(c)), space, 0.5, 40, 9)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.labels, b.labels)

    def test_oracle_error_carries_level(self):
        space = unit_space(2)

        def bad(level):
            raise RuntimeError("boom")

        with pytest.raises(OracleError) as err:
            run_random_sampling(bad, space, 0.5, 3, 0)
        assert err.value.level is not None


def quadratic_bump_oracle(space):
    center = (space.lowers + space.uppers) / 2.0

    def oracle(level):
        z = (np.asarray(level) - center) / space.ranges
        return float(0.99 * np.exp(-np.sum((z / 0.25) ** 2)))

    return oracle


def quadratic_dip_oracle(space):
    """Mirror image of the bump: reliable nearly everywhere but the center."""
    bump = quadratic_bump_oracle(space)
    return lambda level: 1.0 - bump(level)


class TestMinorityDirection:
    """``minority_label`` on labels against h sets ``suggest_next``'s sign:
    +1.0 when reliable levels (accuracy >= h) are the minority, else -1.0."""

    @staticmethod
    def minority(accuracies, h):
        return minority_label(np.asarray(accuracies) >= h)

    def test_follows_the_smaller_class(self):
        assert self.minority([0.1, 0.2, 0.95], 0.9) == 1
        assert self.minority([0.95, 0.92, 0.1], 0.9) == 0

    def test_tie_counts_reliable_as_minority(self):
        assert self.minority([0.1, 0.95], 0.9) == 1
        assert self.minority([0.9, 0.1], 0.9) == 1  # accuracy == h is reliable


class TestGpSampling:
    def test_minimal_loop_appends_one_point(self):
        space = unit_space(2)
        cfg = SamplerConfig(budget=6, init_count=5, acquisition_candidates=128,
                            refine_steps=4, seed=0)
        ls = run_gp_sampling(quadratic_bump_oracle(space), space, 0.5, cfg)
        assert ls.n == 6

    def test_deterministic_runs(self):
        space = unit_space(2)
        cfg = SamplerConfig(budget=30, init_count=8, acquisition_candidates=256,
                            refine_steps=8, seed=11)
        a = run_gp_sampling(quadratic_bump_oracle(space), space, 0.5, cfg)
        b = run_gp_sampling(quadratic_bump_oracle(space), space, 0.5, cfg)
        assert np.array_equal(a.levels, b.levels)
        assert np.array_equal(a.accuracies, b.accuracies)

    def test_levels_in_bounds_and_distinct(self):
        # suggest_next is the only guard against a repeated GP input. The dip
        # makes reliable levels the majority, so the -1 sign drives every
        # step and picks stack on the box faces.
        space = SearchSpace(("a", "b"), np.array([-1.0, 5.0]), np.array([1.0, 6.0]))
        cfg = SamplerConfig(budget=40, init_count=10, acquisition_candidates=256,
                            refine_steps=8, seed=2)
        for oracle in (quadratic_bump_oracle(space), quadratic_dip_oracle(space)):
            ls = run_gp_sampling(oracle, space, 0.5, cfg)
            assert np.all(space.contains(ls.levels))
            z = space.normalize(ls.levels)
            d = np.max(np.abs(z[:, None, :] - z[None, :, :]), axis=2)
            d[np.diag_indices(ls.n)] = 1.0
            assert d.min() > 1e-9

    def test_finds_more_positives_than_random(self):
        space = unit_space(2)
        oracle = quadratic_bump_oracle(space)
        cfg = SamplerConfig(budget=80, init_count=15, acquisition_candidates=512,
                            refine_steps=8, seed=4)
        gp_ls = run_gp_sampling(oracle, space, 0.9, cfg)
        rnd_ls = run_random_sampling(oracle, space, 0.9, 80, 4)
        assert gp_ls.positive_count > rnd_ls.positive_count

    def test_finds_more_negatives_than_random_when_reliable_dominates(self):
        space = unit_space(2)
        oracle = quadratic_dip_oracle(space)
        cfg = SamplerConfig(budget=80, init_count=15, acquisition_candidates=512,
                            refine_steps=8, seed=4)
        gp_ls = run_gp_sampling(oracle, space, 0.1, cfg)
        rnd_ls = run_random_sampling(oracle, space, 0.1, 80, 4)
        assert gp_ls.n - gp_ls.positive_count > rnd_ls.n - rnd_ls.positive_count

    def test_labels_follow_threshold(self):
        space = unit_space(2)
        cfg = SamplerConfig(budget=25, init_count=8, acquisition_candidates=128,
                            refine_steps=4, seed=5)
        ls = run_gp_sampling(quadratic_bump_oracle(space), space, 0.7, cfg)
        np.testing.assert_array_equal(ls.labels, (ls.accuracies >= 0.7).astype(int))

    def test_pool_smaller_than_the_refresh_interval(self):
        # two candidates last two steps; an empty pool forces a refresh
        space = unit_space(2)
        cfg = SamplerConfig(budget=60, init_count=10, acquisition_candidates=2, seed=6)
        ls = run_gp_sampling(quadratic_bump_oracle(space), space, 0.5, cfg)
        assert ls.n == 60
        assert len({tuple(level) for level in ls.levels.tolist()}) == 60

    def test_budget_prefix(self):
        # nothing but the loop's end depends on the budget, so a shorter run is a prefix
        space = unit_space(3)
        oracle = quadratic_bump_oracle(space)
        long = run_gp_sampling(oracle, space, 0.8, SamplerConfig(budget=70, init_count=8, seed=9))
        short = run_gp_sampling(oracle, space, 0.8, SamplerConfig(budget=45, init_count=8, seed=9))
        np.testing.assert_array_equal(short.levels, long.levels[:45])


class TestSamplerConfigValidation:
    def test_init_count_below_budget(self):
        with pytest.raises(ValueError, match="init_count"):
            SamplerConfig(budget=10, init_count=10)

    def test_delta_range(self):
        with pytest.raises(ValueError, match="delta"):
            SamplerConfig(budget=10, init_count=2, delta=0.0)


class TestLabeledSet:
    def test_invariant_enforced(self):
        with pytest.raises(ValueError, match="label invariant"):
            LabeledSet(
                levels=np.zeros((2, 1)),
                accuracies=np.array([0.9, 0.1]),
                labels=np.array([1, 1]),
                threshold=0.5,
            )

    def test_nan_accuracy_rejected(self):
        with pytest.raises(ValueError, match=r"accuracies must lie in \[0, 1\]"):
            LabeledSet(np.zeros((2, 1)), np.array([0.9, np.nan]), np.array([1, 0]), 0.5)

    def test_relabel_monotone(self):
        levels = np.zeros((5, 1))
        accs = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        ls = LabeledSet.from_accuracies(levels, accs, 0.5)
        assert ls.positive_count == 3
        assert ls.relabeled(0.8).positive_count == 1
        assert ls.relabeled(0.0).positive_count == 5

    def test_csv_roundtrip(self, tmp_path):
        space = unit_space(3)
        ls = run_random_sampling(lambda c: float(np.mean(c)), space, 0.5, 20, 1)
        path = tmp_path / "set.csv"
        save_labeled_set(path, ls, space)
        again = load_labeled_set(path, space, 0.5)
        np.testing.assert_array_equal(again.levels, ls.levels)
        np.testing.assert_array_equal(again.labels, ls.labels)

    def test_csv_load_rejects_mismatched_threshold(self, tmp_path):
        space = unit_space(1)
        ls = LabeledSet.from_accuracies(np.zeros((2, 1)), np.array([0.4, 0.8]), 0.5)
        path = tmp_path / "set.csv"
        save_labeled_set(path, ls, space)
        with pytest.raises(ValueError, match="label invariant"):
            load_labeled_set(path, space, 0.9)



class TestCandidatePool:
    @settings(max_examples=100, deadline=None)
    @given(gp_problems(min_points=2), st.data())
    def test_running_moments_match_predict_batch(self, problem, data):
        """After every append, and with picks taken out in between, the pool's
        moments equal a fresh prediction on its live candidates."""
        x, y, cfg, _ = problem
        assume(unit_kernel_cond(x, cfg) < 1e5)
        k = data.draw(st.integers(1, len(x) - 1), label="prefix")
        candidates = np.random.default_rng(k).random((16, x.shape[1]))
        pool = _CandidatePool(fit(x[:k], y[:k], cfg), candidates, len(x))
        for i in range(k, len(x)):
            if len(pool) > 1 and data.draw(st.booleans(), label="take"):
                pool.take(data.draw(st.integers(0, len(pool) - 1), label="pick"))
            assert pool.add(x[i], y[i])
            mean, var = pool.moments()
            ref_mean, ref_var = predict_batch(pool.post, pool.z[: len(pool)])
            np.testing.assert_allclose(mean, ref_mean, rtol=0, atol=1e-9)
            np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-9)

    def test_take_removes_the_pick(self):
        rng = np.random.default_rng(3)
        post = fit(rng.random((4, 2)), rng.random(4), KernelConfig(np.full(2, 0.4), 0.1))
        candidates = rng.random((5, 2))
        pool = _CandidatePool(post, candidates.copy(), 4)
        picked = pool.take(1)
        np.testing.assert_array_equal(picked, candidates[1])
        assert len(pool) == 4
        assert not np.any(np.all(pool.z[:4] == picked, axis=1))

    @settings(max_examples=100, deadline=None)
    @given(gp_problems(min_points=2), st.data())
    def test_near_duplicate_input_appends_or_refreshes(self, problem, data):
        """A new input 2e-9 from an earlier one puts the new pivot at rounding
        level: the step appends or refits, and gives no NaN."""
        x, y, _, _ = problem
        n, d = x.shape
        j = data.draw(st.integers(0, n - 1), label="near")
        axis = data.draw(st.integers(0, d - 1), label="axis")
        near = x[j].copy()
        near[axis] += 2e-9 if near[axis] < 0.5 else -2e-9
        z = np.vstack([x, near])
        accs = np.append(y, data.draw(st.floats(0.0, 1.0), label="value"))
        cfg = SamplerConfig(budget=n + 2, init_count=n, acquisition_candidates=32)
        rng = np.random.default_rng(n)
        pool = _observe(_refresh(z[:n], accs[:n], cfg, rng), z, accs, cfg, rng)
        assert len(pool.post.inputs) == n + 1
        mean, var = pool.moments()
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
        assert np.all(var >= 0.0)
        mean, var = predict_batch(pool.post, rng.random((8, d)))
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(var))
