import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distrel.rebalance import (
    METHODS,
    cost_sensitive_weights,
    near_miss,
    random_over,
    random_under,
    rebalance,
    smote,
)
from distrel.sampling import LabeledSet
from distrel.space import SearchSpace


def unit_space(d):
    return SearchSpace(
        tuple(f"x{i}" for i in range(d)), np.zeros(d), np.ones(d)
    )


def labeled_from(levels, labels, h=0.5):
    levels = np.atleast_2d(np.asarray(levels, dtype=float))
    labels = np.asarray(labels, dtype=np.int64)
    # synthesize accuracies consistent with the labels
    accs = np.where(labels == 1, h + 0.1, h - 0.1).astype(float)
    accs = np.clip(accs, 0.0, 1.0)
    return LabeledSet(levels=levels, accuracies=accs, labels=labels, threshold=h)


def random_labeled(n, d, positive_rate, seed):
    rng = np.random.default_rng(seed)
    levels = rng.random((n, d))
    labels = (rng.random(n) < positive_rate).astype(np.int64)
    if labels.sum() < 2:  # guarantee a usable minority
        labels[:2] = 1
    if labels.sum() > n - 2:
        labels[-2:] = 0
    return labeled_from(levels, labels)


class TestSmote:
    def test_midpoint_with_pinned_lambda(self):
        ls = labeled_from(
            [[0.0, 0.0], [1.0, 1.0], [0.2, 0.8], [0.9, 0.1], [0.5, 0.1]],
            [1, 1, 0, 0, 0],
        )
        out = smote(ls, unit_space(2), k=1, seed=0, lam=0.5)
        synth = out.levels[out.is_synthetic]
        assert synth.shape == (1, 2)
        np.testing.assert_allclose(synth[0], [0.5, 0.5])

    def test_exact_parity(self):
        ls = random_labeled(60, 3, 0.15, seed=1)
        out = smote(ls, unit_space(3), k=5, seed=2)
        neg, pos = out.class_counts()
        assert neg == pos

    def test_originals_retained_untouched(self):
        ls = random_labeled(40, 2, 0.2, seed=3)
        out = smote(ls, unit_space(2), k=3, seed=4)
        np.testing.assert_array_equal(out.levels[: ls.n], ls.levels)
        np.testing.assert_array_equal(out.labels[: ls.n], ls.labels)
        assert not out.is_synthetic[: ls.n].any()
        assert out.is_synthetic[ls.n :].all()

    def test_synthetics_on_parent_to_neighbor_segments(self):
        # brute-force k-NN oracle over normalized coordinates
        space = unit_space(3)
        ls = random_labeled(50, 3, 0.25, seed=5)
        k = 4
        out = smote(ls, space, k=k, seed=6)
        min_idx = np.flatnonzero(ls.labels == _minority_label(ls))
        z = space.normalize(ls.levels)
        for row in range(ls.n, out.n):
            parent = out.parent_index[row]
            assert parent in min_idx
            d = np.sum((z[min_idx] - z[parent]) ** 2, axis=1)
            d[min_idx == parent] = np.inf
            neighbor_pool = min_idx[np.argsort(d, kind="stable")[:k]]
            assert _on_some_segment(
                out.levels[row], ls.levels[parent], ls.levels[neighbor_pool]
            )

    def test_minority_of_one_rejected_with_guidance(self):
        ls = labeled_from([[0.1, 0.1], [0.4, 0.4], [0.6, 0.6]], [1, 0, 0])
        with pytest.raises(ValueError, match="random_over"):
            smote(ls, unit_space(2), k=5, seed=0)

    def test_balanced_input_unchanged(self):
        ls = labeled_from([[0.1, 0.2], [0.3, 0.4], [0.6, 0.5], [0.8, 0.9]], [1, 1, 0, 0])
        out = smote(ls, unit_space(2), k=1, seed=0)
        assert out.n == 4
        assert not out.is_synthetic.any()

    def test_deterministic(self):
        ls = random_labeled(45, 2, 0.2, seed=7)
        a = smote(ls, unit_space(2), k=3, seed=8)
        b = smote(ls, unit_space(2), k=3, seed=8)
        assert np.array_equal(a.levels, b.levels)

    def test_synthetics_inside_minority_bounding_box(self):
        ls = random_labeled(80, 4, 0.2, seed=9)
        out = smote(ls, unit_space(4), k=5, seed=10)
        minority = ls.levels[ls.labels == _minority_label(ls)]
        synth = out.levels[out.is_synthetic]
        assert np.all(synth >= minority.min(axis=0) - 1e-12)
        assert np.all(synth <= minority.max(axis=0) + 1e-12)


def _minority_label(ls):
    return 1 if ls.positive_count * 2 <= ls.n else 0


def _on_some_segment(point, parent, neighbors, tol=1e-9):
    for nb in np.atleast_2d(neighbors):
        seg = nb - parent
        rel = point - parent
        denom = np.dot(seg, seg)
        if denom == 0.0:
            continue
        lam = np.dot(rel, seg) / denom
        if -tol <= lam <= 1 + tol and np.linalg.norm(rel - lam * seg) <= tol:
            return True
    return False


class TestRandomOver:
    def test_balanced_unchanged(self):
        ls = labeled_from([[0.1], [0.9]], [1, 0])
        out = random_over(ls, seed=0)
        assert out.n == 2
        assert not out.is_synthetic.any()

    def test_duplicates_to_parity(self):
        levels = np.linspace(0, 1, 12)[:, None]
        labels = np.array([1, 1] + [0] * 10)
        ls = labeled_from(levels, labels)
        out = random_over(ls, seed=1)
        neg, pos = out.class_counts()
        assert neg == pos == 10
        dup_rows = out.levels[out.is_synthetic]
        originals = {(0.0,), (float(levels[1, 0]),)}
        for row in dup_rows:
            assert tuple(row) in originals

    def test_same_seed_same_multiset(self):
        ls = random_labeled(30, 2, 0.2, seed=2)
        a = random_over(ls, seed=3)
        b = random_over(ls, seed=3)
        assert np.array_equal(a.levels, b.levels)

    def test_empty_class_rejected(self):
        ls = labeled_from([[0.1], [0.2]], [1, 1])
        with pytest.raises(ValueError, match="non-empty"):
            random_over(ls, seed=0)


class TestRandomUnder:
    def test_downsamples_majority(self):
        levels = np.arange(12)[:, None] / 12.0
        labels = np.array([1, 1] + [0] * 10)
        ls = labeled_from(levels, labels)
        out = random_under(ls, seed=4)
        neg, pos = out.class_counts()
        assert neg == pos == 2
        original_rows = {tuple(r) for r in ls.levels}
        assert all(tuple(r) in original_rows for r in out.levels)

    def test_balanced_unchanged(self):
        ls = labeled_from([[0.1], [0.9]], [1, 0])
        out = random_under(ls, seed=0)
        assert out.n == 2

    def test_deterministic(self):
        ls = random_labeled(40, 3, 0.25, seed=5)
        a = random_under(ls, seed=6)
        b = random_under(ls, seed=6)
        assert np.array_equal(a.levels, b.levels)


class TestNearMiss:
    def test_hand_computed_1d(self):
        # minority {0}; majority {1, 5, 9}; keep 1 -> the closest is 1
        ls = labeled_from([[0.0], [1.0], [5.0], [9.0]], [1, 0, 0, 0], h=0.5)
        space = SearchSpace(("x",), np.array([0.0]), np.array([10.0]))
        out = near_miss(ls, space, k=1)
        neg, pos = out.class_counts()
        assert neg == pos == 1
        kept_majority = out.levels[out.labels == 0]
        np.testing.assert_allclose(kept_majority, [[1.0]])

    def test_equal_counts_unchanged(self):
        ls = labeled_from([[0.1], [0.9]], [1, 0])
        out = near_miss(ls, unit_space(1), k=1)
        assert out.n == 2

    def test_matches_bruteforce_ranking(self):
        space = unit_space(3)
        ls = random_labeled(50, 3, 0.3, seed=7)
        k = 3
        out = near_miss(ls, space, k=k)
        min_idx = np.flatnonzero(ls.labels == _minority_label(ls))
        maj_idx = np.flatnonzero(ls.labels != _minority_label(ls))
        z = space.normalize(ls.levels)
        k_eff = min(k, min_idx.size)
        means = []
        for mi in maj_idx:
            d = np.sort(np.linalg.norm(z[min_idx] - z[mi], axis=1))
            means.append(d[:k_eff].mean())
        order = np.argsort(np.asarray(means), kind="stable")[: min_idx.size]
        expected = set(maj_idx[order].tolist())
        kept = out.levels[out.labels != _minority_label(ls)]
        got = {int(np.flatnonzero((ls.levels == row).all(axis=1))[0]) for row in kept}
        assert got == expected

    def test_no_rng_deterministic(self):
        ls = random_labeled(30, 2, 0.3, seed=8)
        a = near_miss(ls, unit_space(2), k=3)
        b = near_miss(ls, unit_space(2), k=3)
        assert np.array_equal(a.levels, b.levels)


class TestCostSensitive:
    def test_ninety_ten_weights(self):
        labels = np.array([0] * 90 + [1] * 10)
        ls = labeled_from(np.random.default_rng(0).random((100, 2)), labels)
        out = cost_sensitive_weights(ls)
        np.testing.assert_allclose(out.weights[labels == 0], 100 / 180)
        np.testing.assert_allclose(out.weights[labels == 1], 5.0)

    def test_balanced_gives_unit_weights(self):
        ls = labeled_from([[0.1], [0.2], [0.8], [0.9]], [0, 0, 1, 1])
        out = cost_sensitive_weights(ls)
        np.testing.assert_allclose(out.weights, 1.0)

    def test_class_mass_equal(self):
        ls = random_labeled(70, 2, 0.2, seed=9)
        out = cost_sensitive_weights(ls)
        mass0 = out.weights[out.labels == 0].sum()
        mass1 = out.weights[out.labels == 1].sum()
        assert mass0 == pytest.approx(mass1, abs=1e-9)

    def test_no_resampling(self):
        ls = random_labeled(25, 2, 0.3, seed=10)
        out = cost_sensitive_weights(ls)
        assert out.n == ls.n
        assert not out.is_synthetic.any()


class TestDispatcherAndInvariants:
    @pytest.mark.parametrize("method", ["smote", "random-over", "random-under", "near-miss"])
    def test_parity_after_rebalance(self, method):
        ls = random_labeled(60, 3, 0.2, seed=11)
        out = rebalance(ls, method, unit_space(3), seed=12)
        neg, pos = out.class_counts()
        assert neg == pos

    @pytest.mark.parametrize(
        "method", ["none", "smote", "random-over", "random-under", "near-miss", "reweight"]
    )
    def test_real_rows_never_altered(self, method):
        ls = random_labeled(50, 2, 0.25, seed=13)
        out = rebalance(ls, method, unit_space(2), seed=14)
        original = {tuple(r) + (int(l),) for r, l in zip(ls.levels, ls.labels)}
        real_rows = out.levels[~out.is_synthetic]
        real_labels = out.labels[~out.is_synthetic]
        for row, lab in zip(real_rows, real_labels):
            assert tuple(row) + (int(lab),) in original

    def test_unknown_method_rejected(self):
        ls = random_labeled(10, 2, 0.3, seed=15)
        with pytest.raises(ValueError, match="unknown imbalance method"):
            rebalance(ls, "meso", unit_space(2))

    def test_smote_with_one_minority_sample_falls_back_to_random_over(self):
        ls = labeled_from([[0.1, 0.1], [0.4, 0.4], [0.6, 0.6], [0.8, 0.2]], [1, 0, 0, 0])
        out = rebalance(ls, "smote", unit_space(2), seed=3)
        expected = random_over(ls, seed=3)
        np.testing.assert_array_equal(out.levels, expected.levels)
        np.testing.assert_array_equal(out.labels, expected.labels)
        np.testing.assert_array_equal(out.is_synthetic, expected.is_synthetic)
        np.testing.assert_array_equal(out.parent_index, expected.parent_index)
        assert out.class_counts() == (3, 3)
        assert out.provenance == {**expected.provenance, "fallback_from": "smote"}

    def test_smote_fallback_when_the_minority_is_non_reliable(self):
        # the minority may be the non-reliable class
        ls = labeled_from([[0.1], [0.4], [0.6]], [1, 0, 1])
        out = rebalance(ls, "smote", unit_space(1), seed=0)
        assert out.class_counts() == (2, 2)
        assert out.provenance["fallback_from"] == "smote"

    def test_smote_with_empty_minority_still_raises(self):
        ls = labeled_from([[0.1], [0.4], [0.6]], [0, 0, 0])
        with pytest.raises(ValueError, match="SMOTE needs at least 2"):
            rebalance(ls, "smote", unit_space(1), seed=0)

    @pytest.mark.parametrize(
        "method", ["smote", "random-over", "random-under", "near-miss", "reweight"]
    )
    @pytest.mark.parametrize("label", [0, 1])
    def test_single_class_set_names_the_class(self, method, label):
        ls = labeled_from([[0.1], [0.4], [0.6]], [label] * 3)
        with pytest.raises(ValueError, match=f"single class: all 3 labels are {label}") as err:
            rebalance(ls, method, unit_space(1), seed=0)
        assert "fall back" not in str(err.value)

    def test_none_passthrough(self):
        ls = random_labeled(20, 2, 0.3, seed=16)
        out = rebalance(ls, "none", unit_space(2))
        assert out.n == ls.n
        np.testing.assert_allclose(out.weights, 1.0)


@st.composite
def two_class_sets(draw):
    """Random labeled sets of 2..40 levels in 1..4 dimensions, both classes present."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = (rng.random(n) < draw(st.floats(0.0, 1.0))).astype(np.int64)
    first, second = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
    labels[first], labels[second] = 0, 1
    return labeled_from(rng.random((n, d)), labels)


@settings(max_examples=150, deadline=None)
@given(ls=two_class_sets(), method=st.sampled_from(METHODS), seed=st.integers(0, 2**31 - 1))
def test_rebalance_properties(ls, method, seed):
    out = rebalance(ls, method, unit_space(ls.levels.shape[1]), seed=seed)
    real = ~out.is_synthetic
    np.testing.assert_array_equal(out.is_synthetic, out.parent_index >= 0)

    # real rows are rows of the input, values and labels intact, in input order
    pos = 0
    for level, label in zip(out.levels[real], out.labels[real]):
        while pos < ls.n and not (
            np.array_equal(ls.levels[pos], level) and ls.labels[pos] == label
        ):
            pos += 1
        assert pos < ls.n, "a real row is not an input row in input order"
        pos += 1
    if method not in ("random-under", "near-miss"):
        assert real.sum() == ls.n

    neg, pos_count = out.class_counts()
    if method in ("smote", "random-over", "random-under", "near-miss"):
        assert neg == pos_count
    if method == "reweight":
        mass = [out.weights[out.labels == c].sum() for c in (0, 1)]
        assert mass[0] == pytest.approx(mass[1], rel=1e-12)

    if method == "smote":
        minority = ls.levels[ls.labels == _minority_label(ls)]
        for row in np.flatnonzero(out.is_synthetic):
            parent = ls.levels[out.parent_index[row]]
            assert ls.labels[out.parent_index[row]] == out.labels[row]
            assert np.array_equal(out.levels[row], parent) or _on_some_segment(
                out.levels[row], parent, minority
            )
