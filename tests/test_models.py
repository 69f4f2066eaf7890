import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from distrel import _kernels
from distrel.models import (
    KnnModel,
    LogisticModel,
    TreeModel,
    _build_node,
    load_model,
    logistic_loss_and_grad,
    model_from_dict,
    save_model,
    train,
)
from distrel.rebalance import RebalancedSet, rebalance
from distrel.sampling import LabeledSet
from distrel.space import SearchSpace


def unit_space(d):
    return SearchSpace(tuple(f"x{i}" for i in range(d)), np.zeros(d), np.ones(d))


def plain_set(levels, labels, weights=None):
    levels = np.atleast_2d(np.asarray(levels, dtype=float))
    labels = np.asarray(labels, dtype=np.int64)
    n = levels.shape[0]
    return RebalancedSet(
        levels=levels,
        labels=labels,
        weights=np.ones(n) if weights is None else np.asarray(weights, dtype=float),
        is_synthetic=np.zeros(n, dtype=bool),
        parent_index=np.full(n, -1, dtype=np.int64),
        provenance={"method": "test"},
    )


def separable_data(n=40, seed=0):
    rng = np.random.default_rng(seed)
    half = n // 2
    lo = np.clip(rng.normal(0.25, 0.05, (half, 2)), 0.0, 1.0)
    hi = np.clip(rng.normal(0.75, 0.05, (half, 2)), 0.0, 1.0)
    levels = np.vstack([lo, hi])
    labels = np.array([0] * half + [1] * half, dtype=np.int64)
    return plain_set(levels, labels)


class TestLogistic:
    def test_separable_training_accuracy(self):
        data = separable_data()
        model = train("logistic", data, unit_space(2))
        preds = model.predict(data.levels)
        assert np.mean(preds == data.labels) == 1.0

    def test_zero_weights_predict_positive(self):
        # probability exactly 0.5 maps to label 1 by the >= 0.5 convention
        model = LogisticModel([0.0, 0.0], [1.0, 1.0], {}, weights=np.zeros(3), final_grad_norm=0.0)
        assert model.predict([[0.5, 0.5]])[0] == 1

    def test_loads_gradient_descent_model_file(self):
        # files written when the fit took epochs and a learning rate still
        # load, and predict from their weights
        doc = {
            "format_version": 1,
            "kind": "logistic",
            "hyper": {"epochs": 500, "learning_rate": 0.1},
            "params": {"weights": [-1.0, 2.0, 0.0], "final_grad_norm": 0.01},
            "bounds": {"lower": [0.0, 0.0], "upper": [10.0, 10.0]},
        }
        model = model_from_dict(doc)
        # score = -1 + 2 * level[0] / 10
        np.testing.assert_array_equal(model.predict([[4.0, 9.0], [6.0, 0.0]]), [0, 1])
        assert model.to_dict() == doc

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        x = np.hstack([np.ones((30, 1)), rng.random((30, 4))])
        y = (rng.random(30) > 0.6).astype(float)
        w_points = rng.normal(0.0, 1.0, (10, 5))
        sw = rng.random(30) + 0.5
        eps = 1e-6
        for w in w_points:
            loss, grad = logistic_loss_and_grad(w, x, y, sw)
            num = np.empty_like(w)
            for j in range(w.size):
                up = w.copy()
                up[j] += eps
                dn = w.copy()
                dn[j] -= eps
                num[j] = (
                    logistic_loss_and_grad(up, x, y, sw)[0]
                    - logistic_loss_and_grad(dn, x, y, sw)[0]
                ) / (2 * eps)
            denom = max(np.linalg.norm(num), 1e-12)
            assert np.linalg.norm(grad - num) / denom < 1e-5

    def test_loss_monotone_nonincreasing(self):
        rng = np.random.default_rng(2)
        levels = rng.random((60, 3))
        labels = (levels @ np.array([1.0, -2.0, 0.5]) > 0.0).astype(np.int64)
        data = plain_set(levels, labels)
        x = np.hstack([np.ones((60, 1)), levels])
        w = np.zeros(4)
        prev, grad = logistic_loss_and_grad(w, x, labels.astype(float), data.weights)
        for _ in range(200):
            w = w - 0.1 * grad
            loss, grad = logistic_loss_and_grad(w, x, labels.astype(float), data.weights)
            assert loss <= prev + 1e-9
            prev = loss

    def test_weights_shift_decision_boundary(self):
        levels = np.array([[0.1], [0.3], [0.7], [0.9]])
        labels = np.array([0, 0, 1, 1])
        heavy_pos = plain_set(levels, labels, weights=[1.0, 1.0, 50.0, 50.0])
        balanced = plain_set(levels, labels)
        space = unit_space(1)
        m_heavy = train("logistic", heavy_pos, space)
        m_bal = train("logistic", balanced, space)
        p_heavy = m_heavy.predict_proba(np.array([[0.5]]))[0]
        p_bal = m_bal.predict_proba(np.array([[0.5]]))[0]
        assert p_heavy > p_bal

    def test_reports_final_gradient_norm(self):
        model = train("logistic", separable_data(), unit_space(2))
        assert model.final_grad_norm >= 0.0


@st.composite
def two_class_sets(draw):
    """A weighted set of 2-40 levels in the unit cube of 1-6 dimensions with
    both labels; about half are split by a hyperplane, so separable."""
    d = draw(st.integers(1, 6))
    n = draw(st.integers(2, 40))
    unit = st.floats(0.0, 1.0)
    rows = st.lists(st.lists(unit, min_size=d, max_size=d), min_size=n, max_size=n)
    levels = np.array(draw(rows))
    weights = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    if draw(st.booleans()):
        normal = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
        order = np.argsort(levels @ normal, kind="stable")
        labels = np.zeros(n, dtype=np.int64)
        labels[order[draw(st.integers(1, n - 1)):]] = 1
    else:
        labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        labels[:2] = [0, 1]
    return plain_set(levels, labels, weights)


@settings(max_examples=200, deadline=None)
@given(two_class_sets())
# three copies of one level: the Newton step stays at rounding noise over the
# ridge, just above the step test, so the fit ends on its gradient norm
@example(plain_set([[0.75, 1.0, 0.0, 1.0]] * 3, [0, 1, 0], [0.1, 0.75, 0.65625]))
def test_logistic_fit_reaches_penalised_optimum(data):
    model = train("logistic", data, unit_space(data.levels.shape[1]))
    x = np.hstack([np.ones((data.n, 1)), data.levels])
    _, grad = logistic_loss_and_grad(model.weights, x, data.labels.astype(float), data.weights)
    assert model.final_grad_norm <= 1e-8
    assert model.final_grad_norm == np.linalg.norm(grad + 1e-8 * model.weights)


class TestTree:
    def test_single_split_concept(self):
        # label = 1 iff rotation < 30 on a rotation-like axis
        space = SearchSpace(("rotation",), np.array([0.0]), np.array([90.0]))
        levels = np.linspace(0.0, 90.0, 20)[:, None]
        labels = (levels[:, 0] < 30.0).astype(np.int64)
        data = plain_set(levels, labels)
        model = train("tree", data, space)
        assert np.mean(model.predict(levels) == labels) == 1.0
        assert "feature" in model.root
        assert "label" in model.root["left"] and "label" in model.root["right"]

    def test_axis_aligned_concept_within_limits(self):
        rng = np.random.default_rng(3)
        levels = rng.random((120, 2))
        labels = ((levels[:, 0] > 0.5) & (levels[:, 1] > 0.5)).astype(np.int64)
        data = plain_set(levels, labels)
        model = train("tree", data, unit_space(2))
        assert np.mean(model.predict(levels) == labels) == 1.0

    def test_manual_walk_matches_predict(self):
        # trees from random weighted sets, against a walk of one level at a
        # time; probes include every split's threshold, which goes left, and
        # NaN coordinates, which go right
        def walk(node, z):
            while "label" not in node:
                node = node["left"] if z[node["feature"]] <= node["threshold"] else node["right"]
            return node["label"]

        rng = np.random.default_rng(4)
        space = unit_space(3)  # the unit cube, so a probe's level is its z
        for _ in range(10):
            levels = rng.random((200, 3))
            labels = (levels[:, 1] + 0.3 * rng.standard_normal(200) > 0.4).astype(np.int64)
            weights = rng.uniform(0.1, 2.0, 200)
            model = train("tree", plain_set(levels, labels, weights), space)
            root = model.to_dict()["params"]["root"]
            probes = [rng.random((100, 3))]
            nodes = [root]
            while nodes:
                node = nodes.pop()
                if "label" not in node:
                    on_split = rng.random((2, 3))
                    on_split[:, node["feature"]] = node["threshold"]
                    probes.append(on_split)
                    nodes += [node["left"], node["right"]]
            probes = np.vstack(probes)
            assert len(probes) > 110
            probes[rng.random(probes.shape) < 0.05] = np.nan
            manual = [walk(root, z) for z in probes]
            np.testing.assert_array_equal(model.predict(probes), manual)

    def test_respects_weights(self):
        # same majority class by count, flipped by weights
        levels = np.array([[0.1], [0.2], [0.3], [0.8], [0.9]])
        labels = np.array([0, 0, 0, 1, 1])
        data = plain_set(levels, labels, weights=[0.1, 0.1, 0.1, 10.0, 10.0])
        model = train("tree", data, unit_space(1))
        # no split possible (min_leaf=5); the leaf must follow the weighted majority
        assert model.predict([[0.5]])[0] == 1


def reference_gini(w0, w1) -> float:
    total = w0 + w1
    if total <= 0.0:
        return 0.0
    p0 = w0 / total
    p1 = w1 / total
    return 1.0 - p0 * p0 - p1 * p1


def reference_leaf(labels, weights) -> dict:
    w1 = float(weights[labels == 1].sum())
    w0 = float(weights[labels == 0].sum())
    return {"label": 1 if w1 > w0 else 0}


def reference_build_node(z, labels, weights, depth, max_depth, min_leaf) -> dict:
    """The split search as a loop over candidates, one at a time."""
    n = z.shape[0]
    if depth >= max_depth or n < 2 * min_leaf or len(np.unique(labels)) == 1:
        return reference_leaf(labels, weights)

    total_w0 = float(weights[labels == 0].sum())
    total_w1 = float(weights[labels == 1].sum())
    parent = reference_gini(total_w0, total_w1)
    best_gain = 0.0
    best = None
    for j in range(z.shape[1]):
        order = np.argsort(z[:, j], kind="stable")
        vals = z[order, j]
        w = weights[order]
        lab = labels[order]
        cum_w1 = np.cumsum(w * (lab == 1))
        cum_w = np.cumsum(w)
        for i in range(min_leaf - 1, n - min_leaf):
            if vals[i] == vals[i + 1]:
                continue
            lw = cum_w[i]
            lw1 = cum_w1[i]
            rw = cum_w[-1] - lw
            rw1 = cum_w1[-1] - lw1
            frac_l = lw / cum_w[-1]
            child = frac_l * reference_gini(lw - lw1, lw1) + (1 - frac_l) * reference_gini(
                rw - rw1, rw1
            )
            gain = parent - child
            if gain > best_gain + 1e-15:
                best_gain = gain
                best = (j, 0.5 * (vals[i] + vals[i + 1]))
    if best is None:
        return reference_leaf(labels, weights)

    j, threshold = best
    mask = z[:, j] <= threshold
    return {
        "feature": int(j),
        "threshold": float(threshold),
        "left": reference_build_node(
            z[mask], labels[mask], weights[mask], depth + 1, max_depth, min_leaf
        ),
        "right": reference_build_node(
            z[~mask], labels[~mask], weights[~mask], depth + 1, max_depth, min_leaf
        ),
    }


@st.composite
def tree_sets(draw):
    """Two-class sets on a coarse lattice, so many rows tie on a feature."""
    n = draw(st.integers(10, 1200))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(1, 12))
    z = rng.integers(0, steps + 1, (n, d)) / steps
    # duplicated rows, as random over-sampling makes
    dup = rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.8]))
    z[dup] = z[rng.integers(0, n, int(dup.sum()))]
    # a label that follows the lattice, flipped at a drawn rate
    labels = (z.sum(axis=1) > rng.random() * d).astype(np.int64)
    labels ^= (rng.random(n) < draw(st.sampled_from([0.0, 0.1, 0.4]))).astype(np.int64)
    labels[rng.choice(n, 2, replace=False)] = [0, 1]
    if draw(st.booleans()):
        counts = np.bincount(labels, minlength=2).astype(np.float64)
        weights = n / (2.0 * counts[labels])
    else:
        weights = np.ones(n)
    return z, labels, weights


@settings(max_examples=60, deadline=None)
@given(tree_sets(), st.sampled_from([(8, 5), (8, 1), (3, 2), (12, 5)]))
def test_tree_fit_matches_candidate_loop(data, limits):
    z, labels, weights = data
    max_depth, min_leaf = limits
    hyper = {"max_depth": max_depth, "min_leaf": min_leaf}
    got = TreeModel.fit(z, plain_set(z, labels, weights), hyper)["root"]
    want = reference_build_node(z, labels, weights, 0, max_depth, min_leaf)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_tree_keeps_first_of_mirrored_splits():
    # a mirrored label pattern under reweight-style weights: the two mirrored
    # splits have the same gain but for rounding, and the later one comes out
    # larger by less than the 1e-15 margin, so the first one must win
    half = [1, 1, 1, 0, 0, 1, 1, 0, 0, 1]
    labels = np.array(half + half[::-1], dtype=np.int64)
    z = np.linspace(0.0, 1.0, 20)[:, None]
    weights = 20 / (2.0 * np.bincount(labels)[labels])
    root = TreeModel.fit(z, plain_set(z, labels, weights), {"max_depth": 1, "min_leaf": 1})["root"]
    assert root == reference_build_node(z, labels, weights, 0, 1, 1)
    assert root["threshold"] == pytest.approx(2.5 / 19)


@st.composite
def node_sets(draw):
    """Sets of about ``2 * min_leaf`` rows or more, on a coarse lattice so
    values tie, with unit, reweight-style or arbitrary positive weights."""
    min_leaf = draw(st.integers(1, 6))
    n = draw(st.one_of(st.integers(max(2, 2 * min_leaf - 1), 2 * min_leaf + 3),
                       st.integers(2 * min_leaf, 300)))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(1, 8))
    z = rng.integers(0, steps + 1, (n, d)) / steps
    labels = (z.sum(axis=1) > rng.random() * d).astype(np.int64)
    labels ^= (rng.random(n) < draw(st.sampled_from([0.0, 0.2]))).astype(np.int64)
    labels[rng.choice(n, 2, replace=False)] = [0, 1]
    weighting = draw(st.sampled_from(["unit", "reweight", "random"]))
    if weighting == "unit":
        weights = np.ones(n)
    elif weighting == "reweight":
        weights = n / (2.0 * np.bincount(labels, minlength=2)[labels])
    else:
        weights = rng.random(n) * 3.0 + 0.05
    return z, labels, weights, min_leaf


@settings(max_examples=150, deadline=None)
@given(node_sets(), st.integers(1, 8))
def test_build_node_matches_per_feature_loop(data, max_depth):
    # every feature scored at once must pick what the loop over features picks
    z, labels, weights, min_leaf = data
    got = _build_node(z, labels, weights, 0, max_depth, min_leaf)
    want = reference_build_node(z, labels, weights, 0, max_depth, min_leaf)
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


@st.composite
def knn_cases(draw):
    """Lattice points with duplicated training rows, so distances tie; level
    counts around multiples of the 256-level block; k up to past m."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 40))
    d = draw(st.integers(1, 4))
    span = draw(st.integers(1, 4))
    points = rng.integers(0, span + 1, (m, d)) / span
    dup = rng.random(m) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    points[dup] = points[rng.integers(0, m, int(dup.sum()))]
    n = draw(st.one_of(st.sampled_from([1, 255, 256, 257, 512, 700]), st.integers(1, 600)))
    levels = rng.integers(0, span + 1, (n, d)) / span
    if draw(st.booleans()):
        levels = levels + rng.normal(0.0, 0.01, levels.shape)
    labels = rng.integers(0, 2, m)
    return points, labels, levels, draw(st.integers(1, m + 3))


@pytest.mark.parametrize("threads", [1, 2])
@settings(max_examples=100, deadline=None)
@given(knn_cases())
def test_knn_blocks_match_one_distance_matrix(threads, openblas_threads, case):
    points, labels, levels, k = case
    kk = min(k, points.shape[0])
    with openblas_threads(threads):
        got = knn_model(points, labels, k).predict(levels)
        d = _kernels.pairwise_sq_dists(levels, points)
        votes = labels[_kernels.nearest_k(d, kk)].sum(axis=1)
    np.testing.assert_array_equal(got, (2 * votes > kk).astype(np.int64))


def knn_model(levels, labels, k):
    """A k-NN model on the unit cube, as a model file with this ``k`` loads."""
    levels = np.asarray(levels, dtype=float)
    d = levels.shape[1]
    return KnnModel(np.zeros(d), np.ones(d), {"k": k}, points=levels, labels=labels)


class TestKnn:
    def test_k1_reproduces_training_labels(self):
        rng = np.random.default_rng(5)
        levels = rng.random((30, 2))
        labels = (rng.random(30) > 0.5).astype(np.int64)
        model = knn_model(levels, labels, k=1)
        np.testing.assert_array_equal(model.predict(levels), labels)

    def test_tie_goes_to_zero(self):
        levels = np.array([[0.4, 0.5], [0.6, 0.5]])
        labels = np.array([0, 1])
        model = knn_model(levels, labels, k=2)
        assert model.predict([[0.5, 0.5]])[0] == 0

    def test_majority_vote(self):
        levels = np.array([[0.45], [0.5], [0.55], [0.95], [0.05]])
        labels = np.array([1, 1, 1, 0, 0])
        model = knn_model(levels, labels, k=3)
        assert model.predict([[0.5]])[0] == 1


class TestCommon:
    def test_single_class_rejected(self):
        data = plain_set([[0.1], [0.9]], [1, 1])
        for kind in ("logistic", "tree", "knn"):
            with pytest.raises(ValueError, match="single class"):
                train(kind, data, unit_space(1))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown model kind"):
            train("mlp", plain_set([[0.1], [0.9]], [0, 1]), unit_space(1))

    def test_dimension_mismatch_at_predict(self):
        model = train("knn", plain_set([[0.1], [0.9]], [0, 1]), unit_space(1))
        with pytest.raises(ValueError, match="dimension"):
            model.predict([[0.1, 0.2]])

    @pytest.mark.parametrize("kind", ["logistic", "tree", "knn"])
    def test_serialization_roundtrip(self, kind, tmp_path):
        rng = np.random.default_rng(6)
        levels = rng.random((40, 2))
        labels = (levels[:, 0] > 0.5).astype(np.int64)
        model = train(kind, plain_set(levels, labels), unit_space(2))
        path = tmp_path / f"{kind}.json"
        save_model(path, model)
        again = load_model(path)
        probes = rng.random((25, 2))
        np.testing.assert_array_equal(model.predict(probes), again.predict(probes))
        text = path.read_text()
        assert text.endswith("}\n") and not text.endswith("\n\n")
        doc = json.loads(text)
        assert doc["format_version"] == 1
        assert doc["kind"] == kind
        assert "bounds" in doc

    def test_rejects_unknown_format_version(self):
        with pytest.raises(ValueError, match="format version"):
            model_from_dict({"format_version": 99, "kind": "knn"})

    @pytest.mark.parametrize("kind", ["logistic", "tree", "knn"])
    def test_deterministic_predictions(self, kind):
        rng = np.random.default_rng(7)
        ls = LabeledSet.from_accuracies(
            rng.random((50, 2)), rng.random(50), 0.6
        )
        data = rebalance(ls, "reweight" if kind != "knn" else "none", unit_space(2))
        model = train(kind, data, unit_space(2))
        probes = rng.random((30, 2))
        a = model.predict(probes)
        b = model.predict(probes)
        np.testing.assert_array_equal(a, b)
