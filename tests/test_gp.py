import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from distrel import _kernels
from distrel.gp import (
    GpPosterior,
    KernelConfig,
    append,
    fit,
    median_heuristic_lengthscales,
    predict_batch,
)


def kernel_eval(a, b, cfg: KernelConfig) -> float:
    """The reference kernel: k(a, b) = signal_variance * exp(-1/2 * sum_j ((a_j-b_j)/l_j)^2)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (cfg.dim,) or b.shape != (cfg.dim,):
        raise ValueError(
            f"kernel_eval dimension mismatch: got {a.shape} and {b.shape}, "
            f"kernel has {cfg.dim} lengthscales"
        )
    t = (a - b) / cfg.lengthscales
    return float(cfg.signal_variance * np.exp(-0.5 * np.dot(t, t)))


def dense_solve_oracle(x, y, lengthscales, variance, jitter, probes):
    """Brute-force GP prediction: explicit kernel loops plus np.linalg.solve."""
    x = np.asarray(x, dtype=float)
    probes = np.atleast_2d(probes)
    n = x.shape[0]
    k = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            t = (x[i] - x[j]) / lengthscales
            k[i, j] = variance * np.exp(-0.5 * np.dot(t, t))
    k_reg = k + jitter * np.eye(n)
    means, variances = [], []
    for p in probes:
        kv = np.array(
            [variance * np.exp(-0.5 * np.sum(((x[i] - p) / lengthscales) ** 2)) for i in range(n)]
        )
        sol = np.linalg.solve(k_reg, kv)
        means.append(kv @ np.linalg.solve(k_reg, np.asarray(y, dtype=float)))
        variances.append(variance - kv @ sol)
    return np.array(means), np.array(variances)


def smooth_targets(x):
    return 0.5 + 0.4 * np.sin(2.0 * x[:, 0]) * np.cos(x[:, 1] * 1.5)


class TestKernelEval:
    def test_zero_distance_is_signal_variance(self):
        cfg = KernelConfig(np.ones(3), 1.0)
        c = np.array([0.3, 0.4, 0.5])
        assert kernel_eval(c, c, cfg) == 1.0

    def test_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(7)
        cfg = KernelConfig(rng.random(4) + 0.2, 1.3)
        for _ in range(50):
            a, b = rng.random(4), rng.random(4)
            assert kernel_eval(a, b, cfg) == pytest.approx(kernel_eval(b, a, cfg), abs=0)

    def test_one_lengthscale_offset(self):
        # a = 0, b = lengthscale along the first axis: exp(-1/2)
        ls = np.array([0.7, 1.0, 2.0])
        cfg = KernelConfig(ls, 1.0)
        a = np.zeros(3)
        b = np.array([0.7, 0.0, 0.0])
        assert kernel_eval(a, b, cfg) == pytest.approx(np.exp(-0.5), abs=1e-12)

    def test_dimension_mismatch_names_both(self):
        cfg = KernelConfig(np.ones(3), 1.0)
        with pytest.raises(ValueError, match=r"\(2,\).*\(3,\)|\(3,\).*\(2,\)"):
            kernel_eval(np.zeros(2), np.zeros(3), cfg)

    def test_matches_rbf_cross(self):
        # the reference agrees with the program's kernel matrix, entry by entry
        rng = np.random.default_rng(11)
        cfg = KernelConfig(rng.random(4) + 0.2, 1.7)
        x, z = rng.random((6, 4)), rng.random((5, 4))
        k = _kernels.rbf_cross(x, z, cfg.lengthscales, cfg.signal_variance)
        for i in range(6):
            for j in range(5):
                assert k[i, j] == pytest.approx(kernel_eval(x[i], z[j], cfg), rel=1e-12)

    def test_bounded_by_signal_variance(self):
        rng = np.random.default_rng(8)
        cfg = KernelConfig(np.full(5, 0.3), 2.5)
        for _ in range(100):
            v = kernel_eval(rng.random(5), rng.random(5), cfg)
            assert 0.0 < v <= 2.5


class TestFit:
    def test_single_point_alpha(self):
        cfg = KernelConfig(np.ones(2), 1.0, jitter=1e-10)
        gp = fit([[0.2, 0.8]], [0.5], cfg)
        assert gp.inputs.shape[0] == 1
        # alpha = K^-1 y = L^-T (L^-1 y), with L = sqrt(1 + jitter)
        alpha = gp.white[0] / gp.chol[0, 0]
        assert alpha == pytest.approx(0.5 / (1.0 + 1e-10), rel=1e-12)

    def test_factorization_reconstructs_kernel(self):
        rng = np.random.default_rng(9)
        x = rng.random((10, 3))
        cfg = KernelConfig(np.full(3, 0.5), 1.0, jitter=1e-10)
        gp = fit(x, rng.random(10), cfg)
        k = np.empty((10, 10))
        for i in range(10):
            for j in range(10):
                k[i, j] = kernel_eval(x[i], x[j], cfg)
        rebuilt = gp.chol @ gp.chol.T
        np.testing.assert_allclose(rebuilt, k + gp.jitter_used * np.eye(10), atol=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.random((12, 4))
        y = rng.random(12)
        cfg = KernelConfig(np.full(4, 0.4), 0.8, jitter=1e-9)
        gp1 = fit(x, y, cfg)
        perm = rng.permutation(12)
        gp2 = fit(x[perm], y[perm], cfg)
        probes = rng.random((20, 4))
        m1, v1 = predict_batch(gp1, probes)
        m2, v2 = predict_batch(gp2, probes)
        np.testing.assert_allclose(m1, m2, atol=1e-10)
        np.testing.assert_allclose(v1, v2, atol=1e-10)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        x = rng.random((8, 3))
        y = rng.random(8)
        cfg = KernelConfig(np.full(3, 0.3), 1.0)
        gp1 = fit(x, y, cfg)
        gp2 = fit(x, y, cfg)
        assert np.array_equal(gp1.chol, gp2.chol)
        assert np.array_equal(gp1.white, gp2.white)


class TestPredict:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(12)
        x = rng.random((15, 6))
        y = smooth_targets(x)
        cfg = KernelConfig(np.full(6, 0.5), 1.0, jitter=1e-10)
        gp = fit(x, y, cfg)
        for i in range(15):
            mean, var = predict_batch(gp, x[i][None])
            assert abs(mean[0] - y[i]) <= 1e-6
            assert var[0] <= 1e-6

    def test_far_point_recovers_prior(self):
        cfg = KernelConfig(np.full(2, 0.01), 0.7, jitter=1e-10)
        gp = fit([[0.0, 0.0]], [0.9], cfg)
        # 10+ lengthscales away in every coordinate
        _, var = predict_batch(gp, np.array([[0.5, 0.5]]))
        assert abs(var[0] - 0.7) <= 1e-4

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(13)
        x = rng.random((5, 3))
        y = rng.random(5)
        ls = np.full(3, 0.6)
        cfg = KernelConfig(ls, 1.2, jitter=1e-8)
        gp = fit(x, y, cfg)
        probes = rng.random((7, 3))
        mean, var = predict_batch(gp, probes)
        # the jitter is relative to the signal variance
        m_ref, v_ref = dense_solve_oracle(x, y, ls, 1.2, 1.2 * gp.jitter_used, probes)
        np.testing.assert_allclose(mean, m_ref, atol=1e-8)
        np.testing.assert_allclose(var, np.maximum(v_ref, 0.0), atol=1e-8)

    def test_dimension_mismatch(self):
        gp = fit([[0.1, 0.2]], [0.5], KernelConfig(np.ones(2), 1.0))
        with pytest.raises(ValueError, match="dimension"):
            predict_batch(gp, np.array([[0.1, 0.2, 0.3]]))

    def test_variance_nonnegative_everywhere(self):
        rng = np.random.default_rng(14)
        x = rng.random((20, 4))
        cfg = KernelConfig(np.full(4, 0.2), 1.0, jitter=1e-10)
        gp = fit(x, rng.random(20), cfg)
        _, var = predict_batch(gp, rng.random((200, 4)))
        assert var.min() >= 0.0

    def test_adding_point_never_increases_variance(self):
        rng = np.random.default_rng(15)
        x = rng.random((10, 3))
        y = rng.random(10)
        extra = rng.random(3)
        cfg = KernelConfig(np.full(3, 0.4), 1.0, jitter=1e-10)
        gp_small = fit(x, y, cfg)
        gp_big = fit(np.vstack([x, extra]), np.append(y, 0.5), cfg)
        probes = rng.random((50, 3))
        _, v_small = predict_batch(gp_small, probes)
        _, v_big = predict_batch(gp_big, probes)
        assert np.all(v_big <= v_small + 1e-8)


class TestMedianHeuristic:
    def test_two_points(self):
        ls = median_heuristic_lengthscales(np.array([[0.0], [1.0]]))
        np.testing.assert_allclose(ls, [1.0])

    def test_three_points_enumerated(self):
        # pairwise diffs {0.5, 1.0, 0.5} -> median 0.5
        ls = median_heuristic_lengthscales(np.array([[0.0], [0.5], [1.0]]))
        np.testing.assert_allclose(ls, [0.5])

    def test_constant_dimension_floors(self):
        pts = np.array([[0.3, 0.1], [0.3, 0.9], [0.3, 0.4]])
        ls = median_heuristic_lengthscales(pts)
        assert ls[0] == pytest.approx(1e-3)
        assert ls[1] > 1e-3

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2"):
            median_heuristic_lengthscales(np.array([[1.0, 2.0]]))


class TestKernelConfigValidation:
    def test_rejects_nonpositive_lengthscale(self):
        with pytest.raises(ValueError, match="lengthscales"):
            KernelConfig(np.array([1.0, 0.0]), 1.0)

    def test_rejects_nonpositive_variance(self):
        with pytest.raises(ValueError, match="signal_variance"):
            KernelConfig(np.ones(2), 0.0)

    def test_rejects_negative_jitter(self):
        with pytest.raises(ValueError, match="jitter"):
            KernelConfig(np.ones(2), 1.0, jitter=-1e-3)


@st.composite
def gp_problems(draw, min_points=1):
    """A GP on n = min_points-30 distinct points of the unit cube in d = 1-6
    dimensions, with drawn targets, lengthscales and signal variance, and
    1-8 probes."""
    d = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0)
    point = st.lists(unit, min_size=d, max_size=d).map(tuple)
    x = np.array(draw(st.lists(point, min_size=min_points, max_size=30, unique=True)))
    y = np.array(draw(st.lists(unit, min_size=len(x), max_size=len(x))))
    ls = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=d, max_size=d)))
    variance = draw(st.floats(0.05, 2.0))
    probes = np.array(draw(st.lists(point, min_size=1, max_size=8)))
    return x, y, KernelConfig(ls, variance), probes


def unit_kernel_cond(x, cfg):
    """Condition number of R + jitter I, R the unit-variance kernel matrix."""
    t = (x[:, None, :] - x[None, :, :]) / cfg.lengthscales
    r = np.exp(-0.5 * np.sum(t * t, axis=2))
    return np.linalg.cond(r + cfg.jitter * np.eye(len(x)))


@settings(max_examples=200, deadline=None)
@given(gp_problems())
def test_predict_batch_matches_dense_solve(problem):
    x, y, cfg, probes = problem
    cond = unit_kernel_cond(x, cfg)
    assume(cond < 1e8)
    gp = fit(x, y, cfg)
    mean, var = predict_batch(gp, probes)
    m_ref, v_ref = dense_solve_oracle(
        x, y, cfg.lengthscales, cfg.signal_variance,
        cfg.signal_variance * gp.jitter_used, probes,
    )
    # Both sides solve the same system, signal_variance * (R + jitter I), by
    # backward-stable methods, Cholesky with triangular solves against LU, so
    # each is off the exact answer by about n * cond * eps on targets in
    # [0, 1] and variances up to the signal variance. The factor 1e3 is a
    # margin over the largest ratio seen in 8000 seeded draws, about 130.
    tol = 1e3 * len(x) * cond * np.finfo(float).eps * max(1.0, cfg.signal_variance)
    np.testing.assert_allclose(mean, m_ref, rtol=0, atol=tol)
    np.testing.assert_allclose(var, np.maximum(v_ref, 0.0), rtol=0, atol=tol)


@settings(max_examples=200, deadline=None)
@given(gp_problems(min_points=2), st.data())
def test_append_matches_fit(problem, data):
    """Growing a prefix fit one point at a time gives the factor, the mean and
    the variance of fitting the whole set at once."""
    x, y, cfg, probes = problem
    # rounding moves both sides by about n * cond * eps; this bound keeps
    # that under the 1e-9 tolerance
    assume(unit_kernel_cond(x, cfg) < 1e5)
    k = data.draw(st.integers(1, len(x) - 1), label="prefix")
    grown = fit(x[:k], y[:k], cfg)
    for i in range(k, len(x)):
        grown = append(grown, x[i], y[i])
        assert grown is not None
    full = fit(x, y, cfg)
    assert grown.jitter_used == full.jitter_used
    np.testing.assert_array_equal(grown.inputs, full.inputs)
    np.testing.assert_array_equal(grown.targets, full.targets)
    np.testing.assert_allclose(grown.chol, full.chol, rtol=0, atol=1e-9)
    for got, want in zip(predict_batch(grown, probes), predict_batch(full, probes)):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def test_append_refuses_a_non_positive_pivot():
    # an exact repeat without jitter leaves a zero pivot, up to rounding
    cfg = KernelConfig(np.full(2, 0.3), 1.0, jitter=1e-10)
    gp = fit([[0.2, 0.4], [0.7, 0.1]], [0.3, 0.8], cfg)
    gp = GpPosterior(gp.inputs, gp.targets, gp.kernel, gp.chol, gp.white, jitter_used=-1e-6)
    assert append(gp, [0.2, 0.4], 0.3) is None
