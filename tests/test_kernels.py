"""Pairwise kernels and BLAS thread pinning."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distrel import _kernels

needs_openblas = pytest.mark.skipif(
    not _kernels.openblas_thread_controls(),
    reason="no OpenBLAS thread-control symbol loaded in this process",
)


def test_pairwise_sq_dists_never_negative():
    rng = np.random.default_rng(5)
    a = rng.random((50, 4))
    d = _kernels.pairwise_sq_dists(np.ascontiguousarray(a), np.ascontiguousarray(a))
    assert d.min() >= 0.0
    assert np.allclose(np.diag(d), 0.0, atol=1e-12)


@needs_openblas
def test_single_threaded_blas_pins_every_openblas_and_restores():
    controls = _kernels.openblas_thread_controls()
    original = [get() for get, _ in controls]
    try:
        for _, set_threads in controls:
            set_threads(2)
        before = [get() for get, _ in controls]
        with _kernels.single_threaded_blas():
            assert [get() for get, _ in controls] == [1] * len(controls)
        assert [get() for get, _ in controls] == before
    finally:
        for (_, set_threads), count in zip(controls, original):
            set_threads(count)


def test_pin_leaves_copies_at_one_thread_alone(monkeypatch):
    # in a forked worker any setter call restarts OpenBLAS's thread pool
    counts = [1, 2]
    calls = []

    def control(i):
        def set_threads(n):
            calls.append((i, n))
            counts[i] = n
        return (lambda: counts[i]), set_threads

    monkeypatch.setattr(_kernels, "openblas_thread_controls", lambda: [control(0), control(1)])
    with _kernels.single_threaded_blas():
        assert counts == [1, 1]
    assert counts == [1, 2]
    assert calls == [(1, 1), (1, 2)]


def test_rbf_cross_matches_plain_expression():
    # the in-place evaluation must round exactly like the textbook expression
    rng = np.random.default_rng(6)
    x = rng.random((37, 6))
    z = rng.random((53, 6))
    ls = rng.random(6) * 0.4 + 0.05
    xs, zs = x / ls, z / ls
    sq = (
        np.sum(xs * xs, axis=1)[:, None]
        + np.sum(zs * zs, axis=1)[None, :]
        - 2.0 * (xs @ zs.T)
    )
    expected = 0.7 * np.exp(-0.5 * np.maximum(sq, 0.0))
    assert np.array_equal(_kernels.rbf_cross(x, z, ls, 0.7), expected)


def reference_nearest_k(d, k):
    return np.sort(np.argsort(d, axis=1, kind="stable")[:, :k], axis=1)


@st.composite
def distance_matrices(draw):
    """Squared distances from integer-valued points, so exact ties are common,
    with duplicated training rows and optionally NaN and inf entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(1, 60))
    n = draw(st.integers(1, 40))
    dim = draw(st.integers(1, 3))
    span = draw(st.integers(1, 4))
    points = rng.integers(-span, span + 1, (m, dim)).astype(np.float64)
    dup = rng.random(m) < draw(st.sampled_from([0.0, 0.5, 0.9]))
    points[dup] = points[rng.integers(0, m, int(dup.sum()))]
    queries = rng.integers(-span, span + 1, (n, dim)).astype(np.float64)
    d = _kernels.pairwise_sq_dists(queries, points)
    for value in (np.nan, np.inf):
        d[rng.random(d.shape) < draw(st.sampled_from([0.0, 0.1, 0.6]))] = value
    return d, draw(st.integers(1, m)), draw(st.integers(1, n + 1))


@settings(max_examples=300, deadline=None)
@given(distance_matrices())
def test_nearest_k_matches_stable_argsort(case):
    d, k, block = case
    got = _kernels.nearest_k(d, k, block)
    np.testing.assert_array_equal(got, reference_nearest_k(d, k))


def test_nearest_k_ties_go_to_lower_index():
    d = np.array([[1.0, 0.0, 1.0, 1.0, 0.0, 1.0], [np.nan, 2.0, np.nan, np.inf, np.nan, 1.0]])
    np.testing.assert_array_equal(_kernels.nearest_k(d, 3), [[0, 1, 4], [1, 3, 5]])
    np.testing.assert_array_equal(_kernels.nearest_k(d, 4), [[0, 1, 2, 4], [0, 1, 3, 5]])


@pytest.mark.parametrize("k", [0, 4])
def test_nearest_k_rejects_k_outside_columns(k):
    with pytest.raises(ValueError, match="k must be in"):
        _kernels.nearest_k(np.zeros((2, 3)), k)
