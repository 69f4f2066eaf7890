"""Pairwise kernels and BLAS thread pinning."""

import numpy as np
import pytest

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

    monkeypatch.setattr(_kernels, "_threadpool_limits", None)
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
