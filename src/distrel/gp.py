"""Gaussian-process regression over the distortion search space.

Squared-exponential kernel with per-dimension lengthscales, zero prior mean,
exact inference through a Cholesky factorization. Inputs are expected on the
unit cube (the sampler normalizes before fitting). There is no
observation-noise term: accuracy evaluation is deterministic here, and a small
diagonal jitter alone keeps the factorization stable.

The jitter is relative to the signal variance, so L factors the unit-variance
matrix R + jitter * I: the mean does not depend on the signal variance and the
variance scales with it, so the signal level can change without a refactor.
``append`` adds one input in O(n^2), one row of L and of L^-1 y (Rasmussen &
Williams, 2006, Alg. 2.1). ``_predict_raw`` alone turns a posterior and points
into moments, for ``predict_batch`` and for the sampler's candidate pool.

``fit`` checks call shapes only. Its two data preconditions are each enforced
once, where they can arise: inputs are distinct (the sampler draws its first
ones uniformly, and ``sampling.suggest_next`` keeps each later pick more than
1e-9 from earlier inputs), and targets are accuracies in [0, 1]
(``oracles.query`` and ``oracles.evaluate_many`` refuse any other answer).

This is the one module that needs ``scipy.linalg``, and it imports it at
the top. ``sampling`` imports this module only when the GP sampler runs;
``run_gp_sampling``, ``evaluation._experiment`` and ``cli.main`` import it
before they pin BLAS or fork.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cholesky, solve_triangular
from scipy.linalg.blas import dtrsm

from distrel import _kernels

JITTER_CEILING = 1e-4
LENGTHSCALE_FLOOR = 1e-3


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential kernel hyperparameters; ``jitter`` is relative to
    ``signal_variance``."""

    lengthscales: np.ndarray
    signal_variance: float
    jitter: float = 1e-10

    def __post_init__(self):
        object.__setattr__(
            self, "lengthscales", np.asarray(self.lengthscales, dtype=np.float64)
        )
        if self.lengthscales.ndim != 1 or self.lengthscales.size == 0:
            raise ValueError("lengthscales must be a non-empty 1-D array")
        if not np.all(self.lengthscales > 0):
            raise ValueError(f"lengthscales must be > 0, got {self.lengthscales}")
        if not self.signal_variance > 0:
            raise ValueError(f"signal_variance must be > 0, got {self.signal_variance}")
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")

    @property
    def dim(self) -> int:
        return self.lengthscales.size


@dataclass(frozen=True)
class GpPosterior:
    """Fitted posterior: training data plus its Cholesky factorization.

    ``chol`` is the lower-triangular L with L @ L.T = R + jitter_used * I,
    where R = K / signal_variance is the unit-variance kernel matrix, and
    ``white`` = L^-1 @ targets.
    """

    inputs: np.ndarray
    targets: np.ndarray
    kernel: KernelConfig
    chol: np.ndarray
    white: np.ndarray
    jitter_used: float


def fit(points, values, cfg: KernelConfig) -> GpPosterior:
    """Fit the GP to observed (point, value) pairs.

    Escalates the diagonal jitter by factors of 10 (up to ``JITTER_CEILING``)
    if the Cholesky factorization fails, then gives up. Preconditions, not
    checked here: the points are distinct, as ``sampling.suggest_next``
    guarantees, and the values lie in [0, 1], as the oracle boundary in
    ``oracles`` guarantees.
    """
    x = np.ascontiguousarray(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    y = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.shape[0] != y.shape[0]:
        raise ValueError(f"{x.shape[0]} points but {y.shape[0]} values")
    if x.shape[0] < 1:
        raise ValueError("need at least one training point")
    if x.shape[1] != cfg.dim:
        raise ValueError(
            f"points have dimension {x.shape[1]}, kernel has {cfg.dim}"
        )

    r = _kernels.rbf_cross(x, x, cfg.lengthscales, 1.0)
    jitter = cfg.jitter if cfg.jitter > 0 else 1e-10
    eye = np.eye(x.shape[0])
    while True:
        try:
            lower = cholesky(r + jitter * eye, lower=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            if jitter >= JITTER_CEILING:
                raise np.linalg.LinAlgError(
                    f"Cholesky factorization failed even with jitter {jitter:g}"
                )
            jitter *= 10.0
    white = solve_triangular(lower, y, lower=True, check_finite=False)
    return GpPosterior(
        inputs=x, targets=y, kernel=cfg, chol=lower, white=white, jitter_used=jitter
    )


def append(gp: GpPosterior, point, value):
    """``gp`` with one more observation (``fit``'s preconditions hold), in
    O(n^2); or None when the new pivot is not positive, the point being too
    close to the inputs for the jitter: refit then, as ``fit`` escalates it."""
    n = gp.inputs.shape[0]
    x = np.asarray(point, dtype=np.float64).reshape(1, -1)
    r = _kernels.rbf_cross(gp.inputs, x, gp.kernel.lengthscales, 1.0)[:, 0]
    row = solve_triangular(gp.chol, r, lower=True, check_finite=False)
    pivot = 1.0 + gp.jitter_used - row @ row
    if not pivot > 0.0:
        return None
    pivot = np.sqrt(pivot)
    chol = np.zeros((n + 1, n + 1), order="F")  # the column order fit's factor has
    chol[:n, :n] = gp.chol
    chol[n, :n] = row
    chol[n, n] = pivot
    return GpPosterior(
        inputs=np.vstack([gp.inputs, x]),
        targets=np.append(gp.targets, value),
        kernel=gp.kernel,
        chol=chol,
        white=np.append(gp.white, (value - row @ gp.white) / pivot),
        jitter_used=gp.jitter_used,
    )


def _predict_raw(gp: GpPosterior, z: np.ndarray) -> tuple:
    """Unvalidated moments at each row of ``z`` (float64, C-contiguous (m, d)):
    the mean, the unit variance 1 - |v|^2 (over the signal variance, not yet
    clamped at 0) and V = L^-1 R(inputs, z), one column v per point."""
    r = _kernels.rbf_cross(gp.inputs, z, gp.kernel.lengthscales, 1.0)
    # solved as X L^T = R^T for X = V^T: R^T is already in BLAS's column order
    v = dtrsm(1.0, gp.chol, r.T, side=1, lower=1, trans_a=1, overwrite_b=1).T
    return v.T @ gp.white, 1.0 - np.einsum("ij,ij->j", v, v), v


def predict_batch(gp: GpPosterior, points) -> tuple:
    """Posterior mean and variance at each row of ``points``.

    mean = k_*^T K^-1 f, variance = k(c,c) - k_*^T K^-1 k_* clamped at 0.
    """
    z = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if z.shape[1] != gp.kernel.dim:
        raise ValueError(
            f"query dimension {z.shape[1]} != posterior dimension {gp.kernel.dim}"
        )
    mean, unit_var, _ = _predict_raw(gp, np.ascontiguousarray(z))
    return mean, gp.kernel.signal_variance * np.maximum(unit_var, 0.0)


def median_heuristic_lengthscales(points) -> np.ndarray:
    """Per-dimension median of pairwise absolute coordinate differences.

    Dimensions where all points coincide get the floor value instead of 0.
    """
    x = np.atleast_2d(np.asarray(points, dtype=np.float64))
    n, d = x.shape
    if n < 2:
        raise ValueError("median heuristic needs at least 2 points")
    iu, ju = np.triu_indices(n, k=1)
    out = np.empty(d)
    for j in range(d):
        out[j] = np.median(np.abs(x[iu, j] - x[ju, j]))
    return np.maximum(out, LENGTHSCALE_FLOOR)
