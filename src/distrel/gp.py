"""Gaussian-process regression over the distortion search space.

Squared-exponential kernel with per-dimension lengthscales, zero prior mean,
exact inference through a Cholesky factorization. Inputs are expected on the
unit cube (the sampler normalizes before fitting). There is no
observation-noise term: accuracy evaluation is deterministic here, and a small
diagonal jitter alone keeps the factorization stable.

``fit`` checks call shapes only. Its two data preconditions are each enforced
once, where they can arise: inputs are distinct (the sampler draws its first
ones uniformly, and ``sampling.suggest_next`` keeps each later pick more than
1e-9 from earlier inputs), and targets are accuracies in [0, 1]
(``oracles.query`` and ``oracles.evaluate_many`` refuse any other answer).
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky
from scipy.linalg.lapack import dtrtri

from distrel import _kernels

JITTER_CEILING = 1e-4
LENGTHSCALE_FLOOR = 1e-3


@dataclass(frozen=True)
class KernelConfig:
    """Squared-exponential kernel hyperparameters."""

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

    ``chol`` is the lower-triangular L with L @ L.T = K + jitter_used * I and
    ``alpha`` solves (K + jitter_used * I) @ alpha = targets. ``chol_inv``
    caches L^-1 so batched variance reduces to one matrix product.
    """

    inputs: np.ndarray
    targets: np.ndarray
    kernel: KernelConfig
    chol: np.ndarray
    alpha: np.ndarray
    chol_inv: np.ndarray
    jitter_used: float


def kernel_eval(a, b, cfg: KernelConfig) -> float:
    """k(a, b) = signal_variance * exp(-1/2 * sum_j ((a_j-b_j)/l_j)^2)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != (cfg.dim,) or b.shape != (cfg.dim,):
        raise ValueError(
            f"kernel_eval dimension mismatch: got {a.shape} and {b.shape}, "
            f"kernel has {cfg.dim} lengthscales"
        )
    t = (a - b) / cfg.lengthscales
    return float(cfg.signal_variance * np.exp(-0.5 * np.dot(t, t)))


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

    k = _kernels.rbf_cross(x, x, cfg.lengthscales, cfg.signal_variance)
    jitter = cfg.jitter if cfg.jitter > 0 else 1e-10
    eye = np.eye(x.shape[0])
    while True:
        try:
            lower = cholesky(k + jitter * eye, lower=True, check_finite=False)
            break
        except np.linalg.LinAlgError:
            if jitter >= JITTER_CEILING:
                raise np.linalg.LinAlgError(
                    f"Cholesky factorization failed even with jitter {jitter:g}"
                )
            jitter *= 10.0
    alpha = cho_solve((lower, True), y, check_finite=False)
    lower_inv, info = dtrtri(lower, lower=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular inversion failed (info={info})")
    return GpPosterior(
        inputs=x, targets=y, kernel=cfg, chol=lower,
        alpha=alpha, chol_inv=np.ascontiguousarray(lower_inv), jitter_used=jitter,
    )


def _predict_raw(gp: GpPosterior, z: np.ndarray) -> tuple:
    """Unvalidated batch prediction; ``z`` must be float64, C-contiguous (m, d)."""
    kstar = _kernels.rbf_cross(
        gp.inputs, z, gp.kernel.lengthscales, gp.kernel.signal_variance
    )  # (t, m)
    mean = kstar.T @ gp.alpha
    v = gp.chol_inv @ kstar
    var = gp.kernel.signal_variance - np.einsum("ij,ij->j", v, v)
    np.maximum(var, 0.0, out=var)
    return mean, var


def predict_batch(gp: GpPosterior, points) -> tuple:
    """Posterior mean and variance at each row of ``points``.

    mean = k_*^T K^-1 f, variance = k(c,c) - k_*^T K^-1 k_* clamped at 0.
    """
    z = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if z.shape[1] != gp.kernel.dim:
        raise ValueError(
            f"query dimension {z.shape[1]} != posterior dimension {gp.kernel.dim}"
        )
    return _predict_raw(gp, np.ascontiguousarray(z))


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
