"""Hot numeric kernels in numpy, plus BLAS tuning.

The pairwise kernels use the (|a|^2 + |b|^2) - 2ab expansion so the inner
product runs in BLAS. The image kernels (bilinear affine warp, rain-streak
rendering) work on one (H, W, C) image at a time. ``single_threaded_blas``
pins BLAS to one thread for the tight refit/predict loops.
"""

import contextlib
import ctypes
import math
import os

import numpy as np

# Always False: every kernel here is plain numpy. Its only reader is the
# machine line that perfbench/run.py prints with each benchmark run.
HAS_NUMBA = False

try:
    from threadpoolctl import threadpool_limits as _threadpool_limits
except ImportError:  # pragma: no cover
    _threadpool_limits = None

# (getter, setter) symbol names exported by the OpenBLAS builds numpy and
# scipy ship: the scipy-openblas wheels (64-bit-integer numpy copy and 32-bit
# scipy copy) and plain system OpenBLAS.
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


def _loaded_openblas_paths() -> list:
    """Paths of the OpenBLAS shared objects mapped into this process (Linux)."""
    try:
        with open("/proc/self/maps") as fh:
            lines = fh.read().splitlines()
    except OSError:
        return []
    paths = []
    for line in lines:
        parts = line.split(None, 5)
        if len(parts) < 6:
            continue
        path = parts[5].strip()
        if "openblas" in os.path.basename(path) and path not in paths:
            paths.append(path)
    return paths


def openblas_thread_controls() -> list:
    """(get_num_threads, set_num_threads) pairs, one per loaded OpenBLAS copy.

    numpy and scipy wheels each bundle their own OpenBLAS, so pinning only one
    of them leaves the other spinning up its thread pool on every call.
    """
    controls = []
    for path in _loaded_openblas_paths():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                getter = getattr(lib, get_name)
                setter = getattr(lib, set_name)
                getter.restype = ctypes.c_int
                getter.argtypes = []
                setter.restype = None
                setter.argtypes = [ctypes.c_int]
                controls.append((getter, setter))
                break
    return controls


@contextlib.contextmanager
def _pinned_openblas(controls):
    previous = [get() for get, _ in controls]
    for _, set_threads in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (_, set_threads), count in zip(controls, previous):
            set_threads(count)


def single_threaded_blas():
    """Context manager pinning BLAS to one thread, restoring it on exit.

    The tight refit/predict loops issue thousands of small BLAS calls; on
    small shared boxes the per-call thread synchronization costs far more
    than the second core earns, so the loops run with this active.
    threadpoolctl is used when installed; otherwise every loaded OpenBLAS is
    pinned through its own thread-count setter. Any other BLAS is left alone.
    """
    if _threadpool_limits is not None:
        return _threadpool_limits(limits=1, user_api="blas")
    return _pinned_openblas(openblas_thread_controls())


# ---------------------------------------------------------------------------
# Pairwise kernels
# ---------------------------------------------------------------------------

def rbf_cross(x, z, lengthscales, variance):
    """Squared-exponential cross-kernel matrix, shape (len(x), len(z)).

    Uses the (|a|^2 + |b|^2) - 2ab expansion so the inner product runs in BLAS;
    cancellation can leave tiny negative squared distances, clamped to 0.
    Works in place on two (n, m) buffers; every step rounds exactly as the
    plain expression ``variance * exp(-0.5 * max(sq, 0))`` would.
    """
    xs = x / lengthscales
    zs = z / lengthscales
    cross = xs @ zs.T
    cross *= 2.0
    sq = np.add(np.sum(xs * xs, axis=1)[:, None], np.sum(zs * zs, axis=1)[None, :])
    sq -= cross
    np.maximum(sq, 0.0, out=sq)
    sq *= -0.5
    np.exp(sq, out=sq)
    sq *= variance
    return sq


def pairwise_sq_dists(a, b):
    """Squared Euclidean distances, shape (len(a), len(b)), clamped >= 0."""
    sq = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    np.maximum(sq, 0.0, out=sq)
    return sq


# ---------------------------------------------------------------------------
# Image kernels
# ---------------------------------------------------------------------------

def affine_bilinear_warp(img, m00, m01, m02, m10, m11, m12, fill):
    """Inverse-mapped affine warp with bilinear interpolation.

    ``img`` is (H, W, C) float64. For each destination pixel (r, c) the source
    position is (sx, sy) = M @ (c, r, 1); out-of-frame corners read ``fill``.
    """
    h, w, ch = img.shape
    rr, cc = np.meshgrid(
        np.arange(h, dtype=np.float64),
        np.arange(w, dtype=np.float64),
        indexing="ij",
    )
    sx = m00 * cc + m01 * rr + m02
    sy = m10 * cc + m11 * rr + m12
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = sx - x0
    fy = sy - y0
    x0i = x0.astype(np.int64)
    y0i = y0.astype(np.int64)

    def corner(yi, xi):
        valid = (yi >= 0) & (yi < h) & (xi >= 0) & (xi < w)
        vals = img[np.clip(yi, 0, h - 1), np.clip(xi, 0, w - 1)]
        return np.where(valid[..., None], vals, fill)

    p00 = corner(y0i, x0i)
    p01 = corner(y0i, x0i + 1)
    p10 = corner(y0i + 1, x0i)
    p11 = corner(y0i + 1, x0i + 1)
    fx3 = fx[..., None]
    fy3 = fy[..., None]
    top = (1.0 - fx3) * p00 + fx3 * p01
    bot = (1.0 - fx3) * p10 + fx3 * p11
    return (1.0 - fy3) * top + fy3 * bot


def render_streaks(img, xs, ys, lengths, angles_deg, value, alpha):
    """Alpha-blend anti-aliased bright line segments into ``img`` in place.

    Streak i starts at (xs[i], ys[i]) and runs lengths[i] pixels at
    angles_deg[i] measured from the horizontal axis (y grows downward).
    Coverage falls linearly from 1 on the segment to 0 at 1 px distance.
    """
    h, w, ch = img.shape
    for i in range(xs.shape[0]):
        x0 = xs[i]
        y0 = ys[i]
        length = lengths[i]
        ang = angles_deg[i] * math.pi / 180.0
        dx = math.cos(ang)
        dy = math.sin(ang)
        x1 = x0 + length * dx
        y1 = y0 + length * dy
        r_lo = max(int(math.floor(min(y0, y1))) - 1, 0)
        r_hi = min(int(math.ceil(max(y0, y1))) + 1, h - 1)
        c_lo = max(int(math.floor(min(x0, x1))) - 1, 0)
        c_hi = min(int(math.ceil(max(x0, x1))) + 1, w - 1)
        if r_lo > r_hi or c_lo > c_hi:
            continue
        rr, cc = np.meshgrid(
            np.arange(r_lo, r_hi + 1, dtype=np.float64),
            np.arange(c_lo, c_hi + 1, dtype=np.float64),
            indexing="ij",
        )
        t = (cc - x0) * dx + (rr - y0) * dy
        t = np.minimum(np.maximum(t, 0.0), length)
        ex = cc - (x0 + t * dx)
        ey = rr - (y0 + t * dy)
        dist = np.sqrt(ex * ex + ey * ey)
        cov = np.maximum(1.0 - dist, 0.0)
        a = (alpha * cov)[..., None]
        patch = img[r_lo : r_hi + 1, c_lo : c_hi + 1]
        img[r_lo : r_hi + 1, c_lo : c_hi + 1] = patch * (1.0 - a) + value * a
    return img
