"""Hot numeric kernels in numpy, plus BLAS tuning.

The pairwise kernels use the (|a|^2 + |b|^2) - 2ab expansion so the inner
product runs in BLAS. The image kernels work on a whole (n, H, W, C) stack
at once. The bilinear affine warp shares one set of source coordinates and
weights across the stack and fetches the four corners of every pixel with
one gather per block of images. Rain streaks come in two steps:
``streak_plan`` finds the pixels each streak covers and their blend weights,
once per set of streaks (the caller caches it), and ``render_streaks``
blends only those pixels, one streak index at a time. ``single_threaded_blas``
pins BLAS to one thread for each CLI command, the tight refit/predict loops
and every sampler run. ``nearest_neighbours`` is the blocked k-nearest search.
"""

import contextlib
import ctypes
import functools
import os

import numpy as np

# Always False: every kernel here is plain numpy. Its only reader is the
# machine line that perfbench/run.py prints with each benchmark run.
HAS_NUMBA = False

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
    # A copy already at one thread is left alone: in a forked process any
    # setter call restarts OpenBLAS's thread pool, whose new threads spin.
    changed = [(set_threads, get()) for get, set_threads in controls if get() != 1]
    for set_threads, _ in changed:
        set_threads(1)
    try:
        yield
    finally:
        for set_threads, count in changed:
            set_threads(count)


def single_threaded_blas():
    """Context manager pinning BLAS to one thread, restoring it on exit.

    The tight refit/predict loops issue thousands of small BLAS calls; on
    small shared boxes the per-call thread synchronization costs far more
    than the second core earns, so the loops run with this active. Every
    loaded OpenBLAS is pinned through its own thread-count setter; any other
    BLAS is left alone.
    """
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


_NEAREST_BLOCK = 256  # rows per block of a k-nearest search: block x m distances


def nearest_k(d, k):
    """Column indices of the k smallest entries of each row of ``d``.

    Row i of the (n, k) result holds, in ascending index order, the same set
    as ``np.argsort(d, axis=1, kind="stable")[i, :k]``: distance ties go to
    the lower column index, and NaN ranks after every number, +inf included,
    with NaN ties also going to the lower index. Needs 1 <= k <= d.shape[1].

    No row is sorted. ``np.partition`` finds each row's k-th smallest value;
    every column strictly below it is taken, and columns equal to it are
    taken in index order until k are. That is O(m) per row of m columns
    against O(m log m) for the sort, and no (n, m) index matrix is built. A
    row whose k-th smallest value is NaN falls back to its own stable argsort.
    """
    n, m = d.shape
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    kth = np.partition(d, k - 1, axis=1)[:, k - 1:k]
    take = d <= kth
    # rows with more than k columns at or below the k-th value keep the
    # lowest-index columns equal to it; a NaN k-th value takes none
    over = np.flatnonzero(np.count_nonzero(take, axis=1) != k)
    if over.size:
        sub, sub_kth = d[over], kth[over]
        below = sub < sub_kth
        tied = sub == sub_kth
        room = k - np.count_nonzero(below, axis=1)
        take[over] = below | (tied & (np.cumsum(tied, axis=1) <= room[:, None]))
        for r in over[np.isnan(sub_kth[:, 0])]:
            take[r] = False
            take[r, np.argsort(d[r], kind="stable")[:k]] = True
    return np.flatnonzero(take).reshape(n, k) % m


def nearest_neighbours(a, b, k):
    """``nearest_k(pairwise_sq_dists(a, b), k)``, bit for bit, one block of
    rows of ``a`` at a time: no (len(a), len(b)) distance matrix is built."""
    out = np.empty((a.shape[0], k), dtype=np.int64)
    for start in range(0, a.shape[0], _NEAREST_BLOCK):
        d = pairwise_sq_dists(a[start:start + _NEAREST_BLOCK], b)
        out[start:start + _NEAREST_BLOCK] = nearest_k(d, k)
    return out


# ---------------------------------------------------------------------------
# Image kernels
# ---------------------------------------------------------------------------

# Images per block of the warp: a block's corner gather and blend work on
# about this many float64 elements each, so large stacks stay in cache.
WARP_BLOCK_ELEMENTS = 1 << 15

# offsets of the two corners along an axis: floor and floor + 1
_CORNER_STEP = np.array([[0], [1]])


@functools.lru_cache(maxsize=16)
def _pixel_coords(h, w):
    """Read-only row and column coordinates of every pixel, flat, row-major."""
    rr, cc = np.meshgrid(
        np.arange(h, dtype=np.float64),
        np.arange(w, dtype=np.float64),
        indexing="ij",
    )
    rr, cc = rr.reshape(-1), cc.reshape(-1)
    rr.flags.writeable = cc.flags.writeable = False
    return rr, cc


def affine_bilinear_warp(stack, m00, m01, m02, m10, m11, m12, fill):
    """Inverse-mapped affine warp with bilinear interpolation.

    ``stack`` is (n, H, W, C) float64; every image gets the same map. For each
    destination pixel (r, c) the source position is (sx, sy) = M @ (c, r, 1);
    out-of-frame corners read ``fill``. Coordinates, weights and corner
    indices are computed once and shared by the whole stack.

    The stack is laid out pixels-major, (pixels, n*C), inside a 1-px border
    of ``fill``. Corner indices are clipped to [-1, size], so every
    out-of-frame corner lands on the border, and one ``np.take`` fetches all
    four corners of every image. The image axis is split into blocks of
    about ``WARP_BLOCK_ELEMENTS`` elements; each pixel's blend is the same
    expression whatever the split.
    """
    n, h, w, ch = stack.shape
    rr, cc = _pixel_coords(h, w)
    sx = m00 * cc + m01 * rr + m02
    sy = m10 * cc + m11 * rr + m12
    x0 = np.floor(sx)
    y0 = np.floor(sy)
    fx = (sx - x0)[:, None]
    fy = (sy - y0)[:, None]
    gx = 1.0 - fx
    gy = 1.0 - fy
    # (2, H*W) corner coordinates, clipped and shifted onto the padded frame
    xi = np.clip(x0.astype(np.int64) + _CORNER_STEP, -1, w) + 1
    yi = np.clip(y0.astype(np.int64) + _CORNER_STEP, -1, h) + 1
    corners = (yi[:, None] * (w + 2) + xi[None, :]).reshape(4, -1)

    out = np.empty(stack.shape)
    step = max(WARP_BLOCK_ELEMENTS // (h * w * ch), 1)
    for start in range(0, n, step):
        block = stack[start:start + step]
        b = block.shape[0]
        padded = np.full((h + 2, w + 2, b, ch), fill)
        padded[1:-1, 1:-1] = block.transpose(1, 2, 0, 3)
        p00, p01, p10, p11 = np.take(padded.reshape(-1, b * ch), corners, axis=0)
        # (1 - fx) p00 + fx p01, and so on, worked in place
        top = np.multiply(gx, p00, out=p00)
        top += np.multiply(fx, p01, out=p01)
        bot = np.multiply(gx, p10, out=p10)
        bot += np.multiply(fx, p11, out=p11)
        top *= gy
        bot *= fy
        top += bot
        out[start:start + b] = top.reshape(h, w, b, ch).transpose(2, 0, 1, 3)
    return out


def streak_plan(n, h, w, xs, ys, lengths, dx, dy, value, alpha):
    """Which pixels each streak index touches in a (n, H, W) stack, and how.

    The streak parameters are (n, k), row i for image i. Streak j of image i
    starts at (xs[i, j], ys[i, j]) and runs lengths[i, j] pixels along the
    unit direction (dx[i, j], dy[i, j]) (y grows downward). Its coverage
    falls linearly from 1 on the segment to 0 at 1 px distance, and it blends
    a = alpha * coverage of ``value`` into the pixel.

    Returns one ``(at, keep, add)`` triple per streak index j: the flat
    indices into the n*H*W pixels where some image's streak j has nonzero
    coverage, ``1 - a`` and ``value * a`` there. The coverage of every
    streak is computed at once, over one in-frame window per streak holding
    its segment's bounding box widened by one pixel (outside it the coverage
    is exactly 0); all windows share the largest box's size.
    """
    x1 = xs + lengths * dx
    y1 = ys + lengths * dy
    rows = _window(np.minimum(ys, y1), np.maximum(ys, y1), h)[..., :, None]
    cols = _window(np.minimum(xs, x1), np.maximum(xs, x1), w)[..., None, :]
    x0, y0, length, dx, dy = (v[..., None, None] for v in (xs, ys, lengths, dx, dy))
    rr = rows.astype(np.float64)
    cc = cols.astype(np.float64)
    # a = alpha * max(1 - |p - (p0 + t d)|, 0) with t = clip((p - p0) . d,
    # 0, length), each operation rounding as in that expression, worked in
    # place on two (n, k, m, mc) buffers to keep the peak memory down
    t = (cc - x0) * dx + (rr - y0) * dy
    np.maximum(t, 0.0, out=t)
    np.minimum(t, length, out=t)
    ex = t * dx
    ex += x0
    np.subtract(cc, ex, out=ex)
    ey = np.multiply(t, dy, out=t)
    ey += y0
    np.subtract(rr, ey, out=ey)
    ex *= ex
    ey *= ey
    ex += ey
    cov = np.sqrt(ex, out=ex)
    np.subtract(1.0, cov, out=cov)
    np.maximum(cov, 0.0, out=cov)
    cov *= alpha
    index = (np.arange(n)[:, None, None, None] * h + rows) * w + cols
    plan = []
    for j in range(xs.shape[1]):
        a = cov[:, j]
        hit = a > 0.0
        a = a[hit]
        plan.append((index[:, j][hit], 1.0 - a, value * a))
    return tuple(plan)


def render_streaks(stack, plan):
    """Alpha-blend the streaks of a :func:`streak_plan` into a (n, H, W, C) stack.

    Returns the blended stack; a C-contiguous ``stack`` is blended in place.
    The blend loops over the streak index, so overlapping streaks compose in
    order, and touches only the pixels a streak covers: each becomes
    ``p * (1 - a) + value * a`` in every channel. A pixel with zero coverage
    is left as it is, which is what that expression gives it, except that a
    -0.0 pixel stays -0.0 where the expression would make it +0.0.
    """
    out = np.ascontiguousarray(stack)
    channels = out.reshape(-1, stack.shape[-1]).T
    for at, keep, add in plan:
        channels[:, at] = channels[:, at] * keep + add
    return out


def _window(lo, hi, size):
    """Pixel indices of one in-frame window per entry, all of one length m.

    Entry e's window lies in [0, size - 1] and holds the span
    [floor(lo[e]) - 1, ceil(hi[e]) + 1] clipped to it; m is the longest such
    span. Shape ``lo.shape + (m,)``.
    """
    first = np.maximum(np.floor(lo).astype(np.int64) - 1, 0)
    last = np.minimum(np.ceil(hi).astype(np.int64) + 1, size - 1)
    m = max(int(np.max(last - first)) + 1, 1)
    first = np.minimum(first, size - m)
    return first[..., None] + np.arange(m)
