"""Apply a six-dimensional distortion level to a raster image.

Stages run in a fixed order: affine warp (scale about the image center,
rotation about the center, translation), then a darkness multiply, then a
procedural rain overlay. Images are numpy float arrays in [0, 1], either
(H, W) grayscale or (H, W, 3); positive rotation turns the image content
counter-clockwise as displayed.

``distort_set`` is the one distortion path: it stacks a set of same-shape
images into (n, H, W, C), runs each stage once over the whole stack and
returns the distorted stack. Image i's rain streaks come from seed
``rain_seed + i``. The streaks of a whole set depend only on the rain seed,
the number of images, the streak count and the image size, never on the
pixels or the other five coordinates. So each image's streak parameters are
drawn once, and so is each set's rain plan (the pixels every streak covers
and their blend weights); both live in bounded caches of read-only arrays.

The warp's degree-exact trig is ``scipy.special``'s, imported on the first
warp. It calls no BLAS, so it may load inside a BLAS pin.
"""

import functools
import math

import numpy as np

from distrel import _kernels
from distrel.space import SearchSpace

DISTORTION_DIMS = (
    ("scale", 0.7, 1.3),
    ("rotation", 0.0, 90.0),
    ("translate_x", -0.2, 0.2),
    ("translate_y", -0.2, 0.2),
    ("darkness", 0.7, 1.3),
    ("rain", 0.0, 1.0),
)

RAIN_DENSITY = 0.02  # streaks per pixel at rain = 1
RAIN_VALUE = 0.85
RAIN_ALPHA = 0.6
RAIN_LENGTH = (8.0, 12.0)
RAIN_ANGLE_DEG = (70.0, 80.0)


def distortion_space() -> SearchSpace:
    """The canonical six-dimension search space."""
    return SearchSpace(
        names=tuple(d[0] for d in DISTORTION_DIMS),
        lowers=np.array([d[1] for d in DISTORTION_DIMS]),
        uppers=np.array([d[2] for d in DISTORTION_DIMS]),
    )


# distort_set checks levels against this one instance; distortion_space()
# still builds a fresh space for each caller
_SPACE = distortion_space()


def identity_level() -> np.ndarray:
    """The level at which every stage is a no-op."""
    return np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def _as_stack(images) -> np.ndarray:
    """Validate same-shape images and return them as one (n, H, W, C) array."""
    if not isinstance(images, np.ndarray):
        shapes = sorted({np.shape(im) for im in images})
        if len(shapes) > 1:
            raise ValueError(f"images must all have one shape, got shapes {shapes}")
    stack = np.asarray(images, dtype=np.float64)
    if stack.ndim == 3:
        stack = stack[..., None]
    shape = stack.shape[1:]
    if stack.ndim != 4 or shape[2] not in (1, 3):
        raise ValueError(
            f"image must be (H, W), (H, W, 1) or (H, W, 3), got shape {shape}"
        )
    if shape[0] < 1 or shape[1] < 1:
        raise ValueError(f"image must have positive size, got shape {shape}")
    return stack


def check_pixel_range(images) -> None:
    """Raise ValueError unless every pixel value lies in [0, 1] (NaN does not)."""
    if images.size and not (images.min() >= 0.0 and images.max() <= 1.0):
        raise ValueError("pixel values must lie in [0, 1]")


def _inverse_affine(width, height, scale, rotation_deg, tx, ty):
    """Coefficients mapping destination (x, y) back to source coordinates."""
    # imported on use: only image oracles warp, and the other commands never load scipy
    from scipy.special import cosdg, sindg

    cx = (width - 1) / 2.0
    cy = (height - 1) / 2.0
    shift_x = cx + tx * width
    shift_y = cy + ty * height
    # Forward map: p' = R S (p - ctr) + ctr + t. R rotates content CCW on
    # screen (y grows downward); degree-exact trig keeps 90 deg lattice-exact.
    c = float(cosdg(rotation_deg))
    s = float(sindg(rotation_deg))
    m00 = c / scale
    m01 = -s / scale
    m10 = s / scale
    m11 = c / scale
    b0 = cx - (m00 * shift_x + m01 * shift_y)
    b1 = cy - (m10 * shift_x + m11 * shift_y)
    return m00, m01, b0, m10, m11, b1


@functools.lru_cache(maxsize=4096)
def _rain_draws(seed: int, n_streaks: int, width: int, height: int) -> np.ndarray:
    """One image's streaks: read-only (5, n_streaks) rows x, y, length, cos, sin."""
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, width, n_streaks)
    ys = rng.uniform(0.0, height, n_streaks)
    lengths = rng.uniform(*RAIN_LENGTH, n_streaks)
    angles = rng.uniform(*RAIN_ANGLE_DEG, n_streaks)
    # scalar trig per streak: np.cos/np.sin may round differently
    rad = [a * math.pi / 180.0 for a in angles]
    draws = np.array(
        [xs, ys, lengths, [math.cos(r) for r in rad], [math.sin(r) for r in rad]]
    )
    draws.flags.writeable = False
    return draws


@functools.lru_cache(maxsize=16)
def _rain_plan(rain_seed: int, n: int, n_streaks: int, width: int, height: int) -> tuple:
    """The rain of a set of n images, as ``_kernels.streak_plan`` returns it.

    Every array is read-only. A plan holds 24 bytes (an index, ``1 - a`` and
    ``RAIN_VALUE * a``) per pixel that a streak covers. With the streak
    lengths and angles above, a streak's window holds at most 16 x 9 pixels,
    so a plan is at most 3456 * n * n_streaks bytes: 11 MB for 200 images of
    28 x 28 with 16 streaks, where the plans measure 1.3 MB (about 18 covered
    pixels per streak). The cache keeps the 16 latest plans, so it holds at
    most 16 times the largest plan.
    """
    draws = np.stack(
        [_rain_draws(rain_seed + i, n_streaks, width, height) for i in range(n)],
        axis=1,
    )
    plan = _kernels.streak_plan(n, height, width, *draws, RAIN_VALUE, RAIN_ALPHA)
    for arrays in plan:
        for a in arrays:
            a.flags.writeable = False
    return plan


def apply_distortion(img, level, rain_seed: int = 0) -> np.ndarray:
    """Distort one image; deterministic given (img, level, rain_seed)."""
    return distort_set([img], level, rain_seed)[0]


def distort_set(images, level, rain_seed: int = 0, check_pixels: bool = True):
    """Distort same-shape images at one level in one pass over their stack.

    Image i uses rain seed ``rain_seed + i``. Returns the distorted images as
    one (n, *image shape) array, or ``[]`` when there are none. Images of
    different shapes, or pixel values outside [0, 1], raise ``ValueError``.
    ``check_pixels=False`` skips the pixel check, for a stack whose range was
    checked once when it was built (``oracles.VerificationSet``).
    """
    level = _SPACE.validate_level(level)
    scale, rotation, tx, ty, darkness, rain = level
    if len(images) == 0:
        return []
    stack = _as_stack(images)
    if check_pixels:
        check_pixel_range(stack)
    n, height, width = stack.shape[:3]

    m00, m01, b0, m10, m11, b1 = _inverse_affine(width, height, scale, rotation, tx, ty)
    out = _kernels.affine_bilinear_warp(stack, m00, m01, b0, m10, m11, b1, 0.0)

    out *= darkness
    np.clip(out, 0.0, 1.0, out=out)

    n_streaks = int(np.rint(rain * RAIN_DENSITY * width * height))
    if n_streaks > 0:
        plan = _rain_plan(rain_seed, n, n_streaks, width, height)
        out = _kernels.render_streaks(out, plan)

    return out.reshape((n, *np.shape(images[0])))
