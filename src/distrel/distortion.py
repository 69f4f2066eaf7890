"""Apply a six-dimensional distortion level to a raster image.

Stages run in a fixed order: affine warp (scale about the image center,
rotation about the center, translation), then a darkness multiply, then a
procedural rain overlay. Images are numpy float arrays in [0, 1], either
(H, W) grayscale or (H, W, 3); positive rotation turns the image content
counter-clockwise as displayed.
"""

import numpy as np
from scipy.special import cosdg, sindg

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


def identity_level() -> np.ndarray:
    """The level at which every stage is a no-op."""
    return np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


def _as_3d(img) -> np.ndarray:
    img = np.asarray(img, dtype=np.float64)
    if img.ndim == 2:
        img = img[:, :, None]
    if img.ndim != 3 or img.shape[2] not in (1, 3):
        raise ValueError(
            f"image must be (H, W), (H, W, 1) or (H, W, 3), got shape {img.shape}"
        )
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise ValueError(f"image must have positive size, got shape {img.shape}")
    if img.size and (img.min() < 0.0 or img.max() > 1.0):
        raise ValueError("pixel values must lie in [0, 1]")
    return np.ascontiguousarray(img)


def _inverse_affine(width, height, scale, rotation_deg, tx, ty):
    """Coefficients mapping destination (x, y) back to source coordinates."""
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


def apply_distortion(img, level, rain_seed: int = 0) -> np.ndarray:
    """Distort one image; deterministic given (img, level, rain_seed)."""
    level = distortion_space().validate_level(level)
    scale, rotation, tx, ty, darkness, rain = level
    src = _as_3d(img)
    height, width = src.shape[:2]

    m00, m01, b0, m10, m11, b1 = _inverse_affine(width, height, scale, rotation, tx, ty)
    out = _kernels.affine_bilinear_warp(src, m00, m01, b0, m10, m11, b1, 0.0)

    out = np.clip(out * darkness, 0.0, 1.0)

    n_streaks = int(np.rint(rain * RAIN_DENSITY * width * height))
    if n_streaks > 0:
        rng = np.random.default_rng(rain_seed)
        xs = rng.uniform(0.0, width, n_streaks)
        ys = rng.uniform(0.0, height, n_streaks)
        lengths = rng.uniform(*RAIN_LENGTH, n_streaks)
        angles = rng.uniform(*RAIN_ANGLE_DEG, n_streaks)
        out = _kernels.render_streaks(
            np.ascontiguousarray(out), xs, ys, lengths, angles, RAIN_VALUE, RAIN_ALPHA
        )

    if np.asarray(img).ndim == 2:
        return out[:, :, 0]
    return out


def distort_set(images, level, rain_seed: int = 0) -> list:
    """Element-wise distortion; image i uses rain seed ``rain_seed + i``."""
    return [apply_distortion(im, level, rain_seed + i) for i, im in enumerate(images)]

