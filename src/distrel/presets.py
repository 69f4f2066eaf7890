"""Named configuration presets.

Threshold presets mirror the per-dataset reliability cutoffs used in the
original experiments; the synthetic benchmark presets pin oracle geometry so
the standard runs are a single command.
"""

import math

import numpy as np

from distrel.distortion import distortion_space
from distrel.oracles import SyntheticOracleSpec, _unit_ball_volume

# Reliability threshold h per dataset preset.
THRESHOLD_PRESETS = {
    "mnist": 0.90,
    "fashion": 0.75,
    "cifar10": 0.85,
    "cifar100": 0.65,
    "tiny-imagenet": 0.45,
    "imagenette": 0.70,
}

BENCHMARK_H = THRESHOLD_PRESETS["cifar10"]


def benchmark_oracle_spec(
    h: float = BENCHMARK_H, peak: float = 0.99, positive_fraction: float = 0.03
) -> SyntheticOracleSpec:
    """Single smooth accuracy bump over the distortion space.

    Centered mid-box with semi-axes solved so the region {accuracy >= h}
    occupies exactly ``positive_fraction`` of the box volume. The default 3%
    makes random sampling produce a heavily imbalanced training set.
    """
    space = distortion_space()
    d = space.dim
    if not 0.0 < h < peak <= 1.0:
        raise ValueError(f"need 0 < h < peak <= 1, got h={h}, peak={peak}")
    a = (positive_fraction / _unit_ball_volume(d)) ** (1.0 / d)
    if a >= 0.5:
        raise ValueError(
            f"positive_fraction {positive_fraction} does not fit inside the box"
        )
    r = math.sqrt(math.log(peak / h))
    center = (space.lowers + space.uppers) / 2.0
    scales = a * space.ranges / r
    return SyntheticOracleSpec(
        kind="ellipsoid",
        space=space,
        centers=center[None, :],
        scales=scales[None, :],
        peaks=np.array([peak]),
    )


def box_oracle_spec(
    h: float = BENCHMARK_H, positive_fraction: float = 0.03,
    inside_value: float = 0.99, outside_value: float = 0.5,
) -> SyntheticOracleSpec:
    """Piecewise-constant oracle: a centered sub-box of the given volume."""
    space = distortion_space()
    half = 0.5 * positive_fraction ** (1.0 / space.dim)
    center = (space.lowers + space.uppers) / 2.0
    return SyntheticOracleSpec(
        kind="box",
        space=space,
        box_lower=center - half * space.ranges,
        box_upper=center + half * space.ranges,
        inside_value=inside_value,
        outside_value=outside_value,
    )


def multimodal_oracle_spec(h: float = BENCHMARK_H, peak: float = 0.99) -> SyntheticOracleSpec:
    """Two disjoint bumps separated along the scale axis.

    Interior ellipsoids that do not touch are necessarily small in a
    six-dimensional box, so the combined positive fraction is well under 1%.
    """
    space = distortion_space()
    r = math.sqrt(math.log(peak / h))
    half_widths = np.array([0.1, 0.45, 0.45, 0.3, 0.3, 0.3])
    centers_z = np.array(
        [
            [0.25, 0.5, 0.5, 0.5, 0.5, 0.5],
            [0.75, 0.5, 0.5, 0.5, 0.5, 0.5],
        ]
    )
    centers = space.lowers + centers_z * space.ranges
    scales = np.vstack([half_widths, half_widths]) * space.ranges / r
    return SyntheticOracleSpec(
        kind="multimodal",
        space=space,
        centers=centers,
        scales=scales,
        peaks=np.array([peak, peak]),
    )


ORACLE_PRESETS = {
    "benchmark": benchmark_oracle_spec,
    "box": box_oracle_spec,
    "multimodal": multimodal_oracle_spec,
}
