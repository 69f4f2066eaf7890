import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distrel import _kernels, distortion
from distrel.distortion import (
    DISTORTION_DIMS,
    apply_distortion,
    distort_set,
    distortion_space,
    identity_level,
)


def level(scale=1.0, rotation=0.0, tx=0.0, ty=0.0, darkness=1.0, rain=0.0):
    return np.array([scale, rotation, tx, ty, darkness, rain])


def checkerboard(h, w, seed=0):
    rng = np.random.default_rng(seed)
    return rng.random((h, w))


class TestIdentity:
    def test_identity_level_bit_exact_gray(self):
        img = checkerboard(12, 9)
        out = apply_distortion(img, identity_level())
        assert np.array_equal(out, img)

    def test_identity_level_bit_exact_rgb(self):
        rng = np.random.default_rng(1)
        img = rng.random((8, 10, 3))
        out = apply_distortion(img, identity_level())
        assert np.array_equal(out, img)


class TestDarkness:
    def test_pure_multiply(self):
        img = np.ones((6, 6))
        out = apply_distortion(img, level(darkness=0.7))
        np.testing.assert_array_equal(out, np.full((6, 6), 0.7))

    def test_brighten_clamps(self):
        img = np.full((4, 4), 0.9)
        out = apply_distortion(img, level(darkness=1.3))
        np.testing.assert_array_equal(out, np.ones((4, 4)))

    def test_darken_never_increases(self):
        img = checkerboard(10, 10, seed=2)
        out = apply_distortion(img, level(darkness=0.8))
        assert np.all(out <= img + 1e-15)


class TestRotation:
    def test_quarter_turn_matches_hand_enumeration(self):
        img = np.arange(1, 17, dtype=np.float64).reshape(4, 4) / 16.0
        out = apply_distortion(img, level(rotation=90.0))
        # content turns counter-clockwise on screen; destination (r, c)
        # samples source (row=c, col=3-r), enumerated by hand:
        expected = (
            np.array(
                [
                    [4.0, 8.0, 12.0, 16.0],
                    [3.0, 7.0, 11.0, 15.0],
                    [2.0, 6.0, 10.0, 14.0],
                    [1.0, 5.0, 9.0, 13.0],
                ]
            )
            / 16.0
        )
        np.testing.assert_array_equal(out, expected)

    def test_rotation_preserves_shape(self):
        img = checkerboard(7, 11)
        out = apply_distortion(img, level(rotation=33.0))
        assert out.shape == img.shape


class TestAffineBounds:
    def test_outputs_stay_in_convex_hull_of_input_and_fill(self):
        rng = np.random.default_rng(3)
        space = distortion_space()
        img = 0.25 + 0.5 * rng.random((9, 9))  # values in [0.25, 0.75]
        for _ in range(25):
            lv = space.denormalize(rng.random(6))
            lv[4] = 1.0  # isolate the affine stage
            lv[5] = 0.0
            out = apply_distortion(img, lv)
            assert out.min() >= 0.0  # fill value
            assert out.max() <= img.max() + 1e-12

    def test_out_of_bounds_level_names_dimension(self):
        img = checkerboard(4, 4)
        with pytest.raises(ValueError, match="rotation"):
            apply_distortion(img, level(rotation=120.0))


class TestRain:
    def test_zero_rain_identical_to_skipping(self):
        img = checkerboard(16, 16, seed=4)
        out = apply_distortion(img, level(darkness=0.9, rain=0.0), rain_seed=9)
        ref = np.clip(img * 0.9, 0.0, 1.0)
        assert np.array_equal(out, ref)

    def test_rain_is_deterministic_per_seed(self):
        img = checkerboard(20, 20, seed=5)
        a = apply_distortion(img, level(rain=0.8), rain_seed=3)
        b = apply_distortion(img, level(rain=0.8), rain_seed=3)
        c = apply_distortion(img, level(rain=0.8), rain_seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rain_brightens_dark_image(self):
        img = np.zeros((20, 20))
        out = apply_distortion(img, level(rain=1.0), rain_seed=0)
        assert out.max() > 0.3
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_streak_count_scales_with_rain(self):
        img = np.zeros((20, 20))
        lo = apply_distortion(img, level(rain=0.2), rain_seed=1)
        hi = apply_distortion(img, level(rain=1.0), rain_seed=1)
        assert (hi > 0).sum() > (lo > 0).sum()


class TestDistortSet:
    def test_empty_list(self):
        assert distort_set([], level()) == []

    def test_identity_returns_inputs(self):
        imgs = [checkerboard(6, 6, seed=i) for i in range(3)]
        outs = distort_set(imgs, identity_level())
        for a, b in zip(outs, imgs):
            assert np.array_equal(a, b)

    def test_per_image_seeds_differ(self):
        imgs = [np.zeros((16, 16))] * 4
        outs = distort_set(imgs, level(rain=1.0), rain_seed=0)
        for a, b in zip(outs, outs[1:]):
            assert not np.array_equal(a, b)

    def test_mixed_shapes_rejected_with_shapes(self):
        imgs = [np.zeros((6, 6)), np.zeros((6, 7)), np.zeros((6, 6, 1))]
        with pytest.raises(ValueError, match=r"\(6, 6\), \(6, 6, 1\), \(6, 7\)"):
            distort_set(imgs, level())

    @pytest.mark.parametrize("bad", [-0.01, 1.01, np.nan])
    def test_pixels_outside_unit_range_rejected(self, bad):
        img = checkerboard(6, 6)
        img[2, 3] = bad
        with pytest.raises(ValueError, match=r"pixel values must lie in \[0, 1\]"):
            distort_set([img], level())
        with pytest.raises(ValueError, match=r"pixel values must lie in \[0, 1\]"):
            apply_distortion(img, level())

    def test_rain_draws_are_cached_read_only(self):
        draws = distortion._rain_draws(3, 5, 16, 16)
        assert draws is distortion._rain_draws(3, 5, 16, 16)
        assert draws.shape == (5, 5)
        with pytest.raises(ValueError, match="read-only"):
            draws[0, 0] = 1.0

    def test_returns_one_stack(self):
        imgs = [checkerboard(6, 5, seed=i) for i in range(3)]
        out = distort_set(imgs, level(rotation=10.0, rain=1.0))
        assert isinstance(out, np.ndarray) and out.shape == (3, 6, 5)
        assert distort_set(np.zeros((2, 4, 4, 3)), level()).shape == (2, 4, 4, 3)

    def test_levels_checked_without_building_a_space(self, monkeypatch):
        def no_space():
            raise AssertionError("space built")

        monkeypatch.setattr(distortion, "distortion_space", no_space)
        distort_set([checkerboard(4, 4)], level(rain=0.5))
        with pytest.raises(ValueError, match="rotation"):
            distort_set([checkerboard(4, 4)], level(rotation=120.0))

    def test_distortion_space_is_fresh_each_call(self):
        a, b = distortion_space(), distortion_space()
        assert a is not b and a.lowers is not b.lowers

    @pytest.mark.parametrize("channels", [(), (3,)], ids=["gray", "rgb"])
    def test_shared_warp_gives_the_same_bits_and_stays_unchanged(self, channels):
        # one warp serves levels that differ only in darkness and rain
        imgs = np.random.default_rng(15).random((3, 11, 9, *channels))
        warped = distortion.warp_set(imgs, level(1.2, 30.0, 0.1, -0.05, 0.8, 0.0))
        before = warped.copy()
        for darkness, rain in ((0.7, 1.0), (1.3, 0.0), (1.0, 0.6), (0.7, 1.0)):
            lv = level(1.2, 30.0, 0.1, -0.05, darkness, rain)
            got = distort_set(imgs, lv, rain_seed=4, warped=warped)
            want = distort_set(imgs, lv, rain_seed=4)
            assert got.shape == want.shape == imgs.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert np.array_equal(warped.view(np.uint64), before.view(np.uint64))

    def test_warp_set_checks_the_level(self):
        with pytest.raises(ValueError, match="rotation=120 outside"):
            distortion.warp_set([checkerboard(4, 4)], level(rotation=120.0))

    def test_deterministic(self):
        imgs = [checkerboard(10, 10, seed=i) for i in range(3)]
        lv = level(scale=1.1, rotation=15.0, rain=0.5)
        a = distort_set(imgs, lv, rain_seed=7)
        b = distort_set(imgs, lv, rain_seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestRainPlan:
    def test_same_streak_count_shares_one_plan(self):
        # 16 x 16 at rain 0.9 and at rain 1.0 both draw rint(4.6) = rint(5.1) = 5
        # streaks; rain seed 987_654 is used by no other test
        images = np.random.default_rng(14).random((3, 16, 16))
        before = distortion._rain_plan.cache_info()
        outs = [distort_set(images, level(rotation=20.0, rain=r), 987_654) for r in (0.9, 1.0)]
        after = distortion._rain_plan.cache_info()
        assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
        for r, out in zip((0.9, 1.0), outs):
            for i, img in enumerate(images):
                want = reference_distortion(img, level(rotation=20.0, rain=r), 987_654 + i)
                assert np.array_equal(out[i].view(np.uint64), want.view(np.uint64))

    def test_plan_arrays_are_read_only(self):
        plan = distortion._rain_plan(5, 2, 3, 12, 10)
        assert plan is distortion._rain_plan(5, 2, 3, 12, 10)
        assert len(plan) == 3
        for at, keep, add in plan:
            assert at.shape == keep.shape == add.shape
            for a in (at, keep, add):
                with pytest.raises(ValueError, match="read-only"):
                    a[...] = 0

    def test_cache_is_bounded(self):
        size = distortion._rain_plan.cache_info().maxsize
        assert isinstance(size, int) and size > 0
        for seed in range(size + 3):
            distortion._rain_plan(10_000 + seed, 1, 1, 4, 4)
        assert distortion._rain_plan.cache_info().currsize == size


class TestProperties:
    def test_output_range_and_shape_random_levels(self):
        rng = np.random.default_rng(6)
        space = distortion_space()
        img = rng.random((14, 10, 3))
        for _ in range(20):
            lv = space.denormalize(rng.random(6))
            out = apply_distortion(img, lv, rain_seed=int(rng.integers(100)))
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0



# ---------------------------------------------------------------------------
# Reference: the per-image path distort_set replaced. Each image is warped,
# darkened and rained on alone, one streak at a time, with its own generator.
# ---------------------------------------------------------------------------

def _reference_warp(img, m00, m01, m02, m10, m11, m12, fill):
    h, w, ch = img.shape
    rr, cc = np.meshgrid(
        np.arange(h, dtype=np.float64), np.arange(w, dtype=np.float64), indexing="ij"
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


def _reference_streaks(img, xs, ys, lengths, angles_deg, value, alpha):
    h, w, ch = img.shape
    for i in range(xs.shape[0]):
        x0, y0, length = xs[i], ys[i], lengths[i]
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


def reference_distortion(img, lv, rain_seed):
    scale, rotation, tx, ty, darkness, rain = lv
    src = img if img.ndim == 3 else img[:, :, None]
    height, width = src.shape[:2]
    coeffs = distortion._inverse_affine(width, height, scale, rotation, tx, ty)
    out = _reference_warp(src, *coeffs, 0.0)
    out = np.clip(out * darkness, 0.0, 1.0)
    n_streaks = int(np.rint(rain * distortion.RAIN_DENSITY * width * height))
    if n_streaks > 0:
        rng = np.random.default_rng(rain_seed)
        xs = rng.uniform(0.0, width, n_streaks)
        ys = rng.uniform(0.0, height, n_streaks)
        lengths = rng.uniform(*distortion.RAIN_LENGTH, n_streaks)
        angles = rng.uniform(*distortion.RAIN_ANGLE_DEG, n_streaks)
        out = _reference_streaks(
            out, xs, ys, lengths, angles, distortion.RAIN_VALUE, distortion.RAIN_ALPHA
        )
    return out if img.ndim == 3 else out[:, :, 0]


# odd, non-square, grayscale and RGB; 28 x 28 at rain 1 draws 16 streaks
SHAPES = [(28, 28), (16, 16), (9, 9), (7, 13), (13, 7), (1, 1), (2, 30),
          (28, 28, 3), (16, 16, 3), (5, 11, 3), (9, 9, 1), (11, 6, 1)]

# each coordinate anywhere in its range, its ends included (rotation 90, rain 0
# and 1)
levels = st.tuples(
    *(
        st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
        for _, lo, hi in DISTORTION_DIMS
    )
).map(np.array)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from(SHAPES),
    n=st.integers(1, 6),
    pixel_seed=st.integers(0, 2**32 - 1),
    lv=levels,
    rain_seed=st.integers(0, 2**31),
)
def test_distort_set_bit_identical_to_per_image_reference(
    shape, n, pixel_seed, lv, rain_seed
):
    images = np.random.default_rng(pixel_seed).random((n, *shape))
    got = distort_set(list(images), lv, rain_seed)
    assert len(got) == n
    for i, (img, out) in enumerate(zip(images, got)):
        want = reference_distortion(img, lv, rain_seed + i)
        assert out.shape == want.shape
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))


# maps that send whole rows and columns far outside the frame: translations
# up to 3 image sizes, and the extreme scales
_warp_maps = st.tuples(
    st.one_of(st.sampled_from([0.7, 1.3]), st.floats(0.7, 1.3)),
    st.floats(0.0, 90.0),
    st.one_of(st.sampled_from([-3.0, -0.6, 0.6, 3.0]), st.floats(-3.0, 3.0)),
    st.one_of(st.sampled_from([-3.0, -0.6, 0.6, 3.0]), st.floats(-3.0, 3.0)),
)


@settings(max_examples=300, deadline=None)
@given(
    shape=st.sampled_from([(16, 16, 1), (7, 13, 1), (1, 1, 1), (2, 9, 1), (5, 4, 3)]),
    n=st.integers(1, 9),
    per_block=st.integers(1, 4),
    slack=st.integers(0, 100),
    pixel_seed=st.integers(0, 2**32 - 1),
    warp_map=_warp_maps,
    fill=st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 1.0)),
)
def test_warp_matches_per_image_reference(
    shape, n, per_block, slack, pixel_seed, warp_map, fill
):
    h, w, ch = shape
    images = np.random.default_rng(pixel_seed).random((n, h, w, ch))
    coeffs = distortion._inverse_affine(w, h, *warp_map)
    # blocks of per_block images; n from 1 to 9 falls below, on and across
    # block boundaries
    budget = per_block * h * w * ch + slack % (h * w * ch)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "WARP_BLOCK_ELEMENTS", budget)
        got = _kernels.affine_bilinear_warp(images, *coeffs, fill)
    assert got.shape == images.shape
    for img, out in zip(images, got):
        want = _reference_warp(img, *coeffs, fill)
        assert np.array_equal(out.view(np.uint64), want.view(np.uint64))
