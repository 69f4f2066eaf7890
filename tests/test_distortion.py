import numpy as np
import pytest

from distrel.distortion import (
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
        imgs = [np.zeros((16, 16))] * 2
        outs = distort_set(imgs, level(rain=1.0), rain_seed=0)
        assert not np.array_equal(outs[0], outs[1])

    def test_deterministic(self):
        imgs = [checkerboard(10, 10, seed=i) for i in range(3)]
        lv = level(scale=1.1, rotation=15.0, rain=0.5)
        a = distort_set(imgs, lv, rain_seed=7)
        b = distort_set(imgs, lv, rain_seed=7)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


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

