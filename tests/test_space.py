import numpy as np
import pytest

from distrel.space import SearchSpace


def make_space():
    return SearchSpace(
        names=("a", "b", "c"),
        lowers=np.array([0.0, -1.0, 10.0]),
        uppers=np.array([1.0, 1.0, 20.0]),
    )


class TestValidation:
    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError, match="lower bound"):
            SearchSpace(("x",), np.array([1.0]), np.array([0.0]))

    @pytest.mark.parametrize("lower, upper", [
        (np.nan, 1.0), (0.0, np.nan), (-np.inf, 1.0), (0.0, np.inf),
    ])
    def test_rejects_non_finite_bounds(self, lower, upper):
        with pytest.raises(ValueError, match=r"bounds must be finite for \['y'\]"):
            SearchSpace(("x", "y"), np.array([0.0, lower]), np.array([1.0, upper]))

    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError, match="unique"):
            SearchSpace(("x", "x"), np.array([0.0, 0.0]), np.array([1.0, 1.0]))

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            SearchSpace((), np.array([]), np.array([]))

    def test_validate_level_names_offending_dimension(self):
        space = make_space()
        with pytest.raises(ValueError, match="b=2"):
            space.validate_level([0.5, 2.0, 15.0])

    def test_validate_level_rejects_wrong_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            make_space().validate_level([0.5, 0.0])


class TestTransforms:
    def test_normalize_roundtrip(self):
        space = make_space()
        rng = np.random.default_rng(0)
        levels = space.sample_uniform(rng, 50)
        back = space.denormalize(space.normalize(levels))
        np.testing.assert_allclose(back, levels, atol=1e-12)

    def test_normalize_maps_bounds_to_unit_cube(self):
        space = make_space()
        np.testing.assert_allclose(space.normalize(space.lowers), 0.0)
        np.testing.assert_allclose(space.normalize(space.uppers), 1.0)

    def test_sample_uniform_in_bounds(self):
        space = make_space()
        levels = space.sample_uniform(np.random.default_rng(1), 500)
        assert np.all(space.contains(levels))


class TestGrid:
    def test_grid_size_and_lattice(self):
        space = make_space()
        grid = space.grid(3)
        assert grid.shape == (27, 3)
        for j in range(3):
            expected = np.linspace(space.lowers[j], space.uppers[j], 3)
            assert set(np.round(grid[:, j], 12)) == set(np.round(expected, 12))

    def test_grid_includes_endpoints_1d(self):
        space = SearchSpace(("x",), np.array([2.0]), np.array([5.0]))
        grid = space.grid(2)
        np.testing.assert_allclose(grid.reshape(-1), [2.0, 5.0])

    def test_grid_rejects_single_point(self):
        with pytest.raises(ValueError, match=">= 2"):
            make_space().grid(1)


def test_dict_roundtrip():
    # the dims object of a config file, written out from the space
    space = make_space()
    dims = [{"name": n, "lower": float(lo), "upper": float(hi)}
            for n, lo, hi in zip(space.names, space.lowers, space.uppers)]
    again = SearchSpace.from_dict({"dims": dims})
    assert again.names == space.names
    np.testing.assert_array_equal(again.lowers, space.lowers)
    np.testing.assert_array_equal(again.uppers, space.uppers)
