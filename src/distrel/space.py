"""Search space of distortion levels: an axis-aligned box in R^d.

A distortion level is a plain 1-D float array with one coordinate per
dimension of the owning :class:`SearchSpace`.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SearchSpace:
    """Ordered list of named dimensions with finite, inclusive [lower, upper] bounds."""

    names: tuple
    lowers: np.ndarray
    uppers: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(str(n) for n in self.names))
        object.__setattr__(self, "lowers", np.asarray(self.lowers, dtype=np.float64))
        object.__setattr__(self, "uppers", np.asarray(self.uppers, dtype=np.float64))
        if len(self.names) == 0:
            raise ValueError("search space needs at least one dimension")
        if len(set(self.names)) != len(self.names):
            raise ValueError(f"dimension names must be unique, got {self.names}")
        if self.lowers.shape != (len(self.names),) or self.uppers.shape != (len(self.names),):
            raise ValueError("bounds must have one entry per dimension")
        finite = np.isfinite(self.lowers) & np.isfinite(self.uppers)
        if not np.all(finite):
            bad = [self.names[i] for i in np.flatnonzero(~finite)]
            raise ValueError(f"bounds must be finite for {bad}")
        if not np.all(self.lowers < self.uppers):
            bad = [self.names[i] for i in np.flatnonzero(~(self.lowers < self.uppers))]
            raise ValueError(f"lower bound must be < upper bound for {bad}")

    @property
    def dim(self) -> int:
        return len(self.names)

    @property
    def ranges(self) -> np.ndarray:
        return self.uppers - self.lowers

    def validate_level(self, level) -> np.ndarray:
        """Return ``level`` as a float array, or raise naming the offending dimension."""
        level = np.asarray(level, dtype=np.float64)
        if level.shape != (self.dim,):
            raise ValueError(
                f"level has dimension {level.shape}, expected ({self.dim},)"
            )
        for j in range(self.dim):
            if not (self.lowers[j] <= level[j] <= self.uppers[j]):
                raise ValueError(
                    f"coordinate {self.names[j]}={level[j]:g} outside "
                    f"[{self.lowers[j]:g}, {self.uppers[j]:g}]"
                )
        return level

    def contains(self, levels) -> np.ndarray:
        """Row-wise in-bounds test for a (n, d) array."""
        levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
        return np.all((levels >= self.lowers) & (levels <= self.uppers), axis=1)

    def normalize(self, levels) -> np.ndarray:
        """Map raw coordinates onto the unit cube."""
        return (np.asarray(levels, dtype=np.float64) - self.lowers) / self.ranges

    def denormalize(self, unit) -> np.ndarray:
        """Inverse of :meth:`normalize`."""
        return self.lowers + np.asarray(unit, dtype=np.float64) * self.ranges

    def sample_uniform(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """n i.i.d. uniform levels over the box, shape (n, d)."""
        return self.denormalize(rng.random((n, self.dim)))

    def grid(self, points_per_dim: int) -> np.ndarray:
        """Full Cartesian lattice including both endpoints, shape (p^d, d).

        Row order is C order: the last dimension varies fastest.
        """
        if points_per_dim < 2:
            raise ValueError(f"points_per_dim must be >= 2, got {points_per_dim}")
        axes = [
            np.linspace(self.lowers[j], self.uppers[j], points_per_dim)
            for j in range(self.dim)
        ]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.reshape(-1) for m in mesh], axis=1)

    @classmethod
    def from_dict(cls, d: dict) -> "SearchSpace":
        dims = d["dims"]
        return cls(
            names=tuple(x["name"] for x in dims),
            lowers=np.array([x["lower"] for x in dims], dtype=np.float64),
            uppers=np.array([x["upper"] for x in dims], dtype=np.float64),
        )
