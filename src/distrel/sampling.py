"""Build labeled training sets of distortion levels.

Two samplers: plain uniform sampling over the search space, and a
surrogate-guided loop that fits a GP to the accuracies observed so far and
picks the next level by maximizing

    q(c) = beta * sigma(c) + (mu(c) - h)

The mean term points toward the minority class: as written when reliable
levels (accuracy >= h) are the minority, and flipped to (h - mu(c)) when they
are the majority. By default the direction follows the labels observed so far
and is re-decided at every step, with the tie rule the rebalancers use (equal
counts make the reliable class the minority). beta grows with the iteration
count to keep exploring.

Both samplers ask the oracle only through ``distrel.oracles``: the random
sampler and the GP's initial draws as one ``evaluate_many`` batch, each GP
step as one ``query``. So an oracle that fails or answers outside [0, 1]
stops a run with ``OracleError`` (importable from here too) naming the level.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from distrel import files
from distrel import gp as gpmod
from distrel import oracles
from distrel._kernels import single_threaded_blas
from distrel.oracles import OracleError  # noqa: F401  (re-exported)
from distrel.space import SearchSpace

DUPLICATE_SUGGESTION_TOL = 1e-9
REFINE_INITIAL_STEP = 0.05  # fraction of each dimension's range


@dataclass(frozen=True)
class LabeledSet:
    """Distortion levels with their measured accuracies and 0/1 labels.

    The accuracy column is retained although only labels feed the downstream
    classifiers: it lets threshold sweeps relabel without new oracle calls.
    """

    levels: np.ndarray
    accuracies: np.ndarray
    labels: np.ndarray
    threshold: float

    def __post_init__(self):
        levels = np.asarray(self.levels, dtype=np.float64)
        if levels.ndim != 2:
            levels = levels.reshape(len(levels), -1)
        acc = np.asarray(self.accuracies, dtype=np.float64).reshape(-1)
        lab = np.asarray(self.labels, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "levels", levels)
        object.__setattr__(self, "accuracies", acc)
        object.__setattr__(self, "labels", lab)
        if not (levels.shape[0] == acc.shape[0] == lab.shape[0]):
            raise ValueError("levels, accuracies and labels must have equal length")
        if not 0.0 <= self.threshold <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {self.threshold}")
        if not np.all((acc >= 0.0) & (acc <= 1.0)):
            raise ValueError("accuracies must lie in [0, 1]")
        expected = (acc >= self.threshold).astype(np.int64)
        if not np.array_equal(lab, expected):
            bad = int(np.flatnonzero(lab != expected)[0])
            raise ValueError(
                f"label invariant violated at row {bad}: accuracy={acc[bad]}, "
                f"threshold={self.threshold}, label={lab[bad]}"
            )

    @classmethod
    def from_accuracies(cls, levels, accuracies, threshold: float) -> "LabeledSet":
        acc = np.asarray(accuracies, dtype=np.float64)
        return cls(
            levels=np.asarray(levels, dtype=np.float64),
            accuracies=acc,
            labels=(acc >= threshold).astype(np.int64),
            threshold=threshold,
        )

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    @property
    def positive_count(self) -> int:
        return int(self.labels.sum())

    def relabeled(self, threshold: float) -> "LabeledSet":
        """Same samples, labels recomputed against a new threshold."""
        return LabeledSet.from_accuracies(self.levels, self.accuracies, threshold)


DIRECTIONS = ("auto", "above", "below")


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the GP-guided sampling loop.

    ``minority_direction`` chooses the sign of the acquisition's mean term.
    "auto" (the default) follows the observed minority class at every step;
    "above" pins the mean term to (mu - h), chasing reliable levels, and
    "below" pins it to (h - mu), chasing non-reliable ones.
    """

    budget: int
    init_count: int = 20
    delta: float = 0.1
    minority_direction: str = "auto"
    acquisition_candidates: int = 2048
    refine_steps: int = 32
    seed: int = 0

    def __post_init__(self):
        for name in ("budget", "init_count", "acquisition_candidates", "refine_steps", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.delta, bool) or not isinstance(self.delta, numbers.Real):
            raise TypeError(f"delta must be a number, got {self.delta!r}")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if not 0 < self.init_count < self.budget:
            raise ValueError(
                f"init_count must be in [1, budget), got {self.init_count} "
                f"with budget {self.budget}"
            )
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.minority_direction not in DIRECTIONS:
            raise ValueError(
                f"minority_direction must be one of {DIRECTIONS}, "
                f"got {self.minority_direction!r}"
            )
        if self.acquisition_candidates < 1:
            raise ValueError(
                f"acquisition_candidates must be >= 1, got {self.acquisition_candidates}"
            )
        if self.refine_steps < 0:
            raise ValueError(f"refine_steps must be >= 0, got {self.refine_steps}")


def minority_label(labels) -> int:
    """The label of the smaller class; equal counts make 1 the minority."""
    labels = np.asarray(labels)
    return 1 if 2 * int(np.sum(labels)) <= labels.size else 0


def minority_direction(accuracies, h: float) -> str:
    """"above" when reliable levels (accuracy >= h) are the minority, else "below"."""
    labels = np.asarray(accuracies) >= h
    return "above" if minority_label(labels) == 1 else "below"


def beta_coefficient(t: int, d: int, delta: float) -> float:
    """Exploration coefficient 2 * [ln(d * t * pi^2) - ln(6 * delta)].

    Natural log; strictly increasing in both t and d. Any delta > 0 is
    accepted here (the formula is well defined); the sampling loop itself
    restricts delta to (0, 1).
    """
    if t < 1:
        raise ValueError(f"t must be >= 1, got {t}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not delta > 0.0:
        raise ValueError(f"delta must be > 0, got {delta}")
    return 2.0 * (math.log(d * t * math.pi**2) - math.log(6.0 * delta))


def acquisition(gp, points, h: float, beta: float, direction: str = "above") -> np.ndarray:
    """Score each row of ``points`` (or a single level) against the posterior;
    higher is more promising.

    ``points`` must be in the coordinate system the posterior was fitted in.
    """
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    if direction not in ("above", "below"):
        raise ValueError(f"direction must be 'above' or 'below', got {direction!r}")
    mean, var = gpmod.predict_batch(gp, points)
    return beta * np.sqrt(var) + (mean - h if direction == "above" else h - mean)


def suggest_next(
    gp,
    space: SearchSpace,
    h: float,
    beta: float,
    cfg: SamplerConfig,
    rng: np.random.Generator,
) -> np.ndarray:
    """Approximate argmax of the acquisition over the box; returns a raw level.

    Random multistart (``acquisition_candidates`` uniform points) followed by
    coordinate-wise hill climbing: each refinement step probes +-step along
    every axis, moves to the best improving probe, and halves the step.
    Collisions with existing training inputs get nudged by up to 0.5% of each
    range so the next factorization stays well-posed. With the "auto"
    direction the mean term follows the minority among the posterior's
    training targets labeled against ``h``.
    """
    d = space.dim
    direction = cfg.minority_direction
    if direction == "auto":
        direction = minority_direction(gp.targets, h)
    z_cand = rng.random((cfg.acquisition_candidates, d))
    q = acquisition(gp, z_cand, h, beta, direction)
    best = int(np.argmax(q))
    z_best = z_cand[best].copy()
    q_best = q[best]

    step = REFINE_INITIAL_STEP
    rows = np.arange(d)
    for _ in range(cfg.refine_steps):
        probes = np.repeat(z_best[None, :], 2 * d, axis=0)
        probes[2 * rows, rows] = np.minimum(z_best + step, 1.0)
        probes[2 * rows + 1, rows] = np.maximum(z_best - step, 0.0)
        q_probe = acquisition(gp, probes, h, beta, direction)
        k = int(np.argmax(q_probe))
        if q_probe[k] > q_best:
            z_best = probes[k].copy()
            q_best = q_probe[k]
        step *= 0.5

    for _ in range(100):
        gap = np.min(np.max(np.abs(gp.inputs - z_best), axis=1))
        if gap > DUPLICATE_SUGGESTION_TOL:
            break
        z_best = np.clip(z_best + rng.uniform(-0.005, 0.005, size=d), 0.0, 1.0)
    else:
        raise RuntimeError("could not move suggestion away from existing inputs")
    return space.denormalize(z_best)


class _PairwiseDiffTracker:
    """Sorted |x_i - x_j| multisets, one per dimension, grown point by point.

    Produces the same lengthscales as ``median_heuristic_lengthscales`` but
    merges only the n new differences per added point into each sorted array
    and reads the median off the middle, instead of rebuilding all pairs or
    re-partitioning them, which keeps the refit-every-step loop affordable.
    """

    def __init__(self, points: np.ndarray, capacity_points: int):
        points = np.atleast_2d(points)
        n, d = points.shape
        self._points = np.empty((capacity_points, d))
        self._points[:n] = points
        self._n = n
        iu, ju = np.triu_indices(n, k=1)
        block = np.abs(points[iu] - points[ju]).T
        self._sorted = [np.sort(row) for row in block]

    def add(self, point: np.ndarray) -> None:
        n = self._n
        block = np.sort(np.abs(self._points[:n] - point).T, axis=1)
        for j, new in enumerate(block):
            old = self._sorted[j]
            self._sorted[j] = np.insert(old, np.searchsorted(old, new), new)
        self._points[n] = point
        self._n += 1

    def lengthscales(self) -> np.ndarray:
        if self._n < 2:
            raise ValueError("median heuristic needs at least 2 points")
        m = self._sorted[0].size
        half = m // 2
        if m % 2:
            med = np.array([s[half] for s in self._sorted])
        else:
            # the mean of the two middle values, rounded as np.median does
            med = np.array([np.mean(s[half - 1 : half + 1]) for s in self._sorted])
        return np.maximum(med, gpmod.LENGTHSCALE_FLOOR)


def run_random_sampling(oracle, space: SearchSpace, h: float, budget: int, seed: int) -> LabeledSet:
    """Label ``budget`` i.i.d. uniform levels; deterministic per seed."""
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {h}")
    rng = np.random.default_rng(seed)
    levels = space.sample_uniform(rng, budget)
    return LabeledSet.from_accuracies(levels, oracles.evaluate_many(oracle, levels), h)


def run_gp_sampling(oracle, space: SearchSpace, h: float, cfg: SamplerConfig) -> LabeledSet:
    """GP-guided training-set construction under a fixed evaluation budget.

    Phase 1 draws ``init_count`` uniform levels. Each remaining evaluation
    refits the GP (median-heuristic lengthscales, target-variance signal
    level) on everything observed so far, recomputes beta for the current
    iteration count, and evaluates the acquisition argmax. Initial points
    count against the budget, so total oracle calls equal ``budget``.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {h}")
    d = space.dim
    rng = np.random.default_rng(cfg.seed)

    z = np.empty((cfg.budget, d))
    levels = np.empty((cfg.budget, d))
    accs = np.empty(cfg.budget)
    z[: cfg.init_count] = rng.random((cfg.init_count, d))
    levels[: cfg.init_count] = space.denormalize(z[: cfg.init_count])
    accs[: cfg.init_count] = oracles.evaluate_many(oracle, levels[: cfg.init_count])
    tracker = _PairwiseDiffTracker(z[: cfg.init_count], cfg.budget)

    t = cfg.init_count
    with single_threaded_blas():
        while t < cfg.budget:
            acc_arr = accs[:t]
            if t >= 2:
                lengthscales = tracker.lengthscales()
                signal_variance = max(float(np.var(acc_arr, ddof=1)), 1e-4)
            else:
                lengthscales = np.ones(d)
                signal_variance = 1e-4
            kcfg = gpmod.KernelConfig(lengthscales, signal_variance, jitter=1e-10)
            posterior = gpmod.fit(z[:t], acc_arr, kcfg)
            beta = beta_coefficient(t, d, cfg.delta)
            levels[t] = suggest_next(posterior, space, h, beta, cfg, rng)
            accs[t] = oracles.query(oracle, levels[t])
            z[t] = space.normalize(levels[t])
            tracker.add(z[t])
            t += 1

    return LabeledSet.from_accuracies(levels, accs, h)


# the CSV of a labeled set: one column per dimension, then these
LABELED_COLUMNS = ("accuracy", "label")


def save_labeled_set(path, labeled: LabeledSet, space: SearchSpace) -> None:
    files.write_levels(path, space.names, labeled.levels,
                       dict(zip(LABELED_COLUMNS, (labeled.accuracies, labeled.labels))))


def load_labeled_set(path, space: SearchSpace, h: float) -> LabeledSet:
    """Read a training-set CSV and check its labels against ``h``."""
    _, levels, cols = files.read_levels(path, space.names, LABELED_COLUMNS)
    with files.fields_of(path):
        return LabeledSet(levels, cols["accuracy"], cols["label"], threshold=h)
