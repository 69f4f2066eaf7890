"""Build labeled training sets of distortion levels.

Two samplers: plain uniform sampling over the search space, and a
surrogate-guided loop that keeps a GP of the accuracies observed so far and
picks the next level from a pool of uniform candidates by maximizing

    q(c) = beta * sigma(c) + (mu(c) - h)

The mean term points toward the minority class: as written when reliable
levels (accuracy >= h) are the minority, and flipped to (h - mu(c)) when they
are the majority. The direction follows the labels observed so far and is
re-decided at every step, with the tie rule the rebalancers use (equal counts
make the reliable class the minority). beta grows with the iteration count to
keep exploring. Between full refits, each answer is appended to the
GP's factor and to the pool's moments (GP-UCB over a finite candidate set:
Srinivas et al., ICML 2010).

Both samplers ask the oracle only through ``distrel.oracles``: the random
sampler and the GP's initial draws as one ``evaluate_many`` batch, each GP
step as one ``query``. So an oracle that fails or answers outside [0, 1]
stops a run with ``OracleError`` naming the level.

``distrel.gp``, and with it scipy, is imported by the GP sampler's functions
when they first run, not with this module, so a random-only run never loads
scipy. ``run_gp_sampling`` imports it before its BLAS pin.
"""

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from distrel import _kernels, files
from distrel import oracles
from distrel._kernels import single_threaded_blas
from distrel.space import SearchSpace

DUPLICATE_SUGGESTION_TOL = 1e-9
# the GP loop refits in full once t has grown by this factor since the last refit
REFRESH_GROWTH = 1.1


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


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the GP-guided sampling loop: ``acquisition_candidates`` is
    the size of the uniform candidate pool whose best member is each pick."""

    budget: int
    init_count: int = 20
    delta: float = 0.1
    acquisition_candidates: int = 2048
    seed: int = 0

    def __post_init__(self):
        for name in ("budget", "init_count", "acquisition_candidates", "seed"):
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
        if self.acquisition_candidates < 1:
            raise ValueError(
                f"acquisition_candidates must be >= 1, got {self.acquisition_candidates}"
            )


def minority_label(labels) -> int:
    """The label of the smaller class; equal counts make 1 the minority."""
    labels = np.asarray(labels)
    return 1 if 2 * int(np.sum(labels)) <= labels.size else 0


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


def _ucb(mean, var, h: float, beta: float, sign: float) -> np.ndarray:
    return beta * np.sqrt(var) + sign * (mean - h)


class _CandidatePool:
    """Uniform candidates of the unit cube and their moments under ``post``.

    The mean, the unit variance and V = L^-1 R(inputs, candidates) start as
    ``gp._predict_raw`` returns them, and ``rows[:n, :size]`` holds V for the
    n inputs of ``post``. ``add`` appends one row to V, so each moment moves
    by one term: O(n m) per step, where scoring afresh costs O(n^2 m). A
    taken candidate leaves the pool; the last one moves into its column.
    """

    def __init__(self, post, candidates: np.ndarray, capacity: int):
        # read off the module, so a wrapper set on gp._predict_raw sees every build
        from distrel import gp as gpmod

        self.mean, self.unit_var, v = gpmod._predict_raw(post, candidates)
        self.post = post
        self.z = candidates
        self.size = len(candidates)
        self.rows = np.empty((capacity, self.size))
        self.rows[: len(v)] = v

    def __len__(self) -> int:
        return self.size

    def moments(self) -> tuple:
        """Posterior mean and variance of the live candidates."""
        m = self.size
        var = self.post.kernel.signal_variance * np.maximum(self.unit_var[:m], 0.0)
        return self.mean[:m], var

    def take(self, i: int) -> np.ndarray:
        """Remove candidate i from the pool and return it."""
        n, last = len(self.post.inputs), self.size - 1
        picked = self.z[i].copy()
        for a in (self.z, self.mean, self.unit_var):
            a[i] = a[last]
        self.rows[:n, i] = self.rows[:n, last]
        self.size = last
        return picked

    def add(self, point, value) -> bool:
        """Append one observation to the posterior and one row to V; False,
        changing nothing, when the new pivot is not positive."""
        from distrel import gp as gpmod

        post = gpmod.append(self.post, point, value)
        if post is None:
            return False
        n, m = len(self.post.inputs), self.size
        r = _kernels.rbf_cross(post.inputs[n:], self.z[:m], post.kernel.lengthscales, 1.0)[0]
        v = (r - post.chol[n, :n] @ self.rows[:n, :m]) / post.chol[n, n]
        self.rows[n, :m] = v
        self.mean[:m] += post.white[n] * v
        self.unit_var[:m] -= v * v
        kernel = replace(post.kernel, signal_variance=_signal_variance(post.targets))
        self.post = replace(post, kernel=kernel)
        return True


def _signal_variance(targets) -> float:
    """The targets' sample variance, floored at 1e-4 (and 1e-4 for one target)."""
    return max(float(np.var(targets, ddof=1)), 1e-4) if len(targets) >= 2 else 1e-4


def _refresh(z, accs, cfg: SamplerConfig, rng) -> _CandidatePool:
    """A full refit: median-heuristic lengthscales recomputed, a full ``fit``
    (which escalates the jitter if it must) and a fresh candidate pool."""
    from distrel import gp as gpmod

    t, d = z.shape
    lengthscales = gpmod.median_heuristic_lengthscales(z) if t >= 2 else np.ones(d)
    kcfg = gpmod.KernelConfig(lengthscales, _signal_variance(accs), jitter=1e-10)
    post = gpmod.fit(z, accs, kcfg)
    return _CandidatePool(post, rng.random((cfg.acquisition_candidates, d)), cfg.budget)


def _observe(pool: _CandidatePool, z, accs, cfg: SamplerConfig, rng) -> _CandidatePool:
    """Add the last of ``z`` and ``accs`` to the pool's posterior: an O(n^2)
    append, or a refresh over all of them when the new pivot is not positive."""
    if pool.add(z[-1], accs[-1]):
        return pool
    return _refresh(z, accs, cfg, rng)


def suggest_next(
    gp,
    space: SearchSpace,
    h: float,
    beta: float,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    pool: _CandidatePool = None,
) -> np.ndarray:
    """The acquisition argmax over a pool of uniform candidates; returns a raw level.

    Takes the best candidate of ``pool``, whose posterior must be ``gp``, or
    of a fresh pool of ``acquisition_candidates`` uniform points when none is
    given; the pick leaves the pool. A pick that collides with a training
    input gets nudged by up to 0.5% of each range so the next factorization
    stays well-posed. The mean term follows the minority among the
    posterior's training targets labeled against ``h``.
    """
    d = space.dim
    sign = 1.0 if minority_label(gp.targets >= h) == 1 else -1.0
    if pool is None:
        pool = _CandidatePool(gp, rng.random((cfg.acquisition_candidates, d)), len(gp.inputs))
    q = _ucb(*pool.moments(), h, beta, sign)
    z_best = pool.take(int(np.argmax(q)))
    for _ in range(100):
        gap = np.min(np.max(np.abs(gp.inputs - z_best), axis=1))
        if gap > DUPLICATE_SUGGESTION_TOL:
            break
        z_best = np.clip(z_best + rng.uniform(-0.005, 0.005, size=d), 0.0, 1.0)
    else:
        raise RuntimeError("could not move suggestion away from existing inputs")
    return space.denormalize(z_best)


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
    first adds the previous answer to the posterior and to a candidate pool,
    in O(n^2 + n m), then picks the acquisition argmax over the pool, with
    beta for the current iteration count t. A refresh refits in full
    instead (median-heuristic lengthscales, a full ``fit``, a fresh pool) at
    the first step, whenever t has grown by ``REFRESH_GROWTH`` since the last
    one or the pool is empty, and when an append's pivot is not positive.
    Nothing but the loop's end depends on the budget, so a shorter run is a
    prefix of a longer one. The signal level is the targets' variance at
    every step.
    Initial points count against the budget, so total oracle calls equal
    ``budget``.
    """
    if not 0.0 <= h <= 1.0:
        raise ValueError(f"threshold must be in [0, 1], got {h}")
    # loaded before the pin, which pins only the OpenBLAS copies mapped at its entry
    from distrel import gp  # noqa: F401

    d = space.dim
    rng = np.random.default_rng(cfg.seed)

    z = np.empty((cfg.budget, d))
    levels = np.empty((cfg.budget, d))
    accs = np.empty(cfg.budget)
    z[: cfg.init_count] = rng.random((cfg.init_count, d))
    levels[: cfg.init_count] = space.denormalize(z[: cfg.init_count])
    accs[: cfg.init_count] = oracles.evaluate_many(oracle, levels[: cfg.init_count])

    t = cfg.init_count
    pool, refreshed_at = None, 0
    with single_threaded_blas():
        while t < cfg.budget:
            if pool and t < REFRESH_GROWTH * refreshed_at:
                pool = _observe(pool, z[:t], accs[:t], cfg, rng)
            else:
                pool = _refresh(z[:t], accs[:t], cfg, rng)
                refreshed_at = t
            beta = beta_coefficient(t, d, cfg.delta)
            levels[t] = suggest_next(pool.post, space, h, beta, cfg, rng, pool)
            accs[t] = oracles.query(oracle, levels[t])
            z[t] = space.normalize(levels[t])
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
