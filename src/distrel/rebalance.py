"""Rebalance a labeled training set before classifier training.

Over-sampling (SMOTE, random duplication), under-sampling (random,
NearMiss-1) and cost-sensitive re-weighting. All distance computations run on
coordinates normalized to the unit cube, otherwise the wide rotation axis
would dominate. Every method leaves real samples untouched and is
deterministic given (input, parameters, seed).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from distrel import _kernels
from distrel.sampling import LabeledSet
from distrel.sampling import minority_label as _minority_label
from distrel.space import SearchSpace

METHODS = ("none", "smote", "random-over", "random-under", "near-miss", "reweight")


@dataclass(frozen=True)
class RebalancedSet:
    """Training rows after imbalance handling.

    ``parent_index`` points synthetic rows at the real row they interpolate
    from (or duplicate); real rows carry -1.
    """

    levels: np.ndarray
    labels: np.ndarray
    weights: np.ndarray
    is_synthetic: np.ndarray
    parent_index: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "levels", np.asarray(self.levels, dtype=np.float64))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=np.int64))
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=np.float64))
        object.__setattr__(
            self, "is_synthetic", np.asarray(self.is_synthetic, dtype=bool)
        )
        object.__setattr__(
            self, "parent_index", np.asarray(self.parent_index, dtype=np.int64)
        )
        n = self.levels.shape[0]
        for name in ("labels", "weights", "is_synthetic", "parent_index"):
            if getattr(self, name).shape[0] != n:
                raise ValueError(f"{name} length does not match levels")
        if np.any(self.weights <= 0):
            raise ValueError("weights must be positive")

    @property
    def n(self) -> int:
        return self.levels.shape[0]

    def class_counts(self) -> tuple:
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))


def _passthrough(labeled: LabeledSet, method: str, **params) -> RebalancedSet:
    n = labeled.n
    return RebalancedSet(
        levels=labeled.levels.copy(),
        labels=labeled.labels.copy(),
        weights=np.ones(n),
        is_synthetic=np.zeros(n, dtype=bool),
        parent_index=np.full(n, -1, dtype=np.int64),
        provenance={"method": method, **params},
    )


def _split(labeled: LabeledSet) -> tuple:
    """(minority_label, minority_idx, majority_idx); ties pick label 1 as minority."""
    label = _minority_label(labeled.labels)
    min_idx = np.flatnonzero(labeled.labels == label)
    maj_idx = np.flatnonzero(labeled.labels != label)
    return label, min_idx, maj_idx


def _single_class(labeled: LabeledSet) -> str:
    """Why a set with an empty minority class cannot be rebalanced."""
    if labeled.n == 0:
        return "the set is empty"
    return f"the set holds a single class: all {labeled.n} labels are {int(labeled.labels[0])}"


def smote(
    labeled: LabeledSet,
    space: SearchSpace,
    k: int = 5,
    seed: int = 0,
    lam: float = None,
) -> RebalancedSet:
    """Interpolate new minority samples until class counts match.

    Each synthetic point is x + lam * (x_nn - x) for a uniformly drawn real
    minority point x, one of its k nearest minority neighbors x_nn, and
    lam ~ U[0, 1]. ``lam`` can be pinned for testing. k is clipped to
    minority_count - 1 when the minority class is small.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    minority_label, min_idx, maj_idx = _split(labeled)
    need = maj_idx.size - min_idx.size
    if need == 0:
        return _passthrough(labeled, "smote", k=k, seed=seed)
    if min_idx.size < 2:
        advice = "fall back to random_over" if min_idx.size else _single_class(labeled)
        raise ValueError(
            f"SMOTE needs at least 2 minority samples, got {min_idx.size}; {advice}"
        )
    k_eff = min(k, min_idx.size - 1)

    z_min = np.ascontiguousarray(space.normalize(labeled.levels[min_idx]))
    d2 = _kernels.pairwise_sq_dists(z_min, z_min)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1, kind="stable")[:, :k_eff]

    rng = np.random.default_rng(seed)
    new_levels = np.empty((need, labeled.levels.shape[1]))
    parents = np.empty(need, dtype=np.int64)
    for i in range(need):
        a = int(rng.integers(min_idx.size))
        b = int(neighbors[a, int(rng.integers(k_eff))])
        frac = rng.random() if lam is None else lam
        base = labeled.levels[min_idx[a]]
        other = labeled.levels[min_idx[b]]
        new_levels[i] = base + frac * (other - base)
        parents[i] = min_idx[a]

    n = labeled.n
    return RebalancedSet(
        levels=np.vstack([labeled.levels, new_levels]),
        labels=np.concatenate(
            [labeled.labels, np.full(need, minority_label, dtype=np.int64)]
        ),
        weights=np.ones(n + need),
        is_synthetic=np.concatenate(
            [np.zeros(n, dtype=bool), np.ones(need, dtype=bool)]
        ),
        parent_index=np.concatenate([np.full(n, -1, dtype=np.int64), parents]),
        provenance={"method": "smote", "k": k, "k_effective": k_eff, "seed": seed},
    )


def random_over(labeled: LabeledSet, seed: int = 0) -> RebalancedSet:
    """Duplicate uniformly chosen minority samples until counts match."""
    minority_label, min_idx, maj_idx = _split(labeled)
    if min_idx.size == 0:
        raise ValueError(f"both classes must be non-empty; {_single_class(labeled)}")
    need = maj_idx.size - min_idx.size
    if need == 0:
        return _passthrough(labeled, "random-over", seed=seed)
    rng = np.random.default_rng(seed)
    picks = min_idx[rng.integers(min_idx.size, size=need)]
    n = labeled.n
    return RebalancedSet(
        levels=np.vstack([labeled.levels, labeled.levels[picks]]),
        labels=np.concatenate([labeled.labels, labeled.labels[picks]]),
        weights=np.ones(n + need),
        is_synthetic=np.concatenate(
            [np.zeros(n, dtype=bool), np.ones(need, dtype=bool)]
        ),
        parent_index=np.concatenate([np.full(n, -1, dtype=np.int64), picks]),
        provenance={"method": "random-over", "seed": seed},
    )


def random_under(labeled: LabeledSet, seed: int = 0) -> RebalancedSet:
    """Subsample the majority class down to the minority count."""
    minority_label, min_idx, maj_idx = _split(labeled)
    if min_idx.size == 0:
        raise ValueError(f"both classes must be non-empty; {_single_class(labeled)}")
    if maj_idx.size == min_idx.size:
        return _passthrough(labeled, "random-under", seed=seed)
    rng = np.random.default_rng(seed)
    kept_maj = maj_idx[
        np.sort(rng.choice(maj_idx.size, size=min_idx.size, replace=False))
    ]
    keep = np.zeros(labeled.n, dtype=bool)
    keep[min_idx] = True
    keep[kept_maj] = True
    n_kept = int(keep.sum())
    return RebalancedSet(
        levels=labeled.levels[keep],
        labels=labeled.labels[keep],
        weights=np.ones(n_kept),
        is_synthetic=np.zeros(n_kept, dtype=bool),
        parent_index=np.full(n_kept, -1, dtype=np.int64),
        provenance={"method": "random-under", "seed": seed},
    )


def near_miss(labeled: LabeledSet, space: SearchSpace, k: int = 3) -> RebalancedSet:
    """NearMiss-1: keep majority samples closest on average to the minority.

    Mean distance to the k nearest minority samples, smallest kept, ties
    broken by original index. Deterministic, no RNG.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    minority_label, min_idx, maj_idx = _split(labeled)
    if min_idx.size == 0:
        raise ValueError(f"minority class is empty; {_single_class(labeled)}")
    if maj_idx.size == min_idx.size:
        return _passthrough(labeled, "near-miss", k=k)
    k_eff = min(k, min_idx.size)

    z = space.normalize(labeled.levels)
    d2 = _kernels.pairwise_sq_dists(
        np.ascontiguousarray(z[maj_idx]), np.ascontiguousarray(z[min_idx])
    )
    dist = np.sqrt(d2)
    dist.sort(axis=1)
    mean_near = dist[:, :k_eff].mean(axis=1)
    order = np.argsort(mean_near, kind="stable")[: min_idx.size]
    kept_maj = maj_idx[np.sort(order)]

    keep = np.zeros(labeled.n, dtype=bool)
    keep[min_idx] = True
    keep[kept_maj] = True
    n_kept = int(keep.sum())
    return RebalancedSet(
        levels=labeled.levels[keep],
        labels=labeled.labels[keep],
        weights=np.ones(n_kept),
        is_synthetic=np.zeros(n_kept, dtype=bool),
        parent_index=np.full(n_kept, -1, dtype=np.int64),
        provenance={"method": "near-miss", "k": k, "k_effective": k_eff},
    )


def cost_sensitive_weights(labeled: LabeledSet) -> RebalancedSet:
    """No resampling; weight = total / (2 * class_count), equal mass per class."""
    n_pos = labeled.positive_count
    n_neg = labeled.n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError(f"both classes must be non-empty; {_single_class(labeled)}")
    out = _passthrough(labeled, "reweight")
    class_counts = np.array([n_neg, n_pos], dtype=np.float64)
    weights = labeled.n / (2.0 * class_counts[labeled.labels])
    return RebalancedSet(
        levels=out.levels,
        labels=out.labels,
        weights=weights,
        is_synthetic=out.is_synthetic,
        parent_index=out.parent_index,
        provenance={"method": "reweight"},
    )


def rebalance(
    labeled: LabeledSet, method: str, space: SearchSpace, seed: int = 0, k: int = None
) -> RebalancedSet:
    """Dispatch by method name; "none" passes the set through with unit weights.

    SMOTE needs two minority samples to interpolate between. With exactly one
    it falls back to random over-sampling (duplicating that sample) and
    records ``fallback_from: "smote"`` in the provenance. A single-class set
    raises for every method but "none".
    """
    if method == "none":
        return _passthrough(labeled, "none")
    if method == "smote":
        _, min_idx, maj_idx = _split(labeled)
        if min_idx.size == 1 and maj_idx.size > 1:
            out = random_over(labeled, seed=seed)
            return replace(out, provenance={**out.provenance, "fallback_from": "smote"})
        return smote(labeled, space, k=5 if k is None else k, seed=seed)
    if method == "random-over":
        return random_over(labeled, seed=seed)
    if method == "random-under":
        return random_under(labeled, seed=seed)
    if method == "near-miss":
        return near_miss(labeled, space, k=3 if k is None else k)
    if method == "reweight":
        return cost_sensitive_weights(labeled)
    raise ValueError(f"unknown imbalance method {method!r}; known: {METHODS}")
