"""Rebalance a labeled training set before classifier training.

``rebalance(labeled, method, space, seed)`` dispatches on one of ``METHODS``:

- ``none``: the set as is, unit weights;
- ``smote``: SMOTE with k = 5, falling back to ``random-over`` when the
  minority class holds a single sample;
- ``random-over`` / ``random-under``: random duplication of the minority or
  subsampling of the majority;
- ``near-miss``: NearMiss-1 with k = 3;
- ``reweight``: cost-sensitive weights, no resampling.

Every method returns the real rows it keeps, in their original order, then
any synthetic rows with the real row each came from. All distance
computations run on coordinates normalized to the unit cube, otherwise the
wide rotation axis would dominate. Every method is deterministic given
(input, parameters, seed).
"""

from dataclasses import dataclass, field, replace

import numpy as np

from distrel import _kernels
from distrel.sampling import LabeledSet
from distrel.sampling import minority_label as _minority_label
from distrel.space import SearchSpace


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


def _assemble(
    labeled: LabeledSet, provenance: dict, keep=None, parents=None, new_levels=None,
    weights=None,
) -> RebalancedSet:
    """The real rows at ``keep`` (all by default), then one synthetic row per
    entry of ``parents`` carrying that parent's label, at ``new_levels`` (a
    copy of the parent by default); unit weights unless ``weights`` is given."""
    keep = np.arange(labeled.n) if keep is None else keep
    parents = np.empty(0, dtype=np.int64) if parents is None else parents
    new_levels = labeled.levels[parents] if new_levels is None else new_levels
    n_real, n = keep.size, keep.size + parents.size
    return RebalancedSet(
        levels=np.vstack([labeled.levels[keep], new_levels]),
        labels=labeled.labels[np.concatenate([keep, parents])],
        weights=np.ones(n) if weights is None else weights,
        is_synthetic=np.arange(n) >= n_real,
        parent_index=np.concatenate([np.full(n_real, -1, dtype=np.int64), parents]),
        provenance=provenance,
    )


def _split(labeled: LabeledSet) -> tuple:
    """(minority_idx, majority_idx); ties pick label 1 as minority."""
    label = _minority_label(labeled.labels)
    return np.flatnonzero(labeled.labels == label), np.flatnonzero(labeled.labels != label)


def _single_class(labeled: LabeledSet) -> str:
    """Why a set with an empty minority class cannot be rebalanced."""
    if labeled.n == 0:
        return "the set is empty"
    return f"the set holds a single class: all {labeled.n} labels are {int(labeled.labels[0])}"


def _split_both(labeled: LabeledSet) -> tuple:
    """``_split`` for methods that need both classes present."""
    min_idx, maj_idx = _split(labeled)
    if min_idx.size == 0:
        raise ValueError(f"both classes must be non-empty; {_single_class(labeled)}")
    return min_idx, maj_idx


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
    min_idx, maj_idx = _split(labeled)
    need = maj_idx.size - min_idx.size
    if need == 0:
        return _assemble(labeled, {"method": "smote", "k": k, "seed": seed})
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
    return _assemble(
        labeled, {"method": "smote", "k": k, "k_effective": k_eff, "seed": seed},
        parents=parents, new_levels=new_levels,
    )


def random_over(labeled: LabeledSet, seed: int = 0) -> RebalancedSet:
    """Duplicate uniformly chosen minority samples until counts match."""
    min_idx, maj_idx = _split_both(labeled)
    rng = np.random.default_rng(seed)
    picks = min_idx[rng.integers(min_idx.size, size=maj_idx.size - min_idx.size)]
    return _assemble(labeled, {"method": "random-over", "seed": seed}, parents=picks)


def random_under(labeled: LabeledSet, seed: int = 0) -> RebalancedSet:
    """Subsample the majority class down to the minority count."""
    min_idx, maj_idx = _split_both(labeled)
    rng = np.random.default_rng(seed)
    kept_maj = maj_idx[rng.choice(maj_idx.size, size=min_idx.size, replace=False)]
    return _assemble(
        labeled, {"method": "random-under", "seed": seed},
        keep=np.union1d(min_idx, kept_maj),
    )


def near_miss(labeled: LabeledSet, space: SearchSpace, k: int = 3) -> RebalancedSet:
    """NearMiss-1: keep majority samples closest on average to the minority.

    Mean distance to the k nearest minority samples, smallest kept, ties
    broken by original index. Deterministic, no RNG.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    min_idx, maj_idx = _split_both(labeled)
    if maj_idx.size == min_idx.size:
        return _assemble(labeled, {"method": "near-miss", "k": k})
    k_eff = min(k, min_idx.size)

    z = space.normalize(labeled.levels)
    d2 = _kernels.pairwise_sq_dists(
        np.ascontiguousarray(z[maj_idx]), np.ascontiguousarray(z[min_idx])
    )
    dist = np.sqrt(d2)
    dist.sort(axis=1)
    mean_near = dist[:, :k_eff].mean(axis=1)
    kept_maj = maj_idx[np.argsort(mean_near, kind="stable")[: min_idx.size]]
    return _assemble(
        labeled, {"method": "near-miss", "k": k, "k_effective": k_eff},
        keep=np.union1d(min_idx, kept_maj),
    )


def cost_sensitive_weights(labeled: LabeledSet) -> RebalancedSet:
    """No resampling; weight = total / (2 * class_count), equal mass per class."""
    _split_both(labeled)
    class_counts = np.bincount(labeled.labels, minlength=2).astype(np.float64)
    weights = labeled.n / (2.0 * class_counts[labeled.labels])
    return _assemble(labeled, {"method": "reweight"}, weights=weights)


def _smote_or_over(labeled: LabeledSet, space: SearchSpace, seed: int) -> RebalancedSet:
    min_idx, maj_idx = _split(labeled)
    if min_idx.size == 1 and maj_idx.size > 1:
        out = random_over(labeled, seed=seed)
        return replace(out, provenance={**out.provenance, "fallback_from": "smote"})
    return smote(labeled, space, seed=seed)


# name -> method(labeled, space, seed)
_METHODS = {
    "none": lambda labeled, space, seed: _assemble(labeled, {"method": "none"}),
    "smote": _smote_or_over,
    "random-over": lambda labeled, space, seed: random_over(labeled, seed=seed),
    "random-under": lambda labeled, space, seed: random_under(labeled, seed=seed),
    "near-miss": lambda labeled, space, seed: near_miss(labeled, space),
    "reweight": lambda labeled, space, seed: cost_sensitive_weights(labeled),
}
METHODS = tuple(_METHODS)


def rebalance(
    labeled: LabeledSet, method: str, space: SearchSpace, seed: int = 0
) -> RebalancedSet:
    """Dispatch by method name; "none" passes the set through with unit weights.

    SMOTE needs two minority samples to interpolate between. With exactly one
    it falls back to random over-sampling (duplicating that sample) and
    records ``fallback_from: "smote"`` in the provenance. A single-class set
    raises for every method but "none".
    """
    if method not in _METHODS:
        raise ValueError(f"unknown imbalance method {method!r}; known: {METHODS}")
    return _METHODS[method](labeled, space, seed)
