"""Distortion-classifiers: map a distortion level to a reliable/non-reliable label.

``train(kind, data, space)`` fits one of ``KINDS`` on a rebalanced set, with
the fixed hyperparameters each kind lists in ``HYPER``:

- ``logistic``: logistic regression by Newton's method (IRLS) to its optimum,
  with a 1e-8 ridge that keeps the weights finite on separable sets;
- ``tree``: a CART decision tree on Gini impurity with weighted counts,
  depth 8, at least 5 rows per leaf;
- ``knn``: k-nearest neighbours with k = 5; it ignores sample weights.

All operate on features normalized to the unit cube; each trained model
snapshots the normalization bounds it was fitted with and serializes them
with its hyperparameters and fitted parameters. Every model checks its
parameters against its dimension when it is built, so a model file that
could not predict is refused as it loads. Tie conventions are fixed:
logistic probability 0.5 maps to label 1, k-NN vote ties map to label 0,
tree leaf ties map to label 0.

Cost. k-NN ``predict`` takes the k nearest training points of each level as
a stable argsort of its distance row would, distance ties going to the
lower training index, but selects them without sorting: O(m) per level for
m training points, in blocks of rows. The tree scores every split candidate
of a feature in one numpy pass per node and feature, then replays the
sequential first-wins rule (a gain must beat the best so far by 1e-15) over
the candidates that set a new running maximum, so it picks the same splits
as a candidate-by-candidate loop.
"""

import numpy as np

from distrel import _kernels, files
from distrel.rebalance import RebalancedSet
from distrel.space import SearchSpace

MODEL_FORMAT_VERSION = 1

_RIDGE = 1e-8
_MAX_NEWTON_STEPS = 100


def _sigmoid(s):
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def _mean_grad(x, s, y, sample_weights, total) -> np.ndarray:
    """Gradient of the weighted mean cross-entropy at the scores ``s = x @ w``."""
    return x.T @ (sample_weights * (_sigmoid(s) - y)) / total


def logistic_loss_and_grad(w, x, y, sample_weights):
    """Weighted mean binary cross-entropy and its gradient in w.

    ``x`` already carries the intercept column. Uses logaddexp for the loss so
    large scores cannot overflow.
    """
    s = x @ w
    total = sample_weights.sum()
    loss = float(np.sum(sample_weights * (np.logaddexp(0.0, s) - y * s)) / total)
    return loss, _mean_grad(x, s, y, sample_weights, total)


def _penalised_grad(w, x, y, sample_weights) -> np.ndarray:
    """The gradient of ``logistic_loss_and_grad`` plus the ridge's, without the loss."""
    return _mean_grad(x, x @ w, y, sample_weights, sample_weights.sum()) + _RIDGE * w


def _floats(value) -> np.ndarray:
    return np.asarray(value, dtype=np.float64)


def _normalize(levels, lower, upper) -> np.ndarray:
    levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
    if levels.shape[1] != lower.shape[0]:
        raise ValueError(
            f"level dimension {levels.shape[1]} != model dimension {lower.shape[0]}"
        )
    return (levels - lower) / (upper - lower)


def _design_matrix(z) -> np.ndarray:
    return np.hstack([np.ones((z.shape[0], 1)), z])


class _Model:
    """The envelope every kind shares.

    A model holds the normalization bounds it was fitted with, its
    hyperparameters (``HYPER`` gives each name and its value) and its
    fitted parameters (``PARAMS`` gives each attribute name and its type).
    ``fit`` turns normalized levels into those parameters; ``_check`` raises
    ValueError unless they fit the model's dimension.
    """

    kind = None
    HYPER = {}
    PARAMS = {}

    def __init__(self, bounds_lower, bounds_upper, hyper, **params):
        self.bounds_lower = _floats(bounds_lower)
        self.bounds_upper = _floats(bounds_upper)
        self.hyper = dict(hyper)
        for name, convert in self.PARAMS.items():
            setattr(self, name, convert(params[name]))
        lower, upper = self.bounds_lower, self.bounds_upper
        if not (lower.ndim == 1 and lower.size and upper.shape == lower.shape
                and np.all(lower < upper)):
            raise ValueError(f"bounds must be one lower < upper pair per dimension, "
                             f"got {lower.tolist()} and {upper.tolist()}")
        self._check()

    @property
    def dim(self) -> int:
        return self.bounds_lower.size

    def _normalize(self, levels) -> np.ndarray:
        return _normalize(levels, self.bounds_lower, self.bounds_upper)

    def to_dict(self) -> dict:
        params = {name: getattr(self, name) for name in self.PARAMS}
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": self.kind,
            "hyper": self.hyper,
            "params": {
                k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in params.items()
            },
            "bounds": {
                "lower": self.bounds_lower.tolist(),
                "upper": self.bounds_upper.tolist(),
            },
        }


class LogisticModel(_Model):
    kind = "logistic"
    PARAMS = {"weights": _floats, "final_grad_norm": float}

    def _check(self) -> None:
        if self.weights.shape != (self.dim + 1,):
            raise ValueError(f"logistic weights have shape {self.weights.shape}, "
                             f"expected ({self.dim + 1},)")

    @staticmethod
    def fit(z, data: RebalancedSet, hyper: dict) -> dict:
        """Newton's method (IRLS) from w = 0 on the weighted mean cross-entropy
        plus ``_RIDGE / 2 * |w|^2``, each step halved while the gradient at its
        end points back along it; RuntimeError if no full step falls to
        ``1e-9 max(1, max|w|)`` within ``_MAX_NEWTON_STEPS``."""
        x = _design_matrix(z)
        sw = data.weights
        w = np.zeros(x.shape[1])
        grad = _penalised_grad(w, x, data.labels, sw)
        for _ in range(_MAX_NEWTON_STEPS):
            p = _sigmoid(x @ w)
            hess = (x.T * (sw * p * (1.0 - p) / sw.sum())) @ x + _RIDGE * np.eye(x.shape[1])
            step = np.linalg.solve(hess, grad)
            converged = np.max(np.abs(step)) <= 1e-9 * max(1.0, np.max(np.abs(w)))
            while (new_grad := _penalised_grad(w - step, x, data.labels, sw)) @ step < 0.0:
                step = step / 2.0
            w, grad = w - step, new_grad
            if converged:
                return {"weights": w, "final_grad_norm": float(np.linalg.norm(grad))}
        raise RuntimeError(f"logistic fit did not converge in {_MAX_NEWTON_STEPS} Newton steps")

    def predict_proba(self, levels) -> np.ndarray:
        return _sigmoid(_design_matrix(self._normalize(levels)) @ self.weights)

    def predict(self, levels) -> np.ndarray:
        return (self.predict_proba(levels) >= 0.5).astype(np.int64)


class TreeModel(_Model):
    kind = "tree"
    HYPER = {"max_depth": 8, "min_leaf": 5}
    PARAMS = {"root": dict}

    def _check(self) -> None:
        nodes = [self.root]
        while nodes:
            node = nodes.pop()
            if "label" in node:
                if node["label"] not in (0, 1):
                    raise ValueError(f"tree leaf label {node['label']!r} is not 0 or 1")
                continue
            if not (isinstance(node["feature"], int) and 0 <= node["feature"] < self.dim):
                raise ValueError(f"tree node feature {node['feature']!r} outside [0, {self.dim})")
            if not isinstance(node["threshold"], (int, float)):
                raise ValueError(f"tree node threshold {node['threshold']!r} is not a number")
            nodes += [node["left"], node["right"]]

    @staticmethod
    def fit(z, data: RebalancedSet, hyper: dict) -> dict:
        return {"root": _build_node(
            z, data.labels, data.weights, 0, hyper["max_depth"], hyper["min_leaf"]
        )}

    def predict(self, levels) -> np.ndarray:
        z = self._normalize(levels)
        out = np.empty(z.shape[0], dtype=np.int64)
        for i in range(z.shape[0]):
            node = self.root
            while "label" not in node:
                if z[i, node["feature"]] <= node["threshold"]:
                    node = node["left"]
                else:
                    node = node["right"]
            out[i] = node["label"]
        return out


class KnnModel(_Model):
    kind = "knn"
    HYPER = {"k": 5}
    PARAMS = {"points": _floats, "labels": lambda v: np.asarray(v, dtype=np.int64)}

    def _check(self) -> None:
        k = self.hyper["k"]
        if not isinstance(k, int) or k < 1:
            raise ValueError(f"k must be an integer >= 1, got {k!r}")
        m = self.points.shape[0]
        if self.points.shape != (m, self.dim) or m == 0:
            raise ValueError(f"k-NN points have shape {self.points.shape}, "
                             f"expected (m, {self.dim}) with m >= 1")
        if self.labels.shape != (m,):
            raise ValueError(f"k-NN labels have shape {self.labels.shape}, expected ({m},)")

    @staticmethod
    def fit(z, data: RebalancedSet, hyper: dict) -> dict:
        """Stores the training points; sample weights are ignored."""
        return {"points": z, "labels": data.labels}

    def predict(self, levels) -> np.ndarray:
        """Majority vote of the k nearest training points of each level.

        One ``pairwise_sq_dists`` call gives every squared distance; the k
        nearest of each row are then selected by ``_kernels.nearest_k``, the
        same set as a stable argsort of the row (distance ties go to the
        lower training index) at O(m) rather than O(m log m) per row of m
        training points.
        """
        z = self._normalize(levels)
        k = min(self.hyper["k"], self.points.shape[0])
        d = _kernels.pairwise_sq_dists(
            np.ascontiguousarray(z), np.ascontiguousarray(self.points)
        )
        votes = self.labels[_kernels.nearest_k(d, k)].sum(axis=1)
        # strict majority of ones; ties (even k with votes == k/2) go to 0
        return (2 * votes > k).astype(np.int64)


_KINDS = {cls.kind: cls for cls in (LogisticModel, TreeModel, KnnModel)}
KINDS = tuple(_KINDS)


def _model_class(kind):
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}; known: {KINDS}")
    return _KINDS[kind]


def train(kind: str, data: RebalancedSet, space: SearchSpace):
    """Train one distortion-classifier kind on a rebalanced set."""
    cls = _model_class(kind)
    counts = data.class_counts()
    if min(counts) == 0:
        raise ValueError(f"training data has a single class (counts {counts})")
    params = cls.fit(_normalize(data.levels, space.lowers, space.uppers), data, cls.HYPER)
    return cls(space.lowers, space.uppers, cls.HYPER, **params)


def _leaf(labels, weights) -> dict:
    w1 = float(weights[labels == 1].sum())
    w0 = float(weights[labels == 0].sum())
    return {"label": 1 if w1 > w0 else 0}


def _gini(w0, w1):
    """Gini impurity of weighted class totals, elementwise; 0 where the
    total is not positive."""
    total = w0 + w1
    with np.errstate(divide="ignore", invalid="ignore"):
        p0 = w0 / total
        p1 = w1 / total
        impurity = 1.0 - p0 * p0 - p1 * p1
    return np.where(total <= 0.0, 0.0, impurity)


def _build_node(z, labels, weights, depth, max_depth, min_leaf) -> dict:
    n = z.shape[0]
    if depth >= max_depth or n < 2 * min_leaf or len(np.unique(labels)) == 1:
        return _leaf(labels, weights)

    total_w0 = float(weights[labels == 0].sum())
    total_w1 = float(weights[labels == 1].sum())
    parent = float(_gini(total_w0, total_w1))
    best_gain = 0.0
    best = None
    for j in range(z.shape[1]):
        order = np.argsort(z[:, j], kind="stable")
        vals = z[order, j]
        w = weights[order]
        lab = labels[order]
        cum_w1 = np.cumsum(w * (lab == 1))
        cum_w = np.cumsum(w)
        # candidate split after position i: left = rows [0..i]
        i = np.arange(min_leaf - 1, n - min_leaf)
        i = i[vals[i] != vals[i + 1]]
        lw = cum_w[i]
        lw1 = cum_w1[i]
        rw = cum_w[-1] - lw
        rw1 = cum_w1[-1] - lw1
        frac_l = lw / cum_w[-1]
        child = frac_l * _gini(lw - lw1, lw1) + (1 - frac_l) * _gini(rw - rw1, rw1)
        gain = parent - child
        # in order, a candidate wins if it beats the best so far by 1e-15; one
        # that does not exceed every earlier gain cannot, so only the rest
        # are replayed
        earlier = np.fmax.accumulate(np.concatenate(([best_gain], gain)))[:-1]
        for t in np.flatnonzero(gain > earlier):
            if gain[t] > best_gain + 1e-15:
                best_gain = gain[t]
                best = (j, 0.5 * (vals[i[t]] + vals[i[t] + 1]))
    if best is None:
        return _leaf(labels, weights)

    j, threshold = best
    mask = z[:, j] <= threshold
    return {
        "feature": int(j),
        "threshold": float(threshold),
        "left": _build_node(
            z[mask], labels[mask], weights[mask], depth + 1, max_depth, min_leaf
        ),
        "right": _build_node(
            z[~mask], labels[~mask], weights[~mask], depth + 1, max_depth, min_leaf
        ),
    }


def model_from_dict(doc: dict):
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    bounds = doc["bounds"]
    return _model_class(doc["kind"])(
        bounds["lower"], bounds["upper"], doc["hyper"], **doc["params"]
    )


def save_model(path, model) -> None:
    files.write_json(path, model.to_dict())


def load_model(path):
    doc = files.read_json(path)
    with files.fields_of(path):
        return model_from_dict(doc)
