"""Distortion-classifiers: map a distortion level to a reliable/non-reliable label.

``train(kind, data, space, hyper)`` fits one of ``KINDS`` on a rebalanced set;
``hyper`` may override the fixed defaults each kind lists in ``HYPER``:

- ``logistic``: logistic regression by full-batch gradient descent on the
  weighted cross-entropy, 500 epochs at learning rate 0.1 (halved once if
  the loss rises);
- ``tree``: a CART decision tree on Gini impurity with weighted counts,
  depth 8, at least 5 rows per leaf;
- ``knn``: k-nearest neighbours with k = 5; it ignores sample weights.

All operate on features normalized to the unit cube; each trained model
snapshots the normalization bounds it was fitted with and serializes them
with its hyperparameters and fitted parameters. Tie conventions are fixed:
logistic probability 0.5 maps to label 1, k-NN vote ties map to label 0,
tree leaf ties map to label 0.
"""

import json
import warnings

import numpy as np

from distrel import _kernels
from distrel.rebalance import RebalancedSet
from distrel.space import SearchSpace

MODEL_FORMAT_VERSION = 1


def _sigmoid(s):
    out = np.empty_like(s)
    pos = s >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-s[pos]))
    es = np.exp(s[~pos])
    out[~pos] = es / (1.0 + es)
    return out


def logistic_loss_and_grad(w, x, y, sample_weights):
    """Weighted mean binary cross-entropy and its gradient in w.

    ``x`` already carries the intercept column. Uses logaddexp for the loss so
    large scores cannot overflow.
    """
    s = x @ w
    total = sample_weights.sum()
    loss = float(np.sum(sample_weights * (np.logaddexp(0.0, s) - y * s)) / total)
    grad = x.T @ (sample_weights * (_sigmoid(s) - y)) / total
    return loss, grad


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
    hyperparameters (``HYPER`` gives each name and its default) and its
    fitted parameters (``PARAMS`` gives each attribute name and its type).
    ``fit`` turns normalized levels into those parameters.
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
    HYPER = {"epochs": 500, "learning_rate": 0.1}
    PARAMS = {"weights": _floats, "final_grad_norm": float}

    @staticmethod
    def fit(z, data: RebalancedSet, hyper: dict) -> dict:
        """Gradient descent; one retry at half the rate (recorded in
        ``hyper``) before giving up on monotone descent."""
        x = _design_matrix(z)
        y = data.labels.astype(np.float64)
        epochs, lr = hyper["epochs"], hyper["learning_rate"]
        weights, grad_norm, ok = _descend(x, y, data.weights, epochs, lr)
        if not ok:
            hyper["learning_rate"] = lr / 2.0
            weights, grad_norm, ok = _descend(x, y, data.weights, epochs, lr / 2.0)
            if not ok:
                raise RuntimeError("logistic loss increased even after halving the rate")
        return {"weights": weights, "final_grad_norm": grad_norm}

    def predict_proba(self, levels) -> np.ndarray:
        return _sigmoid(_design_matrix(self._normalize(levels)) @ self.weights)

    def predict(self, levels) -> np.ndarray:
        return (self.predict_proba(levels) >= 0.5).astype(np.int64)


class TreeModel(_Model):
    kind = "tree"
    HYPER = {"max_depth": 8, "min_leaf": 5}
    PARAMS = {"root": dict}

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

    @staticmethod
    def fit(z, data: RebalancedSet, hyper: dict) -> dict:
        if hyper["k"] < 1:
            raise ValueError(f"k must be >= 1, got {hyper['k']}")
        if not np.allclose(data.weights, 1.0):
            warnings.warn(
                "k-NN ignores sample weights; use logistic or tree for reweighting",
                stacklevel=3,
            )
        return {"points": z, "labels": data.labels}

    def predict(self, levels) -> np.ndarray:
        z = self._normalize(levels)
        k = min(int(self.hyper["k"]), self.points.shape[0])
        d = _kernels.pairwise_sq_dists(
            np.ascontiguousarray(z), np.ascontiguousarray(self.points)
        )
        order = np.argsort(d, axis=1, kind="stable")[:, :k]
        votes = self.labels[order].sum(axis=1)
        # strict majority of ones; ties (even k with votes == k/2) go to 0
        return (2 * votes > k).astype(np.int64)


_KINDS = {cls.kind: cls for cls in (LogisticModel, TreeModel, KnnModel)}
KINDS = tuple(_KINDS)


def _model_class(kind):
    if kind not in _KINDS:
        raise ValueError(f"unknown model kind {kind!r}; known: {KINDS}")
    return _KINDS[kind]


def _parse_hyper(cls, hyper) -> dict:
    """The kind's defaults overridden by ``hyper``, cast to the defaults' types."""
    hyper = dict(hyper or {})
    unknown = sorted(set(hyper) - set(cls.HYPER))
    if unknown:
        raise ValueError(f"unknown {cls.kind} hyperparameters {unknown}")
    return {name: type(default)(hyper.get(name, default)) for name, default in cls.HYPER.items()}


def train(kind: str, data: RebalancedSet, space: SearchSpace, hyper: dict = None):
    """Train one distortion-classifier kind on a rebalanced set."""
    cls = _model_class(kind)
    counts = data.class_counts()
    if min(counts) == 0:
        raise ValueError(f"training data has a single class (counts {counts})")
    hyper = _parse_hyper(cls, hyper)
    params = cls.fit(_normalize(data.levels, space.lowers, space.uppers), data, hyper)
    return cls(space.lowers, space.uppers, hyper, **params)


def predict_label(model, level) -> int:
    """Deterministic 0/1 prediction at a single level."""
    return int(model.predict(np.asarray(level, dtype=np.float64)[None, :])[0])


def _descend(x, y, sw, epochs, lr):
    w = np.zeros(x.shape[1])
    prev_loss, grad = logistic_loss_and_grad(w, x, y, sw)
    for _ in range(epochs):
        w = w - lr * grad
        loss, grad = logistic_loss_and_grad(w, x, y, sw)
        if loss > prev_loss + 1e-9:
            return w, float(np.linalg.norm(grad)), False
        prev_loss = loss
    return w, float(np.linalg.norm(grad)), True


def _leaf(labels, weights) -> dict:
    w1 = float(weights[labels == 1].sum())
    w0 = float(weights[labels == 0].sum())
    return {"label": 1 if w1 > w0 else 0}


def _gini(w0, w1) -> float:
    total = w0 + w1
    if total <= 0.0:
        return 0.0
    p0 = w0 / total
    p1 = w1 / total
    return 1.0 - p0 * p0 - p1 * p1


def _build_node(z, labels, weights, depth, max_depth, min_leaf) -> dict:
    n = z.shape[0]
    if depth >= max_depth or n < 2 * min_leaf or len(np.unique(labels)) == 1:
        return _leaf(labels, weights)

    total_w0 = float(weights[labels == 0].sum())
    total_w1 = float(weights[labels == 1].sum())
    parent = _gini(total_w0, total_w1)
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
        for i in range(min_leaf - 1, n - min_leaf):
            if vals[i] == vals[i + 1]:
                continue
            lw = cum_w[i]
            lw1 = cum_w1[i]
            rw = cum_w[-1] - lw
            rw1 = cum_w1[-1] - lw1
            frac_l = lw / cum_w[-1]
            child = frac_l * _gini(lw - lw1, lw1) + (1 - frac_l) * _gini(
                rw - rw1, rw1
            )
            gain = parent - child
            if gain > best_gain + 1e-15:
                best_gain = gain
                best = (j, 0.5 * (vals[i] + vals[i + 1]))
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
    with open(path, "w") as fh:
        json.dump(model.to_dict(), fh, indent=2, sort_keys=True)


def load_model(path):
    with open(path) as fh:
        return model_from_dict(json.load(fh))
