"""Accuracy oracles: the black-box map from a distortion level to [0, 1].

Three families behind one calling convention (``oracle(level) -> float`` with
an attached ``space``): a real classifier evaluated on a distorted
verification set, closed-form synthetic oracles, and a memoizing wrapper for
budget audits. Also ships a tiny procedural image dataset plus reference
classifiers so the full pipeline runs with no external data, and an IDX reader
so an MNIST-style subsample can be dropped in.

Every answer the samplers and the grid use comes through ``query`` (one
level) or ``evaluate_many`` (a batch), which hold the oracle contract: an
oracle that raises, or answers outside [0, 1] (NaN and infinities included),
stops the caller with ``OracleError`` naming the level. Every oracle here
answers a batch in one ``evaluate_many`` call; the classifier oracle answers
one level as a batch of one, and warps (and so checks) its images once per
run of levels that share scale, rotation and translation.
"""

import gzip
import math
import zlib
from dataclasses import dataclass

import numpy as np

from distrel import _kernels, files
from distrel.distortion import check_pixel_range, distort_set, distortion_space, warp_set
from distrel.space import SearchSpace


class OracleError(RuntimeError):
    """An accuracy oracle failed; carries the offending distortion level."""

    def __init__(self, message, level=None):
        super().__init__(message)
        self.level = None if level is None else np.array(level, dtype=np.float64)

    def __reduce__(self):
        # keeps .level when a sampler run in a worker process sends it back
        return type(self), (str(self), self.level)


def _outside_unit(value, level) -> OracleError:
    return OracleError(f"oracle returned {value} outside [0, 1] at {level}", level)


def query(oracle, level) -> float:
    """The oracle's accuracy at one level.

    An oracle that raises, or answers outside [0, 1] (NaN included), raises
    OracleError naming ``level``.
    """
    try:
        value = float(oracle(level))
    except Exception as exc:
        raise OracleError(f"oracle failed at level {level}: {exc}", level) from exc
    if not 0.0 <= value <= 1.0:
        raise _outside_unit(value, level)
    return value


def evaluate_many(oracle, levels) -> np.ndarray:
    """The accuracy at each row of ``levels``, under ``query``'s contract.

    An oracle with an ``evaluate_many`` method answers the batch in one call;
    any other is queried level by level. When the batch call raises, the
    levels are queried one by one to name the first that fails.
    """
    levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
    if not hasattr(oracle, "evaluate_many"):
        return np.array([query(oracle, level) for level in levels], dtype=np.float64)
    try:
        values = np.asarray(oracle.evaluate_many(levels), dtype=np.float64)
    except Exception as exc:
        for level in levels:
            query(oracle, level)
        raise OracleError(f"oracle failed on a batch of {len(levels)} levels: {exc}") from exc
    if values.shape != (len(levels),):
        raise OracleError(f"oracle returned {values.shape} answers for {len(levels)} levels")
    bad = np.flatnonzero(~((values >= 0.0) & (values <= 1.0)))
    if bad.size:
        raise _outside_unit(float(values[bad[0]]), levels[bad[0]])
    return values


# ---------------------------------------------------------------------------
# Synthetic oracles
# ---------------------------------------------------------------------------

def _unit_ball_volume(d: int) -> float:
    return math.pi ** (d / 2.0) / math.gamma(d / 2.0 + 1.0)


@dataclass(frozen=True)
class SyntheticOracleSpec:
    """Closed-form accuracy surface, and the oracle that answers from it.

    kind "box": ``inside_value`` within the axis-aligned sub-box
    [box_lower, box_upper], ``outside_value`` elsewhere.
    kind "ellipsoid" / "multimodal": max over bumps of
    peak_k * exp(-sum_j ((c_j - center_kj) / scale_kj)^2).
    """

    kind: str
    space: SearchSpace
    box_lower: np.ndarray = None
    box_upper: np.ndarray = None
    inside_value: float = 0.99
    outside_value: float = 0.5
    centers: np.ndarray = None
    scales: np.ndarray = None
    peaks: np.ndarray = None

    def __post_init__(self):
        d = self.space.dim
        if self.kind == "box":
            lo = np.asarray(self.box_lower, dtype=np.float64)
            hi = np.asarray(self.box_upper, dtype=np.float64)
            object.__setattr__(self, "box_lower", lo)
            object.__setattr__(self, "box_upper", hi)
            if lo.shape != (d,) or hi.shape != (d,):
                raise ValueError("box bounds must have one entry per dimension")
            if not np.all((lo >= self.space.lowers) & (hi <= self.space.uppers) & (lo < hi)):
                raise ValueError("positive box must sit strictly inside the space")
            for v in (self.inside_value, self.outside_value):
                if not 0.0 <= v <= 1.0:
                    raise ValueError("box values must lie in [0, 1]")
            if self.inside_value <= self.outside_value:
                raise ValueError("inside_value must exceed outside_value")
        elif self.kind in ("ellipsoid", "multimodal"):
            centers = np.atleast_2d(np.asarray(self.centers, dtype=np.float64))
            scales = np.atleast_2d(np.asarray(self.scales, dtype=np.float64))
            peaks = np.atleast_1d(np.asarray(self.peaks, dtype=np.float64))
            object.__setattr__(self, "centers", centers)
            object.__setattr__(self, "scales", scales)
            object.__setattr__(self, "peaks", peaks)
            k = centers.shape[0]
            if self.kind == "ellipsoid" and k != 1:
                raise ValueError("ellipsoid kind takes exactly one bump")
            if centers.shape != (k, d) or scales.shape != (k, d) or peaks.shape != (k,):
                raise ValueError("centers/scales/peaks shapes are inconsistent")
            if not np.all(np.isfinite(centers)):
                raise ValueError("centers must be finite")
            if not np.all(np.isfinite(scales) & (scales > 0)):
                raise ValueError("scales must be finite and > 0")
            if not np.all((peaks > 0) & (peaks <= 1.0)):
                raise ValueError("peaks must lie in (0, 1]")
        else:
            raise ValueError(f"unknown synthetic oracle kind {self.kind!r}")

    # -- accuracy surface ---------------------------------------------------

    def evaluate(self, levels) -> np.ndarray:
        levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
        if self.kind == "box":
            inside = np.all(
                (levels >= self.box_lower) & (levels <= self.box_upper), axis=1
            )
            return np.where(inside, self.inside_value, self.outside_value)
        acc = np.zeros(levels.shape[0])
        for center, scale, peak in zip(self.centers, self.scales, self.peaks):
            t = (levels - center) / scale
            acc = np.maximum(acc, peak * np.exp(-np.sum(t * t, axis=1)))
        return acc

    def __call__(self, level) -> float:
        level = self.space.validate_level(level)
        return float(self.evaluate(level[None, :])[0])

    def evaluate_many(self, levels) -> np.ndarray:
        levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
        ok = self.space.contains(levels)
        if not np.all(ok):
            self.space.validate_level(levels[int(np.flatnonzero(~ok)[0])])
        return self.evaluate(levels)


# ---------------------------------------------------------------------------
# Image data and reference classifiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationSet:
    """Labeled images used to measure a classifier's accuracy.

    The pixel range is checked here, when the set is built, so a bad
    dataset fails before any oracle call; ``distortion.warp_set`` checks it
    again on each warp.
    """

    images: np.ndarray  # (n, H, W) or (n, H, W, 3), values in [0, 1]
    labels: np.ndarray  # (n,) class indices
    n_classes: int

    def __post_init__(self):
        images = np.asarray(self.images, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "labels", labels)
        if images.shape[0] != labels.shape[0]:
            raise ValueError("images and labels must have equal length")
        if images.shape[0] < 1:
            raise ValueError("verification set needs at least one image")
        check_pixel_range(images)
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValueError(
                f"labels must lie in [0, {self.n_classes - 1}], "
                f"got range [{labels.min()}, {labels.max()}]"
            )

    @property
    def n(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> tuple:
        return self.images.shape[1:]


def make_blob_verification_set(
    n_images: int, n_classes: int = 2, size: int = 16, seed: int = 0,
    noise: float = 0.05,
) -> VerificationSet:
    """Procedural disc/bar/ring images with class-dependent geometry.

    Classes cycle 0..n_classes-1: disc, horizontal bar, vertical bar, ring.
    Shape centers jitter by up to 1.5 px so the task is not pure memorization.
    """
    if not 2 <= n_classes <= 4:
        raise ValueError(f"n_classes must be in [2, 4], got {n_classes}")
    if n_images < n_classes:
        raise ValueError("need at least one image per class")
    rng = np.random.default_rng(seed)
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    images = np.empty((n_images, size, size))
    labels = np.empty(n_images, dtype=np.int64)
    for i in range(n_images):
        cls = i % n_classes
        cx = (size - 1) / 2.0 + rng.uniform(-1.5, 1.5)
        cy = (size - 1) / 2.0 + rng.uniform(-1.5, 1.5)
        rad = np.sqrt((xx - cx) ** 2 + (yy - cy) ** 2)
        if cls == 0:
            mask = rad <= size * 0.22
        elif cls == 1:
            mask = (np.abs(yy - cy) <= size * 0.09) & (np.abs(xx - cx) <= size * 0.34)
        elif cls == 2:
            mask = (np.abs(xx - cx) <= size * 0.09) & (np.abs(yy - cy) <= size * 0.34)
        else:
            mask = (rad <= size * 0.30) & (rad >= size * 0.18)
        img = np.where(mask, 0.9, 0.1) + rng.normal(0.0, noise, (size, size))
        images[i] = np.clip(img, 0.0, 1.0)
        labels[i] = cls
    return VerificationSet(images=images, labels=labels, n_classes=n_classes)


def _flatten(images, image_shape: tuple) -> np.ndarray:
    """A stack of ``image_shape`` images as contiguous rows of pixels."""
    images = np.asarray(images, dtype=np.float64)
    if images.shape[1:] != image_shape:
        raise ValueError(f"images have shape {images.shape[1:]}, "
                         f"classifier was trained on {image_shape}")
    return np.ascontiguousarray(images.reshape(images.shape[0], -1))


class NearestCentroidClassifier:
    """Predicts the class whose mean training image is closest in pixel space."""

    def __init__(self, centroids: np.ndarray, image_shape: tuple):
        self.centroids = centroids
        self.image_shape = tuple(image_shape)

    def predict(self, images) -> np.ndarray:
        d = _kernels.pairwise_sq_dists(_flatten(images, self.image_shape), self.centroids)
        return np.argmin(d, axis=1)


class KnnImageClassifier:
    """k-nearest-neighbor vote over stored training images.

    The k nearest come from ``_kernels.nearest_neighbours``, one block of
    images at a time, so distance ties go to the lower training index;
    class-count ties go to the lowest class index.
    """

    def __init__(self, train_x, train_y, n_classes, image_shape, k=5):
        self.train_x = train_x
        self.train_y = train_y
        self.n_classes = n_classes
        self.image_shape = tuple(image_shape)
        self.k = k

    def predict(self, images) -> np.ndarray:
        flat = _flatten(images, self.image_shape)
        k = min(self.k, self.train_x.shape[0])
        votes = self.train_y[_kernels.nearest_neighbours(flat, self.train_x, k)]
        counts = np.sum(votes[:, :, None] == np.arange(self.n_classes), axis=1)
        return np.argmax(counts, axis=1)


def train_reference_classifier(train: VerificationSet, kind: str):
    """Fit the stand-in image classifier whose reliability gets audited."""
    flat = np.ascontiguousarray(train.images.reshape(train.n, -1))
    counts = np.bincount(train.labels, minlength=train.n_classes)
    empty = np.flatnonzero(counts == 0)
    if empty.size:
        raise ValueError(f"classes {empty.tolist()} have no training examples")
    if kind == "nearest-centroid":
        centroids = np.stack(
            [flat[train.labels == c].mean(axis=0) for c in range(train.n_classes)]
        )
        return NearestCentroidClassifier(centroids, train.image_shape)
    if kind == "k-nn":
        return KnnImageClassifier(
            flat, train.labels, train.n_classes, train.image_shape, k=5
        )
    raise ValueError(f"unknown classifier kind {kind!r}")


class ClassifierOracle:
    """Accuracy of a fixed classifier on the verification set distorted at c.

    The rain seed is fixed per oracle instance (image i always uses
    rain_seed + i), so the oracle is a deterministic function of the level.
    ``oracle(level)`` is ``evaluate_many`` on a batch of one.
    """

    def __init__(self, classifier, verification: VerificationSet, rain_seed: int = 0):
        probe = verification.images[:1]
        classifier.predict(probe)  # raises on shape mismatch
        self.classifier = classifier
        self.verification = verification
        self.rain_seed = rain_seed
        self.space = distortion_space()

    def __call__(self, level) -> float:
        return float(self.evaluate_many([level])[0])

    def evaluate_many(self, levels) -> np.ndarray:
        """The accuracy at each row of ``levels``.

        The verification set is warped once per run of consecutive rows with
        the same first four coordinates (bit for bit), and each row's later
        stages run on a copy of that warp. So a batch holds one warped set
        and one row's output at a time, and a ``space.grid`` batch, in C
        order, warps once per ``points_per_dim ** 2`` rows.
        """
        levels = np.atleast_2d(np.asarray(levels, dtype=np.float64))
        images = self.verification.images
        values = np.empty(len(levels))
        run = warped = None
        for i, level in enumerate(levels):
            key = level[:4].tobytes()
            if key != run:
                run, warped = key, warp_set(images, level)
            distorted = distort_set(images, level, self.rain_seed, warped=warped)
            values[i] = np.mean(self.classifier.predict(distorted) == self.verification.labels)
        return values


# ---------------------------------------------------------------------------
# Caching wrapper
# ---------------------------------------------------------------------------

class CachingOracle:
    """Memoizes by exact level coordinates."""

    def __init__(self, inner):
        self.inner = inner
        self.space = getattr(inner, "space", None)
        self._cache = {}
        self.inner_calls = 0
        self.queries = 0

    @staticmethod
    def _keys(levels) -> list:
        """One cache key per row of ``levels``: its coordinates as a tuple of floats."""
        return list(map(tuple, np.atleast_2d(np.asarray(levels, dtype=np.float64)).tolist()))

    def __call__(self, level) -> float:
        key = self._keys(level)[0]
        self.queries += 1
        if key not in self._cache:
            self._cache[key] = float(self.inner(level))
            self.inner_calls += 1
        return self._cache[key]

    def evaluate_many(self, levels) -> np.ndarray:
        """The cached accuracy at each row of ``levels``.

        Every row counts as one query, as if each were queried here; the
        distinct levels not cached yet go to the inner oracle in one
        ``evaluate_many`` batch, and each counts as one inner call.
        """
        keys = self._keys(levels)
        self.queries += len(keys)
        misses = list(dict.fromkeys(key for key in keys if key not in self._cache))
        if misses:
            values = evaluate_many(self.inner, np.array(misses))
            self._cache.update(zip(misses, values.tolist()))
            self.inner_calls += len(misses)
        return np.array([self._cache[key] for key in keys])

    def record(self, levels, values) -> None:
        """Cache values computed elsewhere, such as in a forked worker.

        Each level not cached yet counts as one query and one inner call, as
        if it had been queried here; cached levels are left as they are.
        """
        for key, value in zip(self._keys(levels), values):
            if key not in self._cache:
                self._cache[key] = float(value)
                self.queries += 1
                self.inner_calls += 1


def caching_oracle(inner) -> CachingOracle:
    return CachingOracle(inner)


# ---------------------------------------------------------------------------
# IDX (MNIST binary layout) loading
# ---------------------------------------------------------------------------

def _read_idx(path, magic: int, dims: int) -> np.ndarray:
    """The uint8 array of an IDX file whose header is ``magic`` then ``dims``
    sizes. A file that cannot be read, holds another magic or is shorter than
    its sizes say raises ``files.InputFileError`` naming ``path``."""
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            raw = fh.read()
    except (OSError, EOFError, zlib.error) as exc:  # EOFError: a cut-off gzip stream
        raise files._unreadable(path, exc) from None
    found = int.from_bytes(raw[0:4], "big")
    if found != magic:
        raise files.InputFileError(f"{path}: bad IDX magic {found}, expected {magic}")
    offset = 4 + 4 * dims
    shape = [int.from_bytes(raw[4 + 4 * i : 8 + 4 * i], "big") for i in range(dims)]
    count = math.prod(shape)
    if len(raw) < offset + count:
        raise files.InputFileError(f"{path}: truncated, {len(raw)} bytes where sizes "
                                   f"{shape} need {offset + count}")
    return np.frombuffer(raw, dtype=np.uint8, count=count, offset=offset).reshape(shape)


def load_idx_images(path) -> np.ndarray:
    """Images from an IDX3 file, scaled to [0, 1], shape (n, rows, cols)."""
    return _read_idx(path, 2051, 3).astype(np.float64) / 255.0


def load_idx_labels(path) -> np.ndarray:
    return _read_idx(path, 2049, 1).astype(np.int64)


def load_idx_verification_set(images_path, labels_path) -> VerificationSet:
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise files.InputFileError(
            f"{images_path}: {images.shape[0]} images but {labels_path}: {labels.shape[0]} labels"
        )
    if labels.size == 0:
        raise files.InputFileError(f"{images_path} and {labels_path} hold no images")
    return VerificationSet(
        images=images, labels=labels, n_classes=int(labels.max()) + 1
    )
