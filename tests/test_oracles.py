import gzip
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distrel import _kernels, cli
from distrel.distortion import DISTORTION_DIMS, apply_distortion, distortion_space, identity_level
from distrel.evaluation import build_grid_test_set
from distrel.oracles import (
    CachingOracle,
    ClassifierOracle,
    KnnImageClassifier,
    OracleError,
    SyntheticOracleSpec,
    VerificationSet,
    _unit_ball_volume,
    caching_oracle,
    load_idx_images,
    load_idx_labels,
    load_idx_verification_set,
    make_blob_verification_set,
    train_reference_classifier,
)
from distrel.presets import benchmark_oracle_spec, box_oracle_spec, multimodal_oracle_spec
from distrel.sampling import SamplerConfig, run_gp_sampling, run_random_sampling


def small_space():
    from distrel.space import SearchSpace

    return SearchSpace(("u", "v"), np.zeros(2), np.ones(2))


def ellipsoid_spec(space, fraction, h=0.85, peak=0.99):
    a = (fraction / _unit_ball_volume(space.dim)) ** (1.0 / space.dim)
    r = np.sqrt(np.log(peak / h))
    center = (space.lowers + space.uppers) / 2.0
    return SyntheticOracleSpec(
        kind="ellipsoid",
        space=space,
        centers=center[None, :],
        scales=(a * space.ranges / r)[None, :],
        peaks=np.array([peak]),
    )


class TestSyntheticOracles:
    def test_box_values(self):
        spec = box_oracle_spec(positive_fraction=0.1)
        center = (spec.space.lowers + spec.space.uppers) / 2.0
        assert spec(center) == 0.99
        assert spec(spec.space.lowers) == 0.5

    def test_ellipsoid_center_is_peak(self):
        spec = benchmark_oracle_spec()
        assert spec(spec.centers[0]) == pytest.approx(0.99, abs=1e-12)

    def test_ellipsoid_grid_enumeration_matches_closed_form(self):
        # independent membership test on a 9-per-dim lattice; the region is
        # small enough that lattice quantization stays inside the tolerance
        spec = ellipsoid_spec(distortion_space(), fraction=0.008)
        grid = spec.space.grid(9)
        r2 = np.log(spec.peaks[0] / 0.85)
        member = np.sum(((grid - spec.centers[0]) / spec.scales[0]) ** 2, axis=1) <= r2
        assert abs(0.008 - member.mean()) < 0.005

    @pytest.mark.parametrize(
        "spec,h,fraction",
        [
            (benchmark_oracle_spec(positive_fraction=0.03), 0.85, 0.03),
            (box_oracle_spec(positive_fraction=0.03), 0.9, 0.03),
            (multimodal_oracle_spec(), 0.85, None),
        ],
        ids=["ellipsoid", "box", "multimodal"],
    )
    def test_positive_fraction_matches_monte_carlo(self, spec, h, fraction):
        # {accuracy >= h} fills the share of the box each preset was built
        # for; multimodal's two disjoint bumps fill under 1 % together
        rng = np.random.default_rng(123)
        pts = spec.space.denormalize(rng.random((1_000_000, spec.space.dim)))
        hits = float(np.mean(spec.evaluate(pts) >= h))
        if fraction is None:
            assert 0.0 < hits < 0.01
        else:
            se = max(np.sqrt(hits * (1.0 - hits) / 1e6), 1e-9)
            assert abs(hits - fraction) <= 3.0 * se

    def test_values_stay_in_unit_interval(self):
        rng = np.random.default_rng(5)
        spec = multimodal_oracle_spec()
        pts = spec.space.denormalize(rng.random((10_000, 6)))
        acc = spec.evaluate(pts)
        assert acc.min() >= 0.0 and acc.max() <= 1.0

    def test_out_of_space_level_rejected(self):
        oracle = benchmark_oracle_spec()
        bad = oracle.space.uppers + 1.0
        with pytest.raises(ValueError, match="outside"):
            oracle(bad)
        with pytest.raises(ValueError, match="outside"):
            oracle.evaluate_many([oracle.space.lowers, bad])

    def test_malformed_spec_rejected(self):
        space = small_space()
        with pytest.raises(ValueError, match="kind"):
            SyntheticOracleSpec(kind="pyramid", space=space)
        with pytest.raises(ValueError, match="scales"):
            SyntheticOracleSpec(
                kind="ellipsoid", space=space,
                centers=np.array([[0.5, 0.5]]),
                scales=np.array([[0.1, -0.1]]),
                peaks=np.array([0.9]),
            )
        with pytest.raises(ValueError, match="inside_value"):
            SyntheticOracleSpec(
                kind="box", space=space,
                box_lower=np.array([0.2, 0.2]), box_upper=np.array([0.8, 0.8]),
                inside_value=0.4, outside_value=0.5,
            )

    @pytest.mark.parametrize("field, value", [
        ("centers", [[np.nan, 0.5]]), ("centers", [[0.5, np.inf]]), ("scales", [[0.1, np.inf]]),
    ])
    def test_non_finite_bump_rejected(self, field, value):
        bump = {"centers": [[0.5, 0.5]], "scales": [[0.1, 0.1]], "peaks": [0.9], field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            SyntheticOracleSpec(kind="ellipsoid", space=small_space(), **bump)


class TestBlobsAndClassifiers:
    def test_blob_set_shapes_and_labels(self):
        vs = make_blob_verification_set(40, n_classes=4, size=16, seed=0)
        assert vs.images.shape == (40, 16, 16)
        assert set(vs.labels.tolist()) == {0, 1, 2, 3}
        assert vs.images.min() >= 0.0 and vs.images.max() <= 1.0

    def test_single_image_per_class_predicts_own_class(self):
        vs = make_blob_verification_set(3, n_classes=3, size=16, seed=1, noise=0.0)
        clf = train_reference_classifier(vs, "nearest-centroid")
        preds = clf.predict(vs.images)
        np.testing.assert_array_equal(preds, vs.labels)

    def test_constant_classes_fully_separable(self):
        imgs = np.concatenate(
            [np.full((10, 8, 8), 0.1), np.full((10, 8, 8), 0.9)]
        )
        labels = np.array([0] * 10 + [1] * 10)
        train = VerificationSet(imgs, labels, 2)
        clf = train_reference_classifier(train, "nearest-centroid")
        held = np.concatenate([np.full((5, 8, 8), 0.12), np.full((5, 8, 8), 0.88)])
        np.testing.assert_array_equal(clf.predict(held), [0] * 5 + [1] * 5)

    def test_nearest_centroid_matches_bruteforce_distances(self):
        vs = make_blob_verification_set(60, n_classes=3, size=12, seed=2)
        clf = train_reference_classifier(vs, "nearest-centroid")
        probes = make_blob_verification_set(20, n_classes=3, size=12, seed=3)
        preds = clf.predict(probes.images)
        flat = probes.images.reshape(20, -1)
        cents = np.stack(
            [vs.images[vs.labels == c].reshape(-1, 144).mean(axis=0) for c in range(3)]
        )
        for i in range(20):
            dists = [np.sum((flat[i] - cents[c]) ** 2) for c in range(3)]
            assert preds[i] == int(np.argmin(dists))

    def test_knn_classifier_predicts_training_points(self):
        vs = make_blob_verification_set(30, n_classes=2, size=12, seed=4)
        clf = train_reference_classifier(vs, "k-nn")
        preds = clf.predict(vs.images[:10])
        np.testing.assert_array_equal(preds, vs.labels[:10])

    def test_knn_vote_matches_explicit_loop_on_ties(self):
        # eight distinct images, each stored three times under random labels:
        # neighbours tie on distance, and k = 4 gives 2-2 vote ties; 300
        # queries span more than one block of the k-nearest search
        rng = np.random.default_rng(12)
        distinct = rng.random((8, 4, 4))
        train_x = np.repeat(distinct, 3, axis=0).reshape(24, -1)
        train_y = rng.integers(0, 3, 24)
        clf = KnnImageClassifier(train_x, train_y, 3, (4, 4), k=4)
        queries = np.concatenate([distinct, rng.random((292, 4, 4))])
        d = _kernels.pairwise_sq_dists(queries.reshape(len(queries), -1), train_x)
        want, two_two = [], 0
        for row in d:
            nearest = sorted(range(24), key=lambda j: (row[j], j))[:4]
            counts = [0, 0, 0]
            for j in nearest:
                counts[train_y[j]] += 1
            two_two += sorted(counts) == [0, 2, 2]
            want.append(counts.index(max(counts)))
        assert two_two > 0
        np.testing.assert_array_equal(clf.predict(queries), want)

    def test_empty_class_rejected(self):
        imgs = np.zeros((4, 8, 8))
        labels = np.array([0, 0, 1, 1])
        train = VerificationSet(imgs, labels, 3)
        with pytest.raises(ValueError, match=r"classes \[2\]"):
            train_reference_classifier(train, "nearest-centroid")


    @pytest.mark.parametrize("bad", [-0.5, 1.5, np.nan])
    def test_pixels_outside_unit_range_rejected(self, bad):
        imgs = np.full((2, 4, 4), 0.5)
        imgs[1, 0, 0] = bad
        with pytest.raises(ValueError, match=r"pixel values must lie in \[0, 1\]"):
            VerificationSet(imgs, np.array([0, 1]), 2)


class TestClassifierOracle:
    def test_constant_predictor_rate(self):
        class AlwaysZero:
            def predict(self, images):
                return np.zeros(np.asarray(images).shape[0], dtype=np.int64)

        labels = np.array([0, 0, 0, 1, 1, 1, 1, 1, 1, 1])  # 30% class 0
        vs = VerificationSet(np.random.default_rng(0).random((10, 16, 16)), labels, 2)
        oracle = ClassifierOracle(AlwaysZero(), vs)
        for lv in (identity_level(), np.array([1.1, 30.0, 0.1, -0.1, 0.8, 0.5])):
            assert oracle(lv) == pytest.approx(0.3)

    def test_perfect_memory_at_identity(self):
        vs = make_blob_verification_set(20, n_classes=2, size=12, seed=5)
        clf = train_reference_classifier(vs, "k-nn")  # trained on the same set
        oracle = ClassifierOracle(clf, vs)
        assert oracle(identity_level()) == 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        lv=st.tuples(
            *(
                st.one_of(st.sampled_from([lo, hi]), st.floats(lo, hi))
                for _, lo, hi in DISTORTION_DIMS
            )
        ).map(np.array),
        kind=st.sampled_from(["nearest-centroid", "k-nn"]),
        rain_seed=st.integers(0, 2**31),
    )
    def test_accuracy_matches_per_image_enumeration(self, lv, kind, rain_seed):
        # each image distorted and classified alone, against one call that
        # distorts and classifies the whole set at once
        vs = make_blob_verification_set(10, n_classes=2, size=12, seed=6)
        train = make_blob_verification_set(40, n_classes=2, size=12, seed=7)
        clf = train_reference_classifier(train, kind)
        oracle = ClassifierOracle(clf, vs, rain_seed=rain_seed)
        per_image = [
            int(clf.predict(apply_distortion(img, lv, rain_seed + i)[None])[0] == y)
            for i, (img, y) in enumerate(zip(vs.images, vs.labels))
        ]
        assert oracle(lv) == sum(per_image) / 10.0

    def test_rotation_degrades_accuracy(self):
        vs = make_blob_verification_set(200, n_classes=2, size=16, seed=8)
        train = make_blob_verification_set(100, n_classes=2, size=16, seed=9)
        clf = train_reference_classifier(train, "nearest-centroid")
        oracle = ClassifierOracle(clf, vs)
        at_zero = oracle(identity_level())
        rotated = identity_level()
        rotated[1] = 60.0
        at_sixty = oracle(rotated)
        assert at_sixty <= at_zero

    def test_shape_mismatch_rejected(self):
        vs = make_blob_verification_set(10, n_classes=2, size=12, seed=10)
        other = make_blob_verification_set(10, n_classes=2, size=16, seed=10)
        clf = train_reference_classifier(other, "nearest-centroid")
        with pytest.raises(ValueError, match="shape"):
            ClassifierOracle(clf, vs)

    def test_deterministic(self):
        vs = make_blob_verification_set(30, n_classes=2, size=12, seed=12)
        clf = train_reference_classifier(vs, "nearest-centroid")
        oracle = ClassifierOracle(clf, vs, rain_seed=5)
        lv = np.array([1.2, 45.0, -0.1, 0.1, 0.75, 0.9])
        assert oracle(lv) == oracle(lv)


class TestCachingOracle:
    def test_repeat_query_hits_cache(self):
        calls = []

        def inner(level):
            calls.append(tuple(level))
            return 0.5

        wrapped = caching_oracle(inner)
        lv = np.array([0.1, 0.2])
        a = wrapped(lv)
        b = wrapped(lv)
        assert a == b == 0.5
        assert len(calls) == 1
        assert wrapped.inner_calls == 1
        assert wrapped.queries == 2

    def test_call_count_equals_distinct_levels(self):
        rng = np.random.default_rng(0)
        wrapped = caching_oracle(lambda c: float(np.mean(c)))
        levels = rng.random((100, 3))
        for lv in levels:
            wrapped(lv)
            wrapped(lv)
        assert wrapped.inner_calls == 100
        assert len(wrapped._cache) == 100

    def test_cache_returns_bit_identical_value(self):
        wrapped = caching_oracle(lambda c: 1.0 / 3.0)
        lv = np.array([0.5])
        assert wrapped(lv) == wrapped(lv)

    def test_batch_counts_as_per_level_queries(self):
        # one batch with a repeated level and cached levels counts as the same
        # rows queried one by one, and sends only its distinct misses inward
        batches = []

        class Inner:
            def __call__(self, level):
                return float(level[0])

            def evaluate_many(self, levels):
                batches.append(levels.copy())
                return levels[:, 0]

        fresh = np.random.default_rng(1).random((5, 2))
        batch = np.vstack([fresh, fresh[1:2], fresh[3:4]])
        one_by_one, batched = caching_oracle(Inner()), caching_oracle(Inner())
        for wrapped in (one_by_one, batched):
            wrapped(fresh[0])
            wrapped(fresh[3])
        expected = [one_by_one(level) for level in batch]
        np.testing.assert_array_equal(batched.evaluate_many(batch), expected)
        assert (batched.queries, batched.inner_calls, len(batched._cache)) == (
            one_by_one.queries, one_by_one.inner_calls, len(one_by_one._cache)
        ) == (9, 5, 5)
        assert len(batches) == 1
        np.testing.assert_array_equal(batches[0], fresh[[1, 2, 4]])

    def test_record_counts_new_levels_only(self):
        calls = []
        wrapped = caching_oracle(lambda c: calls.append(c) or 0.5)
        wrapped(np.array([0.1, 0.2]))
        wrapped.record(np.array([[0.1, 0.2], [0.3, 0.4], [0.3, 0.4]]), [0.9, 0.7, 0.7])
        assert (wrapped.inner_calls, wrapped.queries, len(wrapped._cache)) == (2, 2, 2)
        # a recorded level is served from the cache; a cached one keeps its value
        assert wrapped(np.array([0.3, 0.4])) == 0.7
        assert wrapped(np.array([0.1, 0.2])) == 0.5
        assert len(calls) == 1


class TestIdx:
    def _write_idx(self, tmp_path, images, labels, compress=False):
        n, rows, cols = images.shape
        img_bytes = struct.pack(">IIII", 2051, n, rows, cols) + images.tobytes()
        lab_bytes = struct.pack(">II", 2049, n) + labels.tobytes()
        suffix = ".gz" if compress else ""
        ipath = tmp_path / f"images.idx3{suffix}"
        lpath = tmp_path / f"labels.idx1{suffix}"
        if compress:
            ipath.write_bytes(gzip.compress(img_bytes))
            lpath.write_bytes(gzip.compress(lab_bytes))
        else:
            ipath.write_bytes(img_bytes)
            lpath.write_bytes(lab_bytes)
        return ipath, lpath

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, (5, 4, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 1, 0], dtype=np.uint8)
        ipath, lpath = self._write_idx(tmp_path, images, labels)
        got = load_idx_images(ipath)
        np.testing.assert_allclose(got, images.astype(float) / 255.0)
        np.testing.assert_array_equal(load_idx_labels(lpath), labels)

    def test_gzip_transparent(self, tmp_path):
        rng = np.random.default_rng(2)
        images = rng.integers(0, 256, (3, 2, 2), dtype=np.uint8)
        labels = np.array([1, 0, 1], dtype=np.uint8)
        ipath, lpath = self._write_idx(tmp_path, images, labels, compress=True)
        vs = load_idx_verification_set(ipath, lpath)
        assert vs.n == 3
        assert vs.n_classes == 2

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 1234, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(ValueError, match="magic"):
            load_idx_images(path)

    def test_limit(self, tmp_path):
        # an idx dataset's first verification_limit images verify, the next
        # train_limit train the classifier
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, (10, 2, 2), dtype=np.uint8)
        labels = np.arange(10, dtype=np.uint8) % 3
        ipath, lpath = self._write_idx(tmp_path, images, labels)
        dataset = {"type": "idx", "images": str(ipath), "labels": str(lpath),
                   "verification_limit": 4, "train_limit": 3}
        cfg = cli.resolve_config({"oracle": {"kind": "classifier", "dataset": dataset}})
        oracle = cli.build_oracle(cfg)
        np.testing.assert_array_equal(oracle.verification.images, images[:4] / 255.0)
        np.testing.assert_array_equal(oracle.verification.labels, labels[:4])
        np.testing.assert_array_equal(oracle.classifier.centroids,
                                      images[[6, 4, 5]].reshape(3, 4) / 255.0)


class _FaultyOracle:
    """Answers as ``inner`` does, except at ``bad_level``: there it raises when
    ``bad`` is "raise" and answers ``bad`` otherwise."""

    def __init__(self, inner, bad_level, bad):
        self.inner = inner
        self.bad_level = bad_level
        self.bad = bad
        self.space = inner.space

    def _answers(self, levels, values):
        hit = np.all(np.atleast_2d(levels) == self.bad_level, axis=1)
        if not hit.any():
            return np.atleast_1d(values)
        if self.bad == "raise":
            raise RuntimeError("sensor offline")
        return np.where(hit, self.bad, values)

    def __call__(self, level):
        return float(self._answers(level, self.inner(level))[0])


class _FaultyBatchOracle(_FaultyOracle):
    """The same answers, also given for a whole batch in one call."""

    def evaluate_many(self, levels):
        return self._answers(levels, self.inner.evaluate_many(levels))


BOUNDARY_SPACE = small_space()
BOUNDARY_BUMP = ellipsoid_spec(BOUNDARY_SPACE, 0.25)
BOUNDARY_RUNS = {
    "random": lambda oracle: run_random_sampling(oracle, BOUNDARY_SPACE, 0.85, 12, 3),
    "gp": lambda oracle: run_gp_sampling(oracle, BOUNDARY_SPACE, 0.85, SamplerConfig(
        budget=12, init_count=4, acquisition_candidates=64, seed=3)),
    "grid": lambda oracle: build_grid_test_set(BOUNDARY_SPACE, 4, oracle, 0.85),
}


class TestOracleBoundary:
    """Every oracle answer the samplers and the grid use passes one check."""

    @pytest.mark.parametrize("faulty", [_FaultyOracle, _FaultyBatchOracle],
                             ids=["per-level", "vectorized"])
    @settings(max_examples=100, deadline=None)
    @given(run=st.sampled_from(sorted(BOUNDARY_RUNS)), position=st.integers(0, 11),
           bad=st.sampled_from(["raise", np.nan, np.inf, -np.inf, -1e-9, 1.5]))
    def test_bad_answer_stops_the_run_naming_its_level(self, faulty, run, position, bad):
        # a run's levels are deterministic and listed in the order queried
        level = BOUNDARY_RUNS[run](BOUNDARY_BUMP).levels[position]
        with pytest.raises(OracleError) as err:
            BOUNDARY_RUNS[run](faulty(BOUNDARY_BUMP, level, bad))
        assert np.array_equal(err.value.level, level)

    def test_batch_of_the_wrong_length_is_refused(self):
        class Short:
            def __call__(self, level):
                return 0.5

            def evaluate_many(self, levels):
                return np.full(len(levels) - 1, 0.5)

        with pytest.raises(OracleError, match="answers for 16 levels"):
            build_grid_test_set(BOUNDARY_SPACE, 4, Short(), 0.85)
