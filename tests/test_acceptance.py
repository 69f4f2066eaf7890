"""Acceptance gate: one test per criterion, at the stated tolerances.

The heavy benchmark runs are shared through session fixtures; each criterion
prints through the terminal-summary hook in conftest.
"""

import json
import time

import numpy as np
import pytest

from distrel.cli import main as cli_main
from distrel.distortion import apply_distortion, distortion_space, identity_level
from distrel.evaluation import build_grid_test_set, sweep_budget, sweep_threshold
from distrel.gp import KernelConfig, fit, median_heuristic_lengthscales, predict_batch
from distrel.models import logistic_loss_and_grad
from distrel.oracles import ClassifierOracle, make_blob_verification_set, train_reference_classifier
from distrel.presets import THRESHOLD_PRESETS, benchmark_oracle_spec
from distrel.rebalance import smote
from distrel.sampling import LabeledSet, SamplerConfig, run_gp_sampling, run_random_sampling
from distrel.space import SearchSpace

from test_gp import dense_solve_oracle

pytestmark = pytest.mark.acceptance

BENCHMARK_H = 0.85
SEEDS = (0, 1, 2, 3, 4)
KINDS = ("logistic", "tree", "knn")


def benchmark_oracle():
    return benchmark_oracle_spec()


@pytest.fixture(scope="session")
def benchmark_runs():
    """Full experiment at budgets 100 and 600 on the standard benchmark, from
    one budget sweep.

    Shared by the ordering, imbalance-benefit and budget-sweep criteria.
    """
    oracle = benchmark_oracle()
    space = distortion_space()
    grid = build_grid_test_set(space, 4, oracle, BENCHMARK_H)
    t0 = time.perf_counter()
    reports = dict(sweep_budget(
        oracle, space, BENCHMARK_H, [100, 600], grid=grid, init_count=20, delta=0.1,
        samplers=("random", "gp"), methods=("none", "smote"), kinds=KINDS, seeds=SEEDS,
    ))
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_01_gp_correctness():
    rng = np.random.default_rng(2024)
    x = rng.random((20, 6))
    y = 0.5 + 0.35 * np.sin(3.0 * x[:, 0]) * np.cos(2.0 * x[:, 1]) * np.exp(-x[:, 2])

    t0 = time.perf_counter()
    ls = median_heuristic_lengthscales(x)
    cfg = KernelConfig(ls, max(float(np.var(y, ddof=1)), 1e-4), jitter=1e-10)
    gp = fit(x, y, cfg)
    mean_tr, var_tr = predict_batch(gp, x)
    probes = rng.random((25, 6))
    mean_pr, var_pr = predict_batch(gp, probes)
    elapsed = time.perf_counter() - t0

    assert np.max(np.abs(mean_tr - y)) <= 1e-6
    assert np.max(var_tr) <= 1e-6
    m_ref, v_ref = dense_solve_oracle(  # gp's jitter is relative to the signal variance
        x, y, cfg.lengthscales, cfg.signal_variance,
        cfg.signal_variance * gp.jitter_used, probes,
    )
    assert np.max(np.abs(mean_pr - m_ref)) <= 1e-8
    assert np.max(np.abs(var_pr - np.maximum(v_ref, 0.0))) <= 1e-8
    assert elapsed < 1.0


def test_criterion_02_sampling_efficiency():
    oracle = benchmark_oracle()
    space = distortion_space()
    t0 = time.perf_counter()
    gp_counts = []
    random_counts = []
    for seed in SEEDS:
        cfg = SamplerConfig(budget=600, init_count=20, delta=0.1, seed=seed)
        gp_counts.append(run_gp_sampling(oracle, space, BENCHMARK_H, cfg).positive_count)
        random_counts.append(
            run_random_sampling(oracle, space, BENCHMARK_H, 600, seed).positive_count
        )
    elapsed = time.perf_counter() - t0

    mean_gp = float(np.mean(gp_counts))
    mean_random = float(np.mean(random_counts))
    assert mean_gp >= 3.0 * mean_random, (
        f"GP positives {gp_counts} (mean {mean_gp:.1f}) vs "
        f"random {random_counts} (mean {mean_random:.1f})"
    )
    assert elapsed < 120.0, f"sampling took {elapsed:.1f}s"


def test_criterion_03_end_to_end_ordering(benchmark_runs):
    reports, elapsed = benchmark_runs
    report = reports[600]
    gps = report.mean_f1("gp", "smote")
    rnd = report.mean_f1("random", "smote")
    assert gps - rnd >= 0.02, f"GPS-SMOTE {gps:.4f} vs Random-SMOTE {rnd:.4f}"
    assert report.grid_size == 4096
    assert elapsed < 600.0, f"benchmark runs took {elapsed:.1f}s"


def test_criterion_04_imbalance_handling_benefit(benchmark_runs):
    reports, _ = benchmark_runs
    report = reports[600]
    with_smote = report.mean_f1("random", "smote")
    without = report.mean_f1("random", "none")
    assert with_smote > without, (
        f"Random-SMOTE {with_smote:.4f} vs Random-none {without:.4f}"
    )


def test_criterion_05_budget_sweep(benchmark_runs):
    reports, _ = benchmark_runs
    f1_low = reports[100].mean_f1("gp", "smote")
    f1_high = reports[600].mean_f1("gp", "smote")
    assert f1_high >= f1_low - 0.02, f"F1@600 {f1_high:.4f} vs F1@100 {f1_low:.4f}"


def test_criterion_06_threshold_sweep():
    thresholds = sorted(THRESHOLD_PRESETS.values())  # 0.45 ... 0.90
    rows, audit = sweep_threshold(
        benchmark_oracle(), distortion_space(), thresholds,
        budget=600, init_count=20, delta=0.1,
        samplers=("gp",), methods=("smote",), kinds=KINDS, seeds=SEEDS,
        points_per_dim=4,
    )
    by_h = dict(rows)
    f1_lowest = by_h[thresholds[0]].mean_f1("gp", "smote")
    f1_highest = by_h[thresholds[-1]].mean_f1("gp", "smote")
    assert f1_highest <= f1_lowest + 0.05, (
        f"F1@h={thresholds[-1]} is {f1_highest:.4f}, "
        f"F1@h={thresholds[0]} is {f1_lowest:.4f}"
    )
    assert audit["extra_calls_during_sweep"] == 0


def test_criterion_07_smote_oracle_equivalence():
    rng = np.random.default_rng(77)
    space = SearchSpace(("a", "b", "c"), np.zeros(3), np.ones(3))
    for trial in range(100):
        n = int(rng.integers(12, 61))
        n_min = int(rng.integers(2, max(3, n // 3)))
        levels = rng.random((n, 3))
        labels = np.zeros(n, dtype=np.int64)
        labels[rng.choice(n, size=n_min, replace=False)] = 1
        accs = np.where(labels == 1, 0.9, 0.1)
        ls = LabeledSet(levels=levels, accuracies=accs, labels=labels, threshold=0.5)
        k = int(rng.integers(1, 7))
        out = smote(ls, space, k=k, seed=trial)

        neg, pos = out.class_counts()
        assert neg == pos, f"trial {trial}: no parity ({neg} vs {pos})"

        min_idx = np.flatnonzero(labels == 1)
        k_eff = min(k, n_min - 1)
        z = space.normalize(levels)
        for row in range(n, out.n):
            parent = out.parent_index[row]
            assert parent in min_idx
            d = np.sum((z[min_idx] - z[parent]) ** 2, axis=1)
            d[min_idx == parent] = np.inf
            pool = min_idx[np.argsort(d, kind="stable")[:k_eff]]
            assert _on_segment(out.levels[row], levels[parent], levels[pool]), (
                f"trial {trial} row {row} not on a parent-to-neighbor segment"
            )


def _on_segment(point, parent, neighbors, tol=1e-9):
    for nb in np.atleast_2d(neighbors):
        seg = nb - parent
        rel = point - parent
        denom = float(np.dot(seg, seg))
        if denom == 0.0:
            continue
        lam = float(np.dot(rel, seg)) / denom
        if -tol <= lam <= 1.0 + tol and np.linalg.norm(rel - lam * seg) <= tol:
            return True
    return False


def test_criterion_08_distortion_engine():
    rng = np.random.default_rng(8)
    img = rng.random((12, 12, 3))
    assert np.array_equal(apply_distortion(img, identity_level()), img)

    pattern = np.arange(1, 17, dtype=np.float64).reshape(4, 4) / 16.0
    rotated = apply_distortion(pattern, np.array([1.0, 90.0, 0.0, 0.0, 1.0, 0.0]))
    expected = np.array(
        [
            [4, 8, 12, 16],
            [3, 7, 11, 15],
            [2, 6, 10, 14],
            [1, 5, 9, 13],
        ],
        dtype=np.float64,
    ) / 16.0
    np.testing.assert_array_equal(rotated, expected)

    space = distortion_space()
    for _ in range(30):
        lv = space.denormalize(rng.random(6))
        out = apply_distortion(img, lv, rain_seed=int(rng.integers(1000)))
        assert out.min() >= 0.0 and out.max() <= 1.0


def test_criterion_09_classifier_degradation():
    verification = make_blob_verification_set(200, n_classes=2, size=16, seed=100)
    train_set = make_blob_verification_set(100, n_classes=2, size=16, seed=101)
    classifier = train_reference_classifier(train_set, "nearest-centroid")
    oracle = ClassifierOracle(classifier, verification)
    at_zero = oracle(identity_level())
    level = identity_level()
    level[1] = 60.0
    at_sixty = oracle(level)
    assert at_sixty <= at_zero, f"rot60 {at_sixty:.3f} vs rot0 {at_zero:.3f}"


def test_criterion_10_pipeline_determinism(tmp_path):
    config = {
        "config_version": 1,
        "oracle": {"preset": "benchmark"},
        "h": 0.85,
        "budget": 80,
        "init_count": 16,
        "samplers": ["random", "gp"],
        "methods": ["none", "reweight"],
        "kinds": ["knn", "tree"],
        "seeds": [0, 1],
        "points_per_dim": 3,
        "acquisition_candidates": 256,
        "refine_steps": 8,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    rc1 = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out1)])
    rc2 = cli_main(["pipeline", "--config", str(cfg_path), "--out", str(out2)])
    assert rc1 == rc2 == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_criterion_11_logistic_gradient_check():
    rng = np.random.default_rng(11)
    x = np.hstack([np.ones((40, 1)), rng.random((40, 6))])
    y = (rng.random(40) > 0.7).astype(float)
    sw = rng.random(40) + 0.5
    eps = 1e-6
    for _ in range(10):
        w = rng.normal(0.0, 1.5, 7)
        _, grad = logistic_loss_and_grad(w, x, y, sw)
        numeric = np.empty(7)
        for j in range(7):
            up, dn = w.copy(), w.copy()
            up[j] += eps
            dn[j] -= eps
            numeric[j] = (
                logistic_loss_and_grad(up, x, y, sw)[0]
                - logistic_loss_and_grad(dn, x, y, sw)[0]
            ) / (2.0 * eps)
        rel = np.linalg.norm(grad - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert rel < 1e-5
