import json
from dataclasses import replace

import numpy as np
import pytest

from distrel import evaluation
from distrel._kernels import openblas_thread_controls
from distrel.distortion import distortion_space
from distrel.evaluation import (
    ExperimentReport,
    Metrics,
    _sample_sets,
    build_grid_test_set,
    f1_score,
    run_experiment,
    sweep_budget,
    sweep_threshold,
    write_sweep_csv,
)
from distrel.oracles import SyntheticOracleSpec, caching_oracle, make_synthetic_oracle
from distrel.presets import benchmark_oracle_spec, box_oracle_spec
from distrel.sampling import OracleError, SamplerConfig
from distrel.space import SearchSpace


def plane_space():
    return SearchSpace(("u", "v"), np.zeros(2), np.ones(2))


def fat_oracle():
    """2-D bump whose positive region under h=0.85 covers ~25% of the box."""
    space = plane_space()
    a = np.sqrt(0.25 / np.pi)
    r = np.sqrt(np.log(0.99 / 0.85))
    return make_synthetic_oracle(
        SyntheticOracleSpec(
            kind="ellipsoid",
            space=space,
            centers=np.array([[0.5, 0.5]]),
            scales=np.full((1, 2), a / r),
            peaks=np.array([0.99]),
        )
    )


def fast_kwargs(**over):
    kw = dict(
        budget=60,
        init_count=12,
        samplers=("random", "gp"),
        methods=("none", "smote"),
        kinds=("knn",),
        seeds=(0,),
        points_per_dim=5,
        acquisition_candidates=128,
        refine_steps=6,
    )
    kw.update(over)
    return kw


def sweep_kwargs(**over):
    """fast_kwargs without the budget, as sweep_budget takes them."""
    kw = fast_kwargs(**over)
    del kw["budget"]
    return kw


class TestF1:
    def test_perfect_prediction(self):
        m = f1_score([1, 0, 1, 0], [1, 0, 1, 0])
        assert m.f1 == 1.0
        assert m.precision == 1.0 and m.recall == 1.0

    def test_all_negative_predictions_zero_f1(self):
        m = f1_score([0, 0, 0], [1, 0, 1])
        assert m.f1 == 0.0
        assert m.recall == 0.0

    def test_hand_arithmetic(self):
        # TP=3, FP=1, FN=2, TN=4 -> precision .75, recall .6, f1 ~ .6667
        predictions = [1, 1, 1, 1, 0, 0, 0, 0, 0, 0]
        truth = [1, 1, 1, 0, 1, 1, 0, 0, 0, 0]
        m = f1_score(predictions, truth)
        assert (m.true_positive, m.false_positive, m.false_negative, m.true_negative) == (3, 1, 2, 4)
        assert m.precision == pytest.approx(0.75)
        assert m.recall == pytest.approx(0.6)
        assert m.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35)

    def test_counts_sum_to_size(self):
        rng = np.random.default_rng(0)
        p = rng.integers(0, 2, 57)
        t = rng.integers(0, 2, 57)
        m = f1_score(p, t)
        assert m.true_positive + m.false_positive + m.true_negative + m.false_negative == 57

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            f1_score([1, 0], [1])

    def test_no_positives_anywhere_is_zero_by_convention(self):
        m = f1_score([0, 0], [0, 0])
        assert m.precision == 0.0 and m.recall == 0.0 and m.f1 == 0.0


class TestGrid:
    def test_six_dim_grid_is_4096(self):
        oracle = make_synthetic_oracle(benchmark_oracle_spec())
        grid = build_grid_test_set(distortion_space(), 4, oracle, 0.85)
        assert grid.n == 4096

    def test_one_dim_grid_endpoints(self):
        space = SearchSpace(("x",), np.array([3.0]), np.array([7.0]))
        grid = build_grid_test_set(space, 2, lambda c: 0.5, 0.5)
        np.testing.assert_allclose(sorted(grid.levels.reshape(-1)), [3.0, 7.0])

    def test_box_oracle_positives_match_membership(self):
        spec = box_oracle_spec(positive_fraction=0.05)
        oracle = make_synthetic_oracle(spec)
        grid = build_grid_test_set(spec.space, 4, oracle, 0.9)
        inside = np.all(
            (grid.levels >= spec.box_lower) & (grid.levels <= spec.box_upper), axis=1
        )
        assert grid.positive_count == int(inside.sum())

    def test_lattice_coordinates(self):
        space = SearchSpace(("a", "b"), np.zeros(2), np.ones(2))
        grid = build_grid_test_set(space, 3, lambda c: 0.0, 0.5)
        lattice = {0.0, 0.5, 1.0}
        assert set(np.round(grid.levels.reshape(-1), 12)) <= lattice


class TestRunExperiment:
    def test_minimal_matrix_single_cell(self):
        oracle = fat_oracle()
        report = run_experiment(
            oracle, plane_space(), 0.85,
            **fast_kwargs(samplers=("random",), methods=("none",), kinds=("knn",)),
        )
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.error is None
        assert cell.metrics.true_positive + cell.metrics.false_positive + \
            cell.metrics.true_negative + cell.metrics.false_negative == report.grid_size

    def test_cell_errors_recorded_not_raised(self):
        # a tiny budget with a high threshold gives zero positives for the
        # random sampler, so smote/training must fail in-cell
        spec = box_oracle_spec(positive_fraction=0.001)
        oracle = make_synthetic_oracle(spec)
        report = run_experiment(
            oracle, spec.space, 0.9,
            **fast_kwargs(budget=25, init_count=8, samplers=("random",)),
        )
        failed = [c for c in report.cells if c.error is not None]
        assert failed, "expected failing cells"
        assert report.has_errors

    def test_shared_grid_across_cells(self):
        oracle = fat_oracle()
        grid = build_grid_test_set(plane_space(), 5, oracle, 0.85)
        report = run_experiment(
            oracle, plane_space(), 0.85, grid=grid, **fast_kwargs(),
        )
        assert report.grid_size == grid.n
        assert report.grid_positive_count == grid.positive_count

    def test_oracle_call_budget(self):
        oracle = fat_oracle()
        report = run_experiment(
            oracle, plane_space(), 0.85,
            **fast_kwargs(samplers=("random", "gp")),
        )
        for (sampler, seed), calls in report.oracle_calls.items():
            assert calls == 60

    def test_unknown_axis_values_rejected(self):
        oracle = fat_oracle()
        with pytest.raises(ValueError, match="unknown sampler"):
            run_experiment(oracle, plane_space(), 0.85,
                           **fast_kwargs(samplers=("sobol",)))
        with pytest.raises(ValueError, match="unknown imbalance method"):
            run_experiment(oracle, plane_space(), 0.85,
                           **fast_kwargs(methods=("smite",)))
        with pytest.raises(ValueError, match="unknown model kind"):
            run_experiment(oracle, plane_space(), 0.85,
                           **fast_kwargs(kinds=("svm",)))

    def test_workers_do_not_change_results(self):
        oracle = fat_oracle()
        kw = fast_kwargs(kinds=("knn", "tree"))
        a = run_experiment(oracle, plane_space(), 0.85, workers=1, **kw)
        b = run_experiment(oracle, plane_space(), 0.85, workers=3, **kw)
        for ca, cb in zip(a.sorted_cells(), b.sorted_cells()):
            assert ca.key() == cb.key()
            assert ca.metrics.f1 == cb.metrics.f1
        assert a.positive_counts == b.positive_counts
        assert a.oracle_calls == b.oracle_calls
        # the training sets themselves, bit for bit
        cfg = SamplerConfig(budget=kw["budget"], init_count=kw["init_count"],
                            acquisition_candidates=kw["acquisition_candidates"],
                            refine_steps=kw["refine_steps"])
        sa = _sample_sets(oracle, plane_space(), 0.85, kw["samplers"], kw["seeds"], cfg, 1)
        sb = _sample_sets(oracle, plane_space(), 0.85, kw["samplers"], kw["seeds"], cfg, 3)
        assert list(sa) == list(sb)
        for key in sa:
            for name in ("levels", "accuracies", "labels"):
                assert getattr(sa[key], name).tobytes() == getattr(sb[key], name).tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_run_keeps_blas_on_one_thread(self, workers, monkeypatch):
        controls = openblas_thread_controls()
        if not controls:
            pytest.skip("no OpenBLAS thread-control symbol loaded in this process")
        bump = fat_oracle()

        def pinned():
            return all(get() == 1 for get, _ in controls)

        def oracle(level):
            # the answer carries the thread counts back from worker processes
            return bump(level) if pinned() else 0.0

        real_f1_score = evaluation.f1_score

        def probed_f1_score(predictions, truth):
            # so does each cell's score, after its model was trained and run
            metrics = real_f1_score(predictions, truth)
            return metrics if pinned() else replace(metrics, f1=-1.0)

        monkeypatch.setattr(evaluation, "f1_score", probed_f1_score)

        cfg = SamplerConfig(budget=20, init_count=8, acquisition_candidates=64, refine_steps=4)
        sets = _sample_sets(oracle, plane_space(), 0.85, ("random", "gp"), (0, 1), cfg, workers)
        for labeled in sets.values():
            assert np.array_equal(labeled.accuracies, bump.evaluate_many(labeled.levels))
        # the grid too, labelled alone and inside a whole run
        grid = build_grid_test_set(plane_space(), 5, oracle, 0.85)
        assert np.array_equal(grid.accuracies, bump.evaluate_many(grid.levels))
        report = run_experiment(oracle, plane_space(), 0.85, workers=workers, **fast_kwargs(
            budget=20, init_count=8, methods=("none",), seeds=(0, 1)))
        assert report.grid_positive_count == grid.positive_count > 0
        assert len(report.cells) == 4
        assert all(c.error is None and c.metrics.f1 >= 0.0 for c in report.cells)

    def test_unpicklable_oracle_runs_on_workers(self):
        # a lambda cannot be pickled: the worker processes must inherit it
        bump = fat_oracle()
        kw = fast_kwargs(seeds=(0, 1))
        a = run_experiment(bump, plane_space(), 0.85, workers=1, **kw)
        b = run_experiment(lambda level: bump(level), plane_space(), 0.85, workers=2, **kw)
        assert a.to_json_dict() == b.to_json_dict()

    def test_oracle_error_in_worker_surfaces_unchanged(self):
        bump = fat_oracle()

        def flaky(level):
            if level[0] > 0.9:
                raise RuntimeError("sensor offline")
            return bump(level)

        grid = build_grid_test_set(plane_space(), 5, bump, 0.85)
        errors = []
        for workers in (1, 2):
            with pytest.raises(OracleError) as err:
                run_experiment(flaky, plane_space(), 0.85, workers=workers, grid=grid,
                               **fast_kwargs(seeds=(0, 1)))
            errors.append(err.value)
        assert type(errors[1]) is OracleError
        assert str(errors[1]) == str(errors[0])
        assert "sensor offline" in str(errors[0])
        assert np.array_equal(errors[1].level, errors[0].level)


class TestReportOutputs:
    def make_report(self):
        oracle = fat_oracle()
        return run_experiment(
            oracle, plane_space(), 0.85,
            config={"h": 0.85, "note": "test"}, **fast_kwargs(),
        )

    def test_csv_deterministic_bytes(self, tmp_path):
        report = self.make_report()
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        report.write_csv(p1)
        report.write_csv(p2)
        assert p1.read_bytes() == p2.read_bytes()
        header = p1.read_text().splitlines()[0]
        assert header == "sampler,method,kind,seed,tp,fp,tn,fn,precision,recall,f1"

    def test_json_schema_and_hash(self, tmp_path):
        report = self.make_report()
        path = tmp_path / "report.json"
        report.write_json(path)
        doc = json.loads(path.read_text())
        assert doc["format_version"] == 1
        assert doc["config_hash"] == report.config_hash()
        assert doc["grid"]["size"] == report.grid_size
        assert {"sampler", "method", "kind", "seed", "metrics", "error"} <= set(doc["cells"][0])
        assert doc["aggregates"], "aggregates must not be empty"

    def test_mean_f1_aggregation(self):
        report = self.make_report()
        for sampler in ("random", "gp"):
            vals = [
                c.metrics.f1
                for c in report.cells
                if c.sampler == sampler and c.method == "smote" and c.error is None
            ]
            assert report.mean_f1(sampler, "smote") == pytest.approx(np.mean(vals))

    def test_positive_counts_recorded(self):
        report = self.make_report()
        assert ("random", 0) in report.positive_counts
        assert ("gp", 0) in report.positive_counts
        assert report.mean_positive_count("gp") >= 0


class TestSweeps:
    def test_budget_sweep_row_count_and_reuse(self):
        oracle = fat_oracle()
        rows = sweep_budget(
            oracle, plane_space(), 0.85, [30, 60],
            init_count=12, samplers=("random",), methods=("none",),
            kinds=("knn",), seeds=(0,), points_per_dim=5,
            acquisition_candidates=128, refine_steps=6,
        )
        assert [b for b, _ in rows] == [30, 60]
        assert rows[0][1].grid_size == rows[1][1].grid_size

    def test_single_budget_equals_run_experiment(self):
        # both sweeps at one point give run_experiment's whole report; a
        # repeated threshold gives a repeated row
        oracle = fat_oracle()
        grid = build_grid_test_set(plane_space(), 5, oracle, 0.85)

        def body(report):
            return {k: v for k, v in report.to_json_dict().items() if k not in ("config", "config_hash")}

        for workers in (1, 2):
            kw = dict(
                init_count=12, samplers=("random", "gp"), methods=("none", "smote"),
                kinds=("knn", "tree"), seeds=(0, 1), acquisition_candidates=128, refine_steps=6,
                grid=grid, workers=workers,
            )
            direct = run_experiment(oracle, plane_space(), 0.85, budget=40, **kw)
            [(budget, by_budget)] = sweep_budget(oracle, plane_space(), 0.85, [40], **kw)
            by_h, _ = sweep_threshold(oracle, plane_space(), [0.85, 0.85], budget=40, **kw)
            assert budget == 40 and [h for h, _ in by_h] == [0.85, 0.85]
            assert body(by_budget) == body(direct)
            assert all(body(report) == body(direct) for _, report in by_h)
            assert not direct.has_errors

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("budgets", [[60, 30, 60], [30, 60]])
    def test_budget_sweep_samples_once_at_the_largest_budget(self, workers, budgets):
        # each (sampler, seed) is sampled at the largest budget only, and each
        # budget's report equals run_experiment's at that budget
        bump = fat_oracle()
        calls = []

        def oracle(level):
            calls.append(level)
            return bump(level)

        def body(report):
            return {k: v for k, v in report.to_json_dict().items() if k not in ("config", "config_hash")}

        kw = sweep_kwargs(kinds=("knn", "tree"), seeds=(0, 1))
        rows = sweep_budget(oracle, plane_space(), 0.85, budgets, workers=workers, **kw)
        if workers == 1:
            # forked workers count in their own copies of ``calls``
            assert len(calls) == 5**2 + 4 * 60
        assert [b for b, _ in rows] == budgets
        for budget, report in rows:
            assert report.config == {"budget": budget}
            assert report.oracle_calls == {k: budget for k in report.positive_counts}
            direct = run_experiment(bump, plane_space(), 0.85, budget=budget, **kw)
            assert body(report) == body(direct)
        assert not rows[0][1].has_errors

    def test_threshold_sweep_no_extra_oracle_calls(self):
        base = fat_oracle()
        wrapped = caching_oracle(base)
        rows, audit = sweep_threshold(
            wrapped, plane_space(), [0.85, 0.7, 0.9],
            budget=50, init_count=12, samplers=("random",), methods=("none",),
            kinds=("knn",), seeds=(0,), points_per_dim=5,
            acquisition_candidates=128, refine_steps=6,
        )
        assert len(rows) == 3
        assert audit["extra_calls_during_sweep"] == 0
        # the audited oracle saw exactly budget + grid distinct levels
        assert audit["oracle_calls_after_sweep"] == 50 + 5**2

    def test_threshold_sweep_same_with_workers(self):
        # at h = 0.995, above the bump's peak, every training set has a single
        # class, so every cell fails and its error string is compared too
        out = []
        for workers in (1, 2):
            rows, audit = sweep_threshold(
                fat_oracle(), plane_space(), [0.85, 0.7, 0.995],
                budget=50, init_count=12, samplers=("random", "gp"), methods=("none",),
                kinds=("knn",), seeds=(0, 1), points_per_dim=5,
                acquisition_candidates=128, refine_steps=6, workers=workers,
            )
            out.append(([r.to_json_dict() for _, r in rows], audit))
        assert out[1] == out[0]
        assert out[0][1]["extra_calls_during_sweep"] == 0
        failed = [c["error"] for c in out[0][0][2]["cells"]]
        assert len(failed) == 4 and all("single class" in e for e in failed)
        assert not any(c["error"] for report in out[0][0][:2] for c in report["cells"])

    def test_threshold_relabeling_monotone(self):
        base = fat_oracle()
        rows, _ = sweep_threshold(
            base, plane_space(), [0.5, 0.7, 0.9],
            budget=50, init_count=12, samplers=("random",), methods=("none",),
            kinds=("knn",), seeds=(0,), points_per_dim=5,
            acquisition_candidates=128, refine_steps=6,
        )
        positives = [r.positive_counts[("random", 0)] for _, r in rows]
        assert positives[0] >= positives[1] >= positives[2]

    @pytest.mark.parametrize("call", [
        lambda oracle: sweep_budget(oracle, plane_space(), 0.85, [30], **sweep_kwargs(samplers=("sobol",))),
        lambda oracle: sweep_budget(oracle, plane_space(), 0.85, [12], **sweep_kwargs()),
        lambda oracle: sweep_budget(oracle, plane_space(), 0.85, [30, 12], **sweep_kwargs()),
        lambda oracle: run_experiment(oracle, plane_space(), 1.5, **fast_kwargs()),
        lambda oracle: sweep_threshold(oracle, plane_space(), [0.85], **fast_kwargs(kinds=("svm",))),
    ], ids=["unknown-sampler", "init-count-at-budget", "later-budget-at-init-count",
            "h-above-1", "unknown-kind"])
    def test_bad_argument_raises_before_any_oracle_call(self, call):
        bump = fat_oracle()
        calls = []

        def oracle(level):
            calls.append(level)
            return bump(level)

        with pytest.raises(ValueError):
            call(oracle)
        assert calls == []

    def test_threshold_out_of_range_rejected(self):
        base = fat_oracle()
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            sweep_threshold(base, plane_space(), [0.5, 1.5], budget=30)

    def test_sweep_csv_format(self, tmp_path):
        oracle = fat_oracle()
        rows = sweep_budget(
            oracle, plane_space(), 0.85, [30],
            init_count=12, samplers=("random",), methods=("none",), kinds=("knn",),
            seeds=(0,), points_per_dim=5, acquisition_candidates=128, refine_steps=6,
        )
        path = tmp_path / "sweep.csv"
        write_sweep_csv(path, rows, "budget")
        lines = path.read_text().splitlines()
        assert lines[0].startswith("budget,sampler,method,kind,seed,")
        assert len(lines) == 2
