import csv
import gzip
import hashlib
import json
import os
import re
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distrel import _kernels, cli
from distrel.cli import ConfigError, build_oracle, build_space, main, resolve_config
from distrel.distortion import distortion_space
from distrel.rebalance import RebalancedSet
from distrel.sampling import LabeledSet, load_labeled_set

# box covering 0.84 of each axis: ~35% positive volume, so small budgets
# still see both classes
BASE_CONFIG = {
    "config_version": 1,
    "oracle": {
        "kind": "box",
        "lower": [0.748, 7.2, -0.168, -0.168, 0.748, 0.08],
        "upper": [1.252, 82.8, 0.168, 0.168, 1.252, 0.92],
    },
    "h": 0.85,
    "budget": 40,
    "init_count": 10,
    "samplers": ["random", "gp"],
    "methods": ["none", "reweight"],
    "kinds": ["knn"],
    "seeds": [0],
    "points_per_dim": 2,
    "acquisition_candidates": 64,
}


def write_config(tmp_path, **over):
    cfg = {**BASE_CONFIG, **over}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


class TestValidation:
    def test_missing_oracle_field(self, tmp_path, capsys):
        cfg = {k: v for k, v in BASE_CONFIG.items() if k != "oracle"}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "oracle" in capsys.readouterr().err

    def test_unknown_method_name(self, tmp_path, capsys):
        path = write_config(tmp_path, methods=["none", "smiteful"])
        rc = main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "smiteful" in err and "methods" in err

    def test_unknown_top_level_field(self, tmp_path, capsys):
        path = write_config(tmp_path, extra_knob=3)
        rc = main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "extra_knob" in capsys.readouterr().err

    def test_refine_steps_is_an_unknown_field(self, tmp_path, capsys, monkeypatch):
        # each pick is its candidate pool's argmax, with no hill climb to tune
        monkeypatch.setattr(cli, "build_oracle", lambda cfg: pytest.fail("oracle built"))
        path = write_config(tmp_path, refine_steps=8)
        out = tmp_path / "o"
        rc = main(["sample", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert "unknown config fields: ['refine_steps']" in capsys.readouterr().err
        assert not out.exists()

    def test_budget_must_exceed_init(self, tmp_path, capsys):
        path = write_config(tmp_path, budget=5, init_count=10)
        rc = main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "init_count" in capsys.readouterr().err

    @pytest.mark.parametrize("budgets", [[20, 10], [20, 0], [20, 30.0], [20, True], "30"])
    def test_bad_budgets_entry(self, tmp_path, capsys, monkeypatch, budgets):
        monkeypatch.setattr(cli, "build_oracle", lambda cfg: pytest.fail("oracle built"))
        path = write_config(tmp_path, budgets=budgets, init_count=10)
        out = tmp_path / "o"
        rc = main(["sweep-budget", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert "'budgets'" in capsys.readouterr().err
        assert not out.exists()

    def test_thresholds_sharing_a_report_name_exit_1(self, tmp_path, capsys, monkeypatch):
        # both would write report_h0.5.json, the second over the first
        monkeypatch.setattr(cli, "build_oracle", lambda cfg: pytest.fail("oracle built"))
        path = write_config(tmp_path, thresholds=[0.5, 0.5000001])
        out = tmp_path / "o"
        rc = main(["sweep-threshold", "--config", str(path), "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "0.5 and 0.5000001 would both write report_h0.5.json" in err
        assert not out.exists()

    def test_usage_error_exits_1(self, capsys):
        assert main(["pipeline", "--config"]) == 1
        assert "expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--help"], ["pipeline", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: distrel")
        assert captured.err == ""

    def test_h_preset_resolution(self, tmp_path):
        cfg = {k: v for k, v in BASE_CONFIG.items() if k != "h"}
        cfg["h_preset"] = "cifar10"
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "o"
        rc = main(["sample", "--config", str(path), "--seed", "0", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["h"] == 0.85

    def test_validation_happens_before_oracle_work(self, tmp_path, capsys):
        # classifier oracle with a broken dataset spec must fail in validation
        path = write_config(
            tmp_path,
            oracle={"kind": "classifier", "dataset": {"type": "parquet"}},
        )
        rc = main(["sample", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "dataset" in capsys.readouterr().err


def classifier_oracle(rain_seed=0, extra=None, **dataset):
    """A small blob classifier oracle with ``dataset`` fields overridden."""
    return {
        "kind": "classifier",
        "dataset": {"type": "blobs", "n_verification": 10, "n_train": 10, **dataset},
        "rain_seed": rain_seed,
        **(extra or {}),
    }


# malformed configs that once crashed, exited 3 or passed validation
CONFIG_PROBES = {
    "delta-string": {"delta": "0.1"},
    "box-without-upper": {"oracle": {"kind": "box", "lower": BASE_CONFIG["oracle"]["lower"]}},
    "ellipsoid-without-centers": {
        "oracle": {"kind": "ellipsoid", "scales": [0.1] * 6, "peaks": [0.9]},
    },
    "h-bool": {"h": True},
    "custom-space-with-preset": {
        "space": {"dims": [{"name": f"x{i}", "lower": 0.0, "upper": 1.0} for i in range(6)]},
        "oracle": {"preset": "benchmark"},
    },
    "samplers-string": {"samplers": "gp"},
    "methods-empty": {"methods": []},
    "seeds-bool": {"seeds": [True]},
    "acquisition-candidates-bool": {"acquisition_candidates": True},
    "classifier-n-verification-string": {"oracle": classifier_oracle(n_verification="x")},
    "classifier-size-negative": {"oracle": classifier_oracle(size=-1)},
    "classifier-noise-string": {"oracle": classifier_oracle(noise="x")},
    "classifier-n-classes-5": {"oracle": classifier_oracle(n_classes=5)},
    "classifier-rain-seed-string": {"oracle": classifier_oracle(rain_seed="x")},
    "classifier-custom-space": {
        "space": {"dims": [{"name": f"x{i}", "lower": 0.0, "upper": 1.0} for i in range(2)]},
        "oracle": classifier_oracle(),
    },
    "classifier-unknown-field": {"oracle": classifier_oracle(extra={"colour": "red"})},
    "classifier-dataset-unknown-field": {"oracle": classifier_oracle(sise=16)},
    "preset-unknown-field": {"oracle": {"preset": "benchmark", "positive_fraction": 0.2}},
    "preset-with-kind": {"oracle": {"preset": "benchmark", "kind": "classifier"}},
    "box-unknown-field": {"oracle": {**BASE_CONFIG["oracle"], "peaks": [0.9]}},
    "ellipsoid-unknown-fields": {"oracle": {
        "kind": "ellipsoid", "centers": [[1.0, 45.0, 0.0, 0.0, 1.0, 0.5]],
        "scales": [[0.2, 30.0, 0.1, 0.1, 0.2, 0.3]], "peaks": [0.95],
        "inside_value": 0.99, "colour": "red",
    }},
}


class TestConfigProbes:
    @pytest.mark.parametrize("over", CONFIG_PROBES.values(), ids=CONFIG_PROBES.keys())
    def test_probe_exits_1_before_any_work(self, tmp_path, capsys, over):
        path = write_config(tmp_path, **over)
        out = tmp_path / "o"
        rc = main(["pipeline", "--config", str(path), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()


# values of the wrong type or out of range for any field
WRONG_VALUES = st.one_of(
    st.booleans(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.one_of(st.integers(-3, 3), st.booleans(), st.text(max_size=2)), max_size=7),
    st.integers(-5, 5),
    st.floats(-2.0, 3.0, allow_nan=False),
)
TOP_FIELDS = [
    "config_version", "space", "h", "h_preset", "budget", "init_count", "delta",
    "samplers", "methods", "kinds", "seeds", "points_per_dim",
    "acquisition_candidates", "budgets", "thresholds", "out", "oracle",
]
ORACLE_FIELDS = [
    "kind", "lower", "upper", "inside_value", "outside_value", "centers", "scales", "peaks",
]
ELLIPSOID = {
    "kind": "ellipsoid",
    "centers": [[1.0, 45.0, 0.0, 0.0, 1.0, 0.5]],
    "scales": [[0.2, 30.0, 0.1, 0.1, 0.2, 0.3]],
    "peaks": [0.95],
}


@settings(max_examples=300, deadline=None)
@given(
    oracle=st.sampled_from([BASE_CONFIG["oracle"], ELLIPSOID, {"preset": "benchmark"}]),
    oracle_over=st.dictionaries(st.sampled_from(ORACLE_FIELDS), WRONG_VALUES, max_size=2),
    top_over=st.dictionaries(st.sampled_from(TOP_FIELDS), WRONG_VALUES, max_size=3),
)
def test_fuzzed_config_is_rejected_or_builds(oracle, oracle_over, top_over):
    raw = {**BASE_CONFIG, "oracle": {**oracle, **oracle_over}, **top_over}
    try:
        cfg = resolve_config(raw)
    except ConfigError:
        return
    space = build_space(cfg)
    acc = build_oracle(cfg)(space.denormalize(np.full(space.dim, 0.5)))
    assert 0.0 <= acc <= 1.0


class TestConfigFile:
    @pytest.mark.parametrize("fault", [
        "directory", "missing", "unreadable", "not-utf8", "invalid-json", "non-object",
        "nan-value", "overflowing-bound",
    ])
    def test_unreadable_config_exits_1(self, tmp_path, capsys, fault):
        path = tmp_path / "config.json"
        if fault == "directory":
            path.mkdir()
        elif fault == "unreadable":
            path.write_text(json.dumps(BASE_CONFIG))
            path.chmod(0)
            if os.access(path, os.R_OK):
                pytest.skip("file permissions do not bind this user")
        elif fault == "nan-value":
            # json.dumps writes the NaN constant
            path.write_text(json.dumps({**BASE_CONFIG, "oracle": {
                "kind": "ellipsoid", "centers": [[1.0, 45.0, 0.0, 0.0, 1.0, float("nan")]],
                "scales": [[0.2, 30.0, 0.1, 0.1, 0.2, 0.3]], "peaks": [0.95]}}))
        elif fault == "overflowing-bound":
            # -1e309 parses to -inf
            path.write_text(json.dumps({
                **BASE_CONFIG, "space": {"dims": [{"name": "x", "lower": -1.0, "upper": 1.0}]},
                "oracle": {"kind": "box", "lower": [-0.5], "upper": [0.5]},
            }).replace("-1.0", "-1e309"))
        elif fault != "missing":
            path.write_bytes({"not-utf8": b'{"h": "\xff"}', "invalid-json": b'{"h": 0.85,',
                              "non-object": b"[1, 2]"}[fault])
        out = tmp_path / "o"
        assert main(["sample", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and str(path) in err
        assert "Traceback" not in err
        assert not out.exists()


class TestSample:
    def test_writes_budget_rows(self, tmp_path):
        path = write_config(tmp_path, samplers=["random"], budget=10, init_count=2)
        out = tmp_path / "runs"
        rc = main(["sample", "--config", str(path), "--out", str(out)])
        assert rc == 0
        with open(out / "samples_random_seed0.csv") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 11  # header + budget
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["oracle_calls"]["random/0"] == 10

    def test_same_config_byte_identical(self, tmp_path):
        path = write_config(tmp_path, samplers=["gp"], budget=15, init_count=5)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["sample", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["sample", "--config", str(path), "--out", str(out2)]) == 0
        f1 = (out1 / "samples_gp_seed0.csv").read_bytes()
        f2 = (out2 / "samples_gp_seed0.csv").read_bytes()
        assert f1 == f2


def test_command_runs_with_blas_on_one_thread_then_restores_it(tmp_path, monkeypatch,
                                                             openblas_threads):
    controls = _kernels.openblas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS thread-control symbol loaded in this process")
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "sample",
                        lambda cfg, args: seen.append([get() for get, _ in controls]) or 0)
    path = write_config(tmp_path)
    with openblas_threads(2):
        assert main(["sample", "--config", str(path), "--out", str(tmp_path / "o")]) == 0
        assert [get() for get, _ in controls] == [2] * len(controls)
    assert seen == [[1] * len(controls)]


class TestPipeline:
    def test_reports_written_and_schema_valid(self, tmp_path):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        rc = main(["pipeline", "--config", str(path), "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["format_version"] == 1
        assert report["grid"]["size"] == 2**6
        with open(out / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["sampler", "method", "kind", "seed",
                           "tp", "fp", "tn", "fn", "precision", "recall", "f1"]
        assert len(rows) == 1 + 2 * 2 * 1  # samplers x methods x kinds
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_hash"] == report["config_hash"]

    def test_rerun_byte_identical(self, tmp_path):
        path = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["pipeline", "--config", str(path), "--out", str(out1)]) == 0
        assert main(["pipeline", "--config", str(path), "--out", str(out2)]) == 0
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()

    def test_partial_failure_exit_code(self, tmp_path):
        # smote cannot run when the random sampler finds no positives
        path = write_config(
            tmp_path,
            oracle={
                "kind": "box",
                "lower": [0.999, 89.9, 0.199, 0.199, 1.299, 0.999],
                "upper": [1.0, 90.0, 0.2, 0.2, 1.3, 1.0],
            },
            methods=["smote"],
            samplers=["random"],
            budget=15,
            init_count=5,
        )
        out = tmp_path / "run"
        rc = main(["pipeline", "--config", str(path), "--out", str(out)])
        assert rc == 2
        report = json.loads((out / "report.json").read_text())
        assert any(c["error"] for c in report["cells"])


class TestRoundTripCommands:
    def test_rebalance_then_train_then_evaluate(self, tmp_path):
        cfg_path = write_config(
            tmp_path, samplers=["gp"], budget=40, init_count=10, kinds=["knn", "tree"]
        )
        out = tmp_path / "flow"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
        data = out / "samples_gp_seed0.csv"

        assert main([
            "rebalance", "--config", str(cfg_path), "--data", str(data),
            "--method", "smote", "--out", str(out),
        ]) == 0
        rebalanced = out / "rebalanced_smote.csv"
        assert rebalanced.exists()

        assert main([
            "train", "--config", str(cfg_path), "--data", str(rebalanced),
            "--out", str(out),
        ]) == 0
        models = [out / "model_knn.json", out / "model_tree.json"]
        assert all(m.exists() for m in models)

        assert main([
            "evaluate", "--config", str(cfg_path),
            "--models", *[str(m) for m in models], "--out", str(out),
        ]) == 0
        doc = json.loads((out / "evaluation.json").read_text())
        assert len(doc["results"]) == 2
        assert all(0.0 <= r["f1"] <= 1.0 for r in doc["results"])

    def test_rebalance_unknown_method(self, tmp_path, capsys):
        cfg_path = write_config(tmp_path, samplers=["random"], budget=10, init_count=2)
        out = tmp_path / "flow"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
        rc = main([
            "rebalance", "--config", str(cfg_path),
            "--data", str(out / "samples_random_seed0.csv"),
            "--method", "nope", "--out", str(out),
        ])
        assert rc == 1


class TestSweepCommands:
    def test_sweep_budget(self, tmp_path):
        path = write_config(tmp_path, budgets=[20, 30], samplers=["random"],
                            methods=["none"], kinds=["knn"])
        out = tmp_path / "sb"
        rc = main(["sweep-budget", "--config", str(path), "--out", str(out)])
        assert rc == 0
        lines = (out / "budget_sweep.csv").read_text().splitlines()
        assert lines[0].startswith("budget,")
        assert len(lines) == 1 + 2

    def test_sweep_threshold_zero_extra_calls(self, tmp_path):
        path = write_config(tmp_path, thresholds=[0.7, 0.9], samplers=["random"],
                            methods=["none"], kinds=["knn"])
        out = tmp_path / "st"
        rc = main(["sweep-threshold", "--config", str(path), "--out", str(out)])
        assert rc == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["audit"]["extra_calls_during_sweep"] == 0
        assert (out / "threshold_sweep.csv").exists()

    def test_knn_weights_note_printed_once(self, tmp_path, capfd):
        # BASE_CONFIG pairs reweight with knn; forked workers print nothing more
        path = write_config(tmp_path, thresholds=[0.7, 0.9], seeds=[0, 1])
        for workers in ("1", "2"):
            assert main(["sweep-threshold", "--config", str(path), "--out",
                         str(tmp_path / workers), "--workers", workers]) == 0
            err = capfd.readouterr().err
            assert err.count("k-NN ignores sample weights") == 1
            assert err.splitlines()[0] == (
                "note: k-NN ignores sample weights, so its reweight cells score as its none cells"
            )
            assert "UserWarning" not in err


def output_digests(out):
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*"))
        if p.is_file()
    }


class TestWorkers:
    @pytest.mark.parametrize("command", ["sample", "pipeline", "sweep-budget", "sweep-threshold"])
    def test_outputs_identical_across_workers(self, tmp_path, command):
        path = write_config(tmp_path, seeds=[0, 1], budgets=[40, 20], thresholds=[0.7, 0.9])
        digests = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main([command, "--config", str(path), "--out", str(out),
                         "--workers", workers]) == 0
            digests.append(output_digests(out))
        assert digests[0] and digests[1] == digests[0]

    def test_worker_error_reported_like_serial(self, tmp_path, capsys, monkeypatch):
        real_build = cli.build_oracle

        def build_flaky(cfg):
            oracle = real_build(cfg)

            def flaky(level):
                if level[1] > 60.0:
                    raise RuntimeError("sensor offline")
                return oracle(level)

            return flaky

        monkeypatch.setattr(cli, "build_oracle", build_flaky)
        path = write_config(tmp_path, seeds=[0, 1])
        errors = []
        for workers in ("1", "2"):
            rc = main(["sample", "--config", str(path), "--out", str(tmp_path / workers),
                       "--workers", workers])
            assert rc == 3
            errors.append(capsys.readouterr().err)
        assert errors[0].startswith("error: oracle failed at level")
        assert "sensor offline" in errors[0]
        assert errors[1] == errors[0]

    @pytest.mark.parametrize("command", ["sample", "pipeline", "sweep-budget", "sweep-threshold"])
    @pytest.mark.parametrize("workers", ["0", "-2"])
    def test_workers_below_one_is_config_error(self, tmp_path, capsys, monkeypatch,
                                               command, workers):
        def no_oracle(cfg):
            raise AssertionError("oracle built")

        monkeypatch.setattr(cli, "build_oracle", no_oracle)
        path = write_config(tmp_path, budgets=[20, 40], thresholds=[0.7, 0.9])
        out = tmp_path / "o"
        assert main([command, "--config", str(path), "--out", str(out),
                     "--workers", workers]) == 1
        assert capsys.readouterr().err == (
            f"config error: --workers must be at least 1, got {workers}\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rebalance", "train", "evaluate"])
    def test_single_run_commands_do_not_take_workers(self, tmp_path, capsys, command):
        path = write_config(tmp_path)
        extra = {"rebalance": ["--data", "d.csv", "--method", "none"],
                 "train": ["--data", "d.csv"],
                 "evaluate": ["--models", "m.json"]}[command]
        assert main([command, "--config", str(path), *extra, "--workers", "2"]) == 1
        assert "unrecognized arguments: --workers 2" in capsys.readouterr().err


class TestReportCommand:
    def test_summarizes_run_directory(self, tmp_path, capsys):
        path = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["pipeline", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        text = capsys.readouterr().out
        assert "config hash" in text
        assert "mean F1" in text or "random" in text

    def test_missing_report_is_error(self, tmp_path):
        assert main(["report", str(tmp_path / "nothing")]) == 1

    def test_invalid_json_report_is_error(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        path.write_text('{"config_hash": ')
        assert main(["report", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.out == ""

    @pytest.mark.parametrize("field", ["config_hash", "grid", "aggregates", "cells"])
    def test_report_missing_field_is_error(self, tmp_path, capsys, field):
        doc = {"config_hash": "abc", "grid": {"size": 4, "positives": 1},
               "aggregates": [], "cells": []}
        path = tmp_path / "report.json"
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 0
        assert "config hash: abc" in capsys.readouterr().out
        del doc[field]
        path.write_text(json.dumps(doc))
        assert main(["report", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path}: missing field '{field}'\n"
        assert captured.out == ""


class TestClassifierOracleConfig:
    def test_blob_pipeline_end_to_end(self, tmp_path):
        path = write_config(
            tmp_path,
            oracle={
                "kind": "classifier",
                "dataset": {"type": "blobs", "n_verification": 40, "n_train": 40,
                            "n_classes": 2, "size": 12, "seed": 0},
                "classifier": "nearest-centroid",
                "rain_seed": 0,
            },
            budget=25,
            init_count=8,
            samplers=["random"],
            methods=["none"],
            kinds=["knn"],
            h=0.75,
        )
        out = tmp_path / "blob"
        rc = main(["pipeline", "--config", str(path), "--out", str(out)])
        assert rc in (0, 2)  # tiny budgets may starve a cell; files must exist
        assert (out / "report.json").exists()


def write_training_csv(path, fault):
    """A sampled or rebalanced training CSV of BASE_CONFIG's space, with
    ``fault``; "rebalanced" is a sound rebalanced CSV."""
    names = ",".join(distortion_space().names)
    level = "1,45,0,0,1,0.5"
    text = {
        "short-row": f"{names},accuracy,label\r\n{level},0.9,1\r\n{level},0.9\r\n",
        "float-label": f"{names},accuracy,label\r\n{level},0.9,1.5\r\n",
        "text-flag": f"{names},label,weight,is_synthetic\r\n{level},1,1,yes\r\n",
        "rebalanced": f"{names},label,weight,is_synthetic\r\n{level},1,1,0\r\n"
                      f"{level},0,0.5,1\r\n",
        "zero-weight": f"{names},label,weight,is_synthetic\r\n{level},1,0,0\r\n",
        # BASE_CONFIG's h is 0.85
        "label-not-h": f"{names},accuracy,label\r\n{level},0.5,1\r\n",
        "unknown-header": f"{names},accuracy,label,extra\r\n{level},0.9,1,0\r\n",
        "nan-level": f"{names},accuracy,label\r\n1,nan,0,0,1,0.5,0.9,1\r\n",
        "inf-level": f"{names},label,weight,is_synthetic\r\n1,45,-inf,0,1,0.5,1,1,0\r\n",
        "nan-accuracy": f"{names},accuracy,label\r\n{level},0.9,1\r\n{level},NaN,0\r\n",
        "inf-accuracy": f"{names},accuracy,label\r\n{level},inf,1\r\n",
        "nan-weight": f"{names},label,weight,is_synthetic\r\n{level},1,nan,0\r\n",
        "inf-weight": f"{names},label,weight,is_synthetic\r\n{level},1,1,0\r\n"
                      f"{level},0,Infinity,0\r\n",
    }[fault]
    path.write_text(text, newline="")
    return path


# each IDX fault: the file the message names, and what it says
IDX_FAULTS = {
    "missing": ("images", "No such file or directory"),
    "bad-magic": ("images", "bad IDX magic 2049"),
    "truncated": ("images", "truncated"),
    "truncated-gzip": ("labels", "Compressed file ended"),
    "empty": ("images", "hold no images"),
    "count-mismatch": ("images", "3 images but"),
    "missing-class": ("labels", "training slice has no image of classes [1, 2]"),
}


class TestMalformedInputFiles:
    @pytest.mark.parametrize("fault, where", [
        ("short-row", "line 3: 7 fields, expected 8"),
        ("float-label", "line 2: expected 0 or 1, got '1.5'"),
        ("text-flag", "line 2: expected 0 or 1, got 'yes'"),
        ("unknown-header", "unexpected header"),
        ("zero-weight", "invalid content: weights must be positive"),
        ("label-not-h", "invalid content: label invariant violated at row 0"),
        ("nan-level", "line 2: expected a finite number, got 'nan'"),
        ("inf-level", "line 2: expected a finite number, got '-inf'"),
        ("nan-accuracy", "line 3: expected a finite number, got 'NaN'"),
        ("inf-accuracy", "line 2: expected a finite number, got 'inf'"),
        ("nan-weight", "line 2: expected a finite number, got 'nan'"),
        ("inf-weight", "line 3: expected a finite number, got 'Infinity'"),
    ])
    def test_bad_training_csv_exits_1(self, tmp_path, capsys, fault, where):
        data = write_training_csv(tmp_path / "data.csv", fault)
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["train", "--config", str(path), "--data", str(data), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data}") and where in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    @pytest.mark.parametrize("fault", ["unknown-header", "rebalanced"])
    def test_wrong_header_exits_1_on_train_and_test_set(self, tmp_path, capsys, command, fault):
        path = write_config(tmp_path)
        train = write_training_csv(tmp_path / "train.csv", "rebalanced")
        assert main(["train", "--config", str(path), "--data", str(train),
                     "--out", str(tmp_path / "m")]) == 0
        data = write_training_csv(tmp_path / "data.csv", fault)
        argv = {"train": ["--data", str(data)],
                "evaluate": ["--models", str(tmp_path / "m" / "model_knn.json"),
                             "--test-set", str(data)]}[command]
        # a rebalanced CSV trains, but it is no test set
        rc = 0 if (command, fault) == ("train", "rebalanced") else 1
        capsys.readouterr()
        assert main([command, "--config", str(path), *argv, "--out", str(tmp_path / "o")]) == rc
        if rc:
            assert capsys.readouterr().err.startswith(f"error: {data}: unexpected header")
            assert not (tmp_path / "o").exists()

    def test_model_file_not_json_exits_1(self, tmp_path, capsys):
        model = tmp_path / "model_knn.json"
        model.write_text("knn, k=5\n")
        path = write_config(tmp_path)
        out = tmp_path / "o"
        assert main(["evaluate", "--config", str(path), "--models", str(model),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read {model}: Expecting value")
        assert not out.exists()

    @pytest.mark.parametrize("kind, fault, where", [
        ("knn", {"hyper": {"k": 0}}, "invalid content: k must be an integer >= 1, got 0"),
        ("knn", {"hyper": {}}, "missing field 'k'"),
        ("knn", {"params": {"points": [[0.5, 0.5], [0.2, 0.2]], "labels": [1, 0]}},
         "invalid content: k-NN points have shape (2, 2), expected (m, 6)"),
        ("tree", {"params": {"root": {"feature": 9, "threshold": 0.5,
                                      "left": {"label": 0}, "right": {"label": 1}}}},
         "invalid content: tree node feature 9 outside [0, 6)"),
        ("logistic", {"params": {"weights": [0.5, 1.0], "final_grad_norm": 0.0}},
         "invalid content: logistic weights have shape (2,), expected (7,)"),
        ("knn", {"bounds": {"lower": [0.0, 0.0], "upper": [1.0, 1.0]},
                 "params": {"points": [[0.5, 0.5], [0.2, 0.2]], "labels": [1, 0]}},
         "model has dimension 2, the config's space has 6"),
        ("knn", {"params": {"points": [[0.5] * 6], "labels": [1, 0]}},
         "invalid content: k-NN labels have shape (2,), expected (1,)"),
        ("tree", {"params": {"root": {"label": 2}}}, "invalid content: tree leaf label 2 is not 0 or 1"),
        ("tree", {"params": {"root": {"feature": 0, "threshold": "low",
                                      "left": {"label": 0}, "right": {"label": 1}}}},
         "invalid content: tree node threshold 'low' is not a number"),
        ("logistic", {"bounds": {"lower": [0.0] * 6, "upper": [1.0, 1.0]}},
         "invalid content: bounds must be one lower < upper pair per dimension"),
    ])
    def test_malformed_model_file_exits_1(self, tmp_path, capsys, monkeypatch, kind, fault, where):
        path = write_config(tmp_path, kinds=["logistic", "tree", "knn"])
        data = write_training_csv(tmp_path / "data.csv", "rebalanced")
        assert main(["train", "--config", str(path), "--data", str(data),
                     "--out", str(tmp_path / "m")]) == 0
        model = tmp_path / "m" / f"model_{kind}.json"
        model.write_text(json.dumps({**json.loads(model.read_text()), **fault}))
        monkeypatch.setattr(cli, "build_oracle", lambda cfg: pytest.fail("oracle built"))
        out = tmp_path / "o"
        capsys.readouterr()
        assert main(["evaluate", "--config", str(path), "--models", str(model),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {model}: ") and where in err
        assert not out.exists()

    @pytest.mark.parametrize("fault", IDX_FAULTS)
    def test_bad_idx_dataset_exits_1(self, tmp_path, capsys, fault):
        named, where = IDX_FAULTS[fault]
        n = {"empty": 0, "count-mismatch": 3}.get(fault, 4)
        n_labels = 0 if fault == "empty" else 4
        images = struct.pack(">IIII", 2051, n, 2, 2) + bytes(range(4 * n))
        labels = struct.pack(">II", 2049, n_labels) + bytes([0, 1, 0, 1][:n_labels])
        limit = 1
        if fault == "missing-class":
            # classes 1 and 2 sit only in the verification slice
            n, limit = 6, 3
            images = struct.pack(">IIII", 2051, n, 2, 2) + bytes(range(4 * n))
            labels = struct.pack(">II", 2049, n) + bytes([0, 1, 2, 0, 0, 0])
        paths = {"images": tmp_path / "images.idx3", "labels": tmp_path / "labels.idx1.gz"}
        if fault == "bad-magic":
            images = labels
        elif fault == "truncated":
            images = images[:-1]
        paths["images"].write_bytes(images)
        paths["labels"].write_bytes(gzip.compress(labels)[: -5 if fault == "truncated-gzip" else None])
        if fault == "missing":
            paths["images"].unlink()
        dataset = {"type": "idx", "images": str(paths["images"]), "labels": str(paths["labels"]),
                   "verification_limit": limit, "train_limit": limit}
        path = write_config(tmp_path, oracle={"kind": "classifier", "dataset": dataset})
        out = tmp_path / "o"
        assert main(["sample", "--config", str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert str(paths[named]) in err and where in err
        assert not out.exists()


SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 2.5e-310, 0.1, 1 / 3, 1.0, 1e308, -1e308]
LEVEL = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
ACCURACY = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 2.5e-310, 0.1, 1 / 3, 1.0]),
                     st.floats(0.0, 1.0))
WEIGHT = st.one_of(st.sampled_from([5e-324, 2.5e-310, 0.1, 1.0, 1e308]),
                   st.floats(min_value=5e-324, allow_infinity=False))


def assert_bits_equal(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestLevelTableRoundTrip:
    """Level tables written and read back through every reader, bit for bit."""

    space = distortion_space()

    def levels(self, data, n):
        rows = data.draw(st.lists(st.lists(LEVEL, min_size=6, max_size=6), min_size=n, max_size=n))
        return np.array(rows, dtype=np.float64).reshape(n, 6)

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12),
           h=st.one_of(st.sampled_from([0.0, 0.1, 0.5, 1.0]), st.floats(0.0, 1.0)))
    def test_labeled_set(self, tmp_path_factory, data, n, h):
        acc = np.array(data.draw(st.lists(ACCURACY, min_size=n, max_size=n)))
        labeled = LabeledSet.from_accuracies(self.levels(data, n), acc, h)
        path = tmp_path_factory.mktemp("labeled") / "set.csv"
        cli.save_labeled_set(path, labeled, self.space)
        again = load_labeled_set(path, self.space, h)
        for name in ("levels", "accuracies", "labels"):
            assert_bits_equal(getattr(again, name), getattr(labeled, name))
        train = cli._read_training_csv(path, self.space, h)
        assert_bits_equal(train.levels, labeled.levels)
        assert_bits_equal(train.labels, labeled.labels)
        assert_bits_equal(train.weights, np.ones(n))
        assert_bits_equal(train.is_synthetic, np.zeros(n, dtype=bool))

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), n=st.integers(0, 12))
    def test_rebalanced_set(self, tmp_path_factory, data, n):
        result = RebalancedSet(
            levels=self.levels(data, n),
            labels=data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)),
            weights=data.draw(st.lists(WEIGHT, min_size=n, max_size=n)),
            is_synthetic=data.draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            parent_index=np.full(n, -1, dtype=np.int64),
        )
        path = tmp_path_factory.mktemp("rebalanced") / "set.csv"
        cli._write_rebalanced_csv(path, result, self.space)
        again = cli._read_training_csv(path, self.space, 0.5)
        for name in ("levels", "labels", "weights", "is_synthetic", "parent_index"):
            assert_bits_equal(getattr(again, name), getattr(result, name))


def test_readme_library_example_runs():
    # the README's python block, at a budget small enough for the fast tier
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert "budget=600" in block
    exec(compile(block.replace("budget=600", "budget=40"), "README.md", "exec"), {})
