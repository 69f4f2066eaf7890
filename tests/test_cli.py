import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distrel.cli import ConfigError, build_oracle, build_space, main, resolve_config

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
    "refine_steps": 4,
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

    def test_budget_must_exceed_init(self, tmp_path, capsys):
        path = write_config(tmp_path, budget=5, init_count=10)
        rc = main(["pipeline", "--config", str(path), "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "init_count" in capsys.readouterr().err

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
    "acquisition_candidates", "refine_steps", "budgets", "thresholds", "out", "oracle",
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
