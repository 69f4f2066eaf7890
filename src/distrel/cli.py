"""Command-line front end.

One JSON config drives everything; flags override individual fields. Every
command validates the full config before the first oracle evaluation and
writes a manifest (resolved config + hash + oracle call counts) next to its
outputs so a run can be reproduced exactly.

``--workers N`` (N >= 1; on ``sample``, ``pipeline`` and the sweeps) runs up
to N (sampler, seed) sampling runs, and then up to N cell jobs (a set's
rebalance and its kinds' cells), at once in forked worker processes; every
output byte is the same for any N. An error raised in a worker is reported
as it would be without workers. Every command runs with BLAS on one thread.

Only two paths load scipy: the GP sampler (``distrel.gp``) and an image
oracle's warp (``scipy.special``, on its first warp). ``main`` imports
``distrel.gp`` before it pins BLAS when a command samples with the GP, so
``train``, ``rebalance``, ``report`` and every random-only command on a
synthetic oracle start without scipy.

Exit codes: 0 success, 1 validation error or an input file that cannot be
read or parsed, 2 partial cell failure, 3 runtime failure.
"""

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from distrel import __version__, _kernels
from distrel import evaluation as ev
from distrel import files
from distrel import models as models_mod
from distrel import oracles as oracles_mod
from distrel import presets
from distrel import rebalance as rebalance_mod
from distrel.distortion import distortion_space
from distrel.sampling import LABELED_COLUMNS, LabeledSet
from distrel.sampling import load_labeled_set, save_labeled_set
# not called here: perfbench/tracing.py wraps cli.run_gp_sampling and cli.run_random_sampling
from distrel.sampling import run_gp_sampling, run_random_sampling  # noqa: F401
from distrel.space import SearchSpace

CONFIG_VERSION = 1

_DEFAULTS = {
    "config_version": CONFIG_VERSION,
    "space": "distortion",
    "h": None,
    "h_preset": None,
    "budget": 600,
    **ev.RUN_OPTIONS,
    "budgets": None,
    "thresholds": None,
    "out": "runs/latest",
}

# every field a classifier oracle's dataset may hold, with its default
_DATASET_DEFAULTS = {
    "blobs": {
        "type": "blobs", "n_verification": 200, "n_train": 100, "n_classes": 2,
        "size": 16, "seed": 0, "noise": 0.05,
    },
    "idx": {
        "type": "idx", "images": None, "labels": None,
        "verification_limit": 200, "train_limit": 200,
    },
}
# each oracle form's (required, optional) fields; any other field is an error
_ORACLE_FIELDS = {
    "preset": (("preset",), ()),
    "box": (("kind", "lower", "upper"), ("inside_value", "outside_value")),
    "ellipsoid": (("kind", "centers", "scales", "peaks"), ()),
    "multimodal": (("kind", "centers", "scales", "peaks"), ()),
    "classifier": (("kind", "dataset"), ("classifier", "rain_seed")),
}


_THRESHOLD_REPORT = "report_h{:g}.json"


class ConfigError(ValueError):
    """Invalid run configuration; maps to exit code 1."""


def _fail(field, message):
    raise ConfigError(f"config field {field!r}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_config(path) -> dict:
    try:
        return files.read_json(path)
    except files.InputFileError as exc:
        raise ConfigError(str(exc)) from None


def resolve_config(raw: dict, overrides: dict = None) -> dict:
    """Merge defaults, file values and CLI overrides; validate everything.

    The run options and the budget are checked by the experiment's own
    checker and a synthetic oracle by building its SyntheticOracleSpec, so
    each check lives with the object it guards.
    """
    unknown = set(raw) - set(_DEFAULTS) - {"oracle"}
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    cfg = dict(_DEFAULTS)
    cfg.update(raw)
    for key, value in (overrides or {}).items():
        if value is not None:
            cfg[key] = value

    if not ev._is_int(cfg["config_version"]) or cfg["config_version"] != CONFIG_VERSION:
        _fail("config_version", f"expected {CONFIG_VERSION}, got {cfg['config_version']!r}")
    if cfg.get("oracle") is None:
        _fail("oracle", "missing; give a preset or an oracle spec")
    if not isinstance(cfg["out"], str):
        _fail("out", f"must be a directory path, got {cfg['out']!r}")

    cfg["space"] = _resolve_space_field(cfg["space"])
    cfg["oracle"] = _resolve_oracle_field(cfg["oracle"])

    preset = cfg["h_preset"]
    if preset is not None and not (
        isinstance(preset, str) and preset in presets.THRESHOLD_PRESETS
    ):
        _fail("h_preset", f"unknown preset {preset!r}; "
              f"known: {sorted(presets.THRESHOLD_PRESETS)}")
    if cfg["h"] is None:
        cfg["h"] = presets.BENCHMARK_H if preset is None else presets.THRESHOLD_PRESETS[preset]
    if not _is_number(cfg["h"]) or not 0.0 <= cfg["h"] <= 1.0:
        _fail("h", f"must be a number in [0, 1], got {cfg['h']!r}")

    try:
        ev.check_run_options(cfg["budget"], _run_options(cfg))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None
    if cfg["budgets"] is not None and not isinstance(cfg["budgets"], list):
        _fail("budgets", f"must be a list of budgets, got {cfg['budgets']!r}")
    for budget in cfg["budgets"] or []:
        try:
            ev.check_run_options(budget, _run_options(cfg))
        except (TypeError, ValueError) as exc:
            _fail("budgets", str(exc))
    if cfg["thresholds"] is not None and (
        not isinstance(cfg["thresholds"], list)
        or not all(_is_number(t) and 0 <= t <= 1 for t in cfg["thresholds"])
    ):
        _fail("thresholds", "must be a list of numbers in [0, 1]")
    reports = {}
    for h in cfg["thresholds"] or []:
        name = _THRESHOLD_REPORT.format(h)
        if name in reports:
            _fail("thresholds", f"{reports[name]!r} and {h!r} would both write {name}")
        reports[name] = h

    if cfg["space"] != "distortion" and (
        "preset" in cfg["oracle"] or cfg["oracle"]["kind"] == "classifier"
    ):
        _fail("space", "oracle presets and classifier oracles are defined on the "
              "distortion space; use a synthetic oracle spec with a custom space")
    try:
        _synthetic_spec(cfg)
    except (TypeError, ValueError, ArithmeticError) as exc:
        _fail("oracle", str(exc))
    return cfg


def _resolve_space_field(value):
    if value == "distortion":
        return "distortion"
    if isinstance(value, dict) and "dims" in value:
        try:
            SearchSpace.from_dict(value)
        except Exception as exc:
            _fail("space", str(exc))
        return value
    _fail("space", f"must be 'distortion' or a dims object, got {value!r}")


def _resolve_oracle_field(value):
    if not isinstance(value, dict):
        _fail("oracle", f"must be an object, got {value!r}")
    value = dict(value)
    form = "preset" if "preset" in value else value.get("kind")
    if not isinstance(form, str) or form not in _ORACLE_FIELDS:
        _fail("oracle.kind", f"must be box, ellipsoid, multimodal or classifier, got {form!r}")
    required, optional = _ORACLE_FIELDS[form]
    unknown = set(value) - {*required, *optional}
    if unknown:
        _fail("oracle", f"unknown {form} oracle fields: {sorted(unknown)}")
    for need in required:
        if need not in value:
            _fail(f"oracle.{need}", f"required for {form} oracles")
    if form == "preset" and not (isinstance(value["preset"], str)
                                 and value["preset"] in presets.ORACLE_PRESETS):
        _fail("oracle.preset", f"unknown preset {value['preset']!r}; "
              f"known: {sorted(presets.ORACLE_PRESETS)}")
    if form == "classifier":
        _classifier_dataset(value)
        clf = value.get("classifier", "nearest-centroid")
        if clf not in ("nearest-centroid", "k-nn"):
            _fail("oracle.classifier", f"must be 'nearest-centroid' or 'k-nn', got {clf!r}")
        value["classifier"] = clf
        value.setdefault("rain_seed", 0)
        if not ev._is_int(value["rain_seed"]) or value["rain_seed"] < 0:
            _fail("oracle.rain_seed", f"must be an unsigned integer, got {value['rain_seed']!r}")
    return value


def _classifier_dataset(spec: dict) -> dict:
    """The classifier oracle's dataset merged with its defaults, every field
    checked; validation and build_oracle both read it from here."""
    dataset = spec.get("dataset")
    if not isinstance(dataset, dict) or dataset.get("type") not in _DATASET_DEFAULTS:
        _fail("oracle.dataset", "must be an object with type 'blobs' or 'idx'")
    defaults = _DATASET_DEFAULTS[dataset["type"]]
    unknown = set(dataset) - set(defaults)
    if unknown:
        _fail("oracle.dataset", f"unknown {dataset['type']} dataset fields: {sorted(unknown)}")
    d = {**defaults, **dataset}
    if d["type"] == "idx":
        for need in ("images", "labels"):
            if not isinstance(d[need], str):
                _fail(f"oracle.dataset.{need}", f"required for idx datasets, a file path; "
                      f"got {d[need]!r}")
        minimum = {"verification_limit": 1, "train_limit": 1}
    else:
        if not ev._is_int(d["n_classes"]) or not 2 <= d["n_classes"] <= 4:
            _fail("oracle.dataset.n_classes", f"must be an integer in [2, 4], got {d['n_classes']!r}")
        if not _is_number(d["noise"]) or not 0.0 <= d["noise"] < float("inf"):
            _fail("oracle.dataset.noise", f"must be a finite number >= 0, got {d['noise']!r}")
        # at least one image of each class in both sets
        minimum = {"n_verification": d["n_classes"], "n_train": d["n_classes"],
                   "size": 1, "seed": 0}
    for name, least in minimum.items():
        if not ev._is_int(d[name]) or d[name] < least:
            _fail(f"oracle.dataset.{name}", f"must be an integer >= {least}, got {d[name]!r}")
    return d


def _run_options(cfg: dict) -> dict:
    """The config's fields that evaluation.RUN_OPTIONS names."""
    return {k: cfg[k] for k in ev.RUN_OPTIONS}


def build_space(cfg: dict) -> SearchSpace:
    if cfg["space"] == "distortion":
        return distortion_space()
    return SearchSpace.from_dict(cfg["space"])


def _synthetic_spec(cfg: dict):
    """The configured synthetic oracle's spec, or None for a classifier oracle."""
    spec = cfg["oracle"]
    if "preset" in spec:
        return presets.ORACLE_PRESETS[spec["preset"]](h=cfg["h"])
    if spec["kind"] == "classifier":
        return None
    if spec["kind"] == "box":
        return oracles_mod.SyntheticOracleSpec(
            kind="box",
            space=build_space(cfg),
            box_lower=spec["lower"],
            box_upper=spec["upper"],
            **{k: spec[k] for k in ("inside_value", "outside_value") if k in spec},
        )
    return oracles_mod.SyntheticOracleSpec(
        kind=spec["kind"],
        space=build_space(cfg),
        centers=spec["centers"],
        scales=spec["scales"],
        peaks=spec["peaks"],
    )


def build_oracle(cfg: dict):
    """Construct the configured oracle; runs zero accuracy evaluations."""
    synthetic = _synthetic_spec(cfg)
    if synthetic is not None:
        return synthetic
    # classifier oracle
    spec = cfg["oracle"]
    d = _classifier_dataset(spec)
    if d["type"] == "blobs":
        verification = oracles_mod.make_blob_verification_set(
            d["n_verification"], d["n_classes"], d["size"], d["seed"], d["noise"]
        )
        train = oracles_mod.make_blob_verification_set(
            d["n_train"], d["n_classes"], d["size"], d["seed"] + 1, d["noise"]
        )
    else:
        full = oracles_mod.load_idx_verification_set(d["images"], d["labels"])
        n_ver, n_train = d["verification_limit"], d["train_limit"]
        if full.n < n_ver + n_train:
            raise ConfigError(
                f"idx dataset has {full.n} images, need {n_ver + n_train}"
            )
        verification = oracles_mod.VerificationSet(
            full.images[:n_ver], full.labels[:n_ver], full.n_classes
        )
        train = oracles_mod.VerificationSet(
            full.images[n_ver : n_ver + n_train],
            full.labels[n_ver : n_ver + n_train],
            full.n_classes,
        )
        missing = np.flatnonzero(np.bincount(train.labels, minlength=train.n_classes) == 0)
        if missing.size:
            raise files.InputFileError(f"{d['labels']}: the training slice has no image "
                                       f"of classes {missing.tolist()}")
    classifier = oracles_mod.train_reference_classifier(train, spec["classifier"])
    return oracles_mod.ClassifierOracle(classifier, verification, spec["rain_seed"])


# ---------------------------------------------------------------------------
# Manifest and output plumbing
# ---------------------------------------------------------------------------

def _json_safe(cfg: dict) -> dict:
    # the output directory is delivery plumbing, not part of the experiment
    doc = {k: v for k, v in cfg.items() if k != "out"}
    return json.loads(json.dumps(doc))


def write_manifest(out_dir: Path, cfg: dict, command: str, extra: dict = None) -> None:
    doc = {
        "format_version": 1,
        "package_version": __version__,
        "command": command,
        "config": _json_safe(cfg),
        "config_hash": ev.config_hash(_json_safe(cfg)),
    }
    doc.update(extra or {})
    files.write_json(out_dir / "manifest.json", doc)


def _out_dir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _setup(cfg: dict) -> tuple:
    """The output directory, search space and oracle of a sampling command;
    the oracle is built first, so an unreadable dataset leaves no directory."""
    space, oracle = build_space(cfg), build_oracle(cfg)
    return _out_dir(cfg), space, oracle


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_sample(cfg: dict, workers: int) -> int:
    sampler_cfg, _ = ev.check_run_options(cfg["budget"], _run_options(cfg))
    out, space, oracle = _setup(cfg)
    sets = ev._sample_sets(
        oracle, space, cfg["h"], cfg["samplers"], cfg["seeds"], sampler_cfg, workers
    )
    for sampler in cfg["samplers"]:
        for seed in cfg["seeds"]:
            labeled = sets[(sampler, seed)]
            name = f"samples_{sampler}_seed{seed}.csv"
            save_labeled_set(out / name, labeled, space)
            print(f"wrote {out / name} ({labeled.n} rows, {labeled.positive_count} positive)")
    write_manifest(out, cfg, "sample", {
        "oracle_calls": {f"{s}/{seed}": ev.oracle_call_count(v) for (s, seed), v in sets.items()},
    })
    return 0


def cmd_rebalance(cfg: dict, data_path: str, method: str) -> int:
    space = build_space(cfg)
    if method not in rebalance_mod.METHODS:
        raise ConfigError(f"unknown method {method!r}; known: {list(rebalance_mod.METHODS)}")
    labeled = load_labeled_set(data_path, space, cfg["h"])
    out = _out_dir(cfg)
    result = rebalance_mod.rebalance(labeled, method, space, seed=cfg["seeds"][0])
    name = f"rebalanced_{method}.csv"
    _write_rebalanced_csv(out / name, result, space)
    counts = result.class_counts()
    print(f"wrote {out / name} ({result.n} rows, {counts[0]} negative / {counts[1]} positive)")
    write_manifest(out, cfg, "rebalance", {"method": method, "input": str(data_path)})
    return 0


REBALANCED_COLUMNS = ("label", "weight", "is_synthetic")


def _write_rebalanced_csv(path, result, space) -> None:
    files.write_levels(path, space.names, result.levels, dict(zip(
        REBALANCED_COLUMNS, (result.labels, result.weights, result.is_synthetic))))


def _read_training_csv(path, space, h):
    """Accept either a sampled LabeledSet CSV or a rebalanced CSV."""
    tail, levels, cols = files.read_levels(path, space.names, LABELED_COLUMNS, REBALANCED_COLUMNS)
    with files.fields_of(path):
        if tail == LABELED_COLUMNS:
            labeled = LabeledSet(levels, cols["accuracy"], cols["label"], threshold=h)
            return rebalance_mod.rebalance(labeled, "none", space)
        return rebalance_mod.RebalancedSet(
            levels=levels, labels=cols["label"], weights=cols["weight"],
            is_synthetic=cols["is_synthetic"],
            parent_index=np.full(len(levels), -1, dtype=np.int64),
            provenance={"method": "loaded", "path": str(path)},
        )


def cmd_train(cfg: dict, data_path: str) -> int:
    space = build_space(cfg)
    data = _read_training_csv(data_path, space, cfg["h"])
    if "knn" in cfg["kinds"] and np.any(data.weights != 1.0):
        print(f"note: k-NN ignores the sample weights in {data_path}", file=sys.stderr)
    out = _out_dir(cfg)
    for kind in cfg["kinds"]:
        model = models_mod.train(kind, data, space)
        name = f"model_{kind}.json"
        models_mod.save_model(out / name, model)
        print(f"wrote {out / name}")
    write_manifest(out, cfg, "train", {"input": str(data_path)})
    return 0


def cmd_evaluate(cfg: dict, model_paths: list, test_set: str) -> int:
    space = build_space(cfg)
    # every input is read before the grid's oracle calls and the output directory
    models = [models_mod.load_model(path) for path in model_paths]
    for path, model in zip(model_paths, models):
        if model.dim != space.dim:
            raise files.InputFileError(
                f"{path}: model has dimension {model.dim}, the config's space has {space.dim}")
    if test_set:
        grid = load_labeled_set(test_set, space, cfg["h"])
    else:
        oracle = build_oracle(cfg)
        grid = ev.build_grid_test_set(space, cfg["points_per_dim"], oracle, cfg["h"])
    out = _out_dir(cfg)
    rows = []
    for path, model in zip(model_paths, models):
        metrics = ev.f1_score(model.predict(grid.levels), grid.labels)
        rows.append({"model": str(path), "kind": model.kind, **metrics.as_dict()})
        print(f"{path}: f1={metrics.f1:.4f} precision={metrics.precision:.4f} "
              f"recall={metrics.recall:.4f}")
    files.write_json(out / "evaluation.json",
                     {"grid_size": grid.n, "grid_positives": grid.positive_count, "results": rows})
    write_manifest(out, cfg, "evaluate", {"test_set": test_set or "grid"})
    return 0


def cmd_pipeline(cfg: dict, workers: int) -> int:
    out, space, oracle = _setup(cfg)
    report = ev.run_experiment(oracle, space, cfg["h"], budget=cfg["budget"],
                               config=_json_safe(cfg), workers=workers, **_run_options(cfg))
    report.write_csv(out / "report.csv")
    report.write_json(out / "report.json")
    write_manifest(out, cfg, "pipeline", {
        "oracle_calls": {f"{s}/{seed}": v for (s, seed), v in sorted(report.oracle_calls.items())},
    })
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'}")
    _print_report_summary(report)
    return 2 if report.has_errors else 0


def cmd_sweep_budget(cfg: dict, workers: int) -> int:
    if not cfg["budgets"]:
        raise ConfigError("config field 'budgets' is required for sweep-budget")
    out, space, oracle = _setup(cfg)
    rows = ev.sweep_budget(oracle, space, cfg["h"], cfg["budgets"], config=_json_safe(cfg),
                           workers=workers, **_run_options(cfg))
    ev.write_sweep_csv(out / "budget_sweep.csv", rows, "budget")
    for budget, report in rows:
        report.write_json(out / f"report_budget{budget}.json")
    write_manifest(out, cfg, "sweep-budget", {"budgets": cfg["budgets"]})
    print(f"wrote {out / 'budget_sweep.csv'}")
    return 2 if any(r.has_errors for _, r in rows) else 0


def cmd_sweep_threshold(cfg: dict, workers: int) -> int:
    thresholds = cfg["thresholds"]
    if not thresholds:
        thresholds = sorted(presets.THRESHOLD_PRESETS.values())
    out, space, oracle = _setup(cfg)
    rows, audit = ev.sweep_threshold(oracle, space, thresholds, budget=cfg["budget"],
                                     config=_json_safe(cfg), workers=workers, **_run_options(cfg))
    ev.write_sweep_csv(out / "threshold_sweep.csv", rows, "h")
    for h, report in rows:
        report.write_json(out / _THRESHOLD_REPORT.format(h))
    write_manifest(out, cfg, "sweep-threshold", {"thresholds": thresholds, "audit": audit})
    print(f"wrote {out / 'threshold_sweep.csv'}; "
          f"extra oracle calls during sweep: {audit['extra_calls_during_sweep']}")
    return 2 if any(r.has_errors for _, r in rows) else 0


def cmd_report(path: str) -> int:
    target = Path(path)
    if target.is_dir():
        target = target / "report.json"
    doc = files.read_json(target)
    # build every line before printing any, so a bad field prints nothing
    with files.fields_of(target):
        lines = [f"config hash: {doc['config_hash']}",
                 f"grid: {doc['grid']['size']} points, {doc['grid']['positives']} positive",
                 f"{'sampler':<8} {'method':<12} {'kind':<9} {'mean F1':>8} {'std':>7} {'cells':>5}"]
        for row in doc["aggregates"]:
            lines.append(f"{row['sampler']:<8} {row['method']:<12} {row['kind']:<9} "
                         f"{row['mean_f1']:>8.4f} {row['std_f1']:>7.4f} {row['cells']:>5}")
        errors = [c for c in doc["cells"] if c["error"]]
        if errors:
            lines.append(f"{len(errors)} failed cells:")
        for c in errors:
            lines.append(f"  {c['sampler']}/{c['method']}/{c['kind']}/seed{c['seed']}: {c['error']}")
    print("\n".join(lines))
    return 0


def _print_report_summary(report) -> None:
    for row in report.aggregate_rows():
        if row["kind"] == "all":
            print(
                f"  {row['sampler']:<8} {row['method']:<12} "
                f"mean F1 over kinds: {row['mean_f1']:.4f}"
            )
    for sampler in sorted({s for s, _ in report.positive_counts}):
        print(f"  {sampler} mean positives: {report.mean_positive_count(sampler):.1f}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distrel",
        description="Predict image-classifier reliability under image distortion.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True, help="JSON config file")
        p.add_argument("--seed", type=int, default=None,
                       help="replace the config seed list with this single seed")
        p.add_argument("--out", default=None, help="output directory override")

    def with_workers(p):
        common(p)
        p.add_argument("--workers", type=int, default=1,
                       help="forked worker processes, at least 1 (default 1), for the "
                            "(sampler, seed) runs and then the cells; results do not "
                            "depend on it")

    with_workers(sub.add_parser("sample", help="run the samplers, write training sets"))
    p = sub.add_parser("rebalance", help="rebalance a sampled training set")
    common(p)
    p.add_argument("--data", required=True, help="training-set CSV")
    p.add_argument("--method", required=True, help="imbalance method name")
    p = sub.add_parser("train", help="train distortion-classifiers on a CSV")
    common(p)
    p.add_argument("--data", required=True, help="training CSV (sampled or rebalanced)")
    p = sub.add_parser("evaluate", help="score saved models on the grid test set")
    common(p)
    p.add_argument("--models", nargs="+", required=True, help="model JSON files")
    p.add_argument("--test-set", default=None, help="optional test-set CSV")
    with_workers(sub.add_parser("pipeline", help="full sample/rebalance/train/evaluate matrix"))
    with_workers(sub.add_parser("sweep-budget", help="pipeline across budget values"))
    with_workers(sub.add_parser("sweep-threshold",
                                help="relabel and re-evaluate across thresholds"))
    p = sub.add_parser("report", help="summarize a report.json")
    p.add_argument("path", help="report.json or a run directory")
    return parser


# the commands that train and score the cells of the matrix
_CELL_COMMANDS = ("pipeline", "sweep-budget", "sweep-threshold")

_COMMANDS = {
    "sample": lambda cfg, args: cmd_sample(cfg, args.workers),
    "rebalance": lambda cfg, args: cmd_rebalance(cfg, args.data, args.method),
    "train": lambda cfg, args: cmd_train(cfg, args.data),
    "evaluate": lambda cfg, args: cmd_evaluate(cfg, args.models, args.test_set),
    "pipeline": lambda cfg, args: cmd_pipeline(cfg, args.workers),
    "sweep-budget": lambda cfg, args: cmd_sweep_budget(cfg, args.workers),
    "sweep-threshold": lambda cfg, args: cmd_sweep_threshold(cfg, args.workers),
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (exit 0) or the usage error (exit 2)
        # already; a usage error is a config error, since 2 means failed cells
        return 1 if exc.code else 0
    try:
        if args.command == "report":
            return cmd_report(args.path)
        if getattr(args, "workers", 1) < 1:
            raise ConfigError(f"--workers must be at least 1, got {args.workers}")
        seeds = None if args.seed is None else [args.seed]
        cfg = resolve_config(load_config(args.config), {"out": args.out, "seeds": seeds})
        cells = args.command in _CELL_COMMANDS
        if cells and "knn" in cfg["kinds"] and "reweight" in cfg["methods"]:
            # exact: reweight keeps the levels and labels and only sets weights
            print("note: k-NN ignores sample weights, so its reweight cells score as its none cells",
                  file=sys.stderr)
        if (cells or args.command == "sample") and "gp" in cfg["samplers"]:
            # loaded before the pin, which pins only the OpenBLAS copies mapped at its entry
            from distrel import gp  # noqa: F401
        # the pins nested in this one leave BLAS alone: its threads restart once, at the end
        with _kernels.single_threaded_blas():
            return _COMMANDS[args.command](cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except files.InputFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
