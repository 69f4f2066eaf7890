"""Grid test sets, F1 scoring, and the full experiment matrix.

The experiment crosses sampler x imbalance method x model kind over several
seeds, scores every cell on one shared grid test set, and aggregates by
arithmetic mean. Budget and threshold sweeps rerun the matrix along one axis;
the threshold sweep relabels cached accuracies instead of re-querying the
oracle.
"""

import csv
import hashlib
import inspect
import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from distrel import models as models_mod
from distrel import oracles as oracles_mod
from distrel import rebalance as rebalance_mod
from distrel.sampling import LabeledSet, SamplerConfig, run_gp_sampling, run_random_sampling
from distrel.space import SearchSpace

SAMPLERS = ("random", "gp")
# SamplerConfig fields one run shares across all its (sampler, seed) pairs
SAMPLER_OPTIONS = ("init_count", "delta", "acquisition_candidates", "refine_steps")
REPORT_FORMAT_VERSION = 1
CSV_HEADER = [
    "sampler", "method", "kind", "seed",
    "tp", "fp", "tn", "fn", "precision", "recall", "f1",
]


@dataclass(frozen=True)
class Metrics:
    """Confusion counts plus derived scores for the positive (reliable) class."""

    true_positive: int
    false_positive: int
    true_negative: int
    false_negative: int
    precision: float
    recall: float
    f1: float

    def as_dict(self) -> dict:
        return {
            "tp": self.true_positive,
            "fp": self.false_positive,
            "tn": self.true_negative,
            "fn": self.false_negative,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
        }


def config_hash(config: dict) -> str:
    """sha256 of the config's sorted-key JSON; reports and manifests share it."""
    return hashlib.sha256(json.dumps(config, sort_keys=True).encode()).hexdigest()


def f1_score(predictions, truth) -> Metrics:
    """Standard confusion counts; 0/0 ratios resolve to 0."""
    predictions = np.asarray(predictions, dtype=np.int64).reshape(-1)
    truth = np.asarray(truth, dtype=np.int64).reshape(-1)
    if predictions.shape != truth.shape:
        raise ValueError(
            f"length mismatch: {predictions.shape[0]} predictions, "
            f"{truth.shape[0]} truth labels"
        )
    if predictions.size == 0:
        raise ValueError("need at least one prediction")
    tp = int(np.sum((predictions == 1) & (truth == 1)))
    fp = int(np.sum((predictions == 1) & (truth == 0)))
    tn = int(np.sum((predictions == 0) & (truth == 0)))
    fn = int(np.sum((predictions == 0) & (truth == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2.0 * precision * recall / (precision + recall)
        if precision + recall
        else 0.0
    )
    return Metrics(tp, fp, tn, fn, precision, recall, f1)


def build_grid_test_set(space: SearchSpace, points_per_dim: int, oracle, h: float) -> LabeledSet:
    """Label the full Cartesian lattice (points_per_dim^d points) with the oracle."""
    levels = space.grid(points_per_dim)
    accs = oracles_mod.evaluate_many(oracle, levels)
    return LabeledSet.from_accuracies(levels, accs, h)


@dataclass(frozen=True)
class CellResult:
    sampler: str
    method: str
    kind: str
    seed: int
    metrics: Metrics = None
    error: str = None

    def key(self) -> tuple:
        return (self.sampler, self.method, self.kind, self.seed)


@dataclass
class ExperimentReport:
    """Everything one experiment run produced, reproducible from config+seeds."""

    cells: list
    positive_counts: dict  # (sampler, seed) -> int
    oracle_calls: dict  # (sampler, seed) -> int
    grid_size: int
    grid_positive_count: int
    seeds: tuple
    config: dict = field(default_factory=dict)

    # -- aggregation ---------------------------------------------------------

    def _f1s(self, sampler, method, kind=None) -> list:
        return [
            c.metrics.f1
            for c in self.cells
            if c.error is None
            and c.sampler == sampler
            and c.method == method
            and (kind is None or c.kind == kind)
        ]

    def mean_f1(self, sampler, method, kind=None) -> float:
        """Mean F1 over seeds (and over kinds when ``kind`` is None)."""
        vals = self._f1s(sampler, method, kind)
        if not vals:
            raise ValueError(f"no successful cells for {(sampler, method, kind)}")
        return float(np.mean(vals))

    def mean_positive_count(self, sampler) -> float:
        vals = [v for (s, _), v in self.positive_counts.items() if s == sampler]
        if not vals:
            raise ValueError(f"no runs recorded for sampler {sampler!r}")
        return float(np.mean(vals))

    @property
    def has_errors(self) -> bool:
        return any(c.error is not None for c in self.cells)

    def sorted_cells(self) -> list:
        return sorted(self.cells, key=lambda c: c.key())

    def aggregate_rows(self) -> list:
        """Mean/std F1 per (sampler, method, kind) plus kind-averaged rows."""
        rows = []
        samplers = sorted({c.sampler for c in self.cells})
        methods = sorted({c.method for c in self.cells})
        kinds = sorted({c.kind for c in self.cells})
        for s in samplers:
            for m in methods:
                for k in kinds + [None]:
                    vals = self._f1s(s, m, k)
                    if not vals:
                        continue
                    rows.append(
                        {
                            "sampler": s,
                            "method": m,
                            "kind": k if k is not None else "all",
                            "mean_f1": float(np.mean(vals)),
                            "std_f1": float(np.std(vals)),
                            "cells": len(vals),
                        }
                    )
        return rows

    # -- serialization ---------------------------------------------------------

    def config_hash(self) -> str:
        return config_hash(self.config)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(_cell_rows(self))

    def to_json_dict(self) -> dict:
        def nest(d):
            out = {}
            for (sampler, seed), v in sorted(d.items()):
                out.setdefault(sampler, {})[str(seed)] = v
            return out

        return {
            "format_version": REPORT_FORMAT_VERSION,
            "config": self.config,
            "config_hash": self.config_hash(),
            "seeds": list(self.seeds),
            "grid": {"size": self.grid_size, "positives": self.grid_positive_count},
            "positive_counts": nest(self.positive_counts),
            "oracle_calls": nest(self.oracle_calls),
            "aggregates": self.aggregate_rows(),
            "cells": [
                {
                    "sampler": c.sampler,
                    "method": c.method,
                    "kind": c.kind,
                    "seed": c.seed,
                    "metrics": c.metrics.as_dict() if c.metrics else None,
                    "error": c.error,
                }
                for c in self.sorted_cells()
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _validate_axes(samplers, methods, kinds):
    for s in samplers:
        if s not in SAMPLERS:
            raise ValueError(f"unknown sampler {s!r}; known: {SAMPLERS}")
    for m in methods:
        if m not in rebalance_mod.METHODS:
            raise ValueError(
                f"unknown imbalance method {m!r}; known: {rebalance_mod.METHODS}"
            )
    for k in kinds:
        if k not in models_mod.KINDS:
            raise ValueError(f"unknown model kind {k!r}; known: {models_mod.KINDS}")


def run_sampler(sampler, oracle, space, h, cfg: SamplerConfig):
    """One sampler run against a fresh caching wrapper of ``oracle``.

    The random sampler reads only ``cfg.budget`` and ``cfg.seed``. Returns
    the labeled set and the number of distinct levels sent to ``oracle``.
    """
    wrapped = oracles_mod.caching_oracle(oracle)
    if sampler == "random":
        labeled = run_random_sampling(wrapped, space, h, cfg.budget, cfg.seed)
    else:
        labeled = run_gp_sampling(wrapped, space, h, cfg)
    return labeled, wrapped.inner_calls


def _sample_sets(oracle, space, h, samplers, seeds, cfg: SamplerConfig):
    """run_sampler for every (sampler, seed); returns (sets, oracle calls) by key."""
    train_sets = {}
    oracle_calls = {}
    for seed in seeds:
        for sampler in samplers:
            labeled, calls = run_sampler(sampler, oracle, space, h, replace(cfg, seed=seed))
            train_sets[(sampler, seed)] = labeled
            oracle_calls[(sampler, seed)] = calls
    return train_sets, oracle_calls


def _evaluate_cells(train_sets, grid, space, methods, kinds, workers=1):
    """Rebalance/train/score each cell; failures are recorded, not raised."""
    rebalanced = {}
    for (sampler, seed), labeled in sorted(train_sets.items()):
        for method in methods:
            key = (sampler, seed, method)
            try:
                rebalanced[key] = rebalance_mod.rebalance(
                    labeled, method, space, seed=seed
                )
            except Exception as exc:
                rebalanced[key] = exc

    jobs = []
    for (sampler, seed), _ in sorted(train_sets.items()):
        for method in methods:
            for kind in kinds:
                jobs.append((sampler, seed, method, kind))

    def run_cell(job):
        sampler, seed, method, kind = job
        pre = rebalanced[(sampler, seed, method)]
        if isinstance(pre, Exception):
            return CellResult(sampler, method, kind, seed, error=str(pre))
        try:
            model = models_mod.train(kind, pre, space)
            preds = model.predict(grid.levels)
            metrics = f1_score(preds, grid.labels)
            return CellResult(sampler, method, kind, seed, metrics=metrics)
        except Exception as exc:
            return CellResult(sampler, method, kind, seed, error=str(exc))

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(run_cell, jobs))
    else:
        cells = [run_cell(j) for j in jobs]
    return cells


def run_experiment(
    oracle,
    space: SearchSpace,
    h: float,
    *,
    budget: int,
    init_count: int = SamplerConfig.init_count,
    delta: float = SamplerConfig.delta,
    samplers=SAMPLERS,
    methods=("none", "smote"),
    kinds=models_mod.KINDS,
    seeds=(0, 1, 2, 3, 4),
    points_per_dim: int = 4,
    acquisition_candidates: int = SamplerConfig.acquisition_candidates,
    refine_steps: int = SamplerConfig.refine_steps,
    grid: LabeledSet = None,
    config: dict = None,
    workers: int = 1,
) -> ExperimentReport:
    """Run the sampler x method x kind matrix over the given seeds.

    The grid test set is built once (or passed in) and shared by every cell,
    so test labels never depend on what is being evaluated. Cell failures are
    recorded in the report while the other cells proceed.
    """
    _validate_axes(samplers, methods, kinds)
    cfg = SamplerConfig(
        budget=budget,
        init_count=init_count,
        delta=delta,
        acquisition_candidates=acquisition_candidates,
        refine_steps=refine_steps,
    )
    if grid is None:
        grid = build_grid_test_set(space, points_per_dim, oracle, h)
    elif grid.threshold != h:
        grid = grid.relabeled(h)

    train_sets, oracle_calls = _sample_sets(oracle, space, h, samplers, seeds, cfg)
    cells = _evaluate_cells(train_sets, grid, space, methods, kinds, workers)
    return ExperimentReport(
        cells=cells,
        positive_counts={k: v.positive_count for k, v in train_sets.items()},
        oracle_calls=oracle_calls,
        grid_size=grid.n,
        grid_positive_count=grid.positive_count,
        seeds=tuple(seeds),
        config=config or {},
    )


# run_experiment's keyword defaults; the sweeps take the same keywords and
# fill them from here rather than declaring defaults of their own
_RUN_DEFAULTS = {
    name: p.default
    for name, p in inspect.signature(run_experiment).parameters.items()
    if p.default is not p.empty
}


def _with_run_defaults(kwargs: dict) -> dict:
    unknown = set(kwargs) - set(_RUN_DEFAULTS)
    if unknown:
        raise TypeError(f"unexpected arguments {sorted(unknown)}")
    return {**_RUN_DEFAULTS, **kwargs}


def sweep_budget(oracle, space, h, budgets, *, config: dict = None, **kwargs) -> list:
    """run_experiment per budget, reusing one shared grid; rows keyed by budget.

    Takes run_experiment's keywords except ``budget`` and ``config``.
    """
    if not budgets:
        raise ValueError("need at least one budget")
    kwargs = _with_run_defaults(kwargs)
    if kwargs["grid"] is None:
        kwargs["grid"] = build_grid_test_set(space, kwargs["points_per_dim"], oracle, h)
    out = []
    for budget in budgets:
        kwargs["config"] = {**(config or {}), "budget": budget}
        out.append((int(budget), run_experiment(oracle, space, h, budget=budget, **kwargs)))
    return out


def sweep_threshold(oracle, space, h_values, *, budget, config: dict = None, **kwargs) -> tuple:
    """Re-evaluate the matrix at each threshold without new oracle calls.

    Samples once per (sampler, seed) and builds the grid once; every
    threshold then relabels the stored accuracies. Takes run_experiment's
    keywords except ``config``; a passed ``grid`` is relabeled like the
    built one. Returns (rows, audit) where rows are (h, ExperimentReport)
    pairs and audit proves the oracle call count did not grow during the
    sweep.
    """
    h_values = [float(h) for h in h_values]
    if not h_values:
        raise ValueError("need at least one threshold")
    for h in h_values:
        if not 0.0 <= h <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {h}")
    kw = _with_run_defaults(kwargs)
    _validate_axes(kw["samplers"], kw["methods"], kw["kinds"])
    cfg = SamplerConfig(budget=budget, **{k: kw[k] for k in SAMPLER_OPTIONS})

    # one shared sample per (sampler, seed), drawn against the first threshold
    # only: the GP sampler's mean-term sign follows the minority class at that
    # threshold, so its sets target h_values[0]'s boundary, not each h's.
    # Labels are recomputed per threshold from the stored accuracies.
    audited = oracles_mod.caching_oracle(oracle)
    h_ref = h_values[0]
    grid = kw["grid"]
    if grid is None:
        grid = build_grid_test_set(space, kw["points_per_dim"], audited, h_ref)
    train_sets, oracle_calls = _sample_sets(
        audited, space, h_ref, kw["samplers"], kw["seeds"], cfg
    )
    calls_after_sampling = audited.inner_calls

    rows = []
    for h in h_values:
        relabeled = {k: v.relabeled(h) for k, v in train_sets.items()}
        grid_h = grid.relabeled(h)
        cells = _evaluate_cells(
            relabeled, grid_h, space, kw["methods"], kw["kinds"], kw["workers"]
        )
        report = ExperimentReport(
            cells=cells,
            positive_counts={k: v.positive_count for k, v in relabeled.items()},
            oracle_calls=dict(oracle_calls),
            grid_size=grid_h.n,
            grid_positive_count=grid_h.positive_count,
            seeds=tuple(kw["seeds"]),
            config={**(config or {}), "h": h},
        )
        rows.append((h, report))

    audit = {
        "oracle_calls_after_sampling": calls_after_sampling,
        "oracle_calls_after_sweep": audited.inner_calls,
        "extra_calls_during_sweep": audited.inner_calls - calls_after_sampling,
    }
    return rows, audit


def _cell_rows(report) -> list:
    """One CSV_HEADER row per successful cell of ``report``, in key order."""
    return [
        [
            c.sampler, c.method, c.kind, c.seed,
            c.metrics.true_positive, c.metrics.false_positive,
            c.metrics.true_negative, c.metrics.false_negative,
            f"{c.metrics.precision:.10g}", f"{c.metrics.recall:.10g}", f"{c.metrics.f1:.10g}",
        ]
        for c in report.sorted_cells()
        if c.error is None
    ]


def write_sweep_csv(path, rows, key_name: str) -> None:
    """Flatten (key, report) pairs into one CSV with a leading key column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([key_name] + CSV_HEADER)
        for key, report in rows:
            writer.writerows([key] + row for row in _cell_rows(report))
