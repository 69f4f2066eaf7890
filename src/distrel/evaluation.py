"""Grid test sets, F1 scoring, and the full experiment matrix.

The experiment crosses sampler x imbalance method x model kind over several
seeds, scores every cell on one shared grid test set, and aggregates by
arithmetic mean. The sweeps sample each (sampler, seed) once, at the largest
budget: a smaller budget scores the first rows of each set and a threshold
relabels the cached accuracies, so no point of a sweep re-queries the oracle.

``workers`` sets how many run at once: the (sampler, seed) sampling runs, and
then the cell jobs of every (budget, h) point, go to forked worker processes
through two maps, ``_map``, because a GP run and a cell's training both hold
the interpreter lock. Every run and cell is seeded and runs with BLAS on one
thread, so results do not depend on it.
"""

import hashlib
import json
import numbers
import os
from dataclasses import dataclass, field, fields, replace

import numpy as np

from distrel import files
from distrel import models as models_mod
from distrel import oracles as oracles_mod
from distrel import rebalance as rebalance_mod
from distrel._kernels import single_threaded_blas
from distrel.sampling import LabeledSet, SamplerConfig, run_gp_sampling, run_random_sampling
from distrel.space import SearchSpace

SAMPLERS = ("random", "gp")
# Every option of a run besides its budget, with its default. The SamplerConfig
# fields are shared by all (sampler, seed) runs of an experiment; the CLI's
# config fields of the same names take their defaults from here.
RUN_OPTIONS = {
    "init_count": SamplerConfig.init_count,
    "delta": SamplerConfig.delta,
    "acquisition_candidates": SamplerConfig.acquisition_candidates,
    "samplers": SAMPLERS,
    "methods": ("none", "smote"),
    "kinds": models_mod.KINDS,
    "seeds": (0, 1, 2, 3, 4),
    "points_per_dim": 4,
}
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
    """Label the full Cartesian lattice (points_per_dim^d points) with the oracle.

    The answers come through ``oracles.evaluate_many``, so a failed or
    out-of-range answer raises OracleError naming its level, as in sampling.
    BLAS stays on one thread meanwhile: an image classifier's small distance
    products run several times slower on two threads of a small shared host.
    """
    levels = space.grid(points_per_dim)
    with single_threaded_blas():
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
        files.write_csv(path, CSV_HEADER, _cell_rows(self))

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
        files.write_json(path, self.to_json_dict())


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_run_options(budget, options: dict) -> tuple:
    """Check ``budget`` and every option, filling left-out ones in from RUN_OPTIONS.

    Returns the run's SamplerConfig (each (sampler, seed) run replaces its
    seed) and the filled options. Raises TypeError or ValueError with a
    message that names the field.
    """
    unknown = set(options) - set(RUN_OPTIONS)
    if unknown:
        raise TypeError(f"unexpected arguments {sorted(unknown)}")
    opts = {**RUN_OPTIONS, **options}
    for name, known, what in (("samplers", SAMPLERS, "sampler"),
                              ("methods", rebalance_mod.METHODS, "imbalance method"),
                              ("kinds", models_mod.KINDS, "model kind")):
        names = opts[name]
        if not isinstance(names, (list, tuple)) or not names or not all(
            isinstance(n, str) for n in names
        ):
            raise ValueError(f"{name} must be a non-empty list of names, got {names!r}")
        for n in names:
            if n not in known:
                raise ValueError(f"unknown {what} {n!r} in {name}; known: {list(known)}")
    seeds = opts["seeds"]
    if not isinstance(seeds, (list, tuple)) or not seeds or not all(
        _is_int(s) and s >= 0 for s in seeds
    ):
        raise ValueError(f"seeds must be a non-empty list of unsigned integers, got {seeds!r}")
    if not _is_int(opts["points_per_dim"]) or opts["points_per_dim"] < 2:
        raise ValueError(f"points_per_dim must be an integer >= 2, got {opts['points_per_dim']!r}")
    sampler_cfg = SamplerConfig(budget=budget, **{
        f.name: opts[f.name] for f in fields(SamplerConfig) if f.name in opts
    })
    return sampler_cfg, opts


def _check_thresholds(h_values) -> list:
    h_values = [float(h) for h in h_values]
    if not h_values:
        raise ValueError("need at least one threshold")
    for h in h_values:
        if not 0.0 <= h <= 1.0:
            raise ValueError(f"threshold must be in [0, 1], got {h}")
    return h_values


def oracle_call_count(labeled: LabeledSet) -> int:
    """The oracle calls that labelling ``labeled`` took: one per distinct level."""
    return len({tuple(level) for level in labeled.levels.tolist()})


def run_sampler(sampler, oracle, space, h, cfg: SamplerConfig) -> LabeledSet:
    """One sampler run; the random sampler reads only ``cfg.budget`` and ``cfg.seed``."""
    if sampler == "random":
        return run_random_sampling(oracle, space, h, cfg.budget, cfg.seed)
    return run_gp_sampling(oracle, space, h, cfg)


_forked = None  # (fn, jobs) of a _map, set in each of its forked workers


def _inherit(forked):
    global _forked
    _forked = forked


def _forked_job(index):
    fn, jobs = _forked
    return fn(jobs[index])


def _map(fn, jobs, workers=1) -> list:
    """``[fn(job) for job in jobs]``, with BLAS on one thread for every job.

    With ``workers`` > 1 and more than one job, the jobs go to
    ``min(workers, len(jobs))`` worker processes started with ``fork``, so they
    inherit ``fn`` and the jobs and never pickle them; only each result comes
    back, in job order, and the first failed job's error is raised here. What
    a job changes in the state it inherited, such as an oracle's call counts,
    stays in its worker. Without ``fork`` the jobs run here, one after another.
    The pin makes a job compute the same with or without workers, keeps
    workers from crowding each other's cores, and is inherited by the workers
    instead of restarting OpenBLAS's thread pool there, whose new threads spin.
    """
    processes = min(workers, len(jobs))
    with single_threaded_blas():
        if processes < 2 or not hasattr(os, "fork"):
            return [fn(job) for job in jobs]
        # imported here: the pool's modules add milliseconds to every start-up
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork copies the initializer's arguments into each worker instead of
        # pickling them. fork is unsafe while other threads run: the program
        # starts none, and the pool forks every worker before its own threads.
        pool = ProcessPoolExecutor(processes, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_inherit, initargs=((fn, jobs),))
        try:
            return list(pool.map(_forked_job, range(len(jobs))))
        finally:
            pool.shutdown(cancel_futures=True)


def _sample_sets(oracle, space, h, samplers, seeds, cfg: SamplerConfig, workers=1) -> dict:
    """run_sampler for every (sampler, seed) through _map; returns the labeled sets by key."""
    keys = [(sampler, seed) for seed in seeds for sampler in samplers]
    sets = _map(lambda key: run_sampler(key[0], oracle, space, h, replace(cfg, seed=key[1])),
                keys, workers)
    return dict(zip(keys, sets))


def _evaluate_cells(points, space, methods, kinds, workers=1) -> list:
    """Score the cells of every (train_sets, grid) point through one _map;
    returns one cell list per point, ordered by (sampler, seed), method, kind.

    A job is one (point, (sampler, seed), method): it rebalances that set and
    trains and scores each kind on it. Failures are recorded, not raised; a
    failed rebalance fails each of its kinds' cells."""
    jobs = [(p, key, labeled, method, grid)
            for p, (train_sets, grid) in enumerate(points)
            for key, labeled in sorted(train_sets.items())
            for method in methods]

    def run_job(job):
        _, (sampler, seed), labeled, method, grid = job
        try:
            pre = rebalance_mod.rebalance(labeled, method, space, seed=seed)
        except Exception as exc:
            return [CellResult(sampler, method, kind, seed, error=str(exc)) for kind in kinds]
        cells = []
        for kind in kinds:
            try:
                model = models_mod.train(kind, pre, space)
                metrics = f1_score(model.predict(grid.levels), grid.labels)
                cells.append(CellResult(sampler, method, kind, seed, metrics=metrics))
            except Exception as exc:
                cells.append(CellResult(sampler, method, kind, seed, error=str(exc)))
        return cells

    out = [[] for _ in points]
    for (p, *_), cells in zip(jobs, _map(run_job, jobs, workers)):
        out[p] += cells
    return out


def _experiment(oracle, space, budgets, h_values, options, grid, workers, config_at,
                on_sampled=None) -> list:
    """The one sample-then-score path; returns a (budget, h, ExperimentReport) row per pair.

    Every argument is checked before the first oracle call. The grid (unless
    passed) and every (sampler, seed) set are labelled against
    ``h_values[0]``, each set at the largest budget; ``on_sampled(train_sets)``
    runs next. Each (budget, h) pair relabels a view of each set's first
    ``budget`` rows; the cells of all pairs are scored in one map, and
    ``config_at(budget, h)`` is each report's config. All of it runs under
    one BLAS pin, so the pin is not undone and redone between the phases.
    """
    if not budgets:
        raise ValueError("need at least one budget")
    h_values = _check_thresholds(h_values)
    checked = [check_run_options(budget, options) for budget in budgets]
    sampler_cfg, opts = max(checked, key=lambda c: c[0].budget)
    with single_threaded_blas():
        if grid is None:
            grid = build_grid_test_set(space, opts["points_per_dim"], oracle, h_values[0])
        train_sets = _sample_sets(
            oracle, space, h_values[0], opts["samplers"], opts["seeds"], sampler_cfg, workers
        )
        if on_sampled is not None:
            on_sampled(train_sets)
        pairs = [(budget, h) for budget in budgets for h in h_values]
        points = [({k: LabeledSet.from_accuracies(v.levels[:budget], v.accuracies[:budget], h)
                    for k, v in train_sets.items()}, grid.relabeled(h))
                  for budget, h in pairs]
        cells = _evaluate_cells(points, space, opts["methods"], opts["kinds"], workers)
    return [(budget, h, ExperimentReport(
        cells=point_cells,
        positive_counts={k: v.positive_count for k, v in sets.items()},
        oracle_calls={k: oracle_call_count(v) for k, v in sets.items()},
        grid_size=grid_h.n,
        grid_positive_count=grid_h.positive_count,
        seeds=tuple(opts["seeds"]),
        config=config_at(budget, h),
    )) for (budget, h), (sets, grid_h), point_cells in zip(pairs, points, cells)]


def run_experiment(oracle, space: SearchSpace, h: float, *, budget: int, grid: LabeledSet = None,
                   config: dict = None, workers: int = 1, **options) -> ExperimentReport:
    """Run the sampler x method x kind matrix over the given seeds.

    ``options`` are RUN_OPTIONS' names; each one left out takes its default
    there. The grid test set is built once (or passed in) and shared by
    every cell, so test labels never depend on what is being evaluated.
    Cell failures are recorded in the report while the other cells proceed.
    """
    [(_, _, report)] = _experiment(oracle, space, [budget], [h], options, grid, workers,
                                   lambda *_: config or {})
    return report


def sweep_budget(oracle, space, h, budgets, *, grid: LabeledSet = None, config: dict = None,
                 workers: int = 1, **options) -> list:
    """The matrix at each budget; rows of (budget, ExperimentReport) in the order given.

    Takes run_experiment's keywords except ``budget``. Each (sampler, seed) is
    sampled once, at the largest budget. The budget only ends a sampler's loop,
    so each budget scores the first ``budget`` rows, as run_experiment would.
    """
    rows = _experiment(oracle, space, budgets, [h], options, grid, workers,
                       lambda budget, _: {**(config or {}), "budget": budget})
    return [(int(budget), report) for budget, _, report in rows]


def sweep_threshold(oracle, space, h_values, *, budget, grid: LabeledSet = None,
                    config: dict = None, workers: int = 1, **options) -> tuple:
    """Re-evaluate the matrix at each threshold without new oracle calls.

    Samples once per (sampler, seed) and labels the grid once, both against
    the first threshold only: the GP sampler's mean-term sign follows the
    minority class there, so its sets target that boundary, not each h's.
    Every threshold then relabels the stored accuracies. Takes
    run_experiment's keywords; a passed ``grid`` is relabeled like the built
    one. Returns (rows, audit) where rows are (h, ExperimentReport) pairs and
    audit proves the oracle call count did not grow during the sweep.
    """
    audited = oracles_mod.caching_oracle(oracle)
    after_sampling = []

    def record(train_sets):
        # runs in worker processes queried their own copies of ``audited``
        for labeled in train_sets.values():
            audited.record(labeled.levels, labeled.accuracies)
        after_sampling.append(audited.inner_calls)

    rows = _experiment(audited, space, [budget], h_values, options, grid, workers,
                       lambda _, h: {**(config or {}), "h": h}, record)
    audit = {
        "oracle_calls_after_sampling": after_sampling[0],
        "oracle_calls_after_sweep": audited.inner_calls,
        "extra_calls_during_sweep": audited.inner_calls - after_sampling[0],
    }
    return [(h, report) for _, h, report in rows], audit


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
    files.write_csv(path, [key_name] + CSV_HEADER,
                    ([key] + row for key, report in rows for row in _cell_rows(report)))
