"""The three benchmark workloads: their inputs, commands and output checks.

Each workload turns ``--seed`` into a distrel JSON config, lists the CLI
commands of one round (run in-process through ``distrel.cli.main``, as the
README shows them), counts the operations a round attempts, and checks a
round's output files against references computed here, apart from the
program: the closed-form benchmark bump, uniform draws made with numpy, a
numpy nearest-centroid classifier and ``scipy.ndimage.affine_transform``.
"""

import csv
import json
import math
import os
from pathlib import Path

import numpy as np

KINDS = ["logistic", "tree", "knn"]
METHODS = ["none", "smote", "random-over", "random-under", "near-miss", "reweight"]
WORKERS = len(os.sched_getaffinity(0))

# The distortion box, written out again so the references do not read it
# from the program.
LOWER = np.array([0.7, 0.0, -0.2, -0.2, 0.7, 0.0])
UPPER = np.array([1.3, 90.0, 0.2, 0.2, 1.3, 1.0])


class CheckFailed(AssertionError):
    """An output of the program disagrees with its reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def sampler_seeds(seed, tag, count):
    """Distinct sampler seeds for one workload, drawn from ``--seed``."""
    rng = np.random.default_rng([tag, seed])
    return sorted(int(s) for s in rng.choice(2**31, size=count, replace=False))


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def bump_accuracy(levels, h, peak=0.99, share=0.03):
    """The ``benchmark`` preset: one bump whose level set {acc >= h} fills
    ``share`` of the box, rebuilt from the unit-6-ball volume pi^3 / 6."""
    a = (share / (math.pi**3 / 6.0)) ** (1.0 / 6.0)
    radius = math.sqrt(math.log(peak / h))
    centre = (LOWER + UPPER) / 2.0
    scale = a * (UPPER - LOWER) / radius
    t = (np.atleast_2d(levels) - centre) / scale
    return peak * np.exp(-np.sum(t * t, axis=1))


def grid_levels(points_per_dim):
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(LOWER, UPPER)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def uniform_levels(seed, n):
    """The levels uniform sampling draws for ``seed``: U[0,1) mapped to the box."""
    return LOWER + np.random.default_rng(seed).random((n, 6)) * (UPPER - LOWER)


def check_counts(row, grid_size, grid_positives, where):
    """Confusion counts cover the grid, match its positives, and give the F1."""
    tp, fp, tn, fn = (int(row[k]) for k in ("tp", "fp", "tn", "fn"))
    require(tp + fp + tn + fn == grid_size, f"{where}: counts sum to {tp + fp + tn + fn}, grid {grid_size}")
    if grid_positives is not None:
        require(tp + fn == grid_positives, f"{where}: tp+fn={tp + fn}, closed form {grid_positives}")
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    for name, want in (("precision", precision), ("recall", recall), ("f1", f1)):
        require(abs(float(row[name]) - want) <= 1e-9, f"{where}: {name}={row[name]}, recomputed {want}")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class GpSynthetic:
    """``distrel sample`` with the GP sampler on the closed-form bump, then the
    README's train -> evaluate round trip on each sampled set."""

    budget = 300
    h = 0.85
    points_per_dim = 4

    def __init__(self, seed):
        self.seeds = sampler_seeds(seed, 1, 2)
        self.config = {
            "config_version": 1,
            "oracle": {"preset": "benchmark"},
            "h": self.h,
            "budget": self.budget,
            "init_count": 20,
            "samplers": ["gp"],
            "kinds": KINDS,
            "seeds": self.seeds,
            "points_per_dim": self.points_per_dim,
        }

    def commands(self, cfg, out):
        # train reads the sampled CSV as is (rebalance "none"), so the k-NN
        # training set, and with it the run's peak memory, has budget rows
        cmds = [["sample", "--config", cfg, "--out", out, "--workers", str(WORKERS)]]
        for s in self.seeds:
            d = f"{out}/seed{s}"
            common = ["--config", cfg, "--seed", str(s)]
            cmds += [
                ["train", *common, "--data", f"{out}/samples_gp_seed{s}.csv", "--out", f"{d}/m"],
                ["evaluate", *common, "--models", *[f"{d}/m/model_{k}.json" for k in KINDS],
                 "--out", f"{d}/e"],
            ]
        return cmds

    def operations(self, out):
        """(oracle-labelled levels, cells, failed cells) of one round."""
        calls = read_json(Path(out) / "manifest.json")["oracle_calls"]
        levels = sum(calls.values())
        cells = 0
        for s in self.seeds:
            doc = read_json(Path(out) / f"seed{s}/e/evaluation.json")
            levels += doc["grid_size"]
            cells += len(doc["results"])
        return levels, cells, 0

    def check(self, out):
        out = Path(out)
        calls = read_json(out / "manifest.json")["oracle_calls"]
        grid = grid_levels(self.points_per_dim)
        grid_pos = int(np.sum(bump_accuracy(grid, self.h) >= self.h))
        gp_pos, uniform_pos = [], []
        for s in self.seeds:
            rows = read_csv(out / f"samples_gp_seed{s}.csv")
            require(len(rows) == self.budget, f"seed {s}: {len(rows)} rows, budget {self.budget}")
            require(calls[f"gp/{s}"] == self.budget, f"seed {s}: {calls[f'gp/{s}']} oracle calls")
            names = list(rows[0])[:6]
            levels = np.array([[float(r[n]) for n in names] for r in rows])
            acc = np.array([float(r["accuracy"]) for r in rows])
            labels = np.array([int(r["label"]) for r in rows])
            require(np.all((levels >= LOWER) & (levels <= UPPER)), f"seed {s}: level outside the box")
            require(len(np.unique(levels, axis=0)) == len(levels), f"seed {s}: repeated level")
            err = np.max(np.abs(acc - bump_accuracy(levels, self.h)))
            require(err <= 1e-12, f"seed {s}: accuracy off the closed form by {err:g}")
            require(np.array_equal(labels, (acc >= self.h).astype(int)), f"seed {s}: label != acc >= h")
            gp_pos.append(int(labels.sum()))
            uniform_pos.append(int(np.sum(bump_accuracy(uniform_levels(s, self.budget), self.h) >= self.h)))

            doc = read_json(out / f"seed{s}/e/evaluation.json")
            require(doc["grid_size"] == len(grid), f"seed {s}: grid of {doc['grid_size']}")
            require(doc["grid_positives"] == grid_pos, f"seed {s}: grid positives {doc['grid_positives']}")
            require(len(doc["results"]) == len(KINDS), f"seed {s}: {len(doc['results'])} models scored")
            for r in doc["results"]:
                check_counts(r, len(grid), grid_pos, f"seed {s} {r['kind']}")
        require(np.mean(gp_pos) >= 3 * np.mean(uniform_pos),
                f"GP positives {gp_pos} not 3x uniform {uniform_pos}")


class ImagePipeline:
    """``distrel pipeline`` on the blob-image classifier oracle: both samplers,
    none/smote x three kinds, one seed, a 3^6 grid labelled level by level."""

    budget = 50
    init_count = 10
    h = 0.75
    points_per_dim = 3
    n_verification = 20

    def __init__(self, seed):
        data_seed, rain_seed, sampler_seed = sampler_seeds(seed, 2, 3)
        self.seed = seed
        self.dataset = {"type": "blobs", "n_verification": self.n_verification, "n_train": 100,
                        "n_classes": 2, "size": 16, "seed": data_seed, "noise": 0.05}
        self.config = {
            "config_version": 1,
            "oracle": {"kind": "classifier", "dataset": self.dataset,
                       "classifier": "nearest-centroid", "rain_seed": rain_seed},
            "h": self.h,
            "budget": self.budget,
            "init_count": self.init_count,
            "samplers": ["random", "gp"],
            "methods": ["none", "smote"],
            "kinds": KINDS,
            "seeds": [sampler_seed],
            "points_per_dim": self.points_per_dim,
        }

    def commands(self, cfg, out):
        return [["pipeline", "--config", cfg, "--out", out, "--workers", str(WORKERS)]]

    def operations(self, out):
        doc = read_json(Path(out) / "report.json")
        levels = sum(v for per in doc["oracle_calls"].values() for v in per.values())
        failed = sum(1 for c in doc["cells"] if c["error"])
        return levels + doc["grid"]["size"], len(doc["cells"]), failed

    def check(self, out):
        out = Path(out)
        doc = read_json(out / "report.json")
        size = self.points_per_dim**6
        require(doc["grid"]["size"] == size, f"grid of {doc['grid']['size']}")
        for per in doc["oracle_calls"].values():
            for v in per.values():
                require(v == self.budget, f"{v} oracle calls, budget {self.budget}")
        cells = doc["cells"]
        require(len(cells) == 2 * 2 * len(KINDS), f"{len(cells)} cells")
        for c in cells:
            where = f"{c['sampler']}/{c['method']}/{c['kind']}"
            require(c["error"] is None, f"{where}: {c['error']}")
            check_counts(c["metrics"], size, doc["grid"]["positives"], where)
        csv_rows = read_csv(out / "report.csv")
        require(len(csv_rows) == len(cells), "report.csv and report.json disagree on cells")
        for r in csv_rows:
            check_counts(r, size, doc["grid"]["positives"], f"report.csv {r['sampler']}/{r['method']}/{r['kind']}")
        self._check_oracle()

    def _check_oracle(self):
        from scipy import ndimage

        from distrel import cli, distortion, oracles

        cfg = cli.resolve_config(self.config)
        oracle = cli.build_oracle(cfg)
        d = self.dataset
        ver = oracles.make_blob_verification_set(d["n_verification"], d["n_classes"], d["size"], d["seed"], d["noise"])
        train = oracles.make_blob_verification_set(d["n_train"], d["n_classes"], d["size"], d["seed"] + 1, d["noise"])

        # clean accuracy of a nearest-centroid classifier, in plain numpy
        flat = train.images.reshape(train.n, -1)
        centroids = np.stack([flat[train.labels == c].mean(axis=0) for c in range(d["n_classes"])])
        dist = ((ver.images.reshape(ver.n, 1, -1) - centroids[None]) ** 2).sum(axis=2)
        clean = float(np.mean(np.argmin(dist, axis=1) == ver.labels))
        identity = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        got = oracle(identity)
        require(got == clean, f"identity-level accuracy {got}, numpy nearest centroid {clean}")

        # rain-free levels: bilinear affine warp with zero fill, then darkness
        rng = np.random.default_rng([3, self.seed])
        size = d["size"]
        ctr = (size - 1) / 2.0
        for _ in range(4):
            level = LOWER + rng.random(6) * (UPPER - LOWER)
            level[5] = 0.0
            scale, rot, tx, ty, dark, _ = level
            th = math.radians(rot)
            # output (row, col) -> input (row, col): rotate by -rot, scale by
            # 1/scale about the centre, after undoing the translation
            inv = np.array([[math.cos(th), math.sin(th)], [-math.sin(th), math.cos(th)]]) / scale
            shift = np.array([ctr + ty * size, ctr + tx * size])
            offset = np.array([ctr, ctr]) - inv @ shift
            worst = 0.0
            for img in ver.images[:8]:
                ref = ndimage.affine_transform(img, inv, offset, order=1, mode="grid-constant", cval=0.0)
                ref = np.clip(ref * dark, 0.0, 1.0)
                worst = max(worst, float(np.max(np.abs(distortion.apply_distortion(img, level) - ref))))
            require(worst <= 1e-12, f"warp at {level.tolist()} off the scipy reference by {worst:g}")


class CellsSweep:
    """``distrel sweep-threshold`` on uniform sets from the closed-form bump:
    six rebalancing methods x three kinds x thresholds x seeds, no oracle call
    during the sweep."""

    budget = 600
    h = 0.85
    # reliable share of uniform levels: 94 %, 51 %, 3 %, so the class the
    # rebalancers grow flips inside the sweep; every set keeps both classes
    thresholds = [0.5, 0.65, 0.85]
    points_per_dim = 4

    def __init__(self, seed):
        self.seeds = sampler_seeds(seed, 3, 2)
        self.config = {
            "config_version": 1,
            "oracle": {"preset": "benchmark"},
            "h": self.h,
            "budget": self.budget,
            "samplers": ["random"],
            "methods": METHODS,
            "kinds": KINDS,
            "seeds": self.seeds,
            "points_per_dim": self.points_per_dim,
            "thresholds": self.thresholds,
        }

    def commands(self, cfg, out):
        return [["sweep-threshold", "--config", cfg, "--out", out, "--workers", str(WORKERS)]]

    def operations(self, out):
        manifest = read_json(Path(out) / "manifest.json")
        levels = manifest["audit"]["oracle_calls_after_sweep"]
        cells = failed = 0
        for h in self.thresholds:
            doc = read_json(Path(out) / f"report_h{h:g}.json")
            cells += len(doc["cells"])
            failed += sum(1 for c in doc["cells"] if c["error"])
        return levels, cells, failed

    def check(self, out):
        out = Path(out)
        audit = read_json(out / "manifest.json")["audit"]
        require(audit["extra_calls_during_sweep"] == 0, f"sweep made {audit['extra_calls_during_sweep']} oracle calls")
        grid_acc = bump_accuracy(grid_levels(self.points_per_dim), self.h)
        size = len(grid_acc)
        uniform_acc = {s: bump_accuracy(uniform_levels(s, self.budget), self.h) for s in self.seeds}
        previous = {}
        for h in self.thresholds:
            doc = read_json(out / f"report_h{h:g}.json")
            grid_pos = int(np.sum(grid_acc >= h))
            require(doc["grid"]["positives"] == grid_pos, f"h={h}: grid positives {doc['grid']['positives']}")
            require(len(doc["cells"]) == len(self.seeds) * len(METHODS) * len(KINDS), f"h={h}: {len(doc['cells'])} cells")
            for c in doc["cells"]:
                where = f"h={h} {c['method']}/{c['kind']}/seed{c['seed']}"
                require(c["error"] is None, f"{where}: {c['error']}")
                check_counts(c["metrics"], size, grid_pos, where)
            for s in self.seeds:
                got = doc["positive_counts"]["random"][str(s)]
                want = int(np.sum(uniform_acc[s] >= h))
                require(got == want, f"h={h} seed {s}: {got} positives, uniform draws give {want}")
                require(got <= previous.get(s, got), f"seed {s}: positives rose to {got} at h={h}")
                previous[s] = got
        rows = read_csv(out / "threshold_sweep.csv")
        require(len(rows) == len(self.thresholds) * len(self.seeds) * len(METHODS) * len(KINDS),
                f"threshold_sweep.csv has {len(rows)} rows")
        for r in rows:
            h = float(r["h"])
            check_counts(r, size, int(np.sum(grid_acc >= h)), f"threshold_sweep.csv h={h}")


WORKLOADS = {
    "gp-synthetic": GpSynthetic,
    "image-pipeline": ImagePipeline,
    "cells-sweep": CellsSweep,
}
