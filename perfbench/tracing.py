"""Span tracer and the runtime wrappers that attach it to distrel's layers.

The wrappers replace module and class attributes that the program already
calls through (``gp.fit``, ``_kernels.rbf_cross``, ``models.train``, ...), so
no source file of the program changes. Every wrapper forwards its arguments
and return value untouched; the benchmark checks that the traced outputs are
byte-identical to untraced ones.

A span records its name, start, end, parent and thread. A layer's self time
is the span's duration minus the part of its interval that its child spans
cover (children on other threads included), so per-layer seconds add up to
busy time, not wall time, when cells run on a thread pool.
"""

import functools
import os
import threading
import time

import numpy as np


class Tracer:
    """Collects spans and counters in memory; summarised after each round."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent_index, thread_id]
        self.counts = {}
        self.f1 = []  # F1 of every scored cell
        self.caches = []  # CachingOracle instances created this round
        self._stacks = {}
        self._main = threading.get_ident()
        self._lock = threading.Lock()

    def reset(self):
        self.spans = []
        self.counts = {}
        self.f1 = []
        self.caches = []
        self._stacks = {}

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + n

    def open(self, name):
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            # a worker thread's first span belongs to whatever the main
            # thread is running (the cell pool inside evaluation.cells)
            main = self._stacks.get(self._main)
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent, tid])
        stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    def self_times(self):
        """Self time per span index."""
        children = {}
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent >= 0:
                children.setdefault(parent, []).append(i)
        out = np.empty(len(self.spans))
        for i, (_, start, end, _, _) in enumerate(self.spans):
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(
                (max(self.spans[c][1], start), min(self.spans[c][2], end))
                for c in children.get(i, ())
            ):
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[i] = end - start - covered
        return out


def _traced(tracer, name, fn, after=None):
    """Wrap ``fn`` in a span; ``after(result, args, kwargs)`` records counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(result, args, kwargs)
        return result

    return wrapper


class _TimedOracle:
    """Transparent oracle proxy that records one span per evaluation."""

    def __init__(self, inner, tracer):
        self._inner = inner
        self._tracer = tracer
        self.space = getattr(inner, "space", None)

    def __call__(self, level):
        idx = self._tracer.open("oracle")
        try:
            return self._inner(level)
        finally:
            self._tracer.close(idx)
            self._tracer.count("oracle.calls")


class _TimedBatchOracle(_TimedOracle):
    """Same, for oracles that label a whole grid in one vectorized call."""

    def evaluate_many(self, levels):
        idx = self._tracer.open("oracle.batch")
        try:
            return self._inner.evaluate_many(levels)
        finally:
            self._tracer.close(idx)
            self._tracer.count("oracle.calls", len(levels))


class Patches:
    """Installs the layer wrappers; ``restore()`` puts the originals back."""

    def __init__(self, tracer):
        self.tracer = tracer
        self._saved = []

    def set(self, owner, attr, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def wrap(self, owner, attr, name, after=None):
        self.set(owner, attr, _traced(self.tracer, name, getattr(owner, attr), after))

    def restore(self):
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved = []


def install(tracer):
    """Wrap the public entry points of every distrel layer."""
    from distrel import _kernels, cli, evaluation, gp, models, oracles, rebalance, sampling

    p = Patches(tracer)
    t = tracer

    # _kernels: the module attributes gp/oracles/rebalance/models call through
    p.wrap(_kernels, "rbf_cross", "kernels.rbf_cross")
    p.wrap(_kernels, "pairwise_sq_dists", "kernels.pairwise_sq_dists")
    p.wrap(_kernels, "affine_bilinear_warp", "kernels.warp")
    p.wrap(_kernels, "render_streaks", "kernels.streaks")

    # gp
    def after_fit(post, args, kwargs):
        cfg = args[2] if len(args) > 2 else kwargs["cfg"]
        if post.jitter_used > (cfg.jitter if cfg.jitter > 0 else 1e-10):
            t.count("gp.fit.jitter_escalations")

    p.wrap(gp, "fit", "gp.fit", after_fit)
    p.wrap(gp, "_predict_raw", "gp.predict")

    # sampling: suggest_next is a module global of sampling; the samplers are
    # imported by name into cli and evaluation
    p.wrap(sampling, "suggest_next", "sampling.suggest_next")

    def after_sampler(kind):
        def after(labeled, args, kwargs):
            t.count(f"sampling.{kind}_positives", labeled.positive_count)
        return after

    for mod in (cli, evaluation):
        p.wrap(mod, "run_gp_sampling", "sampling.gp", after_sampler("gp"))
        p.wrap(mod, "run_random_sampling", "sampling.random", after_sampler("random"))

    # oracles / distortion
    def timed_oracle(inner):
        cls = _TimedBatchOracle if hasattr(inner, "evaluate_many") else _TimedOracle
        return cls(inner, t)

    real_caching = oracles.caching_oracle

    def caching(inner):
        wrapped = real_caching(inner)
        t.caches.append(wrapped)
        return wrapped

    p.set(oracles, "caching_oracle", caching)
    p.wrap(oracles, "distort_set", "distortion.distort_set",
           lambda out, a, kw: t.count("oracle.images", len(out)))
    for cls in (oracles.NearestCentroidClassifier, oracles.KnnImageClassifier):
        p.wrap(cls, "predict", "oracle.classify")

    # rebalance
    def after_rebalance(out, args, kwargs):
        t.count("rebalance.synthetic_rows", int(out.is_synthetic.sum()))
        if "fallback_from" in out.provenance:
            t.count("rebalance.fallbacks")

    p.wrap(rebalance, "rebalance", "rebalance", after_rebalance)

    # models: train by kind, predict through each model class
    p.wrap(models, "train", lambda a, kw: f"models.train.{a[0]}",
           lambda m, a, kw: t.count("models.train.rows", a[1].n))
    for cls in (models.LogisticModel, models.TreeModel, models.KnnModel):
        p.wrap(cls, "predict", f"models.predict.{cls.kind}")

    # evaluation
    p.wrap(evaluation, "build_grid_test_set", "evaluation.grid",
           lambda g, a, kw: t.count("evaluation.grid.levels", g.n))
    p.wrap(evaluation, "_evaluate_cells", "evaluation.cells_phase")

    def after_score(m, args, kwargs):
        t.count("evaluation.cells")
        t.f1.append(m.f1)

    p.wrap(evaluation, "f1_score", "evaluation.score", after_score)

    # cli: setup (config + oracle construction) and every writer
    p.wrap(cli, "resolve_config", "cli.setup")
    real_build = cli.build_oracle
    p.set(cli, "build_oracle", _traced(t, "cli.setup", lambda cfg: timed_oracle(real_build(cfg))))

    def written(path_of):
        def after(_, args, kwargs):
            t.count("cli.write.bytes", os.path.getsize(path_of(args)))
        return after

    p.wrap(cli, "write_manifest", "cli.write", written(lambda a: a[0] / "manifest.json"))
    p.wrap(cli, "save_labeled_set", "cli.write", written(lambda a: a[0]))
    p.wrap(cli, "_write_rebalanced_csv", "cli.write", written(lambda a: a[0]))
    p.wrap(models, "save_model", "cli.write", written(lambda a: a[0]))
    p.wrap(evaluation, "write_sweep_csv", "cli.write", written(lambda a: a[0]))
    p.wrap(evaluation.ExperimentReport, "write_csv", "cli.write", written(lambda a: a[1]))
    p.wrap(evaluation.ExperimentReport, "write_json", "cli.write", written(lambda a: a[1]))
    return p


# spans reported as self seconds plus call count, and as self seconds only
TIMED_AND_COUNTED = ("kernels.rbf_cross", "kernels.pairwise_sq_dists", "kernels.warp",
                     "kernels.streaks", "gp.fit", "gp.predict", "sampling.suggest_next", "rebalance")
TIMED = ("distortion.distort_set", "oracle.classify", "evaluation.grid", "evaluation.cells_phase",
         "evaluation.score", "cli.setup", "cli.write",
         *(f"models.{step}.{kind}" for step in ("train", "predict") for kind in ("logistic", "tree", "knn")))
COUNTERS = ("gp.fit.jitter_escalations", "sampling.gp_positives", "sampling.random_positives",
            "oracle.calls", "rebalance.synthetic_rows", "rebalance.fallbacks", "models.train.rows",
            "evaluation.grid.levels", "evaluation.cells", "cli.write.bytes")


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def summarize(tracer):
    """Per-layer metrics of one traced round."""
    spans = tracer.spans
    busy, calls = {}, {}
    for (name, *_), s in zip(spans, tracer.self_times()):
        busy[name] = busy.get(name, 0.0) + float(s)
        calls[name] = calls.get(name, 0) + 1

    # GP sampler steps: gaps between consecutive oracle calls inside one GP
    # sampling run, i.e. the sampler's own time per pick. Spans are stored in
    # start order, so a run's oracle calls follow it until one starts after
    # the run has ended.
    steps = []
    for i, (name, _, end, _, _) in enumerate(spans):
        if name != "sampling.gp":
            continue
        prev_end = None
        for n2, s2, e2, _, _ in spans[i + 1:]:
            if s2 >= end:
                break
            if n2 == "oracle":
                if prev_end is not None:
                    steps.append((s2 - prev_end) * 1e3)
                prev_end = e2
    call_ms = [(e - s) * 1e3 for n, s, e, _, _ in spans if n == "oracle"]
    oracle_incl = sum(e - s for n, s, e, _, _ in spans if n in ("oracle", "oracle.batch"))

    out = {}
    for name in TIMED_AND_COUNTED:
        out[f"{name}.s"] = busy.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in TIMED:
        out[f"{name}.s"] = busy.get(name, 0.0)
    for name in COUNTERS:
        out[name] = tracer.counts.get(name, 0)
    out.update({
        "sampling.step_ms.p50": _pct(steps, 50),
        "sampling.step_ms.p98": _pct(steps, 98),
        "sampling.other.s": busy.get("sampling.gp", 0.0) + busy.get("sampling.random", 0.0),
        "oracle.s": busy.get("oracle", 0.0) + busy.get("oracle.batch", 0.0),
        "oracle.call_ms.p50": _pct(call_ms, 50),
        "oracle.call_ms.p98": _pct(call_ms, 98),
        "oracle.images_per_s": tracer.counts.get("oracle.images", 0) / oracle_incl if oracle_incl else 0.0,
        "oracle.cache_hits": sum(w.queries - w.inner_calls for w in tracer.caches),
        "evaluation.mean_f1": float(np.mean(tracer.f1)) if tracer.f1 else 0.0,
        "trace.unattributed_s": busy.get("cli.main", 0.0),
        "trace.spans": len(spans),
    })
    return out


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith("_mflop"):
        return "Mflop"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("mean_f1"):
        return "score"
    return "count"


def _median_ms(fn, repeats=7):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1e3)
    return float(np.median(times))


def fixed_shape_cases(seed):
    """Kernel, GP and acquisition timings at fixed shapes, outside any workload.

    The rbf_cross and pairwise shapes are those of benchmarks/bench_backends.py;
    the GP sizes are the n = 100, 300 and 600 the sampler reaches. The GP and
    acquisition cases run with BLAS pinned to one thread, as the sampling loop
    runs them; pairwise_sq_dists runs unpinned, as k-NN prediction calls it.
    """
    from distrel import _kernels, gp, sampling
    from distrel.distortion import distortion_space
    from distrel.presets import benchmark_oracle_spec

    rng = np.random.default_rng([4, seed])
    space = distortion_space()
    bump = benchmark_oracle_spec()
    out = {}
    n, m, d = 600, 2048, 6
    x, z, ls = rng.random((n, d)), rng.random((m, d)), rng.random(d) * 0.3 + 0.1
    a, b = rng.random((4096, d)), rng.random((1200, d))
    out["kernels.pairwise_sq_dists.4096x1200_ms"] = _median_ms(lambda: _kernels.pairwise_sq_dists(a, b))
    with _kernels.single_threaded_blas():
        out["kernels.rbf_cross.600x2048_ms"] = _median_ms(lambda: _kernels.rbf_cross(x, z, ls, 1.0))
        for n in (100, 300, 600):
            pts = rng.random((n, d))
            y = bump.evaluate(space.denormalize(pts))
            cfg = gp.KernelConfig(gp.median_heuristic_lengthscales(pts), max(float(np.var(y, ddof=1)), 1e-4))
            post = gp.fit(pts, y, cfg)
            scfg = sampling.SamplerConfig(budget=n + 1, init_count=n)
            beta = sampling.beta_coefficient(n, d, scfg.delta)
            out[f"gp.fit.n{n}_ms"] = _median_ms(lambda: gp.fit(pts, y, cfg))
            out[f"sampling.suggest_next.n{n}_ms"] = _median_ms(
                lambda: sampling.suggest_next(post, space, 0.85, beta, scfg, np.random.default_rng(0)))
        out["gp.predict_batch.n600_m2048_ms"] = _median_ms(lambda: gp.predict_batch(post, z))
    # computed, not counted: the matmul plus seven elementwise passes over
    # the (n, m) result and three over the scaled inputs
    out["kernels.rbf_cross.600x2048_mflop"] = (2 * 600 * 2048 * d + 7 * 600 * 2048 + 3 * (600 + 2048) * d) / 1e6
    return out
