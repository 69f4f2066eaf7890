#!/usr/bin/env python3
"""distrel benchmark: one workload, timed for a fixed wall time, then checked.

    python3 perfbench/run.py --workload gp-synthetic --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. A run repeats whole rounds of the workload's CLI commands until
``--seconds`` have passed, checks the first round's outputs against
independent references, and prints one JSON object as its last line of
stdout:

* ``--trace 0``: the end-to-end metrics (``run_s`` is the median round, the
  rates count the work of the whole window, ``setup_s`` is the median of
  several fresh-process set-ups);
* ``--trace 1``: the per-layer metrics. Rounds alternate untraced and traced
  (layer wrappers installed), the traced outputs must be byte-identical to
  the untraced ones, and fixed-shape kernel, GP and acquisition cases follow.

Exit code 0 on a completed run (``correct`` says whether the checks passed),
1 when a command of the program fails outright, 2 when the checkout has no
program to run.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# Imports the package, validates the config and builds the oracle in a fresh
# interpreter: what every distrel command pays before its first evaluation.
SETUP_PROBE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from distrel import cli
cli.build_oracle(cli.resolve_config(cli.load_config(sys.argv[2])))
print(repr(time.perf_counter() - t0))
"""


def measure_setup(cfg_path):
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(cfg_path)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def digest(out_dir):
    """sha256 of every output file, keyed by its path inside the round."""
    out = {}
    for path in sorted(Path(out_dir).rglob("*")):
        if path.is_file():
            out[str(path.relative_to(out_dir))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def run_round(cli, workload, cfg_path, out_dir, tracer=None):
    """Run one round's commands in-process; returns its wall time."""
    commands = workload.commands(str(cfg_path), str(out_dir))
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for argv in commands:
            span = tracer.open("cli.main") if tracer else None
            try:
                code = cli.main(argv)
            finally:
                if tracer:
                    tracer.close(span)
            if code not in (0, 2):
                raise RuntimeError(f"distrel {' '.join(argv)} exited {code}")
    return time.perf_counter() - t0


def machine():
    from distrel import _kernels
    import numpy
    import scipy

    blas = [get() for get, _ in _kernels.openblas_thread_controls()]
    return (f"cores={len(os.sched_getaffinity(0))} openblas_threads={blas} "
            f"numba={_kernels.HAS_NUMBA} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "distrel" / "__init__.py").is_file():
        print(f"error: no distrel sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from distrel import cli

    workload = WORKLOADS[args.workload](args.seed)
    print(machine(), file=sys.stderr)

    work = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        cfg_path = work / "config.json"
        cfg_path.write_text(json.dumps(workload.config, indent=2))
        result = measure(cli, workload, cfg_path, work, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    print(json.dumps(result))
    return 0


def measure(cli, workload, cfg_path, work, args):
    setup_s = None if args.trace else measure_setup(cfg_path)
    tracer = tracing.Tracer() if args.trace else None
    plain, traced, layers = [], [], []
    first = None
    problems = []
    levels = cells = failed = 0
    start = time.perf_counter()
    k = 0
    while True:
        # every round writes to the same path: outputs record their inputs' paths
        out = work / "out"
        with_trace = bool(args.trace) and k % 2 == 1
        if with_trace:
            tracer.reset()
            patches = tracing.install(tracer)
            try:
                wall = run_round(cli, workload, cfg_path, out, tracer)
            finally:
                patches.restore()
            traced.append(wall)
            layers.append(tracing.summarize(tracer))
        else:
            plain.append(run_round(cli, workload, cfg_path, out))
        n_levels, n_cells, n_failed = workload.operations(out)
        levels += n_levels
        cells += n_cells
        failed += n_failed
        files = digest(out)
        if first is None:
            first = files
            out.rename(work / "first")
        else:
            if files != first:
                changed = sorted(f for f in set(files) | set(first) if files.get(f) != first.get(f))
                problems.append(f"round {k} ({'traced' if with_trace else 'untraced'}) "
                                f"outputs differ from round 0: {changed[:5]}")
            shutil.rmtree(out)
        k += 1
        if time.perf_counter() - start >= args.seconds and (traced or not args.trace):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        workload.check(work / "first")
    except CheckFailed as exc:
        problems.append(str(exc))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    rounds = len(plain) + len(traced)
    if args.trace:
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        values.update(tracing.fixed_shape_cases(args.seed))
        metrics = {name: {"value": v, "unit": tracing.unit_of(name)} for name, v in values.items()}
    else:
        # latency as the median round; throughput as work over the whole
        # measured window, which averages out the host's speed swings
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": statistics.median(plain), "unit": "s"},
            "levels_per_s": {"value": levels / sum(plain), "unit": "1/s"},
            "cells_per_s": {"value": cells / sum(plain), "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(f"rounds={rounds} round_s={[round(t, 3) for t in plain + traced]}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": levels + cells,
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
