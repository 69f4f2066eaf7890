"""When scipy loads: only for the GP sampler and the image warp, and for the
GP in the parent process, before the outermost BLAS pin and before any fork.

Each check runs in a fresh interpreter: this process has had scipy loaded
since collection, so it cannot see what a command loads or when.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import distrel
from distrel import _kernels

SRC = str(Path(distrel.__file__).resolve().parents[1])


def run_fresh(tmp_path, script, *args):
    """Run ``script`` in a fresh interpreter that imports distrel from SRC."""
    path = tmp_path / "script.py"
    path.write_text(textwrap.dedent(script))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, str(path), *map(str, args)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return done.stdout


def write_config(tmp_path, **over):
    cfg = {"config_version": 1, "oracle": {"preset": "benchmark"}, "h": 0.85,
           "budget": 40, "init_count": 10, "samplers": ["random"], "seeds": [0],
           "points_per_dim": 2, "acquisition_candidates": 64, **over}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(cfg))
    return path


SCIPY_FREE = """
import sys
from distrel import cli

def check(what):
    loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
    assert not loaded, f"{what} loaded {loaded[:5]}"

check("import distrel.cli")
c = "c.json"
for argv in (
    ["sample", "--config", c, "--out", "s"],
    ["rebalance", "--config", c, "--data", "s/samples_random_seed0.csv",
     "--method", "smote", "--out", "r"],
    ["train", "--config", c, "--data", "r/rebalanced_smote.csv", "--out", "m"],
    ["evaluate", "--config", c, "--models", "m/model_logistic.json", "m/model_tree.json",
     "m/model_knn.json", "--out", "e"],
    ["pipeline", "--config", c, "--out", "p"],
    ["report", "p"],
    ["sweep-threshold", "--config", c, "--out", "st", "--workers", "2"],
):
    assert cli.main(argv) == 0, argv
    check(argv[0])
print("ok")
"""


def test_scipy_free_commands_never_load_scipy(tmp_path):
    # 3 % of the benchmark's uniform levels are reliable at h = 0.85, 51 % at
    # 0.65: 200 levels leave SMOTE enough of the minority at both
    write_config(tmp_path, budget=200, methods=["none", "smote"], thresholds=[0.85, 0.65])
    assert run_fresh(tmp_path, SCIPY_FREE).splitlines()[-1] == "ok"


# Wraps gp.fit as distrel.gp loads, so that the wrapper's own import does not
# load scipy early; the load itself raises inside a BLAS pin. Every fit, and
# every oracle answer, in the main process and in forked workers alike, raises
# unless scipy.linalg is already loaded and every OpenBLAS copy, numpy's and
# scipy's, reads one thread: an exception in a worker comes back as the run's
# error. After the run, every copy must read what it read as distrel.gp loaded.
GP_RULES = """
import importlib.machinery
import sys

from distrel import _kernels, cli, evaluation
from distrel.presets import benchmark_oracle_spec
from distrel.sampling import SamplerConfig, run_gp_sampling

mode, workers = sys.argv[1], int(sys.argv[2])
loaded_at = []  # the thread counts of every copy just after distrel.gp loads
fits = []


def check(where):
    if "scipy.linalg" not in sys.modules:
        raise RuntimeError(f"{where}: scipy.linalg was not loaded before the run")
    counts = [get() for get, _ in _kernels.openblas_thread_controls()]
    if len(counts) < 2 or counts != [1] * len(counts):
        raise RuntimeError(f"{where}: OpenBLAS thread counts {counts}")


class WrapFit:
    def find_spec(self, name, path, target=None):
        if name != "distrel.gp":
            return None
        spec = importlib.machinery.PathFinder.find_spec(name, path)
        run = spec.loader.exec_module

        def exec_module(module):
            if get_numpy_threads() != 2:
                raise RuntimeError("distrel.gp loaded inside a BLAS pin")
            run(module)
            loaded_at.extend(get() for get, _ in _kernels.openblas_thread_controls())
            fit = module.fit

            def checked_fit(*args, **kwargs):
                check("gp.fit")
                fits.append(1)
                return fit(*args, **kwargs)

            module.fit = checked_fit

        spec.loader.exec_module = exec_module
        return spec


[(get_numpy_threads, set_numpy_threads)] = _kernels.openblas_thread_controls()
set_numpy_threads(2)  # so only the program's own pins set one thread
sys.meta_path.insert(0, WrapFit())
spec = benchmark_oracle_spec(h=0.85)


def oracle(level):
    check("oracle")
    return spec(level)


if mode == "sample":
    cli.build_oracle = lambda cfg: oracle
    argv = ["sample", "--config", "c.json", "--out", "s", "--workers", str(workers)]
    assert cli.main(argv) == 0
elif mode == "run_gp_sampling":
    # its initial draws are labelled before its pin, so only gp.fit is checked
    cfg = SamplerConfig(budget=30, init_count=10, acquisition_candidates=64)
    assert len(run_gp_sampling(spec, spec.space, 0.85, cfg).levels) == 30
else:
    report = evaluation.run_experiment(
        oracle, spec.space, 0.85, budget=30, workers=workers, samplers=("gp",),
        init_count=10, acquisition_candidates=64, methods=("none",), kinds=("knn",),
        seeds=(0, 1), points_per_dim=2)
    assert not report.has_errors
if workers == 1:
    assert fits, "gp.fit never ran"
after = [get() for get, _ in _kernels.openblas_thread_controls()]
assert after == loaded_at, f"thread counts {after} after the run, {loaded_at} before it"
print("ok")
"""


@pytest.mark.parametrize("mode, workers", [("sample", 1), ("sample", 2),
                                           ("run_experiment", 1), ("run_experiment", 2),
                                           ("run_gp_sampling", 1)])
def test_gp_runs_load_scipy_before_the_pin_and_the_fork(tmp_path, mode, workers):
    import scipy.linalg  # noqa: F401  (maps scipy's OpenBLAS in this process too)

    if len(_kernels.openblas_thread_controls()) < 2:
        pytest.skip("numpy and scipy do not each map their own OpenBLAS here")
    write_config(tmp_path, samplers=["gp"], seeds=[0, 1])
    assert run_fresh(tmp_path, GP_RULES, mode, workers).splitlines()[-1] == "ok"
