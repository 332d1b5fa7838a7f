"""Self-tests of the benchmark harness: the verdict gate and the traced run.

    python3 -m pytest -q benchmarks
"""

import subprocess
import sys

import pytest

import run
from calibrate import KERNELS
from jobs import Job
from spans import TIME_METRICS

sys.path.insert(0, str(run.ROOT / "src"))

import liemorph as lm  # noqa: E402
import liemorph.cli as cli  # noqa: E402

N4 = Job("verify_family_N4", "verify-family", "configs/verify_family_N4.json", families=1)
# S_3's residuals are rounding-sized but nonzero (N_4's are exactly 0), so this tolerance fails.
S3_IMPOSSIBLE_TOL = Job("verify_family_S3_tight", "verify-family",
                        "benchmarks/configs/verify_family_S3.json",
                        extra_args=("--tol", "family=1e-30"), families=1)


def _configs(jobs, seed=1):
    return {j.name: cli.load_config(j.kind, str(run.ROOT / j.config), seed) for j in jobs if j.kind}


def test_injected_tolerance_fails_only_that_job(tmp_path):
    jobs = (N4, S3_IMPOSSIBLE_TOL)
    result = run.run_pass(cli, lm, jobs, 1, _configs(jobs), tmp_path, KERNELS["objects"])
    assert [name for name, _ in result.failures] == ["verify_family_S3_tight"]
    assert "exit status 1, expected 0" in result.failures[0][1]


def test_exception_fails_the_job_and_the_pass_goes_on(tmp_path):
    raising = Job("build_N1", library=lambda lm_, seed: lm_.build_N(1))
    jobs = (raising, N4)
    result = run.run_pass(cli, lm, jobs, 1, _configs(jobs), tmp_path, KERNELS["objects"])
    assert result.failures == [("build_N1", "raised ValueError: build_N requires n >= 2")]
    assert set(result.job_s) == {"build_N1", "verify_family_N4"}
    assert result.family_points == 100


def test_failed_jobs_make_the_run_incorrect():
    jobs = (S3_IMPOSSIBLE_TOL,)
    measured = run.measure(jobs, 1, 0.01, False, "objects")
    result = run.summarize("injected", jobs, 1, False, measured)
    assert result["failed"] == result["attempted"] == 1
    assert result["correct"] is False
    assert set(result["metrics"]) == {"setup_s", "wall_s", "peak_rss_mb"}


def test_trace_self_times_sum_to_traced_wall_and_wrappers_come_off():
    originals = cli.verify_family, vars(lm.Frame)["build"]
    measured = run.measure((N4,), 1, 0.01, True, "mixed")
    assert (cli.verify_family, vars(lm.Frame)["build"]) == originals
    metrics = run.layer_metrics(measured["passes"])
    parts = sum(metrics[m] for m in TIME_METRICS) + metrics["trace.unattributed_s"]
    assert parts == pytest.approx(metrics["trace.wall_s"], rel=1e-12)
    assert metrics["trace.unattributed_s"] >= 0.0
    # N_4 at 100 points: a 6-dimensional frame and 1 family field
    assert metrics["groups.points"] == 100
    assert metrics["jets.jet_evals"] == 100 * (6 + 1) * 1
    assert metrics["cli.checks"] == 3
    assert metrics["jets.verify_s"] > 0.0


def test_refuses_a_directory_without_the_package(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in run.HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "family_points",
                           "--seconds", "1"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "not a liemorph checkout" in proc.stderr
