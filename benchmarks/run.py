"""Run one liemorph benchmark workload, check every verdict, and print its metrics.

    python3 benchmarks/run.py --workload family_points --seed 1 --seconds 35 --trace 0
    python3 benchmarks/run.py --workload all

Run it from anywhere inside a checkout of the repository; it imports the
package from ``src/``.  With ``--trace 0`` it prints the end-to-end metrics,
with ``--trace 1`` the per-layer ones (see README.md).  A table for people comes
first; the last line of standard output is one JSON object.  The exit status is
1 when some job missed its expected verdict, 2 when the checkout is incomplete
or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

from jobs import CALIBRATION, WORKLOADS
from spans import TIME_METRICS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"

# One BLAS thread: the single-threaded baseline, and no scheduler in the numbers.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEFAULT_SEED = 1
HELD_OUT_SEED = 5000    # reserved for confirming claims; do not tune on it
SETUP_PROBES = 7


@dataclass
class Pass:
    """One pass over a job list, timed in measured seconds."""

    scale: float = 1.0      # reference seconds per measured second, see calibrate.py
    job_s: dict = field(default_factory=dict)
    family_s: float = 0.0
    family_points: int = 0
    failures: list = field(default_factory=list)     # (job name, reason)
    reports: dict = field(default_factory=dict)      # job name -> report bytes without wall time
    layers: dict | None = None

    @property
    def wall_s(self) -> float:
        return sum(self.job_s.values())

    @property
    def ref_s(self) -> float:
        return self.wall_s * self.scale


def _seed(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be a non-negative integer")
    return value


def _seconds(text):
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("--seconds must be positive")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                             f"{HELD_OUT_SEED} is held out for claims)")
    parser.add_argument("--seconds", type=_seconds, default=35.0,
                        help="how long to keep repeating passes over the job list")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead of end-to-end ones")
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in BLAS_THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    return env


def probe_setup(jobs, seed: int) -> float:
    """Seconds from starting a fresh interpreter to liemorph imported and configs validated."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(seed),
           *(f"{job.kind}={ROOT / job.config}" for job in jobs if job.kind)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), text=True) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with status {proc.returncode}")
    return ready


def _without_wall_time(raw: bytes) -> bytes:
    return b"\n".join(ln for ln in raw.splitlines() if b"wall_time_s" not in ln)


def run_cli_job(cli, job, seed, out: Path):
    """(status, reason or None, report bytes without wall time) of one CLI job."""
    out.unlink(missing_ok=True)
    argv = [job.kind, "--config", str(ROOT / job.config), "--seed", str(seed),
            "--out", str(out), *job.extra_args]
    try:
        with redirect_stdout(StringIO()):
            status = cli.main(argv)
    except SystemExit as exc:       # argparse rejected the arguments
        return exc.code, "arguments rejected", None
    if status not in (0, 1):
        return status, None, None
    raw = out.read_bytes()
    if json.loads(raw)["overall_pass"] != (status == 0):
        return status, "exit status disagrees with the report's overall_pass", None
    return status, None, _without_wall_time(raw)


def run_pass(cli, lm, jobs, seed, configs, outdir: Path, kernel) -> Pass:
    """One pass over the job list; a job that raises fails and the pass goes on."""
    from calibrate import SpeedSampler

    result = Pass()
    with SpeedSampler(kernel) as speed:
        for job in jobs:
            reason, detail, report = None, "", None
            start = time.perf_counter()
            try:
                if job.kind:
                    status, reason, report = run_cli_job(cli, job, seed,
                                                         outdir / f"{job.name}.json")
                else:
                    status, detail = job.library(lm, seed)
            except Exception as exc:    # noqa: BLE001 - any exception is a failed job
                status, reason = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            result.job_s[job.name] = elapsed
            if reason is None and status != job.expect_exit:
                reason = f"exit status {status}, expected {job.expect_exit} {detail}".rstrip()
            if reason is not None:
                result.failures.append((job.name, reason))
            if report is not None:
                result.reports[job.name] = report
            if job.families:
                per_family = configs[job.name].count if job.kind else job.points
                result.family_s += elapsed
                result.family_points += per_family * job.families
    result.scale = kernel.scale(speed.samples)
    return result


def measure(jobs, seed: int, seconds: float, trace: bool, kernel_name: str) -> dict:
    """Set up, then repeat passes for about ``seconds``; returns the run's figures."""
    from calibrate import KERNELS

    kernel = KERNELS[kernel_name]
    setup = []      # in reference seconds, calibrated by kernel bursts around each probe
    for _ in range(SETUP_PROBES):
        before = kernel.burst()
        probe = probe_setup(jobs, seed)
        setup.append(probe * kernel.scale(before + kernel.burst()))
    import liemorph as lm
    import liemorph.cli as cli

    configs = {job.name: cli.load_config(job.kind, str(ROOT / job.config), seed)
               for job in jobs if job.kind}
    OUT_ROOT.mkdir(exist_ok=True)
    outdir = Path(tempfile.mkdtemp(dir=OUT_ROOT))
    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    try:
        while True:
            traced = trace and len(passes) % 2 == 1     # untraced and traced passes alternate
            if traced:
                tracer.reset()
                tracer.install()
            try:
                p = run_pass(cli, lm, jobs, seed, configs, outdir, kernel)
            finally:
                if traced:
                    tracer.uninstall()
            if traced:
                p.layers = {m: v * p.scale if m in TIME_METRICS else v
                            for m, v in tracer.snapshot().items()}
            passes.append(p)
            if len(passes) == 1:
                # ru_maxrss only grows, and later passes can add allocator
                # fragmentation, so the figure is taken after exactly one pass.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            elapsed = time.perf_counter() - start
            enough = len(passes) >= (2 if trace else 1)
            if enough and elapsed + elapsed / len(passes) > seconds:
                break
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    return {"setup": setup, "passes": passes, "peak_rss_mb": peak_rss_mb}


def nondeterministic_jobs(passes) -> list:
    first = passes[0].reports
    return sorted({name for p in passes[1:] for name, body in p.reports.items()
                   if first.get(name) != body})


def layer_metrics(passes) -> dict:
    """Per-layer figures of the traced pass with the median wall time."""
    traced = sorted((p for p in passes if p.layers is not None), key=lambda p: p.ref_s)
    untraced = [p.ref_s for p in passes if p.layers is None]
    chosen = traced[len(traced) // 2]
    out = dict(chosen.layers)
    evals = out["jets.jet_evals"]
    out["jets.verify_us_per_eval"] = out["jets.verify_s"] / evals * 1e6 if evals else 0.0
    out["trace.wall_s"] = chosen.ref_s
    out["trace.unattributed_s"] = chosen.ref_s - sum(out[m] for m in TIME_METRICS)
    out["trace.overhead_s"] = (statistics.median(p.ref_s for p in traced)
                               - statistics.median(untraced))
    return out


def environment() -> str:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = " ".join(f"{var}={os.environ.get(var)}" for var in BLAS_THREAD_VARS)
    return (f"python {platform.python_version()}  numpy {numpy.__version__}  "
            f"{blas.get('name')} {blas.get('version')}  nproc {os.cpu_count()}  {threads}")


def summarize(name, jobs, seed, trace, run) -> dict:
    """Print the table for people and return the JSON result."""
    passes = run["passes"]
    failures = [f for p in passes for f in p.failures]
    unstable = nondeterministic_jobs(passes)
    attempted = len(jobs) * len(passes)
    print(f"workload {name}  seed {seed}  jobs/pass {len(jobs)}  passes (reference s / measured s, "
          "T traced) " + " ".join(f"{p.ref_s:.3f}/{p.wall_s:.3f}{'T' if p.layers else ''}"
                                  for p in passes))
    print(f"  {environment()}")
    for job_name, reason in failures:
        print(f"  FAILED {job_name}: {reason}")
    for job_name in unstable:
        print(f"  NONDETERMINISTIC report: {job_name}")
    if trace:
        metrics = layer_metrics(passes)
        units = {m: ("s" if m in TIME_METRICS or m.startswith("trace.") else "count")
                 for m in metrics}
        units["jets.verify_us_per_eval"] = "us"
        wall = metrics["trace.wall_s"]
        for m in sorted(metrics, key=lambda m: (units[m] != "s", -metrics[m])):
            share = f"  {100 * metrics[m] / wall:5.1f}%" if units[m] == "s" else ""
            print(f"  {m:30s} {metrics[m]:14.6g} {units[m]}{share}")
    else:
        metrics = {"setup_s": statistics.median(run["setup"]),
                   "wall_s": statistics.median(p.ref_s for p in passes),
                   "peak_rss_mb": run["peak_rss_mb"]}
        units = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
        rows = dict(metrics)
        if passes[0].family_points:
            rows["family_points_per_s"] = statistics.median(
                p.family_points / (p.family_s * p.scale) for p in passes)
            units["family_points_per_s"] = "1/s"
        rows["jobs"], rows["failed_jobs"] = attempted, len(failures)
        units["jobs"] = units["failed_jobs"] = "count"
        for m, v in rows.items():
            print(f"  {m:22s} {v:12.6g} {units[m]}")
        for job in jobs:
            median = statistics.median(p.job_s[job.name] * p.scale for p in passes)
            print(f"    {job.name:40s} {median:9.4f} s")
    return {"correct": not failures and not unstable, "attempted": attempted,
            "failed": len(failures),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def run_all(args) -> int:
    """Each workload in its own process, so each reports its own peak memory."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{m}": v for m, v in result["metrics"].items()})
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    # numpy reads the BLAS thread count when it is first imported, which is below.
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})
    missing = [p for p in ("src/liemorph/__init__.py", "configs") if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not a liemorph checkout (missing {', '.join(missing)})",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    jobs = WORKLOADS[args.workload]
    run = measure(jobs, args.seed, args.seconds, bool(args.trace), CALIBRATION[args.workload])
    result = summarize(args.workload, jobs, args.seed, bool(args.trace), run)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
