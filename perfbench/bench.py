"""Closed-loop benchmark of the matguard CLI; see run.py for usage.

One client calls ``matguard.cli.main`` in-process, waiting for each call
before the next (closed loop), over whole passes of the workload's op
list, so every run sees the same mix of calls.  Outputs are checked after
each call, outside the timed region.  Set-up time is measured in fresh
interpreters (cold.py), several times, and reported as the median.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import matguard.cli
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150

if not Path(matguard.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"matguard imported from {matguard.__file__}, not from {SRC}")


class Ledger:
    """Attempts, failures and stdout volume of the checked calls."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.stdout_bytes = 0

    def record(self, op, rc, out, error):
        self.attempted += 1
        self.stdout_bytes += len(out.encode())
        if error is not None:
            failure = workloads.Failure(f"{' '.join(op.argv[:3])}: raised {error}")
        else:
            try:
                failure = op.check(rc, out)
            except (ValueError, KeyError, TypeError) as exc:
                failure = workloads.Failure(f"{' '.join(op.argv[:3])}: unreadable output ({exc!r})")
        if failure is not None:
            self.failures.append(failure)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(f.known is not None for f in self.failures)


def call_cli(argv, tracer=None):
    """Run one CLI call; returns (seconds, exit code, stdout, error)."""
    out = io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = perf_counter()
        try:
            if tracer is None:
                rc = matguard.cli.main(list(argv))
            else:
                rc = tracer.call("cli", matguard.cli.main, list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # a crash is a failed op, not a failed benchmark
            error = repr(exc)
        seconds = perf_counter() - start
    return seconds, rc, out.getvalue(), error


def closed_loop(ops, seconds, ledger, tracer=None) -> tuple:
    """Whole passes over ``ops`` until ``seconds`` have elapsed.

    Returns each call's latency and the process CPU time it used, which
    tells a slower host (CPU time grows with latency) from a busier one
    (latency grows alone)."""
    latencies, cpu = [], []
    start = perf_counter()
    while True:
        for op in ops:
            cpu_start = process_time()
            dt, rc, out, error = call_cli(op.argv, tracer)
            cpu.append(process_time() - cpu_start)
            latencies.append(dt)
            ledger.record(op, rc, out, error)
        if perf_counter() - start >= seconds:
            return latencies, cpu


def cold_setup(workload, tmp: Path, ledger: Ledger) -> float:
    """Import plus the first op of each distinct key, in a fresh interpreter.

    An exit code other than the expected one is recorded as a failure."""
    first = workload.first_ops()
    spec = tmp / "cold.json"
    spec.write_text(json.dumps({"src": str(SRC), "ops": [list(op.argv) for op in first]}))
    proc = subprocess.run([sys.executable, str(HERE / "cold.py"), str(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up worker failed: {proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    for op, rc in zip(first, result["exit_codes"]):
        if rc != op.expect_rc:
            ledger.failures.append(workloads.Failure(
                f"{' '.join(op.argv[:3])}: cold call gave {rc}, expected {op.expect_rc}"))
    return result["setup_s"]


def suite_ms(suite_args) -> dict:
    """Median milliseconds of each verify suite, one run_suite call per suite."""
    try:
        run_suite = importlib.import_module("matguard.verify").run_suite
    except (ImportError, AttributeError):
        return {f"verify.{s}_ms": (None, "ms/op") for s in workloads.SUITES}
    out = {}
    for suite in workloads.SUITES:
        times = []
        for n, trials, seed in suite_args:
            start = perf_counter()
            run_suite(suite, n, trials, seed)
            times.append(perf_counter() - start)
        out[f"verify.{suite}_ms"] = (statistics.median(times) * 1e3 if times else 0.0, "ms/op")
    return out


def git_commit():
    """HEAD of the checkout, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def workload_why(name: str) -> str:
    """Why the workload exists, as BENCHMARK.json states it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(w["why"] for w in spec["workloads"] if w["name"] == name)


def environment(seed: int) -> dict:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "blas": deps.get("blas"),
        "lapack": deps.get("lapack"),
        "thread_pins": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": git_commit(),
    }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _p90(xs):
    return statistics.quantiles(xs, n=10)[8] if len(xs) > 1 else xs[0]


def run_workload(name, seed, seconds, trace, sizes=workloads.FULL):
    """Run one workload; returns (result line, details)."""
    SCRATCH.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=SCRATCH))
    try:
        workload = workloads.build(name, seed, tmp, sizes)
        warm = Ledger()
        setup = [] if trace else [cold_setup(workload, tmp, warm)
                                  for _ in range(SETUP_REPEATS)]
        for op in workload.first_ops():  # lazy imports and first-call costs
            _, rc, out, error = call_cli(op.argv)
            warm.record(op, rc, out, error)
        ledger = Ledger()  # the measured calls
        if trace:
            plain, cpu = closed_loop(workload.ops, seconds / 2, ledger)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, _ = closed_loop(workload.ops, seconds / 2, ledger, tracer)
            ops = len(traced)
            metrics = {k: _metric(v, u) for k, (v, u) in tracer.metrics(ops).items()}
            metrics["io.stdout_bytes"] = _metric(ledger.stdout_bytes / ledger.attempted,
                                                 "bytes/op")
            for k, (v, u) in suite_ms(workload.suite_args).items():
                metrics[k] = _metric(v, u)
            plain_rate = len(plain) / sum(plain)
            traced_rate = ops / sum(traced)
            metrics["trace.ops_per_s"] = _metric(traced_rate, "1/s")
            metrics["trace.untraced_ops_per_s"] = _metric(plain_rate, "1/s")
            metrics["trace.overhead_ratio"] = _metric(plain_rate / traced_rate, "ratio")
            latencies = plain + traced
            details_extra = {"missing_layers": sorted(tracer.missing)}
        else:
            latencies, cpu = closed_loop(workload.ops, seconds, ledger)
            # rates count time inside cli.main only, not the checks between calls
            metrics = {
                "ops_per_s": _metric(len(latencies) / sum(latencies), "1/s"),
                "latency_p50_ms": _metric(statistics.median(latencies) * 1e3, "ms"),
                "latency_p90_ms": _metric(_p90(latencies) * 1e3, "ms"),
                "ok_ratio": _metric(1.0 - ledger.failed / ledger.attempted, "ratio"),
                "setup_s": _metric(statistics.median(setup), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            }
            details_extra = {"setup_s_samples": setup}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            SCRATCH.rmdir()

    result = {
        "correct": ledger.correct and warm.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": metrics,
    }
    failures = warm.failures + ledger.failures
    details = {
        "workload": name,
        "why": workload_why(name),
        "layer_map": workloads.LAYER_MAP,
        "latency_samples": len(latencies),
        "fail_ratio": ledger.failed / ledger.attempted,
        # CPU time of the same calls as the untraced latencies
        "cpu_p50_ms": statistics.median(cpu) * 1e3,
        "cpu_p90_ms": _p90(cpu) * 1e3,
        "cpu_over_wall": sum(cpu) / sum(latencies[:len(cpu)]),
        "known_defects": sorted({f.known for f in failures if f.known is not None}),
        "failures": sorted({f.reason for f in failures})[:10],
        "environment": environment(seed),
        **details_extra,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the matguard CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(details))
    print(json.dumps(result))
    return 0
