"""Fast self-test of the benchmark; gates on no timing.

    python3 perfbench/selftest.py

Runs every workload at toy size (n=4, few samples), once untraced and
twice traced (one pass, then several), and checks that every metric BENCHMARK.json names is
present with its unit, that the two traced runs give identical per-op
counts, that a hook whose target is gone reports its layer as missing,
and that the benchmark refuses to run without the package sources.
"""

import run  # pins BLAS threads before numpy is imported

import contextlib  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

COUNTS = ("_calls", "_evals", "_steps", "_gflop", "_bytes", "events_found")


def main() -> int:
    if not run.bootstrap():
        return 2
    import bench
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []

    def expect(ok, message):
        if not ok:
            problems.append(message)

    def expect_metrics(name, result, declared):
        units = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == units, f"{name}: metrics/units differ from BENCHMARK.json: "
                             f"{sorted(set(got.items()) ^ set(units.items()))}")
        expect(result["attempted"] >= 1, f"{name}: nothing attempted")
        expect(result["correct"], f"{name}: incorrect result")

    for workload in spec["workloads"]:
        name = workload["name"]
        plain, details = bench.run_workload(name, 7, 0, False, workloads.TOY)
        expect_metrics(name, plain, spec["end_to_end"])
        expect(details["environment"]["thread_pins"]["OPENBLAS_NUM_THREADS"] == "1",
               f"{name}: BLAS threads not pinned")
        # one pass against several: per-op counts must not depend on run length
        traced = [bench.run_workload(name, 7, seconds, True, workloads.TOY)[0]
                  for seconds in (0, 1)]
        for result in traced:
            expect_metrics(name, result, spec["per_layer"])
        counts = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(COUNTS)}
                  for r in traced]
        expect(counts[0] == counts[1], f"{name}: traced counts differ: {counts}")
        expect(all(v is not None for v in counts[0].values()), f"{name}: missing counts")

    # the threshold-miss excuse covers exactly one output signature
    miss = {"kind": "add2", "f_sign": 1, "verdict": "NonzeroUnstable", "oracle": "boundary"}
    excused = workloads.check_guardian("add2", "boundary", 3, json.dumps(miss))
    expect(excused is not None and excused.known == workloads.PIVOT_THRESHOLD_MISS,
           "boundary threshold miss not recognised")
    for label, rc, change in (("boundary", 3, {"oracle": "unstable"}),
                              ("stable", 0, {"oracle": "stable"})):
        failure = workloads.check_guardian("add2", label, rc, json.dumps({**miss, **change}))
        expect(failure is not None and failure.known is None,
               f"wrong {label} verdict excused as a known defect")

    tracer = tracing.Tracer()
    gone = tracing.HOOKS + (("matguard.cli", "no_such_function", "io.load"),)
    with tracer.installed(gone):
        pass
    layer = tracer.metrics(1)
    expect(layer["io.load_ms"][0] is None and layer["cli.self_ms"][0] is None,
           "a missing hook did not mark its layer missing")
    expect(layer["core.det_rho_ms"][0] == 0.0, "an intact layer was marked missing")

    scratch = run.ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=scratch))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "verify-all", "--seed", "1",
             "--seconds", "1"], cwd=bare, capture_output=True, text=True, timeout=120)
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)
        with contextlib.suppress(OSError):
            scratch.rmdir()

    for message in problems:
        print(f"selftest: FAIL {message}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
