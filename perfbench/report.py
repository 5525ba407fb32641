"""Print every metric of every benchmark workload, by name and unit.

    python3 perfbench/report.py

Runs perfbench/run.py once per workload listed in BENCHMARK.json, with seed
1, the file's run_seconds and --trace 0, each in its own interpreter so
that peak RSS is per workload.  Prints one row per end-to-end metric plus
the workload's failure ratio and latency sample count, then which
end-to-end metric each layer should move and the environment.  Other
seeds, lengths and the traced run are run.py's options.
Exits 1 if a run could not produce a checked result or reported
``"correct": false``.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600
SEED = 1


def run_one(name, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    broken, env, layer_map = 0, None, {}
    for workload in spec["workloads"]:
        name = workload["name"]
        try:
            details, result = run_one(name, spec["run_seconds"])
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"{name}: no result ({exc})")
            broken += 1
            continue
        env, layer_map = details["environment"], details["layer_map"]
        if not result["correct"]:
            broken += 1
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} fail_ratio={details['fail_ratio']:.4f} "
              f"latency_samples={details['latency_samples']}")
        print(f"  why: {details['why']}")
        for reason in details["failures"]:
            print(f"  failure: {reason}")
        for defect in details["known_defects"]:
            print(f"  known defect: {defect}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:16s} {m['value']:>14.6g} {m['unit']}")
    for layers, moves in layer_map.items():
        print(f"layer map: {layers} -> {moves}")
    if env is not None:
        print("environment: " + json.dumps(env))
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
