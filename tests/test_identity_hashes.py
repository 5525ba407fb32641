"""``tests/identity_hashes.py`` runs as a script and prints one line per
workload and seed (and, with ``--by-kind``, per ``--map`` kind): name,
seed, [kind,] a sha256 digest and the failed count."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "tests" / "identity_hashes.py"), "--toy", *args, "1"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )


def test_identity_script_hashes_toy_workloads():
    proc = run_script()
    rows = [re.fullmatch(r"(\S+) 1 ([0-9a-f]{64}) failed=(\d+)", line)
            for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    assert [(m[1], int(m[3])) for m in rows] == [
        ("guardian-large", 0), ("sweep-refine", 0), ("verify-all", 0)
    ]


def test_identity_script_hashes_each_kind_apart():
    proc = run_script("--by-kind")
    rows = [re.fullmatch(r"(\S+) 1 (\S+) ([0-9a-f]{64}) failed=(\d+)", line)
            for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    kinds = ["kron", "add2", "schlaflian", "bialt"]
    assert [(m[1], m[2], int(m[4])) for m in rows] == (
        [("guardian-large", k, 0) for k in kinds]
        + [("sweep-refine", k, 0) for k in kinds]
        + [("verify-all", "all", 0)]
    )
    assert len({m[3] for m in rows}) == len(rows)
