"""``tests/identity_hashes.py`` runs as a script and prints one line per
workload and seed: name, seed, a sha256 digest and the failed count."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_identity_script_hashes_toy_workloads():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tests" / "identity_hashes.py"), "--toy", "1"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    rows = [re.fullmatch(r"(\S+) 1 ([0-9a-f]{64}) failed=(\d+)", line)
            for line in proc.stdout.splitlines()]
    assert all(rows), proc.stdout
    # TOY sweeps one family; its kron op fails by the documented kron double root
    assert [(m[1], int(m[3])) for m in rows] == [
        ("guardian-large", 0), ("sweep-refine", 1), ("verify-all", 0)
    ]
