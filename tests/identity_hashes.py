"""Hash the benchmark workloads' CLI output, to show a change keeps every byte.

Runs each op of guardian-large, sweep-refine and verify-all through
``matguard.cli.main`` in-process with one BLAS thread and prints, per
workload and seed, the sha256 of the ops' ``rc\\nstdout`` stream in op order
and how many ops failed their check.  Run it on two trees and compare:

    PYTHONPATH=src python tests/identity_hashes.py [--toy] [SEED ...]

Seeds default to 1 40 137; ``--toy`` uses the workloads' TOY sizes.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMES = ("guardian-large", "sweep-refine", "verify-all")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def identity(name: str, seed: int, sizes, workloads) -> tuple:
    """(sha256 hex of the ops' rc and stdout, failed count) of one workload."""
    from matguard.cli import main

    digest = hashlib.sha256()
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build(name, seed, Path(tmp), sizes).ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(list(op.argv))
            digest.update(f"{rc}\n{out.getvalue()}".encode())
            failed += op.check(rc, out.getvalue()) is not None
    return digest.hexdigest(), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 40, 137])
    parser.add_argument("--toy", action="store_true", help="use TOY sizes")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    sizes = workloads.TOY if args.toy else workloads.FULL
    for name in NAMES:
        for seed in args.seeds:
            digest, failed = identity(name, seed, sizes, workloads)
            print(f"{name} {seed} {digest} failed={failed}")
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.exit(main())
