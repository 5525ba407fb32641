"""Hash the benchmark workloads' CLI output, to show a change keeps every byte.

Runs each op of guardian-large, sweep-refine and verify-all through
``matguard.cli.main`` in-process with one BLAS thread and prints, per
workload and seed, the sha256 of the ops' ``rc\\nstdout`` stream in op order
and how many ops failed their check.  Run it on two trees and compare:

    PYTHONPATH=src python tests/identity_hashes.py [--toy] [--by-kind] [SEED ...]

Seeds default to 1 40 137; ``--toy`` uses the workloads' TOY sizes.
``--by-kind`` prints one line per workload, seed and ``--map`` kind
(``all`` for verify-all), hashing only that kind's ops, so a change to one
kind shows which of the others kept every byte.
"""

import argparse
import contextlib
import hashlib
import importlib.util
import io
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
NAMES = ("guardian-large", "sweep-refine", "verify-all")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


def identity(name: str, seed: int, sizes, workloads) -> dict:
    """{kind: (sha256 hex of its ops' rc and stdout, failed count)} of one
    workload, plus the whole op stream under the key None."""
    from matguard.cli import main

    digests = {}
    failed = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        for op in workloads.build(name, seed, Path(tmp), sizes).ops:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                rc = main(list(op.argv))
            bad = op.check(rc, out.getvalue()) is not None
            for key in (None, op.key[1]):  # op.key is (subcommand, kind, n)
                digests.setdefault(key, hashlib.sha256()).update(
                    f"{rc}\n{out.getvalue()}".encode())
                failed[key] += bad
    return {key: (d.hexdigest(), failed[key]) for key, d in digests.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seeds", nargs="*", type=int, default=[1, 40, 137])
    parser.add_argument("--toy", action="store_true", help="use TOY sizes")
    parser.add_argument("--by-kind", action="store_true",
                        help="one line per workload, seed and --map kind")
    args = parser.parse_args(argv)
    workloads = load_workloads()
    sizes = workloads.TOY if args.toy else workloads.FULL
    for name in NAMES:
        for seed in args.seeds:
            rows = identity(name, seed, sizes, workloads)
            if not args.by_kind:
                digest, failed = rows[None]
                print(f"{name} {seed} {digest} failed={failed}")
                continue
            for kind, (digest, failed) in rows.items():
                if kind is not None:
                    print(f"{name} {seed} {kind} {digest} failed={failed}")
    return 0


if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # before numpy is imported
    sys.exit(main())
