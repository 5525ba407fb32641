"""Benchmark entry point for matguard.

    python3 perfbench/run.py --workload {guardian-large,sweep-refine,verify-all}
                             --seed N --seconds S [--trace 0|1]

Run from a checkout that holds ``src/matguard``; nothing needs installing.
The inputs are generated from the seed.  The second-to-last stdout line is
a JSON record of the environment, the workload's purpose, the layer map
and any failures; the last line is the result:
{"correct", "attempted", "failed", "metrics"}.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones (see BENCHMARK.json).

BLAS threads are pinned to one here, before numpy is imported, because
unpinned timings on a two-core machine swing by an order of magnitude.
"""

import os

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def bootstrap() -> bool:
    """Put the checkout's sources first on sys.path; False if they are absent."""
    if not (SRC / "matguard" / "__init__.py").is_file():
        print(f"perfbench: no matguard sources under {SRC}", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    return True


def main(argv=None) -> int:
    if not bootstrap():
        return 2
    import bench

    return bench.main(argv)


if __name__ == "__main__":
    sys.exit(main())
