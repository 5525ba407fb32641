"""The benchmark's reference checks pass on the toy-size workloads.

``perfbench/workloads.py`` builds each workload's CLI calls together with
a check of their exit code and stdout.  Every call must pass its check or
fail only with one of the program's documented defects (``known``).
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from matguard.cli import main

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", list(workloads.BUILDERS))
def test_toy_workload_ops_pass_their_checks(capsys, tmp_path, name):
    wl = workloads.build(name, 1, tmp_path, workloads.TOY)
    assert wl.ops
    for op in wl.ops:
        rc = main(list(op.argv))
        failure = op.check(rc, capsys.readouterr().out)
        assert failure is None or failure.known is not None, (op.argv, failure)


# Full-size guardian-large boundary inputs whose rho an LU pivot threshold
# called nonsingular (seed, n, kind): the sigma_min bound reads them as zero.
FORMER_PIVOT_MISSES = [
    (40, 24, "schlaflian"),
    (505, 32, "schlaflian"),
    (1302371628, 24, "add2"),
    (1302371628, 24, "bialt"),
]


@pytest.mark.parametrize("seed, n, kind", FORMER_PIVOT_MISSES)
def test_full_size_boundary_ops_that_pivots_missed_pass(capsys, tmp_path, seed, n, kind):
    wl = workloads.build("guardian-large", seed, tmp_path, workloads.FULL)
    boundary_rc = workloads.GUARDIAN_EXPECT["boundary"][0]
    (op,) = [op for op in wl.ops
             if op.key == ("guardian", kind, n) and op.expect_rc == boundary_rc]
    rc = main(list(op.argv))
    assert op.check(rc, capsys.readouterr().out) is None
