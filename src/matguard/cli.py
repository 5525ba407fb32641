"""Command-line front end.

Subcommands::

    matguard compute  --map {kron|add2|addk|mult|schlaflian|bialt}
                      [--k K] [--p P] --input FILE [--output FILE]
    matguard guardian --map {kron|add2|schlaflian|bialt} --input FILE
                      [--tol T]
    matguard sweep    --family FILE --map KIND --min A --max B
                      --samples N [--refine] [--tol T]
    matguard verify   --suite {prop4|cauchy-binet|brackets|ode|lemma1|all}
                      --n N --trials T --seed S

Exit codes: 0 success/stable, 1 unreadable or malformed input file,
2 parameter or dimension violation, 3 guardian verdict "boundary",
4 guardian verdict "unstable", 5 property-suite violation.

``--input -`` (and ``--family -``) read a JSON document from stdin.
All stdout output is canonical JSON: fixed key order, 17 significant
digits, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import sys

import numpy as np

from .compound import add_compound, mult_compound
from .io import (
    MatrixIOError,
    dumps_canonical,
    load_matrix,
    matrix_to_obj,
    read_json_document as _read_json_document,  # a perfbench/tracing.py hook
    save_matrix_csv,
    save_matrix_json,
)
from .core import Stability, as_matrix
from .representations import GuardianMapKind, apply_rho, guardian_evaluate
from .schlaflian import lower_schlaflian
from .sweep import ParamFamily, sweep
from .verify import SUITES, run_suite

__all__ = ["main"]

EXIT_OK = 0
EXIT_BAD_FILE = 1
EXIT_BAD_PARAMS = 2
EXIT_BOUNDARY = 3
EXIT_UNSTABLE = 4
EXIT_VERIFY_FAILED = 5

# Exit code of ``guardian``: the report's joint stability.
EXIT_FOR = {
    Stability.STABLE: EXIT_OK,
    Stability.BOUNDARY: EXIT_BOUNDARY,
    Stability.UNSTABLE: EXIT_UNSTABLE,
}

GUARDIAN_KINDS = [k.value for k in GuardianMapKind]


def _emit_matrix(result: np.ndarray, output: str | None) -> None:
    if output is None:
        print(dumps_canonical(matrix_to_obj(result)))
    elif output.lower().endswith(".csv"):
        save_matrix_csv(result, output)
    else:
        save_matrix_json(result, output)


# ``compute --map`` -> (builder, the order flag it needs); every other map
# goes through ``apply_rho`` and takes neither flag.
ORDERED_BUILDERS = {
    "addk": (add_compound, "k"),
    "mult": (mult_compound, "k"),
    "schlaflian": (lower_schlaflian, "p"),
}


def _cmd_compute(args) -> int:
    builder, order = ORDERED_BUILDERS.get(args.map, (None, None))
    for flag in ("k", "p"):
        if flag == order and getattr(args, flag) is None:
            raise ValueError(f"--map {args.map} requires --{flag}")
        if flag != order and getattr(args, flag) is not None:
            raise ValueError(f"--{flag} is not accepted with --map {args.map}")

    a = load_matrix(args.input)
    result = apply_rho(args.map, a) if builder is None else builder(a, getattr(args, order))
    _emit_matrix(as_matrix(result, f"the derived {args.map} matrix"), args.output)
    return EXIT_OK


def _cmd_guardian(args) -> int:
    a = load_matrix(args.input)
    report = guardian_evaluate(GuardianMapKind(args.map), a, tol=args.tol)
    print(dumps_canonical(report.to_obj()))
    return EXIT_FOR[report.stability]


def _cmd_sweep(args) -> int:
    family = ParamFamily.from_obj(_read_json_document(args.family))
    result = sweep(
        family,
        GuardianMapKind(args.map),
        args.min,
        args.max,
        args.samples,
        refine=args.refine,
        tol=args.tol,
    )
    print(dumps_canonical(result.to_obj()))
    return EXIT_OK


def _cmd_verify(args) -> int:
    summary = run_suite(args.suite, args.n, args.trials, args.seed)
    print(dumps_canonical(summary))
    return EXIT_OK if summary["pass"] else EXIT_VERIFY_FAILED


@functools.cache  # parse_args leaves the parser unchanged, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="matguard",
        description="Guardian-map stability tools: compound/Kronecker/"
        "Schlaflian/bialternate constructions, boundary detection, "
        "parameter sweeps, and randomized self-verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser(
        "compute", help="apply a matrix construction to an input matrix"
    )
    compute.add_argument(
        "--map",
        required=True,
        choices=["kron", "add2", "addk", "mult", "schlaflian", "bialt"],
        help="construction to apply (addk/mult need --k, schlaflian needs --p)",
    )
    compute.add_argument("--k", type=int, default=None, help="compound order")
    compute.add_argument("--p", type=int, default=None, help="monomial degree")
    compute.add_argument(
        "--input", required=True, help="matrix file (.json or .csv); - for stdin"
    )
    compute.add_argument(
        "--output", default=None, help="write result here instead of stdout"
    )
    compute.set_defaults(func=_cmd_compute)

    guardian = sub.add_parser(
        "guardian", help="evaluate a guardian map and classify stability"
    )
    guardian.add_argument("--map", required=True, choices=GUARDIAN_KINDS)
    guardian.add_argument(
        "--input", required=True, help="matrix file (.json or .csv); - for stdin"
    )
    guardian.add_argument(
        "--tol", type=float, default=1e-8, help="eigenvalue-oracle tolerance"
    )
    guardian.set_defaults(func=_cmd_guardian)

    sweep_p = sub.add_parser(
        "sweep", help="evaluate a guardian map along a one-parameter family"
    )
    sweep_p.add_argument(
        "--family", required=True, help="family JSON file; - for stdin"
    )
    sweep_p.add_argument("--map", required=True, choices=GUARDIAN_KINDS)
    sweep_p.add_argument("--min", type=float, required=True, help="theta lower end")
    sweep_p.add_argument("--max", type=float, required=True, help="theta upper end")
    sweep_p.add_argument("--samples", type=int, required=True, help="grid size (>= 2)")
    sweep_p.add_argument(
        "--refine", action="store_true",
        help="prove sign-change brackets around the pencil's roots, then bisect any"
             " still wider than --tol",
    )
    sweep_p.add_argument(
        "--tol", type=float, default=1e-8, help="widest bracket a refined crossing ends on"
    )
    sweep_p.set_defaults(func=_cmd_sweep)

    verify = sub.add_parser(
        "verify", help="run a seeded randomized property suite"
    )
    verify.add_argument("--suite", required=True, choices=list(SUITES))
    verify.add_argument("--n", type=int, required=True, help="matrix dimension")
    verify.add_argument("--trials", type=int, required=True, help="instances per property")
    verify.add_argument("--seed", type=int, required=True, help="RNG seed")
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MatrixIOError, OSError) as exc:
        print(f"matguard: {exc}", file=sys.stderr)
        return EXIT_BAD_FILE
    except np.linalg.LinAlgError as exc:
        print(f"matguard: linear algebra failure: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS
    except ValueError as exc:
        print(f"matguard: {exc}", file=sys.stderr)
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())
