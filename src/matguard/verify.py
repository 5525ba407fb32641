"""Randomized property suites for the guardian-map machinery.

Each suite draws reproducible random instances from an explicit seed,
measures the worst residual of one family of identities, and reports a
JSON-ready summary.  Residuals are normalized by an instance scale
where the identity is only meaningful relatively (products of large
matrices); exactly-zero identities use absolute tolerances.

Suites:

* ``prop4``        -- bialternate sum equals the 2-additive compound
                      (to rounding for float entries, exactly for
                      integer entries).
* ``cauchy-binet`` -- (AB)^(k) = A^(k) B^(k) on random conformable
                      rectangles, k <= 3.
* ``brackets``     -- all four representations and their
                      contragradients preserve the commutator.
* ``ode``          -- reduced flows (symmetric/skew) match the matrix
                      flow of dX/dt = AX + XA'; RK4 preserves
                      (skew-)symmetry.
* ``lemma1``       -- columns of A^[2] reproduce A S_ij + S_ij A' in
                      the skew basis.
* ``all``          -- every suite above, same n/trials/seed.
"""

from __future__ import annotations

import math

import numpy as np

from .bialternate import verify_bialt_equals_add2
from .compound import mult_compound
from .core import CHUNK_ENTRIES, maxabs, norm1
from .ode import (
    check_skew_basis_columns,
    check_skew_reduction,
    check_symmetric_reduction,
    matrix_ode_rk4,
)
from .representations import GuardianMapKind, apply_rho, contragradient, lie_bracket

__all__ = ["SUITES", "run_suite"]

SUITES = ("prop4", "cauchy-binet", "brackets", "ode", "lemma1", "all")

ODE_TIMES = (0.3, 0.7, 1.5)


class _Check:
    """Accumulates the worst (scaled) residual of one property."""

    def __init__(self, name: str, tolerance: float):
        self.name = name
        self.tolerance = tolerance
        self.max_residual = 0.0
        self.count = 0
        self.failures = []

    def record(self, raw_residual: float, scale: float = 1.0, **context) -> None:
        residual = float(raw_residual) / scale
        self.count += 1
        self.max_residual = max(self.max_residual, residual)
        if not residual <= self.tolerance:
            entry = {"property": self.name, "residual": residual,
                     "tolerance": self.tolerance}
            entry.update(context)
            self.failures.append(entry)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_obj(self) -> dict:
        return {
            "name": self.name,
            "trials": self.count,
            "max_residual": self.max_residual,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _summarize(suite: str, n: int, trials: int, seed: int, checks) -> dict:
    failures = [f for c in checks for f in c.failures]
    return {
        "suite": suite,
        "n": n,
        "trials": trials,
        "seed": seed,
        "properties": [c.to_obj() for c in checks],
        "pass": not failures,
        "failures": failures,
    }


def _suite_bialt_identity(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    float_check = _Check("bialt_matches_add2_float", 1e-12)
    int_check = _Check("bialt_matches_add2_integer_exact", 0.0)
    for trial in range(trials):
        a = rng.standard_normal((n, n))
        float_check.record(verify_bialt_equals_add2(a), trial=trial)
        a_int = rng.integers(-9, 10, size=(n, n)).astype(float)
        int_check.record(verify_bialt_equals_add2(a_int), trial=trial)
    return _summarize("prop4", n, trials, seed, [float_check, int_check])


def _suite_cauchy_binet(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    for k in range(1, min(3, n) + 1):
        check = _Check(f"cauchy_binet_k{k}", 1e-10)
        for trial in range(trials):
            rows, inner, cols = (int(rng.integers(k, n + 1)) for _ in range(3))
            a = rng.standard_normal((rows, inner))
            b = rng.standard_normal((inner, cols))
            ca, cb, cab = (mult_compound(x, k) for x in (a, b, a @ b))
            scale = max(1.0, maxabs(ca), maxabs(cb), maxabs(cab))
            check.record(maxabs(cab - ca @ cb), scale, trial=trial,
                         shape=[rows, inner, cols])
        checks.append(check)
    return _summarize("cauchy-binet", n, trials, seed, checks)


def _trial_chunks(trials: int, entries: int):
    """Runs of trial indices whose stacks, ``entries`` per trial, stay within
    the ``CHUNK_ENTRIES`` budget (at least one trial a run)."""
    size = max(1, CHUNK_ENTRIES // entries)
    return [range(start, min(start + size, trials)) for start in range(0, trials, size)]


def _max_abs(stack: np.ndarray) -> np.ndarray:
    """maxabs of each member of a stack (..., m, m)."""
    return np.abs(stack).max(axis=(-2, -1))


def _suite_brackets(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    for kind in GuardianMapKind:
        direct = _Check(f"bracket_{kind.value}", 1e-10)
        contra = _Check(f"bracket_{kind.value}_contragradient", 1e-10)
        # three rho stacks and three bracket temporaries, of up to n^4 (kron) entries
        for chunk in _trial_chunks(trials, 6 * n**4):
            draws = [(rng.standard_normal((n, n)), rng.standard_normal((n, n))) for _ in chunk]
            a, b = (np.array(side) for side in zip(*draws))
            br = lie_bracket(a, b)
            for rho, check in ((apply_rho, direct), (contragradient, contra)):
                # C order, so each member's products take the BLAS path of a single matrix
                ra, rb, rbr = (np.ascontiguousarray(rho(kind, s)) for s in (a, b, br))
                residuals = _max_abs(rbr - (ra @ rb - rb @ ra)).tolist()
                if rho is apply_rho:  # both checks scale by the direct max|rho(A)| max|rho(B)|
                    scales = np.maximum(1.0, _max_abs(ra) * _max_abs(rb)).tolist()
                del ra, rb, rbr  # free one rho's stacks before the next rho builds its own
                for trial, scale, residual in zip(chunk, scales, residuals):
                    check.record(residual, scale, trial=trial)
        checks.append(direct)
        checks.append(contra)
    return _summarize("brackets", n, trials, seed, checks)


def _moderate_matrix(rng, n: int) -> np.ndarray:
    # Cap the 1-norm so that e^{At} stays O(100) over the test horizon
    # and absolute ODE tolerances remain meaningful.
    a = rng.standard_normal((n, n))
    return a / max(1.0, norm1(a) / 2.0)


def _suite_ode(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sym_flow = _Check("symmetric_reduction_two_path", 1e-7)
    skew_flow = _Check("skew_reduction_two_path", 1e-7)
    sym_keep = _Check("rk4_preserves_symmetry", 1e-9)
    skew_keep = _Check("rk4_preserves_skew_symmetry", 1e-9)
    times = np.array(ODE_TIMES)
    # L_2(A) and its e^{L_2(A) t}, of C(n + 1, 2)^2 entries each (expm's own
    # working set is bounded apart)
    for chunk in _trial_chunks(trials, (1 + len(ODE_TIMES)) * math.comb(n + 1, 2) ** 2):
        draws = []
        for _ in chunk:
            a = _moderate_matrix(rng, n)
            x = rng.standard_normal((n, n))
            draws.append((a, 0.5 * (x + x.T), 0.5 * (x - x.T)))
        a, x_sym, x_skew = (np.array(side) for side in zip(*draws))
        # every trial at every time: residuals (T, len(ODE_TIMES))
        sym = check_symmetric_reduction(a[:, None], x_sym[:, None], times).tolist()
        skew = check_skew_reduction(a[:, None], x_skew[:, None], times).tolist()
        ends = matrix_ode_rk4(np.concatenate([a, a]), np.concatenate([x_sym, x_skew]), 1.0, 64)
        end_sym, end_skew = np.split(ends, 2)
        sym_gap = _max_abs(end_sym - np.swapaxes(end_sym, 1, 2)).tolist()
        skew_gap = _max_abs(end_skew + np.swapaxes(end_skew, 1, 2)).tolist()
        sym_scale, skew_scale = np.maximum(1.0, _max_abs(ends)).reshape(2, -1).tolist()
        for row, trial in enumerate(chunk):
            for col, t in enumerate(ODE_TIMES):
                sym_flow.record(sym[row][col], trial=trial, t=t)
                skew_flow.record(skew[row][col], trial=trial, t=t)
            sym_keep.record(sym_gap[row], sym_scale[row], trial=trial)
            skew_keep.record(skew_gap[row], skew_scale[row], trial=trial)
    return _summarize("ode", n, trials, seed,
                      [sym_flow, skew_flow, sym_keep, skew_keep])


def _suite_skew_basis(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    check = _Check("skew_basis_columns", 1e-11)
    pairs = np.add(np.triu_indices(n, 1), 1)  # rows i and j of the pairs i < j, lexicographic
    labels = pairs.T.tolist()
    # the pairs' A S + S A', its two products, and the difference from the
    # columns, of n^2 entries a pair (the check splits a large n's pairs in runs)
    for chunk in _trial_chunks(trials, 4 * len(labels) * n * n):
        a = np.array([rng.standard_normal((n, n)) for _ in chunk])
        residuals = check_skew_basis_columns(a, *pairs).tolist()
        for trial, row in zip(chunk, residuals):
            for pair, residual in zip(labels, row):
                check.record(residual, trial=trial, pair=pair)
    return _summarize("lemma1", n, trials, seed, [check])


_SUITE_FUNCS = {
    "prop4": _suite_bialt_identity,
    "cauchy-binet": _suite_cauchy_binet,
    "brackets": _suite_brackets,
    "ode": _suite_ode,
    "lemma1": _suite_skew_basis,
}


def run_suite(suite: str, n: int, trials: int, seed: int) -> dict:
    """Run one named suite (or ``all``) and return its summary dict.

    The summary's ``"pass"`` key is True iff every property stayed
    within tolerance; failing instances carry their trial index so a
    violation is reproducible from (suite, n, trials, seed).
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    if n < 2:
        raise ValueError(f"suites need n >= 2, got n={n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be nonnegative")
    if suite != "all":
        return _SUITE_FUNCS[suite](n, trials, seed)
    parts = [_SUITE_FUNCS[name](n, trials, seed)
             for name in SUITES if name != "all"]
    return {
        "suite": "all",
        "n": n,
        "trials": trials,
        "seed": seed,
        "suites": parts,
        "pass": all(p["pass"] for p in parts),
        "failures": [f for p in parts for f in p["failures"]],
    }
