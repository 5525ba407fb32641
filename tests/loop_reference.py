"""Loop implementations kept as references for the vectorised library code.

These are the element-by-element versions of the determinant and of the
rho builders.  The library builders must reproduce them bit for bit.
``upper_schlaflian_loop`` is the term-by-term multinomial expansion that
the degree-by-degree U_p replaced; that one sums in another order, so it
agrees to rounding (relative 1e-13), not bit for bit.
``_suite_brackets``, ``_suite_ode`` and ``_suite_skew_basis`` are the
per-trial suites that the stacked ones in ``matguard.verify`` replaced:
one instance, one time and one pair per call.  The stacked suites must
print the same summary, byte for byte.
``sweep_events_loop`` is the per-sample scan that the sweep's array
classifier replaced; the sweep must report the same events in the same order.
``det_signed_log`` calls LAPACK and decides zero by a bound on the
smallest singular value, not by a pivot threshold; on nonsingular inputs
it agrees with the unblocked LU to rounding (same sign, log magnitude to a
relative 1e-12).
"""

import itertools
import math

import numpy as np

from matguard.bialternate import pair_list
from matguard.core import PIVOT_RTOL, GuardianValue, as_matrix, as_square, maxabs
from matguard.ode import (
    check_skew_basis_columns,
    check_skew_reduction,
    check_symmetric_reduction,
    matrix_ode_rk4,
)
from matguard.representations import GuardianMapKind, apply_rho, contragradient, lie_bracket
from matguard.schlaflian import MonomialBasis
from matguard.sweep import Crossing
from matguard.verify import ODE_TIMES, _Check, _moderate_matrix, _summarize


def det_signed_log_unblocked(a, zero_scale=None) -> GuardianValue:
    """Unblocked right-looking LU with partial pivoting, one rank-1 update per step."""
    m = as_square(a, "a")
    n = m.shape[0]
    ref = maxabs(m) if zero_scale is None else float(zero_scale)
    threshold = PIVOT_RTOL * ref
    sign = 1
    log_magnitude = 0.0
    for k in range(n):
        p = k + int(np.argmax(np.abs(m[k:, k])))
        pivot = m[p, k]
        if pivot == 0.0 or abs(pivot) < threshold:
            return GuardianValue(0, float("-inf"))
        if p != k:
            m[[k, p], :] = m[[p, k], :]
            sign = -sign
        if pivot < 0.0:
            sign = -sign
        log_magnitude += math.log(abs(pivot))
        if k + 1 < n:
            m[k + 1 :, k] /= pivot
            m[k + 1 :, k + 1 :] -= np.outer(m[k + 1 :, k], m[k, k + 1 :])
    return GuardianValue(sign, log_magnitude)


def det_bareiss(a) -> int:
    """Exact determinant of an integer-valued square matrix: fraction-free
    (Bareiss) elimination over Python ints, in which every division is
    exact.  The empty matrix has determinant 1."""
    entries = np.asarray(a).tolist()
    m = [[int(x) for x in row] for row in entries]
    assert m == entries, "entries must be integers"
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def add_compound_loop(a, k: int) -> np.ndarray:
    """k-additive compound by the entrywise diagonal-sum / single-entry rule."""
    m = as_square(a, "a")
    n = m.shape[0]
    if k == 1:
        return m.copy()
    subsets = list(itertools.combinations(range(n), k))
    r = len(subsets)
    out = np.zeros((r, r))
    for i, rows in enumerate(subsets):
        row_set = set(rows)
        for j, cols in enumerate(subsets):
            if rows == cols:
                out[i, j] = sum(m[v, v] for v in rows)
                continue
            extra_row = row_set - set(cols)
            if len(extra_row) != 1:
                continue
            (u,) = extra_row
            (v,) = set(cols) - row_set
            sign = (-1) ** (rows.index(u) + cols.index(v))
            out[i, j] = sign * m[u, v]
    return out


def _minor_det(sub: np.ndarray) -> float:
    # Closed forms for tiny minors; LU (numpy det) above k = 3.
    k = sub.shape[0]
    if k == 1:
        return float(sub[0, 0])
    if k == 2:
        return float(sub[0, 0] * sub[1, 1] - sub[0, 1] * sub[1, 0])
    if k == 3:
        return float(
            sub[0, 0] * (sub[1, 1] * sub[2, 2] - sub[1, 2] * sub[2, 1])
            - sub[0, 1] * (sub[1, 0] * sub[2, 2] - sub[1, 2] * sub[2, 0])
            + sub[0, 2] * (sub[1, 0] * sub[2, 1] - sub[1, 1] * sub[2, 0])
        )
    return float(np.linalg.det(sub))


def mult_compound_loop(a, k: int) -> np.ndarray:
    """k-multiplicative compound, one minor per call."""
    m = as_matrix(a, "a")
    n_rows, n_cols = m.shape
    if k == 1:
        return m.copy()
    row_sets = list(itertools.combinations(range(n_rows), k))
    col_sets = list(itertools.combinations(range(n_cols), k))
    out = np.empty((len(row_sets), len(col_sets)))
    for i, rows in enumerate(row_sets):
        block = m[rows, :]
        for j, cols in enumerate(col_sets):
            out[i, j] = _minor_det(block[:, cols])
    return out


def bialternate_sum_self_loop(a) -> np.ndarray:
    """Bialternate sum from the four-delta rule, one entry at a time."""
    m = as_square(a, "a")
    pairs = pair_list(m.shape[0])
    r = len(pairs)
    out = np.empty((r, r))
    for x, (p, q) in enumerate(pairs):
        for y, (rr, s) in enumerate(pairs):
            out[x, y] = (
                m[p - 1, rr - 1] * (q == s)
                + m[q - 1, s - 1] * (p == rr)
                - m[p - 1, s - 1] * (q == rr)
                - m[q - 1, rr - 1] * (p == s)
            )
    return out


def kron_sum_self_loop(a) -> np.ndarray:
    """Kronecker sum A (x) I + I (x) A, one term at a time onto +0.0."""
    m = as_square(a, "a")
    n = m.shape[0]
    out = np.zeros((n * n, n * n))
    for i1, i2, j1, j2 in itertools.product(range(n), repeat=4):
        if i2 == j2:
            out[i1 * n + i2, j1 * n + j2] += m[i1, j1]
        if i1 == j1:
            out[i1 * n + i2, j1 * n + j2] += m[i2, j2]
    return out


def lower_schlaflian_loop(a, p: int) -> np.ndarray:
    """L_p(A) by differentiating each monomial one factor at a time."""
    m = as_square(a, "a")
    n = m.shape[0]
    basis = MonomialBasis(n, p)
    r = len(basis)
    out = np.zeros((r, r))
    for row, ms in enumerate(basis.multisets):
        for t in range(p):
            rest = ms[:t] + ms[t + 1 :]
            for j in range(1, n + 1):
                out[row, basis.index_of(rest + (j,))] += m[ms[t] - 1, j - 1]
    return out


def upper_schlaflian_loop(a, p: int) -> np.ndarray:
    """U_p(A) by expanding prod_t (Az)_{i_t} over all n^p column choices,
    accumulating each product of entries into the column of its monomial."""
    m = as_square(a, "a")
    n = m.shape[0]
    basis = MonomialBasis(n, p)
    out = np.zeros((len(basis), len(basis)))
    for row, ms in enumerate(basis.multisets):
        for cols in itertools.product(range(1, n + 1), repeat=p):
            coeff = 1.0
            for i, j in zip(ms, cols):
                coeff *= m[i - 1, j - 1]
            out[row, basis.index_of(cols)] += coeff
    return out


def _suite_brackets(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    checks = []
    for kind in GuardianMapKind:
        direct = _Check(f"bracket_{kind.value}", 1e-10)
        contra = _Check(f"bracket_{kind.value}_contragradient", 1e-10)
        for trial in range(trials):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            br = lie_bracket(a, b)
            ra, rb = apply_rho(kind, a), apply_rho(kind, b)
            scale = max(1.0, maxabs(ra) * maxabs(rb))
            direct.record(maxabs(apply_rho(kind, br) - lie_bracket(ra, rb)),
                          scale, trial=trial)
            ca, cb = contragradient(kind, a), contragradient(kind, b)
            contra.record(
                maxabs(contragradient(kind, br) - lie_bracket(ca, cb)),
                scale, trial=trial)
        checks.append(direct)
        checks.append(contra)
    return _summarize("brackets", n, trials, seed, checks)


def _suite_ode(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    sym_flow = _Check("symmetric_reduction_two_path", 1e-7)
    skew_flow = _Check("skew_reduction_two_path", 1e-7)
    sym_keep = _Check("rk4_preserves_symmetry", 1e-9)
    skew_keep = _Check("rk4_preserves_skew_symmetry", 1e-9)
    for trial in range(trials):
        a = _moderate_matrix(rng, n)
        x = rng.standard_normal((n, n))
        x_sym = 0.5 * (x + x.T)
        x_skew = 0.5 * (x - x.T)
        for t in ODE_TIMES:
            sym_flow.record(check_symmetric_reduction(a, x_sym, t), trial=trial, t=t)
            skew_flow.record(check_skew_reduction(a, x_skew, t), trial=trial, t=t)
        end_sym = matrix_ode_rk4(a, x_sym, 1.0, 64)
        sym_keep.record(maxabs(end_sym - end_sym.T),
                        max(1.0, maxabs(end_sym)), trial=trial)
        end_skew = matrix_ode_rk4(a, x_skew, 1.0, 64)
        skew_keep.record(maxabs(end_skew + end_skew.T),
                         max(1.0, maxabs(end_skew)), trial=trial)
    return _summarize("ode", n, trials, seed,
                      [sym_flow, skew_flow, sym_keep, skew_keep])


def _suite_skew_basis(n: int, trials: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    check = _Check("skew_basis_columns", 1e-11)
    for trial in range(trials):
        a = rng.standard_normal((n, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                check.record(check_skew_basis_columns(a, i, j), trial=trial, pair=[i, j])
    return _summarize("lemma1", n, trials, seed, [check])


def sweep_events_loop(theta, signs, max_re_lambda, locate, refine: bool) -> tuple:
    """(crossings, touches) of a grid: its thetas, the signs of
    det(A) det(A^[2]) and the abscissae there, one sample at a time.
    ``locate(lo, hi)`` gives a sign-change bracket's (theta, width,
    max_re_lambda)."""
    crossings, touches = [], []
    for i, t in enumerate(theta):
        left = signs[i - 1] if i > 0 else 0
        right = signs[i + 1] if i + 1 < len(signs) else 0
        if signs[i] == 0:
            grazing = left != 0 and left == right
            event = Crossing(theta=t, lo=t, hi=t, width=0.0,
                             detection="grazing" if grazing else "grid_zero",
                             refined=not grazing, max_re_lambda=max_re_lambda[i])
            (touches if grazing else crossings).append(event)
        elif signs[i] * right == -1:
            star, width, alpha = locate(t, theta[i + 1])
            crossings.append(Crossing(theta=star, lo=t, hi=theta[i + 1], width=width,
                                      detection="sign_change", refined=refine,
                                      max_re_lambda=alpha))
    return crossings, touches
