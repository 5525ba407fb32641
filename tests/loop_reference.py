"""Loop implementations kept as references for the vectorised library code.

These are the element-by-element versions of the determinant and of the
rho builders.  The library builders must reproduce them bit for bit.
``upper_schlaflian_loop`` is the term-by-term multinomial expansion that
the degree-by-degree U_p replaced; that one sums in another order, so it
agrees to rounding (relative 1e-13), not bit for bit.
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
from matguard.schlaflian import MonomialBasis


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
