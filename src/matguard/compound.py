"""Multiplicative and additive compound matrices.

The k-multiplicative compound collects all k-minors in lexicographic
order; the k-additive compound is its derivative along the identity and
is computed here by an exact combinatorial rule (no numerical
differencing): entry (I, J) is the trace restricted to I when I = J, a
single signed entry when I and J share all but one index, and zero
otherwise.  Both builders pass their C(n, k)-sized output through
``core.check_size`` before allocating it.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

import numpy as np

from .core import as_matrix, as_square, check_size, maxabs

__all__ = ["add_compound", "cauchy_binet_residual", "mult_compound"]


def _check_k(k: int, rows: int, cols: int) -> None:
    n = min(rows, cols)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    check_size(n, comb(rows, k), comb(cols, k))


def _subsets(n: int, k: int) -> np.ndarray:
    """All k-subsets of range(n), lexicographic, one per row."""
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), k))
    return np.fromiter(flat, dtype=np.int64, count=comb(n, k) * k).reshape(-1, k)


def mult_compound(a, k: int) -> np.ndarray:
    """k-multiplicative compound: all k-minors, lexicographic.

    Result is C(rows,k) x C(cols,k); entry (I, J) is the determinant of
    the submatrix with rows I and columns J.  The minors of one row set
    are evaluated as stacks of at most ``out.size`` entries: closed forms
    for k <= 3, LU (numpy det) above.
    """
    m = as_matrix(a, "a")
    n_rows, n_cols = m.shape
    _check_k(k, n_rows, n_cols)
    if k == 1:
        return m.copy()
    row_sets = _subsets(n_rows, k)
    col_sets = _subsets(n_cols, k)
    out = np.empty((len(row_sets), len(col_sets)))
    step = max(1, out.size // (k * k))
    for i, j in itertools.product(range(len(row_sets)), range(0, len(col_sets), step)):
        # s[c] = m[row_sets[i]][:, col_sets[j + c]]
        s = m[row_sets[i]][:, col_sets[j : j + step]].transpose(1, 0, 2)
        if k == 2:
            out[i, j : j + step] = s[:, 0, 0] * s[:, 1, 1] - s[:, 0, 1] * s[:, 1, 0]
        elif k == 3:
            out[i, j : j + step] = (
                s[:, 0, 0] * (s[:, 1, 1] * s[:, 2, 2] - s[:, 1, 2] * s[:, 2, 1])
                - s[:, 0, 1] * (s[:, 1, 0] * s[:, 2, 2] - s[:, 1, 2] * s[:, 2, 0])
                + s[:, 0, 2] * (s[:, 1, 0] * s[:, 2, 1] - s[:, 1, 1] * s[:, 2, 0])
            )
        else:
            out[i, j : j + step] = np.linalg.det(s)
    return out


@functools.lru_cache(maxsize=32)
def _add_compound_table(n: int, k: int):
    """Index table of the k-additive compound of an n x n matrix.

    Returns ``(diag_src, dst, src, sign)``: ``diag_src[:, t]`` is the flat
    position in A of the t-th diagonal term of each diagonal entry, and
    each off-diagonal entry ``dst`` (flat, in the output) is
    ``sign * A.flat[src]``.  Subsets are ranked lexicographically; a
    subset J that replaces u in I by v is found through its bitmask.
    """
    subsets = _subsets(n, k)
    r = len(subsets)
    masks = (np.int64(1) << subsets).sum(axis=1)
    by_mask = np.argsort(masks)
    # every subset I (row i) with every v outside it; J = I - {u} + {v}
    i, v = np.nonzero(((masks[:, None] >> np.arange(n)) & 1) == 0)
    below = np.sum(subsets[i] < v[:, None], axis=1)  # members of I below v
    dst, src, sign = [], [], []
    for t in range(k):
        u = subsets[i, t]
        j_mask = masks[i] - (np.int64(1) << u) + (np.int64(1) << v)
        j = by_mask[np.searchsorted(masks, j_mask, sorter=by_mask)]
        pos = below - (u < v)  # position of v in J
        dst.append(i * r + j)
        src.append(u * n + v)
        sign.append(np.where((t + pos) % 2 == 0, 1.0, -1.0))
    table = (subsets * (n + 1), np.concatenate(dst), np.concatenate(src),
             np.concatenate(sign))
    for arr in table:
        arr.setflags(write=False)
    return table


def add_compound(a, k: int) -> np.ndarray:
    """k-additive compound: first-order coefficient of (I + eps*A)^(k).

    Computed exactly: for subsets I, J the only k-minors of I + eps*A
    with a linear term are those where I and J differ in at most one
    index.  A^[1] = A and A^[n] = tr(A).  Diagonal entries are summed
    left to right over I; an off-diagonal entry is a single signed entry
    of A.  Both are gathered through a cached per-(n, k) index table.
    """
    m = as_square(a, "a")
    n = m.shape[0]
    _check_k(k, n, n)
    if k == 1:
        return m.copy()
    r = comb(n, k)
    out = np.zeros((r, r))
    diag_src, dst, src, sign = _add_compound_table(n, k)
    flat = m.reshape(-1)
    diag = np.zeros(r)
    for t in range(k):
        diag = diag + flat[diag_src[:, t]]
    np.fill_diagonal(out, diag)
    np.put(out, dst, sign * flat[src])
    return out


def cauchy_binet_residual(a, b, k: int) -> float:
    """Max-abs of (AB)^(k) - A^(k) B^(k); a property harness."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    lhs = mult_compound(a @ b, k)
    rhs = mult_compound(a, k) @ mult_compound(b, k)
    return maxabs(lhs - rhs)
