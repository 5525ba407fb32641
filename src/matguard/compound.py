"""Multiplicative and additive compound matrices.

The k-multiplicative compound collects all k-minors in lexicographic
order; the k-additive compound is its derivative along the identity and
is computed here by an exact combinatorial rule (no numerical
differencing): entry (I, J) is the trace restricted to I when I = J, a
single signed entry when I and J share all but one index, and zero
otherwise.  That rule is A acting as a derivation on Lambda^k R^n; one
index table of this action (cached for k <= 2, the guardian kinds'
sizes) serves add_k here and, on Sym^p R^n, the lower Schlaflian L_p.
Both compounds take one matrix or a stack (..., rows, cols), square for
add_k, and pass their C(n, k)-sized output through ``core.check_size``
before allocating it.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

import numpy as np

from .core import _checked, as_matrix, check_size, maxabs

__all__ = ["add_compound", "cauchy_binet_residual", "mult_compound"]

# Most entries of one k x k stack of minors (2 MB).
_STACK_ENTRIES = 1 << 18


def _check_k(k: int, rows: int, cols: int) -> None:
    n = min(rows, cols)
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    check_size(n, comb(rows, k), comb(cols, k))


def _subsets(n: int, k: int, repeat: bool = False) -> np.ndarray:
    """All k-subsets of range(n) (k-multisets if ``repeat``), lexicographic, one per row."""
    pick = itertools.combinations_with_replacement if repeat else itertools.combinations
    flat = itertools.chain.from_iterable(pick(range(n), k))
    return np.fromiter(flat, dtype=np.int64).reshape(-1, k)


@np.errstate(over="ignore", invalid="ignore")  # a minor past float range reads inf or nan
def mult_compound(a, k: int) -> np.ndarray:
    """k-multiplicative compound: all k-minors, lexicographic, of one matrix
    or of each member of a stack (..., rows, cols).

    Result is C(rows,k) x C(cols,k); entry (I, J) is the determinant of
    the submatrix with rows I and columns J.  The minors are evaluated
    over blocks of whole row sets (or, for wide inputs, one row set and a
    run of column sets) of every member, each a stack of at most
    ``_STACK_ENTRIES`` entries or one (I, J) pair of every member: closed
    forms for k <= 3, LU (numpy det) above.
    """
    stack = _checked(a, "a", stack=True)
    *lead, n_rows, n_cols = stack.shape
    _check_k(k, n_rows, n_cols)
    if k == 1:
        return stack
    m = stack.reshape(-1, n_rows, n_cols)
    row_sets = _subsets(n_rows, k)
    col_sets = _subsets(n_cols, k)
    out = np.empty((len(m), len(row_sets), len(col_sets)))
    step = max(1, _STACK_ENTRIES // (k * k * len(m)))  # (I, J) pairs per stack
    n_i = max(1, step // len(col_sets))
    n_j = min(step, len(col_sets))
    for i, j in itertools.product(range(0, len(row_sets), n_i), range(0, len(col_sets), n_j)):
        # s[:, r, c] = m[:, row_sets[i + r]][..., col_sets[j + c]]
        s = m[:, row_sets[i : i + n_i]][..., col_sets[j : j + n_j]].transpose(0, 1, 3, 2, 4)
        block = out[:, i : i + n_i, j : j + n_j]
        if k == 2:
            block[...] = s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
        elif k == 3:
            block[...] = (
                s[..., 0, 0] * (s[..., 1, 1] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 1])
                - s[..., 0, 1] * (s[..., 1, 0] * s[..., 2, 2] - s[..., 1, 2] * s[..., 2, 0])
                + s[..., 0, 2] * (s[..., 1, 0] * s[..., 2, 1] - s[..., 1, 1] * s[..., 2, 0])
            )
        else:
            block[...] = np.linalg.det(s)
    return out.reshape(*lead, len(row_sets), len(col_sets))


def _cached_up_to_k2(build):
    """Cache ``build(n, k, ...)`` for k <= 2, the tables the guardian kinds
    use (at most 33,792 terms, as n <= MAX_N); build the others per call,
    so the cache never holds a large table."""
    cached = functools.lru_cache(maxsize=32)(build)

    @functools.wraps(build)
    def table(n: int, k: int, *rest):
        return (cached if k <= 2 else build)(n, k, *rest)

    return table


def _key_weights(n: int, base: int) -> np.ndarray:
    """Negated base-``base`` place values: ``weight[s].sum()`` ranks tuples s."""
    return -(base ** (n - 1 - np.arange(n)))


@_cached_up_to_k2
def _derivation_table(n: int, k: int, alternating: bool):
    """Terms ``(dst, src, sign)`` of A acting as a derivation on the
    increasing k-tuples of range(n) (Lambda^k, if ``alternating``) or the
    nondecreasing ones (Sym^k), lexicographic.

    For row tuple S, factor t and index j, ``sign * A.flat[src]`` goes to
    ``out.flat[dst]``, the column of S with S_t replaced by j, in the
    order row, t, j.  Lambda^k terms carry the sign of the sort and drop
    repeated indices; Sym^k signs are +1.  A column is ranked by its
    count vector read in base 2 (Lambda^k) or k + 1 (Sym^k), index 0 most
    significant, negated so keys rise with the tuples; the rows x k x n
    terms pass ``check_size`` first, which keeps every key under 2**60.
    """
    rows = comb(n, k) if alternating else comb(n + k - 1, k)
    check_size(n, rows, k * n)
    s = _subsets(n, k, repeat=not alternating)[:, :, None]  # row, t, (j)
    j = np.arange(n)
    weight = _key_weights(n, 2 if alternating else k + 1)
    key = weight[s].sum(axis=1, keepdims=True)
    dst = np.searchsorted(key.reshape(-1), key - weight[s] + weight)
    dst += np.arange(0, rows * rows, rows)[:, None, None]
    src = s * n + j
    if not alternating:
        return _read_only(dst.reshape(-1), src.reshape(-1), np.broadcast_to(1.0, dst.size))
    keep = (s == j) | ~(s == j).any(axis=1, keepdims=True)
    pos = (s < j).sum(axis=1, keepdims=True) - (s < j)  # place of j in the column
    sign = np.where((np.arange(k)[:, None] + pos) % 2 == 0, 1.0, -1.0)
    return _read_only(dst[keep], src[keep], sign[keep])


@_cached_up_to_k2
def _add_compound_split(n: int, k: int):
    """The Lambda^k table as ``(src, dst, sign)``: ``src`` lists the diagonal
    terms, factor by factor over all rows, then the off-diagonal terms, which
    go to ``dst`` with ``sign``."""
    dst, src, sign = _derivation_table(n, k, True)
    on_diag = dst % (comb(n, k) + 1) == 0
    diag_src = src[on_diag].reshape(-1, k).T.reshape(-1)
    return _read_only(np.concatenate([diag_src, src[~on_diag]]), dst[~on_diag], sign[~on_diag])


def _read_only(*arrays):
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def add_compound(a, k: int) -> np.ndarray:
    """k-additive compound: first-order coefficient of (I + eps*A)^(k), of
    one matrix or of each member of a stack (..., n, n).

    Computed exactly: for subsets I, J the only k-minors of I + eps*A
    with a linear term are those where I and J differ in at most one
    index.  A^[1] = A and A^[n] = tr(A).  Diagonal entries are summed
    left to right over I onto +0.0; an off-diagonal entry is assigned
    a single signed entry of A, so -0.0 survives.  Both are gathered
    through the Lambda^k table shared with the lower Schlaflian, with the
    stack as the trailing axes, so a stack's result is a transposed view.
    """
    stack = _checked(a, "a", square=True, stack=True)
    *lead, n, _ = stack.shape
    _check_k(k, n, n)
    if k == 1:
        return stack
    r = comb(n, k)
    src, dst, sign = _add_compound_split(n, k)
    terms = stack.reshape(*lead, n * n).T[src]  # entry-major: the gather indexes the first axis
    diag = np.zeros(terms[:r].shape)
    with np.errstate(over="ignore"):  # a sum past float range reads inf, for the caller to refuse
        for t in range(k):
            diag = diag + terms[t * r:(t + 1) * r]
    out = np.zeros((r * r, *terms.shape[1:]))
    out[:: r + 1] = diag
    out[dst] = (sign * terms[k * r:].T).T
    return out.T.reshape(*lead, r, r)


def cauchy_binet_residual(a, b, k: int) -> float:
    """Max-abs of (AB)^(k) - A^(k) B^(k); a property harness."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    lhs = mult_compound(a @ b, k)
    rhs = mult_compound(a, k) @ mult_compound(b, k)
    return maxabs(lhs - rhs)
