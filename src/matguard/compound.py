"""Multiplicative and additive compound matrices.

The k-multiplicative compound collects all k-minors in lexicographic
order; the k-additive compound is its derivative along the identity and
is computed here by an exact combinatorial rule (no numerical
differencing): entry (I, J) is the trace restricted to I when I = J, a
single signed entry when I and J share all but one index, and zero
otherwise.
"""

from __future__ import annotations

import functools
import itertools
from math import comb

import numpy as np

from .core import MAX_N, as_matrix, as_square, maxabs

__all__ = [
    "LexIndex",
    "add_compound",
    "add_compound2_explicit",
    "cauchy_binet_residual",
    "mult_compound",
]

MAX_K = 12


class LexIndex:
    """Bijection between k-subsets of {1..n} and flat indices.

    Subsets are strictly increasing k-tuples of 1-based indices, ordered
    lexicographically; ranks are computed combinatorially rather than
    through a lookup table.
    """

    def __init__(self, n: int, k: int):
        if not 1 <= k <= n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
        if n > MAX_N:
            raise ValueError(f"n={n} exceeds the n <= {MAX_N} guard")
        self.n = n
        self.k = k
        self.length = comb(n, k)

    def __len__(self) -> int:
        return self.length

    def subsets(self):
        """All k-subsets as 1-based tuples, lexicographic."""
        return list(itertools.combinations(range(1, self.n + 1), self.k))

    def rank(self, subset) -> int:
        s = tuple(subset)
        if len(s) != self.k or any(not 1 <= v <= self.n for v in s):
            raise ValueError(f"not a k-subset of 1..{self.n}: {s}")
        if any(s[i] >= s[i + 1] for i in range(len(s) - 1)):
            raise ValueError(f"subset must be strictly increasing: {s}")
        r = 0
        prev = 0
        for t, v in enumerate(s):
            for j in range(prev + 1, v):
                r += comb(self.n - j, self.k - t - 1)
            prev = v
        return r

    def unrank(self, index: int):
        if not 0 <= index < self.length:
            raise ValueError(f"index {index} out of range 0..{self.length - 1}")
        out = []
        prev = 0
        remaining = index
        for t in range(self.k):
            v = prev + 1
            while True:
                block = comb(self.n - v, self.k - t - 1)
                if remaining < block:
                    break
                remaining -= block
                v += 1
            out.append(v)
            prev = v
        return tuple(out)


def _check_k(k: int, limit: int) -> None:
    if limit > MAX_N:
        raise ValueError(f"dimension {limit} exceeds the n <= {MAX_N} guard")
    if not 1 <= k <= limit:
        raise ValueError(f"need 1 <= k <= {limit}, got k={k}")
    if k > MAX_K:
        raise ValueError(f"k={k} exceeds the k <= {MAX_K} guard")


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


def mult_compound(a, k: int) -> np.ndarray:
    """k-multiplicative compound: all k-minors, lexicographic.

    Result is C(rows,k) x C(cols,k); entry (I, J) is the determinant of
    the submatrix with rows I and columns J.
    """
    m = as_matrix(a, "a")
    n_rows, n_cols = m.shape
    _check_k(k, min(n_rows, n_cols))
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


@functools.lru_cache(maxsize=32)
def _add_compound_table(n: int, k: int):
    """Index table of the k-additive compound of an n x n matrix.

    Returns ``(diag_src, dst, src, sign)``: ``diag_src[:, t]`` is the flat
    position in A of the t-th diagonal term of each diagonal entry, and
    each off-diagonal entry ``dst`` (flat, in the output) is
    ``sign * A.flat[src]``.  Subsets are ranked lexicographically; a
    subset J that replaces u in I by v is found through its bitmask.
    """
    subsets = np.array(list(itertools.combinations(range(n), k)), dtype=np.int64)
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
    _check_k(k, n)
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


def add_compound2_explicit(a) -> np.ndarray:
    """2-additive compound from the explicit four-delta entry rule.

    Entry ((i1,i2), (j1,j2)) is
    ``d(i1,j1) a[i2,j2] + d(i2,j2) a[i1,j1] - d(i1,j2) a[i2,j1]
    - d(i2,j1) a[i1,j2]`` with d the Kronecker delta; pairs run over the
    lexicographic 2-subsets.  Independent of :func:`add_compound` and
    used to cross-check it.
    """
    m = as_square(a, "a")
    n = m.shape[0]
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    pairs = list(itertools.combinations(range(n), 2))
    r = len(pairs)
    out = np.empty((r, r))
    for x, (i1, i2) in enumerate(pairs):
        for y, (j1, j2) in enumerate(pairs):
            out[x, y] = (
                (i1 == j1) * m[i2, j2]
                + (i2 == j2) * m[i1, j1]
                - (i1 == j2) * m[i2, j1]
                - (i2 == j1) * m[i1, j2]
            )
    return out


def cauchy_binet_residual(a, b, k: int) -> float:
    """Max-abs of (AB)^(k) - A^(k) B^(k); a property harness."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} @ {b.shape}")
    _check_k(k, min(a.shape[0], a.shape[1], b.shape[1]))
    lhs = mult_compound(a @ b, k)
    rhs = mult_compound(a, k) @ mult_compound(b, k)
    return maxabs(lhs - rhs)
