"""The Kronecker self-sum A (+) A, A acting as a derivation on R^n (x) R^n.

Its rows and columns are indexed by ROW-stacking vec (rows concatenated
one after the other, ``x.reshape(-1)``).  Under this convention the flow
of dX/dt = AX + XA' is governed by the Kronecker sum:
vec(AX + XA') = (A (+) A) vec(X).  The common column-stacking convention
would swap the two Kronecker factors of the individual terms but leaves
the sum unchanged.  No Kronecker product is formed.
"""

from __future__ import annotations

import numpy as np

from .core import _checked, check_size

__all__ = ["kron_sum_self"]


def kron_sum_self(a) -> np.ndarray:
    """Kronecker sum of a with itself: A (x) I + I (x) A, size n^2, of one
    matrix or of each member of a stack (..., n, n).

    Entry (i1 n + i2, j1 n + j2) is a[i1, j1] [i2 = j2] + [i1 = j1] a[i2, j2],
    added onto +0.0 in that order by two index-adds into one buffer.
    """
    a = _checked(a, "a", square=True, stack=True)
    *lead, n, _ = a.shape
    check_size(n, n * n, n * n)
    out = np.zeros((*lead, n * n, n * n))
    blocks = out.reshape(*lead, n, n, n, n)  # [..., i1, i2, j1, j2]
    k = np.arange(n)
    with np.errstate(over="ignore"):  # a sum past float range reads inf, for the caller to refuse
        blocks[..., :, k, :, k] += a  # [i2 = j2 = k, ..., i1, j1]
        blocks[..., k, :, k, :] += a  # [i1 = j1 = k, ..., i2, j2]
    return out
