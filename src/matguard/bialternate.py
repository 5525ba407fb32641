"""Bialternate sum of a matrix with itself.

Built from the ordered pair list
L(n) = (2,1),(3,1),...,(n,1),(3,2),...,(n,2),...,(n,n-1) and the
four-delta entry rule: with (p,q) at position x and (r,s) at position y,
entry (x,y) is a[p,r]d(q,s) + a[q,s]d(p,r) - a[p,s]d(q,r) - a[q,r]d(p,s).
Reversing each pair of L(n) gives exactly the lexicographic 2-subset
list in the same sequence, so the bialternate sum coincides entrywise
with the 2-additive compound; ``verify_bialt_equals_add2`` checks the identity.
This builder stays a separate rule on purpose: it is the independent
oracle of that identity (Prop. 4), sharing no index table with
``add_compound``.

No factor 1/2 is applied: some of the classical bialternate-product
literature carries one, but the entry rule above is what matches the
2-additive compound exactly.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .core import _checked, as_square, check_size, maxabs

__all__ = ["bialternate_sum_self", "pair_list", "verify_bialt_equals_add2"]


def pair_list(n: int):
    """The ordered list L(n) of 1-based pairs (p, q) with p > q."""
    if n < 2:
        raise ValueError(f"need n >= 2, got n={n}")
    return [(p, q) for q in range(1, n) for p in range(q + 1, n + 1)]


def _masked(m: np.ndarray, rows, cols, hit) -> np.ndarray:
    """m[..., rows, cols] * hit over the broadcast pair grid, in one buffer."""
    term = m[..., rows, cols]
    term *= hit
    return term


def bialternate_sum_self(a) -> np.ndarray:
    """Bialternate sum A <> A, a C(n,2) x C(n,2) matrix, of one matrix or of
    each member of a stack (..., n, n).

    The four-delta rule is evaluated for all entries at once by
    broadcasting the pair arrays, with its terms in the written order so
    outputs are bit-reproducible.
    """
    m = _checked(a, "a", square=True, stack=True)
    n = m.shape[-1]
    check_size(n, comb(n, 2), comb(n, 2))
    pq = np.array(pair_list(n)) - 1
    p, q = pq[:, 0, None], pq[:, 1, None]
    rr, s = pq[None, :, 0], pq[None, :, 1]
    out = _masked(m, p, rr, q == s)
    with np.errstate(over="ignore"):  # a sum past float range reads inf, for the caller to refuse
        out += _masked(m, q, s, p == rr)
        out -= _masked(m, p, s, q == rr)
        out -= _masked(m, q, rr, p == s)
    return out


def verify_bialt_equals_add2(a) -> float:
    """Max-abs difference between A <> A and the 2-additive compound.

    Both sides reduce to the same finite sums of entries, so the result
    is zero up to floating reassociation (exactly zero in practice).
    """
    from .compound import add_compound

    m = as_square(a, "a")  # n = 1 is refused by pair_list
    return maxabs(bialternate_sum_self(m) - add_compound(m, 2))
