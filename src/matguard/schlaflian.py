"""Upper and lower Schlaflian matrices (the power transformation).

The upper Schlaflian U_p(A) represents the action of A on the vector
s_p(z) of degree-p monomials: s_p(Az) = U_p(A) s_p(z).  The lower
Schlaflian L_p(A) is its infinitesimal version: along dz/dt = Az the
monomial vector satisfies d/dt s_p(z) = L_p(A) s_p(z), equivalently
L_p(A) = d/dt U_p(e^{At}) at t = 0.  Both are built exactly, never by
numerical differencing, on the count-vector ranking of Sym^p R^n that
the additive compound uses for Lambda^k R^n: U_p degree by degree, L_p
as A acting as a derivation through the shared index table.
"""

from __future__ import annotations

import math

import numpy as np

from .compound import _derivation_table, _key_weights, _subsets
from .core import as_square, check_size

__all__ = ["MonomialBasis", "lower_schlaflian", "s_p_eval", "upper_schlaflian"]


class MonomialBasis:
    """Ordered degree-p monomials in n variables.

    Monomials are listed via the nondecreasing index multisets
    (i1 <= ... <= ip) in lexicographic order, which for n = 2, p = 2
    yields (z1^2, z1*z2, z2^2).  ``exponents`` holds the matching
    exponent vectors (p1,...,pn) with sum p; the count is C(n+p-1, p).
    """

    def __init__(self, n: int, p: int):
        if n < 1 or p < 1:
            raise ValueError(f"need n >= 1 and p >= 1, got n={n}, p={p}")
        self.n = n
        self.p = p
        size = math.comb(n + p - 1, p)
        check_size(n, size, size)
        self._tuples = _subsets(n, p, repeat=True)
        self.multisets = [tuple(ms) for ms in (self._tuples + 1).tolist()]
        self._index = {ms: i for i, ms in enumerate(self.multisets)}

    def __len__(self) -> int:
        return len(self.multisets)

    @property
    def exponents(self):
        counts = np.zeros((len(self), self.n), dtype=np.int64)
        np.add.at(counts, (np.arange(len(self))[:, None], self._tuples), 1)
        return [tuple(e) for e in counts.tolist()]

    def index_of(self, multiset) -> int:
        return self._index[tuple(sorted(multiset))]


def s_p_eval(basis: MonomialBasis, z) -> np.ndarray:
    """Evaluate the monomial vector s_p(z) in basis order."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != basis.n:
        raise ValueError(f"z has length {z.size}, expected {basis.n}")
    return np.prod(z[basis._tuples], axis=1)


def upper_schlaflian(a, p: int) -> np.ndarray:
    """U_p(A): s_p(Az) = U_p(A) s_p(z) for all z.

    Built degree by degree from U_1 = A.  Row S = (S', i) of U_q expands
    s_{q-1}(Az)_{S'} * (Az)_i: each product U_{q-1}[S', T'] * a[i, j] is
    scatter-added onto +0.0, in the order row, T', j, into the column of
    the multiset T' + j, ranked by the count-vector keys of the index
    table.  The multinomial coefficients (e.g. the 2 in 2*a11*a12 for
    n = p = 2) arise from this accumulation.  The n * C(n+q-1, q) *
    C(n+q-2, q-1) terms of all levels q pass ``check_size`` before level 2
    is built.
    """
    m = as_square(a, "a")
    n = m.shape[0]
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    r = math.comb(n + p - 1, p)
    check_size(n, r, r)
    terms = 0
    for q in range(2, p + 1):
        level = n * math.comb(n + q - 1, q) * math.comb(n + q - 2, q - 1)
        terms += level
        check_size(n, terms + (p - q) * level, 1)  # no later level is smaller
    weight = _key_weights(n, p + 1)
    out, last, key = m, np.arange(n), weight
    for _ in range(p - 1):
        # Level q's rows, already lexicographic: each S' followed by every i >= last(S').
        parent, last = np.nonzero(last[:, None] <= np.arange(n))
        prev_key, key = key, key[parent] + weight[last]
        cols = np.searchsorted(key, prev_key[:, None] + weight)  # column of T' + j
        dst = cols + np.arange(0, key.size**2, key.size)[:, None, None]
        products = out[parent][:, :, None] * m[last][:, None, :]
        out = np.zeros((key.size, key.size))
        np.add.at(out.reshape(-1), dst.reshape(-1), products.reshape(-1))
    return out


def lower_schlaflian(a, p: int) -> np.ndarray:
    """L_p(A): exact linear part of U_p along the identity.

    Since U_p is a degree-p polynomial map, L_p(A) is the eps-linear
    coefficient of U_p(I + eps*A): differentiate the product
    prod_t z_{i_t} one factor at a time, replacing index i_t by j with
    weight a[i_t, j].  Terms are accumulated onto +0.0 in the order row,
    factor, replacement index, through the Sym^p index table.
    """
    m = as_square(a, "a")
    n = m.shape[0]
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    r = math.comb(n + p - 1, p)
    check_size(n, r, r)
    dst, src, _ = _derivation_table(n, p, False)
    out = np.zeros((r, r))
    np.add.at(out.reshape(-1), dst, m.reshape(-1)[src])
    return out
