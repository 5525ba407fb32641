"""Upper and lower Schlaflian matrices (the power transformation).

The upper Schlaflian U_p(A) represents the action of A on the vector
s_p(z) of degree-p monomials: s_p(Az) = U_p(A) s_p(z).  The lower
Schlaflian L_p(A) is its infinitesimal version: along dz/dt = Az the
monomial vector satisfies d/dt s_p(z) = L_p(A) s_p(z), equivalently
L_p(A) = d/dt U_p(e^{At}) at t = 0.  Both are built here by exact
multinomial expansion, never by numerical differencing: L_p is A acting
as a derivation on Sym^p R^n, gathered through the index table the
additive compound uses for Lambda^k R^n.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .compound import _derivation_table
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
        self.multisets = list(
            itertools.combinations_with_replacement(range(1, n + 1), p)
        )
        self._index = {ms: i for i, ms in enumerate(self.multisets)}

    def __len__(self) -> int:
        return len(self.multisets)

    @property
    def exponents(self):
        out = []
        for ms in self.multisets:
            e = [0] * self.n
            for i in ms:
                e[i - 1] += 1
            out.append(tuple(e))
        return out

    def index_of(self, multiset) -> int:
        return self._index[tuple(sorted(multiset))]


def s_p_eval(basis: MonomialBasis, z) -> np.ndarray:
    """Evaluate the monomial vector s_p(z) in basis order."""
    z = np.asarray(z, dtype=float).reshape(-1)
    if z.size != basis.n:
        raise ValueError(f"z has length {z.size}, expected {basis.n}")
    out = np.empty(len(basis))
    for i, ms in enumerate(basis.multisets):
        v = 1.0
        for idx in ms:
            v *= z[idx - 1]
        out[i] = v
    return out


def upper_schlaflian(a, p: int) -> np.ndarray:
    """U_p(A): s_p(Az) = U_p(A) s_p(z) for all z.

    Row for the multiset (i1..ip) expands prod_t (Az)_{i_t} over all
    column choices, accumulating each product of entries into the column
    of the resulting monomial; the multinomial coefficients (e.g. the 2
    in 2*a11*a12 for n = p = 2) arise from this accumulation.  The r x n^p
    terms pass ``check_size`` before the expansion starts.
    """
    m = as_square(a, "a")
    n = m.shape[0]
    if p < 1:
        raise ValueError(f"need p >= 1, got p={p}")
    basis = MonomialBasis(n, p)
    r = len(basis)
    check_size(n, r, n**p)
    out = np.zeros((r, r))
    for row, ms in enumerate(basis.multisets):
        for cols in itertools.product(range(1, n + 1), repeat=p):
            coeff = 1.0
            for i, j in zip(ms, cols):
                coeff *= m[i - 1, j - 1]
            out[row, basis.index_of(cols)] += coeff
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
