"""The splitting R^n (x) R^n = Sym^2 (+) Lambda^2 of the Kronecker sum.

A acts on R^n (x) R^n as the derivation A (+) A, which preserves the
symmetric and the antisymmetric tensors.  In an orthonormal basis adapted
to the splitting, A (+) A is block diagonal: the Sym^2 block is the lower
Schlaflian L_2(A) up to the diagonal rescaling D of its basis, and the
Lambda^2 block is the additive compound A^[2] (Fulton & Harris,
*Representation Theory*, section 8).  Hence the determinant identities
det(A (+) A) = det L_2 * det A^[2] and det L_2 = 2^n det A * det A^[2].
"""

import itertools

import numpy as np
import pytest

from matguard.compound import add_compound
from matguard.kron import kron_sum_self
from matguard.schlaflian import lower_schlaflian

SQRT2 = np.sqrt(2.0)


def splitting_basis(n):
    """Orthonormal Q: the Sym^2 columns in multiset order, then Lambda^2."""
    eye = np.eye(n * n)

    def e(i, j):
        return eye[:, i * n + j]

    sym = [
        e(i, i) if i == j else (e(i, j) + e(j, i)) / SQRT2
        for i, j in itertools.combinations_with_replacement(range(n), 2)
    ]
    alt = [(e(i, j) - e(j, i)) / SQRT2 for i, j in itertools.combinations(range(n), 2)]
    return np.column_stack(sym + alt)


def sym_scaling(n):
    """D = diag(1 for i = j, sqrt 2 for i < j) over the Sym^2 pairs."""
    pairs = itertools.combinations_with_replacement(range(n), 2)
    return np.diag([1.0 if i == j else SQRT2 for i, j in pairs])


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_kron_sum_splits_into_schlaflian_and_compound_blocks(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    q = splitting_basis(n)
    d = sym_scaling(n)
    l2, a2 = lower_schlaflian(a, 2), add_compound(a, 2)
    expected = np.zeros((n * n, n * n))
    r = len(d)
    expected[:r, :r] = d @ l2 @ np.linalg.inv(d)
    expected[r:, r:] = a2
    got = q.T @ kron_sum_self(a) @ q
    assert np.max(np.abs(got - expected)) <= 1e-13 * max(1.0, np.max(np.abs(a)))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_kron_sum_determinant_factors(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    s_kron, log_kron = np.linalg.slogdet(kron_sum_self(a))
    s_l2, log_l2 = np.linalg.slogdet(lower_schlaflian(a, 2))
    s_a2, log_a2 = np.linalg.slogdet(add_compound(a, 2))
    s_a, log_a = np.linalg.slogdet(a)
    assert s_kron == s_l2 * s_a2
    assert abs(log_kron - (log_l2 + log_a2)) <= 1e-12
    assert s_l2 == s_a * s_a2
    assert abs(log_l2 - (n * np.log(2.0) + log_a + log_a2)) <= 1e-12
