import itertools
import math
import tracemalloc

import numpy as np
import pytest

from matguard.core import expm, match_spectra, maxabs, norm1, spectrum
from matguard.schlaflian import (
    MonomialBasis,
    lower_schlaflian,
    s_p_eval,
    upper_schlaflian,
)


def test_basis_ordering_n2_p2():
    basis = MonomialBasis(2, 2)
    assert basis.multisets == [(1, 1), (1, 2), (2, 2)]
    assert basis.exponents == [(2, 0), (1, 1), (0, 2)]
    assert len(basis) == 3
    assert basis.index_of((2, 1)) == 1  # sorted before lookup


def test_basis_size_is_multiset_count():
    for n, p in [(2, 3), (3, 2), (4, 3)]:
        assert len(MonomialBasis(n, p)) == math.comb(n + p - 1, p)


def test_basis_guards():
    with pytest.raises(ValueError):
        MonomialBasis(0, 2)
    with pytest.raises(ValueError):
        MonomialBasis(3, 0)
    with pytest.raises(ValueError):
        MonomialBasis(100, 5)  # over the size cap


def test_s_p_eval_golden():
    basis = MonomialBasis(2, 2)
    assert np.array_equal(s_p_eval(basis, [2.0, 3.0]), [4.0, 6.0, 9.0])
    with pytest.raises(ValueError):
        s_p_eval(basis, [1.0, 2.0, 3.0])


def test_upper_schlaflian_2x2_golden():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = upper_schlaflian(a, 2)
    expected = np.array(
        [
            [1 * 1, 2 * 1 * 2, 2 * 2],
            [1 * 3, 1 * 4 + 2 * 3, 2 * 4],
            [3 * 3, 2 * 3 * 4, 4 * 4],
        ],
        dtype=float,
    )
    assert np.array_equal(got, expected)


def test_lower_schlaflian_2x2_golden():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    got = lower_schlaflian(a, 2)
    expected = np.array(
        [
            [2 * 1, 2 * 2, 0.0],
            [3.0, 1 + 4, 2.0],
            [0.0, 2 * 3, 2 * 4],
        ]
    )
    assert np.array_equal(got, expected)


def test_upper_schlaflian_represents_monomial_action():
    # s_p(Az) = U_p(A) s_p(z), checked pointwise at random z.
    rng = np.random.default_rng(12)
    for n, p in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]:
        a = rng.standard_normal((n, n))
        basis = MonomialBasis(n, p)
        up = upper_schlaflian(a, p)
        for _ in range(5):
            z = rng.standard_normal(n)
            lhs = s_p_eval(basis, a @ z)
            rhs = up @ s_p_eval(basis, z)
            assert np.allclose(lhs, rhs, atol=1e-10 * max(1.0, maxabs(lhs)))


@pytest.mark.parametrize("p", [2, 3])
def test_upper_schlaflian_multiplicative(p):
    rng = np.random.default_rng(13 + p)
    for _ in range(10):
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        ua, ub = upper_schlaflian(a, p), upper_schlaflian(b, p)
        uab = upper_schlaflian(a @ b, p)
        scale = max(1.0, maxabs(ua) * maxabs(ub))
        assert maxabs(uab - ua @ ub) <= 1e-9 * scale


def test_upper_schlaflian_of_identity():
    for n, p in [(2, 2), (3, 2), (3, 3)]:
        dim = math.comb(n + p - 1, p)
        assert np.array_equal(upper_schlaflian(np.eye(n), p), np.eye(dim))


def test_lower_schlaflian_is_derivative_of_upper():
    # (U_p(e^{Ah}) - I)/h -> L_p(A); forward difference at h = 1e-6.
    rng = np.random.default_rng(14)
    for n, p in [(2, 2), (3, 2), (3, 3), (4, 2)]:
        a = rng.standard_normal((n, n))
        h = 1e-6
        up = upper_schlaflian(expm(a, h), p)
        fd = (up - np.eye(up.shape[0])) / h
        assert maxabs(fd - lower_schlaflian(a, p)) <= 1e-4


def test_lower_schlaflian_eigenvalues_are_multiset_sums():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((4, 4))
    lam = spectrum(a)
    expected = [
        sum(lam[i - 1] for i in ms)
        for ms in itertools.combinations_with_replacement(range(1, 5), 2)
    ]
    tol = 1e-7 * (1.0 + norm1(a))
    worst = match_spectra(spectrum(lower_schlaflian(a, 2)), expected, tol)
    assert worst <= tol


def test_lower_schlaflian_linear():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    lhs = lower_schlaflian(a + b, 2)
    rhs = lower_schlaflian(a, 2) + lower_schlaflian(b, 2)
    assert maxabs(lhs - rhs) <= 1e-13


def test_schlaflian_p_guard():
    with pytest.raises(ValueError):
        upper_schlaflian(np.eye(2), 0)
    with pytest.raises(ValueError):
        lower_schlaflian(np.eye(2), -1)


def test_lower_schlaflian_table_guard_refuses_before_allocating():
    # n = 2, p = 4999: the 5000 x 5000 output is within the guard, but its
    # index table of 5000 x 4999 x 2 terms is not.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="entry guard"):
            lower_schlaflian(np.ones((2, 2)), 4999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_large_index_table_is_not_retained_after_the_call():
    # n = 2, p = 1000: a 2M-term Sym^p table (32 MB) is built for this call
    # only; tables past the guardian kinds' sizes are not cached.
    tracemalloc.start()
    try:
        lower_schlaflian(np.ones((2, 2)), 1000)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1 << 20


def test_upper_schlaflian_of_all_ones_is_binomial():
    # (z1 + z2)^40 in every row: column T holds C(40, t), t = the 1s in T.
    # Every partial sum is an integer below 2**53, so the build is exact.
    got = upper_schlaflian(np.ones((2, 2)), 40)
    basis = MonomialBasis(2, 40)
    row = [math.comb(40, ms.count(1)) for ms in basis.multisets]
    assert np.array_equal(got, np.tile(row, (len(basis), 1)))


def test_upper_schlaflian_term_guard_refuses_before_expanding():
    # n = 2, p = 4999: the 5000 x 5000 output is within the guard, but the
    # recursion's 8.3e10 terms up to degree 4999 are not.
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="entry guard"):
            upper_schlaflian(np.ones((2, 2)), 4999)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
