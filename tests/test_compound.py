import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matguard.compound import add_compound, cauchy_binet_residual, mult_compound
from matguard.core import match_spectra, maxabs, norm1, spectrum


# ---------------------------------------------------------------- oracles


def leibniz_det(a):
    """Sum over permutations; exact up to rounding, independent of LU."""
    n = a.shape[0]
    total = 0.0
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term = (-1) ** inversions
        for i in range(n):
            term *= a[i, perm[i]]
        total += term
    return total


def mult_compound_oracle(a, k):
    rows = list(itertools.combinations(range(a.shape[0]), k))
    cols = list(itertools.combinations(range(a.shape[1]), k))
    out = np.empty((len(rows), len(cols)))
    for i, r in enumerate(rows):
        for j, c in enumerate(cols):
            out[i, j] = leibniz_det(a[np.ix_(r, c)])
    return out


def add_compound_fd(a, k, eps=1e-7):
    """Finite difference of the defining curve eps -> (I + eps*A)^(k)."""
    n = a.shape[0]
    plus = mult_compound(np.eye(n) + eps * a, k)
    return (plus - np.eye(plus.shape[0])) / eps


def pairing_tol(a):
    return 1e-7 * (1.0 + norm1(a))


# ---------------------------------------------------------- mult_compound


@pytest.mark.parametrize("n,k", [(2, 2), (3, 2), (4, 2), (4, 3), (5, 3)])
def test_mult_compound_matches_minor_oracle(n, k):
    rng = np.random.default_rng(n * 10 + k)
    a = rng.standard_normal((n, n))
    assert np.allclose(mult_compound(a, k), mult_compound_oracle(a, k), atol=1e-12)


def test_mult_compound_rectangular():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((4, 3))
    got = mult_compound(a, 2)
    assert got.shape == (math.comb(4, 2), math.comb(3, 2))
    assert np.allclose(got, mult_compound_oracle(a, 2), atol=1e-12)


def test_mult_compound_identity_and_full_order():
    a = np.random.default_rng(1).standard_normal((4, 4))
    assert np.array_equal(mult_compound(a, 1), a)
    assert np.allclose(mult_compound(np.eye(5), 3), np.eye(math.comb(5, 3)))
    # k = n collapses to the determinant
    full = mult_compound(a, 4)
    assert full.shape == (1, 1)
    assert math.isclose(full[0, 0], leibniz_det(a), rel_tol=1e-10)


def test_mult_compound_eigenvalues_are_products():
    rng = np.random.default_rng(17)
    for n, k in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        a = rng.standard_normal((n, n))
        lam = spectrum(a)
        expected = [
            np.prod([lam[i] for i in combo])
            for combo in itertools.combinations(range(n), k)
        ]
        worst = match_spectra(spectrum(mult_compound(a, k)), expected, pairing_tol(a))
        assert worst <= pairing_tol(a)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_mult_compound_transpose(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    assert np.allclose(mult_compound(a.T, 2), mult_compound(a, 2).T, atol=1e-12)


# ----------------------------------------------------------- add_compound


@pytest.mark.parametrize("n,k", [(3, 2), (4, 2), (4, 3), (5, 2), (6, 4)])
def test_add_compound_matches_finite_difference(n, k):
    rng = np.random.default_rng(n * 100 + k)
    a = rng.standard_normal((n, n))
    fd = add_compound_fd(a, k)
    assert maxabs(add_compound(a, k) - fd) <= 1e-5


def test_add_compound_first_and_full_order():
    a = np.random.default_rng(2).standard_normal((5, 5))
    assert np.array_equal(add_compound(a, 1), a)
    # k = 13 has a 1 x 1 output, so the size guard lets it through
    for b in (a, np.random.default_rng(13).standard_normal((13, 13))):
        top = add_compound(b, b.shape[0])
        assert top.shape == (1, 1)
        assert math.isclose(top[0, 0], np.trace(b), rel_tol=1e-14)


def test_add_compound_eigenvalues_are_sums():
    rng = np.random.default_rng(23)
    for n, k in [(4, 2), (5, 2), (5, 3), (6, 2)]:
        a = rng.standard_normal((n, n))
        lam = spectrum(a)
        expected = [
            sum(lam[i] for i in combo)
            for combo in itertools.combinations(range(n), k)
        ]
        worst = match_spectra(spectrum(add_compound(a, k)), expected, pairing_tol(a))
        assert worst <= pairing_tol(a)


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_add_compound_is_linear(seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    lhs = add_compound(a + b, 2)
    rhs = add_compound(a, 2) + add_compound(b, 2)
    assert maxabs(lhs - rhs) <= 1e-12


def test_add_compound_transpose():
    a = np.random.default_rng(9).standard_normal((5, 5))
    assert np.array_equal(add_compound(a.T, 3), add_compound(a, 3).T)


def test_add_compound2_golden_3x3():
    # Hand-expanded entries for a symbolic-style integer matrix.
    a = np.arange(1.0, 10.0).reshape(3, 3)  # [[1,2,3],[4,5,6],[7,8,9]]
    got = add_compound(a, 2)
    expected = np.array(
        [
            [1 + 5, 6.0, -3.0],
            [8.0, 1 + 9, 2.0],
            [-7.0, 4.0, 5 + 9],
        ]
    )
    assert np.array_equal(got, expected)


# ------------------------------------------------------------ guard rails


def test_compound_k_out_of_range():
    a = np.eye(3)
    for bad in (0, -1, 4):
        with pytest.raises(ValueError):
            mult_compound(a, bad)
        with pytest.raises(ValueError):
            add_compound(a, bad)


def test_compound_dimension_caps():
    with pytest.raises(ValueError):
        mult_compound(np.eye(40), 2)
    with pytest.raises(ValueError):
        add_compound(np.eye(30), 13)


@pytest.mark.parametrize(
    "build, a, k",
    [
        (add_compound, np.eye(32), 4),  # 35960 x 35960
        (mult_compound, np.eye(32), 12),  # 225792840 x 225792840
        (mult_compound, np.ones((2000, 3)), 3),  # 1331334000 x 1
    ],
)
def test_compound_output_guard_refuses_before_allocating(build, a, k):
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="entry guard"):
            build(a, k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mult_compound_wide_input_stack_stays_near_output_size():
    # 4 x 60 at k = 4: one row set, 487,635 column sets, a 3.9 MB output.
    # A single k x k stack over all column sets peaked at 86 MB traced.
    a = np.random.default_rng(0).standard_normal((4, 60))
    tracemalloc.start()
    try:
        out = mult_compound(a, 4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (1, 487_635)
    assert peak < 32 << 20


# ------------------------------------------------------------ Cauchy-Binet


@pytest.mark.parametrize("k", [1, 2, 3])
def test_cauchy_binet_square_and_rectangular(k):
    rng = np.random.default_rng(40 + k)
    for _ in range(10):
        m, p, q = (int(rng.integers(k, 6)) for _ in range(3))
        a = rng.standard_normal((m, p))
        b = rng.standard_normal((p, q))
        scale = max(
            1.0,
            maxabs(mult_compound(a, k)),
            maxabs(mult_compound(b, k)),
            maxabs(mult_compound(a @ b, k)),
        )
        assert cauchy_binet_residual(a, b, k) <= 1e-10 * scale


def test_cauchy_binet_rejects_nonconformable():
    with pytest.raises(ValueError):
        cauchy_binet_residual(np.eye(3), np.eye(4), 2)
