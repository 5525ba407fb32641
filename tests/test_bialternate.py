import itertools

import numpy as np
import pytest

from matguard.bialternate import bialternate_sum_self, pair_list, verify_bialt_equals_add2
from matguard.compound import add_compound
from matguard.core import match_spectra, norm1, spectrum


def test_pair_list_golden():
    assert pair_list(2) == [(2, 1)]
    assert pair_list(4) == [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3)]


def test_pair_list_rejects_small_n():
    with pytest.raises(ValueError):
        pair_list(1)


def test_bialternate_2x2_is_trace():
    a = np.array([[3.0, 5.0], [-2.0, 4.0]])
    got = bialternate_sum_self(a)
    assert got.shape == (1, 1)
    assert got[0, 0] == 7.0


def test_bialternate_equals_add2_float_exactly():
    rng = np.random.default_rng(20)
    for n in range(2, 8):
        a = rng.standard_normal((n, n))
        assert verify_bialt_equals_add2(a) == 0.0
        assert np.array_equal(bialternate_sum_self(a), add_compound(a, 2))


def test_bialternate_equals_add2_integer_exactly():
    rng = np.random.default_rng(21)
    for n in range(2, 8):
        a = rng.integers(-9, 10, size=(n, n)).astype(float)
        assert np.array_equal(bialternate_sum_self(a), add_compound(a, 2))


def test_bialternate_eigenvalues_are_pair_sums():
    rng = np.random.default_rng(22)
    a = rng.standard_normal((5, 5))
    lam = spectrum(a)
    expected = [
        lam[i] + lam[j] for i, j in itertools.combinations(range(5), 2)
    ]
    tol = 1e-7 * (1.0 + norm1(a))
    worst = match_spectra(spectrum(bialternate_sum_self(a)), expected, tol)
    assert worst <= tol


def test_bialternate_detects_imaginary_pair():
    # Eigenvalues i*beta and -i*beta sum to zero, so the bialternate sum
    # is singular on a matrix carrying such a pair.
    beta = 1.7
    a = np.array(
        [
            [0.0, beta, 0.0],
            [-beta, 0.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
    )
    vals = np.linalg.eigvals(bialternate_sum_self(a))
    assert min(abs(vals)) <= 1e-12


def test_bialt_identity_refuses_n_1():
    with pytest.raises(ValueError, match="need n >= 2, got n=1"):
        verify_bialt_equals_add2([[1.0]])
