"""det_signed_log against LAPACK, the unblocked LU reference and its zero rule.

The sizes span the 32-column panels of the blocked LU that det_signed_log
used before it called LAPACK; the cases stay as regression tests."""

import math

import numpy as np
import pytest

from loop_reference import det_signed_log_unblocked
from matguard.core import PIVOT_RTOL, GuardianValue, det_signed_log

SIZES = (1, 31, 32, 33, 64, 65, 97, 130)


def random_matrix(m: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((m, m))


def permutation_parity(perm) -> int:
    seen = np.zeros(len(perm), dtype=bool)
    parity = 1
    for start in range(len(perm)):
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length and length % 2 == 0:
            parity = -parity
    return parity


@pytest.mark.parametrize("m", SIZES)
def test_matches_lapack_slogdet(m):
    for seed in range(3):
        a = random_matrix(m, 100 * m + seed)
        got = det_signed_log(a)
        sign, logdet = np.linalg.slogdet(a)
        assert got.sign == int(np.sign(np.linalg.det(a))) == int(sign)
        assert math.isclose(got.log_magnitude, logdet, rel_tol=1e-10)


@pytest.mark.parametrize("m", [1])
def test_single_panel_is_bit_identical_to_unblocked(m):
    # a 1x1 determinant is its entry: both paths return log|a| exactly
    for seed in range(5):
        a = random_matrix(m, 200 * m + seed)
        assert det_signed_log(a) == det_signed_log_unblocked(a)
        assert det_signed_log(a, zero_scale=7.0) == det_signed_log_unblocked(a, zero_scale=7.0)


@pytest.mark.parametrize("m", SIZES)
def test_multi_panel_agrees_with_unblocked(m):
    a = random_matrix(m, 300 * m)
    got = det_signed_log(a)
    ref = det_signed_log_unblocked(a)
    assert got.sign == ref.sign
    assert math.isclose(got.log_magnitude, ref.log_magnitude, rel_tol=1e-12)


@pytest.mark.parametrize("m, dup", [(97, 45), (97, 70), (130, 100)])
def test_zero_pivot_in_a_later_panel(m, dup):
    # Column `dup` repeats column 3, so the first pivot that vanishes is
    # the one of column `dup`, in the second, third or fourth panel.
    a = random_matrix(m, m + dup)
    a[:, dup] = a[:, 3]
    got = det_signed_log(a)
    assert got.sign == 0
    assert got.log_magnitude == float("-inf")
    assert det_signed_log_unblocked(a).sign == 0
    # the leading columns are independent: the same matrix without the
    # repeat is nonsingular
    b = a.copy()
    b[:, dup] = random_matrix(m, 7)[:, 0]
    assert det_signed_log(b).sign != 0


@pytest.mark.parametrize("m", [33, 97, 130])
def test_row_swap_parity_across_panels(m):
    # A scaled permutation matrix pivots on rows from other panels at
    # almost every step; all arithmetic on it is exact.
    rng = np.random.default_rng(m)
    perm = rng.permutation(m)
    scale = rng.uniform(0.5, 2.0, m) * rng.choice((-1.0, 1.0), m)
    a = np.zeros((m, m))
    a[np.arange(m), perm] = scale
    got = det_signed_log(a)
    expected = permutation_parity(perm) * int(np.prod(np.sign(scale)))
    assert got.sign == expected == int(np.sign(np.linalg.det(a)))
    assert math.isclose(got.log_magnitude, float(np.sum(np.log(np.abs(scale)))), rel_tol=1e-12)


def test_does_not_mutate_multi_panel_input():
    a = random_matrix(97, 5)
    before = a.copy()
    det_signed_log(a)
    assert np.array_equal(a, before)


def with_singular_values(sigma: np.ndarray, seed: int) -> np.ndarray:
    # Q1 diag(sigma) Q2 with random orthogonal Q1, Q2
    m = len(sigma)
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((m, m)))
    q2, _ = np.linalg.qr(rng.standard_normal((m, m)))
    return (q1 * sigma) @ q2


@pytest.mark.parametrize("m", [1, 2, 65, 130])
def test_zero_iff_sigma_min_below_threshold(m):
    scale = 16.0
    threshold = PIVOT_RTOL * scale
    rng = np.random.default_rng(m)
    sigma = rng.uniform(1.0, 2.0, m)
    sigma[rng.integers(m)] = threshold / 2
    below = with_singular_values(sigma, m)
    assert det_signed_log(below, zero_scale=scale) == GuardianValue(0, float("-inf"))
    # relative to its own largest entry, the same sigma_min is far above it
    assert det_signed_log(below).sign != 0
    sigma[np.argmin(sigma)] = 2 * threshold
    above = with_singular_values(sigma, m)
    assert det_signed_log(above, zero_scale=scale).sign == np.linalg.slogdet(above)[0] != 0
