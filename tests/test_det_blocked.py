"""Blocked LU in det_signed_log against LAPACK and the unblocked reference."""

import math

import numpy as np
import pytest

from loop_reference import det_signed_log_unblocked
from matguard.core import LU_BLOCK, PIVOT_RTOL, det_signed_log

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


@pytest.mark.parametrize("m", [s for s in SIZES if s <= LU_BLOCK])
def test_single_panel_is_bit_identical_to_unblocked(m):
    for seed in range(5):
        a = random_matrix(m, 200 * m + seed)
        assert det_signed_log(a) == det_signed_log_unblocked(a)
        assert det_signed_log(a, zero_scale=7.0) == det_signed_log_unblocked(a, zero_scale=7.0)


@pytest.mark.parametrize("m", [s for s in SIZES if s > LU_BLOCK])
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


def upper_with_last_pivot(m: int, last: float) -> np.ndarray:
    # Upper triangular: no row swaps, the trailing updates add exact zeros,
    # so the last pivot of the LU is exactly `last`.
    rng = np.random.default_rng(m)
    u = np.triu(0.1 * rng.standard_normal((m, m)), 1) + np.eye(m)
    u[-1, -1] = last
    return u


@pytest.mark.parametrize("m", [65, 130])
def test_zero_scale_threshold_in_last_panel(m):
    a = upper_with_last_pivot(m, 1e-9)
    assert det_signed_log(a).sign == 1  # 1e-9 >= PIVOT_RTOL * maxabs(a)
    assert det_signed_log(a, zero_scale=1e4).sign == 0  # 1e-9 < 1e-8
    at = upper_with_last_pivot(m, PIVOT_RTOL * 16.0)
    assert det_signed_log(at, zero_scale=16.0).sign == 1  # strict "<": on it is nonzero
    below = upper_with_last_pivot(m, np.nextafter(PIVOT_RTOL * 16.0, 0.0))
    assert det_signed_log(below, zero_scale=16.0).sign == 0
