import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matguard.core import (
    MAX_ENTRIES,
    MAX_N,
    PIVOT_RTOL,
    GuardianValue,
    Stability,
    as_matrix,
    as_square,
    check_size,
    det_signed_log,
    det_signed_log_stack,
    expm,
    is_hurwitz,
    match_spectra,
    maxabs,
    norm1,
    spectrum,
)
from matguard.representations import GuardianMapKind, apply_rho, guardian_factor_stack
from test_det_blocked import with_singular_values


# ---------------------------------------------------------------- oracles


def det_oracle(a):
    """Cofactor expansion along the first row."""
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * det_oracle(minor)
    return total


# ----------------------------------------------------------- validation


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix([1.0, 2.0])
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 0)))
    with pytest.raises(ValueError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.inf]])


def test_as_matrix_copies_input():
    src = np.eye(2)
    m = as_matrix(src)
    m[0, 0] = 7.0
    assert src[0, 0] == 1.0


def test_as_square_rejects_rectangles():
    with pytest.raises(ValueError):
        as_square(np.zeros((2, 3)))


def test_check_size_boundaries():
    assert (MAX_N, MAX_ENTRIES) == (32, 5000 * 5000)
    check_size(32, 1, 1)
    with pytest.raises(ValueError, match="n <= 32"):
        check_size(33, 1, 1)
    check_size(1, MAX_ENTRIES, 1)
    check_size(1, 5000, 5000)
    with pytest.raises(ValueError, match="entry guard"):
        check_size(1, MAX_ENTRIES + 1, 1)
    with pytest.raises(ValueError, match="entry guard"):
        check_size(1, 5000, 5001)


# ------------------------------------------------------- f = det(A) g


@pytest.mark.parametrize("kind", list(GuardianMapKind))
def test_stacked_f_is_det_a_times_g(kind):
    # det A < 0 and > 0, then det A = 0 (singular) and det A^[2] = 0 (the pair 1, -1)
    stack = np.array([np.diag(d) for d in ([-1.0, -2.0, -3.0], [2.0, -1.0, -3.0],
                                           [0.0, -1.0, -2.0], [1.0, -1.0, -2.0])])
    (f_signs, f_logs), (g_signs, g_logs), (det_signs, det_logs), _ = \
        guardian_factor_stack(kind, stack)
    assert det_signs.tolist() == [-1, 1, 0, 1]
    assert f_signs.tolist() == (det_signs * g_signs).tolist()
    assert f_signs[:2].all() and f_signs[2:].tolist() == [0, 0]
    assert f_logs[:2].tolist() == (det_logs + g_logs)[:2].tolist()
    assert f_logs[2:].tolist() == [-math.inf, -math.inf]


# ------------------------------------------------------ det_signed_log


def test_det_signed_log_matches_cofactor_oracle():
    rng = np.random.default_rng(3)
    for n in range(1, 7):
        for _ in range(20):
            a = rng.standard_normal((n, n))
            d = det_oracle(a)
            got = det_signed_log(a)
            assert got.sign == int(np.sign(d))
            assert math.isclose(got.log_magnitude, math.log(abs(d)), rel_tol=1e-10)


def test_det_signed_log_singular():
    a = np.array([[1.0, 2.0], [2.0, 4.0]])
    got = det_signed_log(a)
    assert got.sign == 0
    assert got.log_magnitude == float("-inf")


def test_det_signed_log_overflowed_probe_is_a_silent_zero():
    # sigma_min far below the probe's scale: |a^-1 x| overflows, and the
    # bound it gives still reads as zero, with no RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = det_signed_log(np.array([[1e-300, 0.0], [0.0, 1.0]]))
    assert got.sign == 0


def test_det_signed_log_does_not_mutate_input():
    a = np.array([[4.0, 1.0], [2.0, 3.0]])
    before = a.copy()
    det_signed_log(a)
    assert np.array_equal(a, before)


def test_det_zero_scale_reference():
    # A 1x1 matrix holding a rounding remnant: relative to its own entry it
    # is "nonzero", relative to the matrix it was compressed from it is zero.
    tiny = np.array([[1e-16]])
    assert det_signed_log(tiny).sign == 1
    assert det_signed_log(tiny, zero_scale=1.0).sign == 0


def test_det_huge_magnitude_stays_finite_in_log():
    # 400 x 400 scaled identity: raw determinant overflows float64.
    a = 10.0 * np.eye(400)
    got = det_signed_log(a)
    assert got.sign == 1
    assert math.isclose(got.log_magnitude, 400 * math.log(10.0), rel_tol=1e-12)


SCALES = [2.0**600, 2.0**-600, 1e200, 1e-200, 1e300, 1e-300]
SCALE_IDS = ["2^600", "2^-600", "1e200", "1e-200", "1e300", "1e-300"]


@pytest.mark.parametrize("c", SCALES, ids=SCALE_IDS)
@pytest.mark.parametrize("n", [2, 3, 5])
def test_det_signed_log_is_scale_free(n, c):
    # The bound works in units of the scale's binary exponent, so |a^-1 x|^2
    # neither underflows (c large) nor overflows into a false zero (c small).
    a = np.random.default_rng(n).standard_normal((n, n)) + n * np.eye(n)
    base = det_signed_log(a)
    got = det_signed_log(c * a)
    assert got.sign == base.sign != 0
    assert math.isclose(got.log_magnitude, base.log_magnitude + n * math.log(c), rel_tol=1e-12)


def test_det_signed_log_far_below_float_scale_reads_nonzero():
    # sigma_min = 1e-311: the probe solve of the unscaled matrix overflows into
    # a false zero; the matrix scaled into the exponent band reads slogdet's value
    a = 1e-305 * with_singular_values(np.r_[1e-6, np.ones(4)], 5)
    got = det_signed_log(a)
    sign, log_magnitude = np.linalg.slogdet(a)
    assert got.sign == sign == 1
    assert math.isclose(got.log_magnitude, log_magnitude, rel_tol=1e-12)
    assert math.isclose(got.log_magnitude, -3525.26, rel_tol=1e-6)


@pytest.mark.parametrize("c", SCALES, ids=SCALE_IDS)
def test_det_signed_log_scaled_near_singular_still_reads_zero(c):
    a = with_singular_values(np.r_[PIVOT_RTOL / 2, np.ones(5)], 6)
    assert det_signed_log(a).sign == 0
    assert det_signed_log(c * a).sign == 0
    assert det_signed_log(c * a, zero_scale=c * maxabs(a)).sign == 0


SLOGDET = np.linalg.slogdet


@pytest.fixture
def slogdet_calls(monkeypatch):
    """Count the calls det_signed_log makes to np.linalg.slogdet."""
    calls = []

    def counted(m):
        calls.append(m.shape)
        return SLOGDET(m)

    monkeypatch.setattr(np.linalg, "slogdet", counted)
    return calls


@pytest.mark.parametrize(
    "a, scale",
    [
        (np.array([[1.0, 2.0], [2.0, 4.0]]), None),
        (with_singular_values(np.r_[PIVOT_RTOL * 16.0 / 2, np.ones(64)], 65), 16.0),
        (np.array([[1e-300, 0.0], [0.0, 1.0]]), None),
    ],
    ids=["exactly-singular", "sigma-min-below-threshold", "overflowed-probe"],
)
def test_proved_zero_calls_no_slogdet(slogdet_calls, a, scale):
    assert det_signed_log(a, zero_scale=scale) == GuardianValue(0, float("-inf"))
    assert slogdet_calls == []


def test_nonzero_calls_slogdet_once_and_keeps_its_bits(slogdet_calls):
    rng = np.random.default_rng(13)
    for n in range(1, 131):
        a = rng.standard_normal((n, n))
        got = det_signed_log(a)
        assert len(slogdet_calls) == n
        sign, log_magnitude = SLOGDET(a)
        assert got.sign == int(sign) != 0
        assert np.float64(got.log_magnitude).tobytes() == np.float64(log_magnitude).tobytes()


SOLVE = np.linalg.solve


@pytest.fixture
def solve_sides(monkeypatch):
    """Record, per np.linalg.solve call, whether it solved with M or with M^T."""
    sides = []

    def recorded(a, b):
        sides.append("M^T" if a.strides[-1] > a.strides[-2] else "M")
        return SOLVE(a, b)

    monkeypatch.setattr(np.linalg, "solve", recorded)
    return sides


def test_far_from_the_threshold_skips_the_transposed_solve(solve_sides, slogdet_calls):
    a = np.random.default_rng(5).standard_normal((6, 6)) + 6 * np.eye(6)
    got = det_signed_log(a)
    assert solve_sides == ["M"]
    assert len(slogdet_calls) == 1
    assert (got.sign, got.log_magnitude) == tuple(SLOGDET(a))


def test_near_the_threshold_keeps_the_transposed_solve(solve_sides, slogdet_calls):
    # sigma_min 10x the threshold: the first bound is far under _FAR times it
    scale = 16.0
    a = with_singular_values(np.r_[10 * PIVOT_RTOL * scale, np.ones(5)], 6)
    got = det_signed_log(a, zero_scale=scale)
    assert solve_sides == ["M", "M^T"]
    assert len(slogdet_calls) == 1
    assert got.sign == SLOGDET(a)[0] != 0


def test_one_by_one_retry_keeps_the_members_that_skipped_the_transposed_solve(monkeypatch):
    # numpy refuses the M^T solve of the two near members as a whole stack: the
    # retry takes them one by one, and the far members still reach slogdet
    rng = np.random.default_rng(6)
    far = rng.standard_normal((4, 4)) + 4 * np.eye(4)
    near = [with_singular_values(np.r_[10 * PIVOT_RTOL, np.ones(3)], seed) for seed in (4, 7)]
    stack, scales = np.array([far, near[0], -far, near[1]]), np.ones(4)
    alone = [det_signed_log_stack(stack[i:i + 1], scales[i:i + 1]) for i in range(4)]
    refused = []

    def refuses_stacked_transposes(a, b):
        if len(a) > 1 and a.strides[-1] > a.strides[-2]:
            refused.append(len(a))
            raise np.linalg.LinAlgError("Singular matrix")
        return SOLVE(a, b)

    monkeypatch.setattr(np.linalg, "solve", refuses_stacked_transposes)
    signs, log_magnitudes = det_signed_log_stack(stack, scales)
    assert refused == [2]
    assert all(signs != 0)
    for i, (sign, log_magnitude) in enumerate(alone):
        assert (signs[i], log_magnitudes[i]) == (sign[0], log_magnitude[0])


@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_det_sign_flips_with_row_swap(n, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    base = det_signed_log(a)
    if n == 1 or base.sign == 0:
        return
    swapped = a.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    assert det_signed_log(swapped).sign == -base.sign


# ----------------------------------------------------------------- expm


def test_expm_diagonal():
    a = np.diag([1.0, -2.0])
    assert np.allclose(expm(a), np.diag([math.e, math.exp(-2.0)]), atol=1e-14)


def test_expm_nilpotent():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = 0.37
    assert np.allclose(expm(a, t), np.array([[1.0, t], [0.0, 1.0]]), atol=1e-15)


def test_expm_group_property():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 4))
    e1 = expm(a, 0.4) @ expm(a, 0.6)
    assert np.allclose(e1, expm(a, 1.0), atol=1e-12 * maxabs(e1))


def test_expm_rejects_nonfinite_t():
    with pytest.raises(ValueError):
        expm(np.eye(2), float("nan"))


def test_expm_matches_scipy():
    """20 seeded A (n = 2..8) and the rho of each guardian kind, at t = 0.3, 0.7
    and 1.5 (300 inputs), then each A at t with |A t|_1 = 50 and 500, where
    the approximant is squared 4 and 7 times."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    cases = []
    for seed in range(20):
        a = np.random.default_rng(seed).standard_normal((2 + seed % 7,) * 2)
        for x in [a] + [apply_rho(kind.value, a) for kind in GuardianMapKind]:
            cases += [(x, t) for t in (0.3, 0.7, 1.5)]
        cases += [(a, target / norm1(a)) for target in (50.0, 500.0)]
    assert len(cases) == 340
    for x, t in cases:
        expected = scipy_linalg.expm(x * t)
        assert maxabs(expm(x, t) - expected) <= 1e-11 * maxabs(expected), (x.shape, t)


@pytest.mark.parametrize("n", [1, 2, 5])
def test_expm_of_zero_is_exactly_identity(n):
    assert np.array_equal(expm(np.zeros((n, n))), np.eye(n))
    assert np.array_equal(expm(np.ones((n, n)), 0.0), np.eye(n))


def test_expm_of_diagonal_input_is_exp_of_its_entries_to_2_ulp():
    grid = np.linspace(-30.0, 30.0, 601)
    for x in grid:
        want = math.exp(x)
        assert abs(expm([[x]])[0, 0] - want) <= 2 * math.ulp(want), x
    got = expm(np.diag(grid[::50]), 0.5)
    assert np.array_equal(got, np.diag(np.diagonal(got)))
    for x, value in zip(grid[::50], np.diagonal(got)):
        assert abs(value - math.exp(0.5 * x)) <= 2 * math.ulp(math.exp(0.5 * x)), x


def test_expm_1x1_matches_math_exp():
    for x in np.linspace(-1.0, 1.0, 201):
        assert abs(expm([[x]])[0, 0] - math.exp(x)) <= 1e-15 * math.exp(x), x


# ------------------------------------------------------------- spectrum


def test_spectrum_triangular():
    a = np.array([[2.0, 5.0], [0.0, -3.0]])
    got = sorted(spectrum(a).real)
    assert np.allclose(got, [-3.0, 2.0], atol=1e-13)


def test_spectrum_rotation_block():
    a = np.array([[0.0, 2.0], [-2.0, 0.0]])
    vals = spectrum(a)
    assert np.allclose(sorted(vals.imag), [-2.0, 2.0], atol=1e-13)
    assert np.allclose(vals.real, 0.0, atol=1e-13)


# ----------------------------------------------------------- is_hurwitz


def test_is_hurwitz_classes():
    assert is_hurwitz(-np.eye(3)) is Stability.STABLE
    assert is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]])) is Stability.BOUNDARY
    assert is_hurwitz(np.diag([0.5, -1.0])) is Stability.UNSTABLE


def test_is_hurwitz_tolerance_band():
    a = np.diag([-5e-9, -1.0])
    assert is_hurwitz(a, tol=1e-8) is Stability.BOUNDARY
    assert is_hurwitz(a, tol=1e-10) is Stability.STABLE
    with pytest.raises(ValueError):
        is_hurwitz(a, tol=-1.0)
    with pytest.raises(ValueError):
        is_hurwitz(a, tol=float("nan"))


# -------------------------------------------------------- match_spectra


def test_match_spectra_permutation_invariant():
    vals = np.array([1 + 2j, -3.0 + 0j, 0.5 - 0.5j])
    worst = match_spectra(vals[::-1], vals, tol=1e-12)
    assert worst == 0.0


def test_match_spectra_reports_worst_distance():
    worst = match_spectra([1.0 + 0j, 2.0 + 0j], [1.0 + 0j, 2.5 + 0j], tol=1e-12)
    assert math.isclose(worst, 0.5)


def test_match_spectra_length_mismatch():
    with pytest.raises(ValueError):
        match_spectra([1.0 + 0j], [1.0 + 0j, 2.0 + 0j], tol=1e-9)
