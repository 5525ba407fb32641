import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_builders_reference import corpus_matrix

from matguard.compound import add_compound
from matguard.core import (
    PIVOT_RTOL,
    GuardianValue,
    Stability,
    det_signed_log,
    det_signed_log_stack,
    is_hurwitz,
    maxabs,
    spectrum,
)
from matguard.gallery import hurwitz_matrix, imaginary_pair_matrix, well_conditioned_matrix
from matguard.kron import kron_sum_self
from matguard.representations import (
    _CLASSIFY,
    GuardianMapKind,
    Verdict,
    apply_rho,
    contragradient,
    guardian_evaluate,
    guardian_factor_stack,
    lie_bracket,
)
from matguard.schlaflian import lower_schlaflian
from loop_reference import det_bareiss
from test_det_blocked import with_singular_values

ALL_KINDS = list(GuardianMapKind)


def test_rho_dimensions():
    a = np.zeros((4, 4))
    assert apply_rho("kron", a).shape == (16, 16)
    assert apply_rho("add2", a).shape == (6, 6)
    assert apply_rho("schlaflian", a).shape == (10, 10)
    assert apply_rho("bialt", a).shape == (6, 6)


@pytest.mark.parametrize("kind", ["kron", "add2", "bialt", "schlaflian"])
def test_size_guard_refuses_n33_before_allocating(kind):
    a = -np.eye(33)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n <= 32"):
            guardian_evaluate(kind, a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # rho(A) alone: 2.2 MB bialt, 2.5 MB schlaflian, 9.5 MB kron


def test_lie_bracket_antisymmetric():
    rng = np.random.default_rng(30)
    a = rng.standard_normal((3, 3))
    b = rng.standard_normal((3, 3))
    assert np.array_equal(lie_bracket(a, b), -lie_bracket(b, a))
    assert np.array_equal(lie_bracket(a, a), np.zeros((3, 3)))


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_bracket_preservation(kind):
    rng = np.random.default_rng(31)
    for n in (2, 3, 4, 5):
        for _ in range(5):
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            ra, rb = apply_rho(kind, a), apply_rho(kind, b)
            scale = max(1.0, maxabs(ra) * maxabs(rb))
            assert maxabs(apply_rho(kind, lie_bracket(a, b)) - lie_bracket(ra, rb)) <= 1e-10 * scale


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_contragradient_preserves_bracket(kind):
    rng = np.random.default_rng(32)
    for _ in range(5):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        lhs = contragradient(kind, lie_bracket(a, b))
        rhs = lie_bracket(contragradient(kind, a), contragradient(kind, b))
        scale = max(1.0, maxabs(apply_rho(kind, a)) * maxabs(apply_rho(kind, b)))
        assert maxabs(lhs - rhs) <= 1e-10 * scale


def test_contragradient_negates_spectrum():
    a = np.diag([1.0, 2.0])
    got = sorted(spectrum(contragradient("kron", a)).real)
    assert np.allclose(got, [-4.0, -3.0, -3.0, -2.0], atol=1e-12)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_contragradient_involution(kind):
    rng = np.random.default_rng(33)
    a = rng.standard_normal((3, 3))
    twice = contragradient(kind, -a).T  # apply the definition a second time
    assert np.array_equal(twice, apply_rho(kind, a))


# --------------------------------------------------- guardian_evaluate


def test_guardian_neg_identity_add2():
    report = guardian_evaluate("add2", -np.eye(2))
    assert report.g_value.sign == int(np.sign(-2.0))
    assert math.isclose(report.g_value.log_magnitude, math.log(2.0))
    assert report.det_a.sign == 1  # det(-I2) = 1
    assert report.f_value.sign != 0
    assert report.verdict is Verdict.NONZERO_STABLE
    assert report.oracle_verdict is Stability.STABLE


def test_guardian_rotation_generator_boundary():
    rot = np.array([[0.0, 1.0], [-1.0, 0.0]])
    for kind in ALL_KINDS:
        report = guardian_evaluate(kind, rot)
        assert report.g_value.sign == 0
        assert report.verdict is Verdict.ZERO_BOUNDARY
        assert report.oracle_verdict is Stability.BOUNDARY


def test_guardian_zero_eigenvalue_needs_det_factor():
    # g alone misses a zero eigenvalue; the det(A) factor catches it.
    a = np.diag([0.0, -1.0])
    report = guardian_evaluate("add2", a)
    assert report.g_value.sign != 0  # g = trace = -1
    assert report.det_a.sign == 0
    assert report.f_value.sign == 0
    assert report.verdict is Verdict.ZERO_BOUNDARY


def test_guardian_mirror_pair_is_weak_zero():
    # f vanishes at diag(1,-1) although the matrix is unstable: the
    # guardian property constrains f only on the closure of the stable
    # set.  The report keeps the oracle alongside for disambiguation.
    report = guardian_evaluate("add2", np.diag([1.0, -1.0]))
    assert report.f_value.sign == 0
    assert report.oracle_verdict is Stability.UNSTABLE


def test_guardian_unstable_nonzero():
    report = guardian_evaluate("kron", np.diag([1.0, -2.0]))
    assert report.f_value.sign != 0
    assert report.verdict is Verdict.NONZERO_UNSTABLE


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_guardian_randomized_boundary_detection(kind):
    rng = np.random.default_rng(35)
    for n in (2, 3, 4, 5):
        for trial in range(5):
            stable = hurwitz_matrix(n, rng, similarity=trial % 2 == 0)
            assert guardian_evaluate(kind, stable).f_value.sign != 0
            boundary = imaginary_pair_matrix(n, rng)
            assert guardian_evaluate(kind, boundary).g_value.sign == 0


@pytest.mark.parametrize("kind", ALL_KINDS)
@given(n=st.integers(7, 32), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=8, deadline=None)
def test_guardian_boundary_detection_past_n6(kind, n, seed):
    rng = np.random.default_rng(seed)
    assert guardian_evaluate(kind, imaginary_pair_matrix(n, rng)).f_value.sign == 0
    for similarity in (False, True):
        stable = hurwitz_matrix(n, rng, similarity=similarity)
        assert guardian_evaluate(kind, stable).f_value.sign != 0


def test_guardian_sign_invariant_under_similarity():
    rng = np.random.default_rng(36)
    a = hurwitz_matrix(3, rng)
    for kind in ALL_KINDS:
        rho = apply_rho(kind, a)
        base = guardian_evaluate(kind, a)
        t = well_conditioned_matrix(rho.shape[0], rng)
        moved = np.linalg.solve(t.T, (t @ rho).T).T  # T rho T^-1
        assert det_signed_log(moved).sign == base.g_value.sign


def test_report_json_shape():
    report = guardian_evaluate("bialt", -np.eye(3))
    obj = report.to_obj()
    assert list(obj) == [
        "kind",
        "g_sign",
        "g_logmag",
        "det_a_sign",
        "f_sign",
        "verdict",
        "oracle",
    ]
    assert obj["kind"] == "bialt"
    assert obj["verdict"] == "NonzeroStable"
    assert obj["oracle"] == "stable"
    assert isinstance(obj["g_sign"], int)


def test_report_boundary_logmag_is_neg_inf():
    report = guardian_evaluate("add2", np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert report.g_value == GuardianValue(0, float("-inf"))
    assert report.to_obj()["g_logmag"] == float("-inf")


def test_planted_pair_n2_trace_cancellation():
    # For n = 2 the compound kinds compress to the 1x1 trace; a planted
    # boundary matrix leaves only a rounding remnant there, which must
    # still register as zero thanks to the pre-image scale reference.
    rng = np.random.default_rng(37)
    for _ in range(20):
        a = imaginary_pair_matrix(2, rng)
        assert abs(np.trace(a)) < 1e-12  # tiny but usually nonzero
        report = guardian_evaluate("add2", a)
        assert report.g_value.sign == 0


# ------------------------------------ every kind on the pair det A, det A^[2]


def dense_g(kind, a):
    """The oracle: g as the det of the dense rho(A), at the scale of A and rho(A)."""
    rho = apply_rho(kind, a)
    return det_signed_log(rho, zero_scale=max(maxabs(a), maxabs(rho)))


def mirrored_pair_matrix(n, rng):
    """Unstable matrix with a real pair (lam, -lam): f vanishes off the boundary."""
    lam = rng.uniform(0.5, 2.0)
    d = np.concatenate([[lam, -lam], rng.uniform(-2.0, -0.5, size=n - 2)])
    t = well_conditioned_matrix(n, rng)
    return np.linalg.solve(t.T, (t @ np.diag(d)).T).T


KRON_CASES = {
    "stable": lambda n, rng: hurwitz_matrix(n, rng),
    "stable_similar": lambda n, rng: hurwitz_matrix(n, rng, similarity=True),
    "unstable": lambda n, rng: -hurwitz_matrix(n, rng, similarity=True),
    "boundary": imaginary_pair_matrix,
    "mirrored": mirrored_pair_matrix,
}


@given(n=st.integers(1, 32), case=st.sampled_from(sorted(KRON_CASES)),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_kron_blocks_match_dense_kron_sum(n, case, seed):
    if n == 1 and case in ("boundary", "mirrored"):
        n = 2  # a pair needs two eigenvalues
    a = KRON_CASES[case](n, np.random.default_rng(seed))
    report = guardian_evaluate("kron", a)
    dense, oracle = dense_g("kron", a), is_hurwitz(a)
    verdict, _ = _CLASSIFY[report.det_a.sign * dense.sign == 0, oracle]
    assert report.g_value.sign == dense.sign
    assert report.verdict is verdict
    assert report.oracle_verdict is oracle
    if dense.sign == 0:
        assert report.g_value.log_magnitude == float("-inf")
    else:
        drift = abs(report.g_value.log_magnitude - dense.log_magnitude)
        assert drift <= 1e-12 * max(1.0, abs(dense.log_magnitude))


SIGNED_ZERO_CORPUS = [
    np.array([[-0.0]]),
    np.array([[0.0, -0.0], [-0.0, 0.0]]),
    np.array([[-0.0, 1.0], [-1.0, -0.0]]),
    np.diag([3.0, -3.0, -0.0]),
    np.array([[1e-300, -0.0, 2.0], [-0.0, -1e-300, 0.0], [5.0, -0.0, -4.5]]),
] + [corpus_matrix(n) for n in range(2, 13)]


@pytest.mark.parametrize("a", SIGNED_ZERO_CORPUS, ids=lambda a: f"n{a.shape[0]}")
def test_kron_block_scale_is_dense_rho_scale_bit_for_bit(monkeypatch, a):
    """Every kind's zero scales are those of the factor pair, bit for bit:
    det A^[2] at max(|A|, |A^[2]|), then det A at |A| (at n = 1 kron and
    schlaflian factor det A alone, and add2 and bialt refuse)."""
    import matguard.representations as reps

    scales = []

    def recording(stack, zero_scales):
        (scale,) = zero_scales  # a stack of one
        scales.append(bits(scale))
        return det_signed_log_stack(stack, zero_scales)

    monkeypatch.setattr(reps, "det_signed_log_stack", recording)
    pair = [bits(maxabs(a))]
    if len(a) > 1:
        pair.insert(0, bits(max(maxabs(a), maxabs(add_compound(a, 2)))))
    for kind in ALL_KINDS:
        if len(a) == 1 and kind in ("add2", "bialt"):
            continue
        scales.clear()
        guardian_evaluate(kind, a)
        assert scales == pair, kind


def test_kron_guardian_at_n32_peaks_well_under_dense_rho():
    a = hurwitz_matrix(32, np.random.default_rng(3), similarity=True)
    guardian_evaluate("kron", a)  # warm the index tables and probes
    tracemalloc.start()
    try:
        guardian_evaluate("kron", a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # the dense rho alone is 1024^2 * 8 B = 8 MB


def test_kron_guardian_at_n1_has_no_lambda2_block():
    report = guardian_evaluate("kron", np.array([[-0.25]]))
    assert (report.g_value.sign, report.g_value.log_magnitude) == (-1, math.log(0.5))
    assert report.verdict is Verdict.NONZERO_STABLE


# ------------------------------------------- stacks against stacks of one


def zero_row_matrix(n, rng):
    a = rng.standard_normal((n, n))
    a[rng.integers(n)] = 0.0  # LU keeps the row zero: an exactly singular factor
    return a


STACK_MEMBERS = {
    "random": lambda n, rng: rng.standard_normal((n, n)),
    "stable": lambda n, rng: hurwitz_matrix(n, rng, similarity=True),
    "boundary": imaginary_pair_matrix,
    "mirrored": mirrored_pair_matrix,
    # sigma_min within a factor of 4 of the zero threshold, on either side
    "near_singular": lambda n, rng: with_singular_values(
        np.r_[PIVOT_RTOL * rng.uniform(0.25, 4.0), rng.uniform(0.5, 2.0, n - 1)],
        int(rng.integers(2**31))),
    "singular": zero_row_matrix,
    "zero": lambda n, rng: np.zeros((n, n)),
    "extreme": lambda n, rng: rng.standard_normal((n, n)) * 10.0 ** rng.choice([-305, 305]),
}


def bits(x):
    return np.float64(x).tobytes()


@given(n=st.integers(2, 8), seed=st.integers(0, 2**32 - 1),
       members=st.lists(st.sampled_from(sorted(STACK_MEMBERS)), min_size=1, max_size=40))
@settings(max_examples=30, deadline=None)
def test_stacked_factors_equal_stacks_of_one_bit_for_bit(n, seed, members):
    rng = np.random.default_rng(seed)
    stack = np.array([STACK_MEMBERS[m](n, rng) for m in members])
    signs, log_magnitudes = det_signed_log_stack(stack, np.abs(stack).max(axis=(1, 2)))
    for a, sign, log_magnitude in zip(stack, signs, log_magnitudes):
        one = det_signed_log(a)
        assert (sign, bits(log_magnitude)) == (one.sign, bits(one.log_magnitude))
    for kind in ALL_KINDS:
        factors = guardian_factor_stack(kind, stack)  # f, g, det A, det A^[2]
        for i, a in enumerate(stack):
            ones = guardian_factor_stack(kind, a[None])
            for (signs, logs), (one, one_logs) in zip(factors, ones):
                assert (signs[i], bits(logs[i])) == (one[0], bits(one_logs[0])), (kind, i)


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_guardian_factors_far_below_float_scale_read_nonzero(kind):
    # At 1e-305 the probe solve of the unscaled A overflows (sigma_min = 1e-311)
    # and det_signed_log alone reads a false zero; the scaled A reads nonzero.
    a = with_singular_values(np.r_[1e-6, np.ones(4)], 5)
    assert det_signed_log(1e-305 * a).sign == 0
    report, small = guardian_evaluate(kind, a), guardian_evaluate(kind, 1e-305 * a)
    g, det_a, g_small, det_small = report.g_value, report.det_a, small.g_value, small.det_a
    assert det_small.sign == det_a.sign != 0
    assert g_small.sign == g.sign != 0
    dim = apply_rho(kind, a).shape[0]
    for small, base, size in ((det_small, det_a, 5), (g_small, g, dim)):
        expected = base.log_magnitude + size * math.log(1e-305)
        assert math.isclose(small.log_magnitude, expected, rel_tol=1e-12)


# ------------------------------------------- the factor pair against dense rho

PAIR_CASES = dict(KRON_CASES, singular=zero_row_matrix)
# an exact zero of det A^[2] (eigenvalues lambda, -lambda) for every kind at n >= 2;
# of det A (an exactly singular A) for kron and schlaflian
ZERO_CASES = {"boundary": ALL_KINDS, "mirrored": ALL_KINDS,
              "singular": [GuardianMapKind.KRONECKER_SUM, GuardianMapKind.LOWER_SCHLAFLIAN_2]}


@given(kind=st.sampled_from(ALL_KINDS), n=st.integers(1, 32),
       case=st.sampled_from(sorted(PAIR_CASES)), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_factor_pair_matches_dense_rho_for_every_kind(kind, n, case, seed):
    if n == 1 and (kind in ("add2", "bialt") or case in ("boundary", "mirrored")):
        n = 2  # add2 and bialt need n >= 2, and a pair two eigenvalues
    a = PAIR_CASES[case](n, np.random.default_rng(seed))
    g = guardian_evaluate(kind, a).g_value
    dense = dense_g(kind, a)
    assert g.sign == dense.sign
    if kind in ZERO_CASES.get(case, ()):
        assert g.sign == 0
    if dense.sign == 0:
        assert g.log_magnitude == float("-inf")
    else:
        drift = abs(g.log_magnitude - dense.log_magnitude)
        assert drift <= 1e-12 * max(1.0, abs(dense.log_magnitude))


@given(a=st.integers(1, 5).flatmap(
    lambda n: st.lists(st.integers(-3, 3), min_size=n * n, max_size=n * n).map(
        lambda entries: np.array(entries, dtype=float).reshape(n, n))))
@example(a=np.array([[1.0, 2.0], [2.0, 4.0]]))  # det A = 0
@example(a=np.array([[1.0, 2.0], [3.0, -1.0]]))  # A^[2] = [[tr A]] = 0
@example(a=np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [0.0, 0.0, -2.0]]))  # lambda = +-i
@settings(max_examples=150, deadline=None)
def test_factor_pair_identities_hold_exactly_on_integer_matrices(a):
    n = len(a)
    det_a = det_bareiss(a)
    det_alt = det_bareiss(add_compound(a, 2)) if n > 1 else 1  # Lambda^2 R^1 = 0
    det_l2 = det_bareiss(lower_schlaflian(a, 2))
    assert det_l2 == 2**n * det_a * det_alt
    assert det_bareiss(kron_sum_self(a)) == det_l2 * det_alt
    exact = {"kron": det_l2 * det_alt, "schlaflian": det_l2, "add2": det_alt, "bialt": det_alt}
    for kind in ALL_KINDS:
        if n == 1 and kind in ("add2", "bialt"):
            continue
        report = guardian_evaluate(kind, a)
        g, det = report.g_value, report.det_a
        if det_a == 0:
            assert det.sign == 0
        if exact[kind] == 0:
            assert g.sign == 0, kind
        elif g.sign:
            assert g.sign == (1 if exact[kind] > 0 else -1), kind
            assert math.isclose(g.log_magnitude, math.log(abs(exact[kind])), rel_tol=1e-9,
                                abs_tol=1e-9), kind
