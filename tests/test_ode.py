import numpy as np
import pytest

from matguard.compound import add_compound
from matguard.core import expm, maxabs, norm1
from matguard.ode import (
    check_skew_basis_columns,
    check_symmetric_reduction,
    check_skew_reduction,
    matrix_ode_closed_form,
    matrix_ode_rk4,
    skew_basis_element,
    skew_from_v,
)
from matguard.schlaflian import lower_schlaflian


def moderate(rng, n):
    a = rng.standard_normal((n, n))
    return a / max(1.0, norm1(a) / 2.0)


# ----------------------------------------------------------- integrators


def test_closed_form_solves_the_ode():
    # Centered difference of X(t) against AX + XA' at a few times.
    rng = np.random.default_rng(60)
    a = moderate(rng, 4)
    x0 = rng.standard_normal((4, 4))
    h = 1e-6
    for t in (0.2, 0.8):
        x = matrix_ode_closed_form(a, x0, t)
        dot = (
            matrix_ode_closed_form(a, x0, t + h)
            - matrix_ode_closed_form(a, x0, t - h)
        ) / (2 * h)
        assert maxabs(dot - (a @ x + x @ a.T)) <= 1e-7


def test_rk4_converges_to_closed_form():
    rng = np.random.default_rng(61)
    a = moderate(rng, 3)
    x0 = rng.standard_normal((3, 3))
    ref = matrix_ode_closed_form(a, x0, 1.0)
    assert maxabs(matrix_ode_rk4(a, x0, 1.0, 200) - ref) <= 1e-10


def test_rk4_is_fourth_order():
    rng = np.random.default_rng(62)
    for _ in range(3):
        a = moderate(rng, 3)
        x0 = rng.standard_normal((3, 3))
        ref = matrix_ode_closed_form(a, x0, 1.0)
        err_coarse = maxabs(matrix_ode_rk4(a, x0, 1.0, 20) - ref)
        err_fine = maxabs(matrix_ode_rk4(a, x0, 1.0, 40) - ref)
        ratio = err_coarse / err_fine
        assert 12.0 <= ratio <= 20.0, ratio


def test_integrators_validate_inputs():
    with pytest.raises(ValueError):
        matrix_ode_rk4(np.eye(2), np.eye(3), 1.0, 10)
    with pytest.raises(ValueError):
        matrix_ode_rk4(np.eye(2), np.eye(2), 1.0, 0)
    with pytest.raises(ValueError):
        matrix_ode_closed_form(np.eye(2), np.eye(3), 1.0)


# ------------------------------------------------- half-vectorizations


def test_extract_w_ordering():
    # w(X) lists the upper triangle row by row, the Sym^2 basis of L_2(A):
    # d/dt w(X) = w(AX + XA') = L_2(A) w(X)
    x = np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]])
    w = x[np.triu_indices(3)]
    assert np.array_equal(w, [1, 2, 3, 4, 5, 6])
    a = np.random.default_rng(68).standard_normal((3, 3))
    assert maxabs(lower_schlaflian(a, 2) @ w - (a @ x + x @ a.T)[np.triu_indices(3)]) <= 1e-13


def test_extract_v_ordering():
    x = np.array([[0.0, 1.0, 2.0], [-1.0, 0.0, 3.0], [-2.0, -3.0, 0.0]])
    v = x[np.triu_indices(3, 1)]
    assert np.array_equal(v, [1, 2, 3])
    assert np.array_equal(skew_from_v(v, 3), x)


def test_extractors_enforce_structure():
    # each reduction refuses an X(0) without the symmetry it reduces
    a = np.diag([-1.0, -2.0])
    with pytest.raises(ValueError, match="not symmetric"):
        check_symmetric_reduction(a, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.5)
    with pytest.raises(ValueError, match="not skew-symmetric"):
        check_skew_reduction(a, np.eye(2), 0.5)
    with pytest.raises(ValueError):
        skew_from_v([1.0, 2.0], 4)


def test_skew_basis_element():
    s = skew_basis_element(3, 1, 3)
    assert np.array_equal(s, [[0, 0, 1], [0, 0, 0], [-1, 0, 0]])
    with pytest.raises(ValueError):
        skew_basis_element(3, 2, 2)
    with pytest.raises(ValueError):
        skew_basis_element(3, 3, 1)


# --------------------------------------------------- reduction two-paths


@pytest.mark.parametrize("t", [0.3, 0.7, 1.5])
def test_symmetric_reduction_two_path(t):
    rng = np.random.default_rng(63)
    for n in (2, 3, 4, 5):
        a = moderate(rng, n)
        x = rng.standard_normal((n, n))
        assert check_symmetric_reduction(a, 0.5 * (x + x.T), t) <= 1e-7


@pytest.mark.parametrize("t", [0.3, 0.7, 1.5])
def test_skew_reduction_two_path(t):
    rng = np.random.default_rng(64)
    for n in (2, 3, 4, 5):
        a = moderate(rng, n)
        x = rng.standard_normal((n, n))
        assert check_skew_reduction(a, 0.5 * (x - x.T), t) <= 1e-7


def test_flow_preserves_structure_along_rk4():
    rng = np.random.default_rng(65)
    a = moderate(rng, 4)
    x = rng.standard_normal((4, 4))
    sym_end = matrix_ode_rk4(a, 0.5 * (x + x.T), 1.0, 64)
    assert maxabs(sym_end - sym_end.T) <= 1e-9 * max(1.0, maxabs(sym_end))
    skew_end = matrix_ode_rk4(a, 0.5 * (x - x.T), 1.0, 64)
    assert maxabs(skew_end + skew_end.T) <= 1e-9 * max(1.0, maxabs(skew_end))


def test_skew_flow_matches_compound_generator_directly():
    # v(X(t)) computed by RK4 on the matrix side, e^{A^[2] t} v(0) on the
    # reduced side: two numerical routes, one answer.
    rng = np.random.default_rng(66)
    a = moderate(rng, 4)
    x = rng.standard_normal((4, 4))
    x0 = 0.5 * (x - x.T)
    t = 0.9
    v = np.triu_indices(4, 1)
    lhs = matrix_ode_rk4(a, x0, t, 400)[v]
    rhs = expm(add_compound(a, 2), t) @ x0[v]
    assert maxabs(lhs - rhs) <= 1e-8


# ------------------------------------------------- skew basis identity


def test_skew_basis_identity_all_pairs():
    rng = np.random.default_rng(67)
    for n in (2, 3, 4, 5, 6):
        a = rng.standard_normal((n, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert check_skew_basis_columns(a, i, j) <= 1e-11


def test_skew_basis_identity_index_validation():
    with pytest.raises(ValueError):
        check_skew_basis_columns(np.eye(3), 2, 2)
    with pytest.raises(ValueError):
        check_skew_basis_columns(np.eye(3), 0, 2)
