import numpy as np

from matguard.core import expm, match_spectra, norm1, spectrum
from matguard.kron import kron_sum_self


def test_kron_sum_spectrum_is_all_pairwise_sums():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    lam = spectrum(a)
    expected = [li + lj for li in lam for lj in lam]
    tol = 1e-7 * (1.0 + norm1(a))
    worst = match_spectra(spectrum(kron_sum_self(a)), expected, tol)
    assert worst <= tol


def test_kron_sum_of_diag():
    a = np.diag([1.0, 10.0])
    got = kron_sum_self(a)
    assert np.array_equal(got, np.diag([2.0, 11.0, 11.0, 20.0]))


def test_vec_intertwines_two_sided_multiplication():
    # vec(AX + XA') = (A (+) A) vec(X) under the row-stacking convention.
    rng = np.random.default_rng(9)
    a = rng.standard_normal((4, 4))
    x = rng.standard_normal((4, 4))
    lhs = (a @ x + x @ a.T).reshape(-1)
    rhs = kron_sum_self(a) @ x.reshape(-1)
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_vec_dynamics_match_matrix_flow():
    rng = np.random.default_rng(10)
    a = rng.standard_normal((3, 3))
    x0 = rng.standard_normal((3, 3))
    t = 0.9
    flow = expm(a, t) @ x0 @ expm(a, t).T
    vec_flow = expm(kron_sum_self(a), t) @ x0.reshape(-1)
    assert np.allclose(flow.reshape(-1), vec_flow, atol=1e-10)
