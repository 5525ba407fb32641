"""Acceptance gate: one test per release criterion.

Every criterion is checked at its stated tolerance; the terminal summary
(see conftest) prints one PASS/FAIL line per criterion.  All randomness
is seeded, so a failure here is reproducible as-is.
"""

import itertools
import json

import numpy as np
import pytest

from matguard.bialternate import bialternate_sum_self
from matguard.cli import main as cli_main
from matguard.compound import add_compound, cauchy_binet_residual, mult_compound
from matguard.core import match_spectra, maxabs, norm1, spectrum
from matguard.gallery import hurwitz_matrix, imaginary_pair_matrix
from matguard.kron import kron_sum_self
from matguard.ode import (
    check_skew_basis_columns,
    check_symmetric_reduction,
    check_skew_reduction,
    matrix_ode_closed_form,
    matrix_ode_rk4,
)
from matguard.representations import (
    GuardianMapKind,
    apply_rho,
    contragradient,
    guardian_evaluate,
    lie_bracket,
)
from matguard.schlaflian import lower_schlaflian, upper_schlaflian
from matguard.sweep import ParamFamily, sweep

ALL_KINDS = list(GuardianMapKind)


def test_criterion_01_bialternate_identity():
    """bialternate == 2-additive compound: <= 1e-12 float, exact integer."""
    rng = np.random.default_rng(1001)
    for n in range(2, 8):
        for _ in range(100):
            a = rng.standard_normal((n, n))
            assert maxabs(bialternate_sum_self(a) - add_compound(a, 2)) <= 1e-12
        a_int = rng.integers(-9, 10, size=(n, n)).astype(float)
        assert np.array_equal(bialternate_sum_self(a_int), add_compound(a_int, 2))


def test_criterion_02_spectral_mappings():
    """Compound/Kronecker/Schlaflian spectra are k-fold products/sums."""
    rng = np.random.default_rng(1002)
    for n in range(2, 7):
        for _ in range(3):
            a = rng.standard_normal((n, n))
            lam = spectrum(a)
            tol = 1e-7 * (1.0 + norm1(a))
            for k in {2, min(3, n)}:
                combos = list(itertools.combinations(range(n), k))
                prods = [np.prod([lam[i] for i in c]) for c in combos]
                assert match_spectra(spectrum(mult_compound(a, k)), prods, tol) <= tol
                sums = [sum(lam[i] for i in c) for c in combos]
                assert match_spectra(spectrum(add_compound(a, k)), sums, tol) <= tol
            kron_sums = [li + lj for li in lam for lj in lam]
            assert match_spectra(spectrum(kron_sum_self(a)), kron_sums, tol) <= tol
            with_rep = list(
                itertools.combinations_with_replacement(range(n), 2)
            )
            u2_prods = [lam[i] * lam[j] for i, j in with_rep]
            assert match_spectra(spectrum(upper_schlaflian(a, 2)), u2_prods, tol) <= tol
            l2_sums = [lam[i] + lam[j] for i, j in with_rep]
            assert match_spectra(spectrum(lower_schlaflian(a, 2)), l2_sums, tol) <= tol


def test_criterion_03_cauchy_binet():
    """(AB)^(k) = A^(k) B^(k) within 1e-10 * scale, k <= 3."""
    rng = np.random.default_rng(1003)
    for k in (1, 2, 3):
        for _ in range(10):
            m, p, q = (int(rng.integers(k, 7)) for _ in range(3))
            a = rng.standard_normal((m, p))
            b = rng.standard_normal((p, q))
            scale = max(
                1.0,
                maxabs(mult_compound(a, k)),
                maxabs(mult_compound(b, k)),
                maxabs(mult_compound(a @ b, k)),
            )
            assert cauchy_binet_residual(a, b, k) <= 1e-10 * scale


def test_criterion_04_bracket_preservation():
    """rho([A,B]) = [rho(A),rho(B)] for all kinds and contragradients."""
    rng = np.random.default_rng(1004)
    for kind in ALL_KINDS:
        for _ in range(50):
            n = int(rng.integers(2, 6))
            a = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            br = lie_bracket(a, b)
            ra, rb = apply_rho(kind, a), apply_rho(kind, b)
            scale = max(1.0, maxabs(ra) * maxabs(rb))
            assert maxabs(apply_rho(kind, br) - lie_bracket(ra, rb)) <= 1e-10 * scale
            ca, cb = contragradient(kind, a), contragradient(kind, b)
            resid = maxabs(contragradient(kind, br) - lie_bracket(ca, cb))
            assert resid <= 1e-10 * scale


def test_criterion_05_upper_schlaflian_multiplicative():
    """U_p(AB) = U_p(A) U_p(B) within 1e-9 * scale, n=3, p in {2,3}."""
    rng = np.random.default_rng(1005)
    for p in (2, 3):
        for _ in range(50):
            a = rng.standard_normal((3, 3))
            b = rng.standard_normal((3, 3))
            ua, ub = upper_schlaflian(a, p), upper_schlaflian(b, p)
            scale = max(1.0, maxabs(ua) * maxabs(ub))
            resid = maxabs(upper_schlaflian(a @ b, p) - ua @ ub)
            assert resid <= 1e-9 * scale


def test_criterion_06_ode_reductions():
    """Two-path flow residuals, RK4 structure preservation, basis columns."""
    rng = np.random.default_rng(1006)
    for n in range(2, 6):
        for _ in range(3):
            a = rng.standard_normal((n, n))
            a /= max(1.0, norm1(a) / 2.0)
            x = rng.standard_normal((n, n))
            x_sym, x_skew = 0.5 * (x + x.T), 0.5 * (x - x.T)
            for t in (0.3, 0.7, 1.5):
                assert check_symmetric_reduction(a, x_sym, t) <= 1e-7
                assert check_skew_reduction(a, x_skew, t) <= 1e-7
            end_sym = matrix_ode_rk4(a, x_sym, 1.0, 64)
            assert maxabs(end_sym - end_sym.T) <= 1e-9 * max(1.0, maxabs(end_sym))
            end_skew = matrix_ode_rk4(a, x_skew, 1.0, 64)
            assert maxabs(end_skew + end_skew.T) <= 1e-9 * max(1.0, maxabs(end_skew))
    for n in range(2, 7):
        a = rng.standard_normal((n, n))
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                assert check_skew_basis_columns(a, i, j) <= 1e-11


def test_criterion_07_boundary_detection():
    """0 false positives / 0 false negatives on 100 + 100 matrices."""
    rng = np.random.default_rng(1007)
    stable_pool = []
    boundary_pool = []
    for i in range(100):
        n = int(rng.integers(2, 7))
        margin = float(rng.uniform(0.1, 1.0))
        stable_pool.append(hurwitz_matrix(n, rng, margin=margin,
                                          similarity=i % 2 == 0))
        boundary_pool.append(imaginary_pair_matrix(int(rng.integers(2, 7)), rng))
    for kind in ALL_KINDS:
        for a in stable_pool:
            report = guardian_evaluate(kind, a)
            assert report.f_value.sign != 0  # no false positive
        for a in boundary_pool:
            report = guardian_evaluate(kind, a)
            assert report.g_value.sign == 0  # no false negative
            assert report.f_value.sign == 0


def test_criterion_08_sweep_end_to_end():
    """Rotation/shifted families: one located crossing, kinds agree."""
    rotation = ParamFamily(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))
    shifted = ParamFamily(np.array([[-0.3, 1.0], [-1.0, -0.3]]), np.eye(2))
    for family, target in ((rotation, 0.0), (shifted, 0.3)):
        stars = []
        for kind in ALL_KINDS:
            res = sweep(family, kind, -1.0, 1.0, 21, refine=True)
            events = list(res.crossings) + list(res.touches)
            assert len(events) == 1
            stars.append(events[0].theta)
            assert abs(events[0].theta - target) <= 1e-8
        assert max(stars) - min(stars) <= 2e-8
    # Refinement path: an even grid leaves 0.3 off the grid, so every kind
    # must bracket and refine it on the sign of det(A) det(A^[2]).
    for kind in ALL_KINDS:
        res = sweep(shifted, kind, -1.0, 1.0, 20, refine=True)
        assert len(res.crossings) == 1
        assert res.crossings[0].detection == "sign_change"
        assert abs(res.crossings[0].theta - 0.3) <= 1e-8


def test_criterion_09_rk4_order():
    """Halving h cuts the residual by a factor in [12, 20]."""
    rng = np.random.default_rng(1009)
    for _ in range(3):
        a = rng.standard_normal((3, 3))
        a /= max(1.0, norm1(a) / 2.0)
        x0 = rng.standard_normal((3, 3))
        ref = matrix_ode_closed_form(a, x0, 1.0)
        err_coarse = maxabs(matrix_ode_rk4(a, x0, 1.0, 20) - ref)
        err_fine = maxabs(matrix_ode_rk4(a, x0, 1.0, 40) - ref)
        assert 12.0 <= err_coarse / err_fine <= 20.0


def test_criterion_10_cli_determinism(capsys):
    """verify --suite all twice: byte-identical JSON, exit 0."""
    args = ["verify", "--suite", "all", "--n", "4", "--trials", "20", "--seed", "1"]
    code1 = cli_main(list(args))
    out1 = capsys.readouterr().out
    code2 = cli_main(list(args))
    out2 = capsys.readouterr().out
    assert code1 == code2 == 0
    assert out1 == out2
    assert json.loads(out1)["pass"] is True
