"""Verification harness for the matrix ODE dX/dt = AX + XA'.

The flow has the closed form X(t) = e^{At} X(0) e^{A't} and preserves
both symmetry and skew-symmetry of X(0).  Collapsing a symmetric X to
its upper-triangle vector w(X) turns the flow into dw/dt = L_2(A) w;
collapsing a skew-symmetric X to its strict-upper vector v(X) gives
dv/dt = A^[2] v.  Both vectors list the index pairs i <= j (i < j) in
lexicographic order, the Sym^2 (Lambda^2) basis of L_2 (A^[2]).  The
two-path residual checks here integrate one side with the matrix flow
and the other with the reduced generator and compare.  Each public check
and integrator is the stack of one of a private routine on stacks
(T, n, n), which the ``ode`` and ``lemma1`` suites of ``verify`` call.
"""

from __future__ import annotations

import numpy as np

from .compound import _subsets, add_compound, mult_compound
from .core import _expm_stack, as_square, expm
from .schlaflian import lower_schlaflian

__all__ = [
    "check_skew_basis_columns",
    "check_skew_reduction",
    "check_symmetric_reduction",
    "extract_v",
    "extract_w",
    "matrix_ode_closed_form",
    "matrix_ode_rk4",
    "skew_basis_element",
    "skew_from_v",
    "sym_from_w",
]

SYMMETRY_RTOL = 1e-8


def _square_pair(a, x0):
    a = as_square(a, "a")
    x0 = as_square(x0, "x0")
    if a.shape != x0.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {x0.shape}")
    return a, x0


def _closed_form(flows: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """e X(0) e' for stacks of propagators e = e^{At} and initial values."""
    return flows @ x0 @ np.swapaxes(flows, -1, -2)


def matrix_ode_closed_form(a, x0, t: float) -> np.ndarray:
    """X(t) = e^{At} X(0) e^{A't}."""
    a, x0 = _square_pair(a, x0)
    return _closed_form(expm(a, t), x0)


def matrix_ode_rk4(a, x0, t_end: float, steps: int) -> np.ndarray:
    """Classical 4th-order Runge-Kutta on dX/dt = AX + XA'.

    Fixed step h = t_end/steps; accurate for moderate horizons
    (t <= 2, ||A|| <= 5 with the default step counts used in the suites).
    The one-matrix case of :func:`_rk4_stack`.
    """
    a, x = _square_pair(a, x0)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    return _rk4_stack(a[None], x[None], t_end, steps)[0]


def _rk4_stack(a: np.ndarray, x: np.ndarray, t_end: float, steps: int) -> np.ndarray:
    """:func:`matrix_ode_rk4` of each member pair of stacks (N, n, n), one
    batched right-hand side per stage.  The stacks are read in C order, so
    each member takes the BLAS path of its one-matrix call."""
    a = np.ascontiguousarray(a)
    x = np.ascontiguousarray(x)
    a_t = np.swapaxes(a, -1, -2)
    h = float(t_end) / steps

    def rhs(m):
        return a @ m + m @ a_t

    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def _half_vectors(x: np.ndarray, skew: bool) -> np.ndarray:
    """w(X), or v(X) if ``skew``, of each member of a stack (..., n, n);
    refused unless every member is (skew-)symmetric within SYMMETRY_RTOL."""
    mirror = np.swapaxes(x, -1, -2)
    gap = np.abs(x + mirror if skew else x - mirror).max(axis=(-2, -1))
    if np.any(gap > SYMMETRY_RTOL * np.maximum(1.0, np.abs(x).max(axis=(-2, -1)))):
        raise ValueError(f"matrix is not {'skew-' if skew else ''}symmetric within tolerance")
    i, j = _subsets(x.shape[-1], 2, repeat=not skew).T
    return x[..., i, j]


def extract_w(x) -> np.ndarray:
    """Upper-triangle (including diagonal) entries of a symmetric matrix,
    ordered (x11, x12, ..., x1n, x22, ..., xnn)."""
    return _half_vectors(as_square(x, "x"), skew=False)


def sym_from_w(w, n: int) -> np.ndarray:
    w = np.asarray(w, dtype=float).reshape(-1)
    if w.size != n * (n + 1) // 2:
        raise ValueError(f"w has length {w.size}, expected {n * (n + 1) // 2}")
    i, j = _subsets(n, 2, repeat=True).T
    x = np.zeros((n, n))
    x[i, j] = w
    x[j, i] = w
    return x


def extract_v(x) -> np.ndarray:
    """Strict upper-triangle entries of a skew-symmetric matrix, ordered
    (x12, x13, ..., x1n, x23, ..., x_{n-1,n})."""
    return _half_vectors(as_square(x, "x"), skew=True)


def skew_from_v(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != n * (n - 1) // 2:
        raise ValueError(f"v has length {v.size}, expected {n * (n - 1) // 2}")
    return _skew_from_v(v, n)


def _skew_from_v(v: np.ndarray, n: int) -> np.ndarray:
    """The skew matrices of a stack (..., C(n, 2)) of strict-upper vectors."""
    i, j = _subsets(n, 2).T
    x = np.zeros((*v.shape[:-1], n, n))
    x[..., i, j] = v
    x[..., j, i] = -v
    return x


def _reduction_residuals(a, x0, times, flows, skew: bool) -> np.ndarray:
    """Two-path residuals (T, len(times)) of the symmetric reduction, or the
    skew one if ``skew``, for stacks (T, n, n) of A and X(0) and the flows
    e^{At} (T, len(times), n, n): the half-vector of e^{At} X(0) e^{A't}
    against expm(G t) applied to that of X(0), where G = L_2(A) (A^[2])."""
    generators = (add_compound if skew else lower_schlaflian)(a, 2)
    lhs = _half_vectors(_closed_form(flows, x0[:, None]), skew)
    propagators = _expm_stack(generators, times)
    rhs = propagators @ _half_vectors(x0, skew)[:, None, :, None]
    return np.abs(lhs - rhs[..., 0]).max(axis=-1)


def _reduction_check(a, x0, t: float, skew: bool) -> float:
    a, x0 = _square_pair(a, x0)
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    a, x0, times = a[None], x0[None], np.array([float(t)])
    return float(_reduction_residuals(a, x0, times, _expm_stack(a, times), skew)[0, 0])


def check_symmetric_reduction(a, x0_sym, t: float) -> float:
    """Two-path residual for the symmetric reduction.

    Compares w(X(t)) from the closed-form matrix flow against
    expm(L_2(A) t) w(X(0)).
    """
    return _reduction_check(a, x0_sym, t, skew=False)


def check_skew_reduction(a, x0_skew, t: float) -> float:
    """Two-path residual for the skew-symmetric reduction.

    Compares v(X(t)) from the closed-form matrix flow against
    expm(A^[2] t) v(X(0)).
    """
    return _reduction_check(a, x0_skew, t, skew=True)


def _skew_basis(n: int, pairs: np.ndarray) -> np.ndarray:
    """S_ij of each 0-based pair (i, j) of ``pairs`` (P, 2): (P, n, n)."""
    s = np.zeros((len(pairs), n, n))
    rows = np.arange(len(pairs))
    s[rows, pairs[:, 0], pairs[:, 1]] = 1.0
    s[rows, pairs[:, 1], pairs[:, 0]] = -1.0
    return s


def skew_basis_element(n: int, i: int, j: int) -> np.ndarray:
    """S_ij = E_ij - E_ji for 1 <= i < j <= n (1-based indices)."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return _skew_basis(n, np.array([[i - 1, j - 1]]))[0]


def check_skew_basis_columns(a, i: int, j: int) -> float:
    """Residual of the basis identity behind the skew reduction.

    The column of A^[2] applied to the compound of [e^i e^j], read back
    into the S_ij basis, must equal A S_ij + S_ij A'.  The compound
    column is computed with ``mult_compound`` so the two sides share no
    code path.
    """
    a = as_square(a, "a")
    n = a.shape[0]
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return float(_skew_basis_residuals(a[None], [np.array([[i - 1, j - 1]])])[0, 0])


def _skew_basis_residuals(a: np.ndarray, runs) -> np.ndarray:
    """:func:`check_skew_basis_columns` of each member of a stack (T, n, n)
    at each 0-based pair of ``runs``, arrays (P, 2) of pairs: (T, all P).
    A^[2] is built once for the stack; the right-hand sides of a run come
    from one stacked A S + S A', so the run bounds the memory held."""
    n = a.shape[-1]
    # C order, so each member's product takes the BLAS path of a single matrix
    compounds = np.ascontiguousarray(add_compound(a, 2))[:, None]
    residuals = []
    for pairs in runs:
        # the compound of [e^i e^j] for each pair: (P, C(n, 2), 1)
        columns = np.array([mult_compound(np.eye(n)[:, pair], 2) for pair in pairs])
        lhs = _skew_from_v((compounds @ columns)[..., 0], n)
        s = _skew_basis(n, pairs)
        rhs = a[:, None] @ s + s @ np.swapaxes(a, -1, -2)[:, None]
        residuals.append(np.abs(lhs - rhs).max(axis=(-2, -1)))
    return np.concatenate(residuals, axis=1)
