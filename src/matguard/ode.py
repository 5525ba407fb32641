"""Verification harness for the matrix ODE dX/dt = AX + XA'.

The flow has the closed form X(t) = e^{At} X(0) e^{A't} and preserves
both symmetry and skew-symmetry of X(0).  Collapsing a symmetric X to
its upper-triangle vector w(X) turns the flow into dw/dt = L_2(A) w;
collapsing a skew-symmetric X to its strict-upper vector v(X) gives
dv/dt = A^[2] v.  Both vectors list the index pairs i <= j (i < j) in
lexicographic order, the Sym^2 (Lambda^2) basis of L_2 (A^[2]).  The
two-path residual checks here integrate one side with the matrix flow
and the other with the reduced generator and compare.
"""

from __future__ import annotations

import numpy as np

from .compound import _subsets, add_compound, mult_compound
from .core import as_square, expm, maxabs
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


def matrix_ode_closed_form(a, x0, t: float) -> np.ndarray:
    """X(t) = e^{At} X(0) e^{A't}."""
    a = as_square(a, "a")
    x0 = as_square(x0, "x0")
    if a.shape != x0.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {x0.shape}")
    e = expm(a, t)
    return e @ x0 @ e.T


def matrix_ode_rk4(a, x0, t_end: float, steps: int) -> np.ndarray:
    """Classical 4th-order Runge-Kutta on dX/dt = AX + XA'.

    Fixed step h = t_end/steps; accurate for moderate horizons
    (t <= 2, ||A|| <= 5 with the default step counts used in the suites).
    """
    a = as_square(a, "a")
    x = as_square(x0, "x0").copy()
    if a.shape != x.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {x.shape}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    h = float(t_end) / steps

    def rhs(m):
        return a @ m + m @ a.T

    for _ in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * h * k1)
        k3 = rhs(x + 0.5 * h * k2)
        k4 = rhs(x + h * k3)
        x = x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def extract_w(x) -> np.ndarray:
    """Upper-triangle (including diagonal) entries of a symmetric matrix,
    ordered (x11, x12, ..., x1n, x22, ..., xnn)."""
    x = as_square(x, "x")
    scale = max(1.0, maxabs(x))
    if maxabs(x - x.T) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    i, j = _subsets(x.shape[0], 2, repeat=True).T
    return x[i, j]


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
    x = as_square(x, "x")
    scale = max(1.0, maxabs(x))
    if maxabs(x + x.T) > SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not skew-symmetric within tolerance")
    i, j = _subsets(x.shape[0], 2).T
    return x[i, j]


def skew_from_v(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=float).reshape(-1)
    if v.size != n * (n - 1) // 2:
        raise ValueError(f"v has length {v.size}, expected {n * (n - 1) // 2}")
    i, j = _subsets(n, 2).T
    x = np.zeros((n, n))
    x[i, j] = v
    x[j, i] = -v
    return x


def check_symmetric_reduction(a, x0_sym, t: float) -> float:
    """Two-path residual for the symmetric reduction.

    Compares w(X(t)) from the closed-form matrix flow against
    expm(L_2(A) t) w(X(0)).
    """
    a = as_square(a, "a")
    x_t = matrix_ode_closed_form(a, x0_sym, t)
    lhs = extract_w(x_t)
    rhs = expm(lower_schlaflian(a, 2), t) @ extract_w(x0_sym)
    return float(np.max(np.abs(lhs - rhs)))


def check_skew_reduction(a, x0_skew, t: float) -> float:
    """Two-path residual for the skew-symmetric reduction.

    Compares v(X(t)) from the closed-form matrix flow against
    expm(A^[2] t) v(X(0)).
    """
    a = as_square(a, "a")
    x_t = matrix_ode_closed_form(a, x0_skew, t)
    lhs = extract_v(x_t)
    rhs = expm(add_compound(a, 2), t) @ extract_v(x0_skew)
    return float(np.max(np.abs(lhs - rhs)))


def skew_basis_element(n: int, i: int, j: int) -> np.ndarray:
    """S_ij = E_ij - E_ji for 1 <= i < j <= n (1-based indices)."""
    if not 1 <= i < j <= n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    s = np.zeros((n, n))
    s[i - 1, j - 1] = 1.0
    s[j - 1, i - 1] = -1.0
    return s


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
    basis = np.zeros((n, 2))
    basis[i - 1, 0] = 1.0
    basis[j - 1, 1] = 1.0
    column = add_compound(a, 2) @ mult_compound(basis, 2)
    lhs = skew_from_v(column, n)
    s_ij = skew_basis_element(n, i, j)
    rhs = a @ s_ij + s_ij @ a.T
    return maxabs(lhs - rhs)
