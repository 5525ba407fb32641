"""Verification harness for the matrix ODE dX/dt = AX + XA'.

The flow has the closed form X(t) = e^{At} X(0) e^{A't} and preserves
both symmetry and skew-symmetry of X(0).  Collapsing a symmetric X to
its upper-triangle vector w(X) turns the flow into dw/dt = L_2(A) w;
collapsing a skew-symmetric X to its strict-upper vector v(X) gives
dv/dt = A^[2] v.  Both vectors list the index pairs i <= j (i < j) in
lexicographic order, the Sym^2 (Lambda^2) basis of L_2 (A^[2]).  The
two-path residual checks here integrate one side with the matrix flow
and the other with the reduced generator and compare.  The integrators
and checks take one matrix or a stack (..., n, n), with arrays of times
or of basis pairs, and return the stack of their one-matrix results, bit
for bit; the ``ode`` and ``lemma1`` suites of ``verify`` call them so.
"""

from __future__ import annotations

import numpy as np

from .compound import _subsets, add_compound, mult_compound
from .core import CHUNK_ENTRIES, _checked, expm
from .schlaflian import lower_schlaflian

__all__ = [
    "check_skew_basis_columns",
    "check_skew_reduction",
    "check_symmetric_reduction",
    "matrix_ode_closed_form",
    "matrix_ode_rk4",
    "skew_basis_element",
    "skew_from_v",
]

SYMMETRY_RTOL = 1e-8


def _square_pair(a, x0):
    a = _checked(a, "a", square=True, stack=True)
    x0 = _checked(x0, "x0", square=True, stack=True)
    if a.shape != x0.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {x0.shape}")
    return a, x0


def matrix_ode_closed_form(a, x0, t) -> np.ndarray:
    """X(t) = e^{At} X(0) e^{A't}; ``t`` broadcasts against the leading axes
    of the stacks ``a`` and ``x0``, as in :func:`core.expm`."""
    a, x0 = _square_pair(a, x0)
    flows = expm(a, t)
    return flows @ x0 @ np.swapaxes(flows, -1, -2)


def matrix_ode_rk4(a, x0, t_end: float, steps: int) -> np.ndarray:
    """Classical 4th-order Runge-Kutta on dX/dt = AX + XA', of one pair or
    each member pair of stacks (..., n, n), one batched right-hand side a stage.

    Fixed step h = t_end/steps; accurate for moderate horizons
    (t <= 2, ||A|| <= 5 with the default step counts used in the suites).
    Stacks are read in C order, so each member takes its one-matrix BLAS path.
    """
    a, x = _square_pair(a, x0)
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
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


def skew_from_v(v, n: int) -> np.ndarray:
    """The skew matrix of a strict-upper vector v, or of each member of a
    stack (..., C(n, 2)) of them."""
    v = np.array(v, dtype=float, ndmin=1)
    if v.shape[-1] != n * (n - 1) // 2:
        raise ValueError(f"v has length {v.shape[-1]}, expected {n * (n - 1) // 2}")
    i, j = _subsets(n, 2).T
    x = np.zeros((*v.shape[:-1], n, n))
    x[..., i, j] = v
    x[..., j, i] = -v
    return x


def _reduction(a, x0, t, skew: bool):
    """Two-path residual of the symmetric reduction, or the skew one if
    ``skew``: the half-vector of e^{At} X(0) e^{A't} against expm(G t)
    applied to that of X(0), where G = L_2(A) (A^[2]).  Stacks and times
    broadcast as in :func:`matrix_ode_closed_form`; one pair at a scalar t
    gives a float."""
    a, x0 = _square_pair(a, x0)
    lhs = _half_vectors(matrix_ode_closed_form(a, x0, t), skew)
    generators = (add_compound if skew else lower_schlaflian)(a, 2)
    rhs = expm(generators, t) @ _half_vectors(x0, skew)[..., None]
    residuals = np.abs(lhs - rhs[..., 0]).max(axis=-1)
    return residuals if residuals.ndim else float(residuals)


def check_symmetric_reduction(a, x0_sym, t):
    """Two-path residual for the symmetric reduction.

    Compares w(X(t)) from the closed-form matrix flow against
    expm(L_2(A) t) w(X(0)).
    """
    return _reduction(a, x0_sym, t, skew=False)


def check_skew_reduction(a, x0_skew, t):
    """Two-path residual for the skew-symmetric reduction.

    Compares v(X(t)) from the closed-form matrix flow against
    expm(A^[2] t) v(X(0)).
    """
    return _reduction(a, x0_skew, t, skew=True)


def _pairs(n: int, i, j):
    """Validated 1-based pairs i < j, integer scalars or 1-D arrays, as arrays."""
    i, j = np.asarray(i), np.asarray(j)
    shaped = i.ndim < 2 and i.shape == j.shape and {i.dtype.kind, j.dtype.kind} <= set("iu")
    if not (shaped and np.all((1 <= i) & (i < j) & (j <= n))):  # refuses bool, float and []
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={n}")
    return i, j


def skew_basis_element(n: int, i, j) -> np.ndarray:
    """S_ij = E_ij - E_ji for 1 <= i < j <= n (1-based indices); for 1-D
    arrays i, j the stack (P, n, n) of each pair's S_ij."""
    i, j = _pairs(n, i, j)
    e_i, e_j = np.eye(n)[i - 1], np.eye(n)[j - 1]
    return e_i[..., :, None] * e_j[..., None, :] - e_j[..., :, None] * e_i[..., None, :]


def check_skew_basis_columns(a, i, j):
    """Residual of the basis identity behind the skew reduction.

    The column of A^[2] applied to the compound of [e^i e^j], read back
    into the S_ij basis, must equal A S_ij + S_ij A'.  The compound
    column is computed with ``mult_compound`` so the two sides share no
    code path.  ``a`` is one matrix or a stack (..., n, n), and ``i``,
    ``j`` one 1-based pair or 1-D arrays of P pairs: the residuals have
    a's leading shape, then (P,).  A^[2] is built once; the pairs run in
    runs whose A S + S A' stacks stay within ``CHUNK_ENTRIES`` entries.
    """
    a = _checked(a, "a", square=True, stack=True)
    n = a.shape[-1]
    i, j = _pairs(n, i, j)
    # C order, so each member's product takes the BLAS path of a single matrix
    compounds = np.ascontiguousarray(add_compound(a, 2))[..., None, :, :]
    a_t = np.swapaxes(a, -1, -2)[..., None, :, :]
    pairs = np.stack([i.ravel(), j.ravel()], axis=1)
    # A S + S A', its two products, and the difference from the columns
    size = max(1, CHUNK_ENTRIES // (4 * a.size))
    residuals = []
    for run in np.split(pairs, range(size, len(pairs), size)):
        # the compound of [e^i e^j] for each pair: (P, C(n, 2), 1)
        columns = mult_compound(np.eye(n)[:, run - 1].swapaxes(0, 1), 2)
        lhs = skew_from_v((compounds @ columns)[..., 0], n)
        s = skew_basis_element(n, run[:, 0], run[:, 1])
        rhs = a[..., None, :, :] @ s + s @ a_t
        residuals.append(np.abs(lhs - rhs).max(axis=(-2, -1)))
    out = np.concatenate(residuals, axis=-1).reshape(a.shape[:-2] + i.shape)
    return out if out.ndim else float(out)
