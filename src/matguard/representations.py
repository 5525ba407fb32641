"""Guardian maps built from Lie-algebra representations.

Each supported map sends an n x n matrix A to a square matrix rho(A)
whose spectrum consists of (some) pairwise eigenvalue sums of A, so
det(rho(A)) vanishes exactly when A has a conjugate purely imaginary
pair.  Multiplying by det(A) completes this to a full boundary
characterization of the Hurwitz stable set: f(A) = det(A) det(rho(A))
is nonzero on the open stable set and zero on its boundary.

A guardian value being nonzero certifies only that A is not on the
boundary; the stable/unstable half is classified with the eigenvalue
oracle and both verdicts are kept side by side in the report.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .bialternate import bialternate_sum_self
from .compound import _subsets, add_compound
from .core import (
    GuardianValue,
    Stability,
    abscissa_stability,
    as_square,
    det_signed_log,
    is_hurwitz,
    maxabs,
)
from .kron import kron_sum_self
from .schlaflian import lower_schlaflian

__all__ = [
    "GuardianMapKind",
    "GuardianReport",
    "Verdict",
    "apply_rho",
    "bracket_preservation_residual",
    "contragradient",
    "guardian_evaluate",
    "guardian_factors",
    "lie_bracket",
    "similarity_transform",
]


class GuardianMapKind(str, enum.Enum):
    """The four guardian representations, with their rho(A) dimensions:
    n^2, C(n,2), C(n+1,2), C(n,2) respectively."""

    KRONECKER_SUM = "kron"
    ADDITIVE_COMPOUND_2 = "add2"
    LOWER_SCHLAFLIAN_2 = "schlaflian"
    BIALTERNATE = "bialt"


class Verdict(str, enum.Enum):
    NONZERO_STABLE = "NonzeroStable"
    ZERO_BOUNDARY = "ZeroBoundary"
    NONZERO_UNSTABLE = "NonzeroUnstable"


# (f vanishes, oracle) -> (verdict, joint stability).  The joint stability
# is the oracle's call, except that a vanishing f turns "stable" into
# "boundary"; f also vanishes at unstable matrices with a mirrored pair
# (lambda, -lambda), so there the oracle's "unstable" stands.  A nonzero f
# with an oracle "boundary" keeps the verdict NonzeroUnstable.
_CLASSIFY = {
    (True, Stability.STABLE): (Verdict.ZERO_BOUNDARY, Stability.BOUNDARY),
    (True, Stability.BOUNDARY): (Verdict.ZERO_BOUNDARY, Stability.BOUNDARY),
    (True, Stability.UNSTABLE): (Verdict.ZERO_BOUNDARY, Stability.UNSTABLE),
    (False, Stability.STABLE): (Verdict.NONZERO_STABLE, Stability.STABLE),
    (False, Stability.BOUNDARY): (Verdict.NONZERO_UNSTABLE, Stability.BOUNDARY),
    (False, Stability.UNSTABLE): (Verdict.NONZERO_UNSTABLE, Stability.UNSTABLE),
}


def lie_bracket(a, b) -> np.ndarray:
    """Commutator [A, B] = AB - BA."""
    a = as_square(a, "a")
    b = as_square(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def apply_rho(kind: GuardianMapKind, a) -> np.ndarray:
    """Evaluate the representation of the given kind at A."""
    a = as_square(a, "a")
    kind = GuardianMapKind(kind)
    if kind is GuardianMapKind.KRONECKER_SUM:
        return kron_sum_self(a)
    if kind is GuardianMapKind.ADDITIVE_COMPOUND_2:
        return add_compound(a, 2)
    if kind is GuardianMapKind.LOWER_SCHLAFLIAN_2:
        return lower_schlaflian(a, 2)
    return bialternate_sum_self(a)


def bracket_preservation_residual(kind: GuardianMapKind, a, b) -> float:
    """Max-abs of rho([A,B]) - [rho(A), rho(B)]; zero for representations."""
    br = lie_bracket(a, b)
    lhs = apply_rho(kind, br)
    rhs = lie_bracket(apply_rho(kind, a), apply_rho(kind, b))
    return maxabs(lhs - rhs)


def similarity_transform(rho_of_a, t) -> np.ndarray:
    """Conjugate a representation value: T rho(A) T^{-1}.

    Raises ``numpy.linalg.LinAlgError`` when ``t`` is singular.
    """
    m = as_square(rho_of_a, "rho_of_a")
    t = as_square(t, "t")
    if t.shape != m.shape:
        raise ValueError(f"dimension mismatch: {m.shape} vs {t.shape}")
    # (T m) T^{-1} solved as T' y' = (T m)' to avoid forming the inverse.
    return np.linalg.solve(t.T, (t @ m).T).T


def contragradient(kind: GuardianMapKind, a) -> np.ndarray:
    """The contragradient representation (rho(-A))^T.

    Negates the spectrum of rho(A) and preserves the bracket, so it is
    again a guardian representation.
    """
    a = as_square(a, "a")
    return apply_rho(kind, -a).T.copy()


@dataclass(frozen=True)
class GuardianReport:
    """Outcome of one guardian-map evaluation.

    ``f_value = det_a * g_value`` is the composed map whose sign drives
    the verdict; ``oracle_verdict`` is the independent eigenvalue
    classification kept for cross-checking.  ``stability`` joins the two
    (the CLI exit code reports it) and is not serialised.
    """

    kind: GuardianMapKind
    g_value: GuardianValue
    det_a: GuardianValue
    f_value: GuardianValue
    verdict: Verdict
    oracle_verdict: Stability
    stability: Stability

    def to_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "g_sign": self.g_value.sign,
            "g_logmag": self.g_value.log_magnitude,
            "det_a_sign": self.det_a.sign,
            "f_sign": self.f_value.sign,
            "verdict": self.verdict.value,
            "oracle": self.oracle_verdict.value,
        }


def guardian_factors(kind: GuardianMapKind, a) -> tuple[GuardianValue, GuardianValue]:
    """g = det(rho(A)) and det(A), without the eigenvalue oracle.

    The determinant zero threshold is referenced to the larger of the
    scales of A and rho(A): rho is linear in A with small integer
    coefficients, so cancellation down to that scale means "zero".  This
    keeps the n = 2 compound kinds, whose rho(A) is the 1x1 trace,
    detectable when the trace cancels to rounding level.  The kron g is
    evaluated on the Sym^2 and Lambda^2 blocks of A (+) A (see
    :func:`_kron_det`); the dense n^2 x n^2 rho is never built here.
    """
    a = as_square(a, "a")
    kind = GuardianMapKind(kind)
    if kind is GuardianMapKind.KRONECKER_SUM:
        g = _kron_det(a)
    else:
        rho = apply_rho(kind, a)
        g = det_signed_log(rho, zero_scale=max(maxabs(a), maxabs(rho)))
    return g, det_signed_log(a, zero_scale=maxabs(a))


def _kron_det(a: np.ndarray) -> GuardianValue:
    """det(A (+) A) as det(S) det(A^[2]), its blocks in an orthonormal basis
    of Sym^2 (+) Lambda^2 (Fulton & Harris, section 8).

    S = D L_2(A) D^-1 with D = diag(1 for i = j, sqrt 2 for i < j) over
    the pairs i <= j.  The basis change is orthogonal, so sigma_min(A (+) A)
    is the smaller of the blocks' and a zero proved for either block is a
    zero of A (+) A.  Both blocks use the dense rho's threshold scale,
    max|A (+) A| = max(|a_ii + a_jj|, |a_ij| for i != j), read off A.
    Lambda^2 is skipped once S reads zero, and is empty at n = 1.
    """
    n = a.shape[0]
    diag = np.diag(a)
    scale = max(maxabs(diag[:, None] + diag), maxabs(a - np.diag(diag)))
    pairs = _subsets(n, 2, repeat=True)
    d = np.where(pairs[:, 0] == pairs[:, 1], 1.0, np.sqrt(2.0))
    sym = lower_schlaflian(a, 2)
    sym *= d[:, None]
    sym /= d
    g = det_signed_log(sym, zero_scale=scale)
    del sym  # freed before the Lambda^2 block is built
    if g.sign == 0 or n == 1:
        return g
    return g * det_signed_log(add_compound(a, 2), zero_scale=scale)


def guardian_evaluate(
    kind: GuardianMapKind, a, tol: float = 1e-8, max_re_lambda: float | None = None
) -> GuardianReport:
    """Evaluate g = det(rho(A)), det(A), and f = det(A) g, with verdicts.

    The oracle classifies max Re(lambda) of A against ``tol``; a caller
    that has already computed it passes ``max_re_lambda`` and saves the
    eigenvalue solve.
    """
    kind = GuardianMapKind(kind)
    g, det_a = guardian_factors(kind, a)
    f = det_a * g
    if max_re_lambda is None:
        oracle = is_hurwitz(a, tol)
    else:
        oracle = abscissa_stability(max_re_lambda, tol)
    verdict, stability = _CLASSIFY[f.sign == 0, oracle]
    return GuardianReport(kind, g, det_a, f, verdict, oracle, stability)
