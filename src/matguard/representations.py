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
import math
from dataclasses import dataclass

import numpy as np

from .bialternate import bialternate_sum_self
from .compound import _add_compound_stack, _subsets, add_compound
from .core import (  # noqa: F401  det_signed_log: a hook of perfbench/tracing.py
    GuardianValue,
    Stability,
    abscissa_stability,
    as_square,
    det_signed_log,
    det_signed_log_stack,
    is_hurwitz,
    maxabs,
)
from .kron import kron_sum_self
from .schlaflian import _lower_schlaflian_stack, lower_schlaflian

__all__ = [
    "GuardianMapKind",
    "GuardianReport",
    "Verdict",
    "apply_rho",
    "bracket_preservation_residual",
    "contragradient",
    "guardian_evaluate",
    "guardian_factor_stack",
    "guardian_factors",
    "guardian_report_stack",
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


# Exponent band of max|A| inside which guardian_factor_stack leaves A
# unscaled.  In it rho(A) (entries <= 4 max|A|), its LU factors and the
# sigma_min probe solves stay clear of overflow and of subnormals, with a
# margin of at least ~2^70 at each end for LU growth.
_SCALE_BAND = 900
_LN2 = math.log(2.0)


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
    """g = det(rho(A)) and det(A), without the eigenvalue oracle: the
    one-matrix case of :func:`guardian_factor_stack`."""
    a = as_square(a, "a")
    (g,), (det_a,) = _values(*guardian_factor_stack(kind, a[None]))
    return g, det_a


def guardian_factor_stack(kind: GuardianMapKind, stack: np.ndarray):
    """(signs, log|det|) of g = det(rho(A)) and of det(A), for each member
    of a stack (N, n, n) of finite matrices.

    The determinant zero threshold is referenced to the larger of the
    scales of A and rho(A): rho is linear in A with small integer
    coefficients, so cancellation down to that scale means "zero".  This
    keeps the n = 2 compound kinds, whose rho(A) is the 1x1 trace,
    detectable when the trace cancels to rounding level.  add2 and bialt
    share the Lambda^2 gather of :func:`add_compound` (bialt's own
    four-delta rule is its oracle); the kron g is evaluated on the Sym^2
    and Lambda^2 blocks of A (+) A (see :func:`_kron_g`), so the dense
    n^2 x n^2 rho is never built here.

    A member whose max|A| lies outside [2^-_SCALE_BAND, 2^_SCALE_BAND) is
    first scaled by the exact power of two 2^-e that brings max|A| into
    [1/2, 1); each log|det| then gets dim * e * ln 2 back.  rho is linear
    with integer coefficients, so rho(2^-e A) = 2^-e rho(A): nothing
    overflows in rho or in a solve, and members inside the band keep
    every bit.
    """
    kind = GuardianMapKind(kind)
    n = stack.shape[-1]
    scale_a = np.abs(stack).max(axis=(1, 2))
    e = np.frexp(scale_a)[1]
    shift = np.where(abs(e) > _SCALE_BAND, e, 0)
    if shift.any():
        stack = np.ldexp(stack, -shift[:, None, None])
        scale_a = np.ldexp(scale_a, -shift)
    if kind is GuardianMapKind.KRONECKER_SUM:
        g, dim = _kron_g(stack), n * n
    else:
        if kind is GuardianMapKind.LOWER_SCHLAFLIAN_2:
            rho = _lower_schlaflian_stack(stack, 2)
        else:  # add2, and bialt: its four-delta rule gives the same Lambda^2 block
            rho = _add_compound_stack(stack, 2)
        g = det_signed_log_stack(rho, np.maximum(scale_a, np.abs(rho).max(axis=(1, 2))))
        dim = rho.shape[-1]
    det_a = det_signed_log_stack(stack, scale_a)
    if shift.any():
        for (_, log_magnitudes), size in ((g, dim), (det_a, n)):
            log_magnitudes += size * shift * _LN2
    return g, det_a


def _kron_g(stack: np.ndarray):
    """det(A (+) A) of each member as det(S) det(A^[2]), its blocks in an
    orthonormal basis of Sym^2 (+) Lambda^2 (Fulton & Harris, section 8).

    S = D L_2(A) D^-1 with D = diag(1 for i = j, sqrt 2 for i < j) over
    the pairs i <= j.  The basis change is orthogonal, so sigma_min(A (+) A)
    is the smaller of the blocks' and a zero proved for either block is a
    zero of A (+) A.  Both blocks use the dense rho's threshold scale,
    max|A (+) A| = max(|a_ii + a_jj|, |a_ij| for i != j), read off A.
    Lambda^2 is built only for the members whose S reads nonzero, after
    the S stack is freed, and is empty at n = 1.
    """
    n = stack.shape[-1]
    diag = np.diagonal(stack, axis1=1, axis2=2)
    off = np.abs(stack)
    off[:, range(n), range(n)] = 0.0
    scale = np.maximum(np.abs(diag[:, :, None] + diag[:, None, :]).max(axis=(1, 2)),
                       off.max(axis=(1, 2)))
    pairs = _subsets(n, 2, repeat=True)
    d = np.where(pairs[:, 0] == pairs[:, 1], 1.0, np.sqrt(2.0))
    sym = _lower_schlaflian_stack(stack, 2)
    sym *= d[:, None]
    sym /= d
    signs, log_magnitudes = det_signed_log_stack(sym, scale)
    del sym  # freed before the Lambda^2 block is built
    live = np.flatnonzero(signs)
    if n > 1 and live.size:
        alt = _add_compound_stack(stack if len(live) == len(stack) else stack[live], 2)
        alt_signs, alt_log_magnitudes = det_signed_log_stack(alt, scale[live])
        signs[live] *= alt_signs
        log_magnitudes[live] += alt_log_magnitudes
    return signs, log_magnitudes


def _values(*factors) -> tuple:
    """Each (signs, log|det|) pair as a list of GuardianValue."""
    return tuple([GuardianValue(int(s), float(m)) for s, m in zip(*pair)] for pair in factors)


def guardian_report_stack(kind: GuardianMapKind, stack: np.ndarray, oracles) -> list:
    """The report of each member of a stack (N, n, n) of finite matrices,
    given each member's oracle verdict (see :func:`guardian_evaluate`)."""
    kind = GuardianMapKind(kind)
    reports = []
    for g, det_a, oracle in zip(*_values(*guardian_factor_stack(kind, stack)), oracles):
        f = det_a * g
        verdict, stability = _CLASSIFY[f.sign == 0, oracle]
        reports.append(GuardianReport(kind, g, det_a, f, verdict, oracle, stability))
    return reports


def guardian_evaluate(
    kind: GuardianMapKind, a, tol: float = 1e-8, max_re_lambda: float | None = None
) -> GuardianReport:
    """Evaluate g = det(rho(A)), det(A), and f = det(A) g, with verdicts.

    The oracle classifies max Re(lambda) of A against ``tol``; a caller
    that has already computed it passes ``max_re_lambda`` and saves the
    eigenvalue solve.  The one-matrix case of :func:`guardian_report_stack`.
    """
    kind = GuardianMapKind(kind)
    a = as_square(a, "a")
    if max_re_lambda is None:
        oracle = is_hurwitz(a, tol)
    else:
        oracle = abscissa_stability(max_re_lambda, tol)
    return guardian_report_stack(kind, a[None], [oracle])[0]
