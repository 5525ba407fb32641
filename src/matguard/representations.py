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
from .compound import add_compound
from .core import (  # noqa: F401  det_signed_log: a hook of perfbench/tracing.py
    GuardianValue,
    Stability,
    _LN2,
    _band_scaled,
    _checked,
    as_square,
    det_signed_log,
    det_signed_log_stack,
    is_hurwitz,
)
from .kron import kron_sum_self
from .schlaflian import lower_schlaflian

__all__ = [
    "GuardianMapKind",
    "GuardianReport",
    "Verdict",
    "apply_rho",
    "contragradient",
    "guardian_evaluate",
    "guardian_factor_stack",
    "lie_bracket",
]


class GuardianMapKind(str, enum.Enum):
    """The four guardian representations, with their rho(A) dimensions:
    n^2, C(n,2), C(n+1,2), C(n,2) respectively."""

    KRONECKER_SUM = "kron"
    ADDITIVE_COMPOUND_2 = "add2"
    LOWER_SCHLAFLIAN_2 = "schlaflian"
    BIALTERNATE = "bialt"


# g = det(2A)^p det(A^[2])^q of each kind, as (p, q): A (+) A ~ L_2(A) (+) A^[2]
# and det L_2(A) = 2^n det A det A^[2] (Stephanos 1900; Fuller 1968).
_POWERS = {
    GuardianMapKind.KRONECKER_SUM: (1, 2),
    GuardianMapKind.ADDITIVE_COMPOUND_2: (0, 1),
    GuardianMapKind.LOWER_SCHLAFLIAN_2: (1, 1),
    GuardianMapKind.BIALTERNATE: (0, 1),
}


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
    """Commutator [A, B] = AB - BA, of one pair or of each member pair of two
    stacks (..., m, m)."""
    a = _checked(a, "a", square=True, stack=True)
    b = _checked(b, "b", square=True, stack=True)
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a


def apply_rho(kind: GuardianMapKind, a) -> np.ndarray:
    """The dense rho(A) of the given kind, of one A or of a stack (..., n, n): for
    ``compute`` and ``verify``, and as the oracle of :func:`guardian_factor_stack`."""
    kind = GuardianMapKind(kind)
    if kind is GuardianMapKind.KRONECKER_SUM:
        return kron_sum_self(a)
    if kind is GuardianMapKind.ADDITIVE_COMPOUND_2:
        return add_compound(a, 2)
    if kind is GuardianMapKind.LOWER_SCHLAFLIAN_2:
        return lower_schlaflian(a, 2)
    return bialternate_sum_self(a)


def contragradient(kind: GuardianMapKind, a) -> np.ndarray:
    """The contragradient representation (rho(-A))^T, of one matrix or of
    each member of a stack (..., n, n).

    Negates the spectrum of rho(A) and preserves the bracket, so it is
    again a guardian representation.
    """
    return np.swapaxes(apply_rho(kind, -np.asarray(a, dtype=float)), -1, -2).copy()


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


def guardian_factor_stack(kind: GuardianMapKind, stack: np.ndarray):
    """(signs, log|det|) of f = det(A) g, of g = det(rho(A)), of det(A) and of
    det(A^[2]), for each member of a stack (N, n, n) of finite matrices.

    Every kind is evaluated on one pair of factorizations, det A and
    det A^[2] (:func:`add_compound` of the stack), as
    g = det(2A)^p det(A^[2])^q with (p, q) from ``_POWERS``, so every kind's
    f vanishes exactly where det(A) det(A^[2]) does (log|f| = -inf there);
    the dense det of :func:`apply_rho` is the oracle of this path.  At
    n = 1, Lambda^2 is empty (det A^[2] = 1), and add2 and bialt refuse as
    :func:`add_compound` does.  det A is zero at the scale of A, det A^[2]
    at the larger of the scales of A and A^[2], so the n = 2 trace A^[2]
    reads zero when it cancels to rounding level.

    A member whose max|A| lies outside the exponent band is first scaled by
    the exact 2^-e of :func:`core._band_scaled`, and each factor's log|det|
    gets dim * e * ln 2 back before the powers are applied: A^[2] is linear
    with integer coefficients, so nothing overflows in the gather or a
    solve, and members inside the band keep every bit.
    """
    kind = GuardianMapKind(kind)
    count, n = len(stack), stack.shape[-1]
    power_a, power_alt = _POWERS[kind]
    stack, scale_a, shift = _band_scaled(stack)
    if n == 1 and power_a:  # Lambda^2 R^1 = 0: det A^[2] is the empty product
        det_alt = np.ones(count, dtype=np.int64), np.zeros(count)
    else:  # the gather's size guard acts before any factorization
        alt = add_compound(stack, 2)
        # max(|A|, |A^[2]|), without an |A^[2]|-sized temporary
        scale = np.maximum(scale_a, np.maximum(abs(alt.max(axis=(1, 2))),
                                               abs(alt.min(axis=(1, 2)))))
        det_alt = det_signed_log_stack(alt, scale)
    det_a = det_signed_log_stack(stack, scale_a)
    if shift.any():
        for (_, log_magnitudes), dim in ((det_a, n), (det_alt, math.comb(n, 2))):
            log_magnitudes += dim * shift * _LN2
    g_signs, g_logs = det_alt[0] ** power_alt, power_alt * det_alt[1]
    if power_a:  # det(2A) = 2^n det A
        g_signs = g_signs * det_a[0]
        g_logs = g_logs + (det_a[1] + n * _LN2)
    f_signs = det_a[0] * g_signs
    f = f_signs, np.where(f_signs == 0, -np.inf, det_a[1] + g_logs)
    return f, (g_signs, g_logs), det_a, det_alt


def guardian_evaluate(kind: GuardianMapKind, a, tol: float = 1e-8) -> GuardianReport:
    """Evaluate g = det(rho(A)), det(A), and f = det(A) g, with verdicts.

    The oracle classifies max Re(lambda) of A against ``tol`` (see
    :func:`is_hurwitz`) before the factors are computed.
    """
    kind = GuardianMapKind(kind)
    a = as_square(a, "a")
    oracle = is_hurwitz(a, tol)
    f, g, det_a, _ = (GuardianValue(int(signs[0]), float(log_magnitudes[0]))
                      for signs, log_magnitudes in guardian_factor_stack(kind, a[None]))
    verdict, stability = _CLASSIFY[f.sign == 0, oracle]
    return GuardianReport(kind, g, det_a, f, verdict, oracle, stability)
