"""Dense real matrix primitives shared by every other module.

All operations are pure functions on immutable inputs (arrays are never
modified in place), so everything here is safe to call concurrently.
Matrices are plain 2-D float64 numpy arrays in row-major order; validation
happens at the boundaries via :func:`as_matrix`.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GuardianValue",
    "abscissa_stability",
    "Stability",
    "as_matrix",
    "as_square",
    "check_size",
    "det_signed_log",
    "expm",
    "is_hurwitz",
    "match_spectra",
    "maxabs",
    "norm1",
    "spectrum",
]

# Relative zero threshold of det_signed_log: a determinant is zero when
# a bound on the smallest singular value falls below PIVOT_RTOL * scale.
PIVOT_RTOL = 1e-12

# Size guard of every representation builder, checked by check_size before
# anything of output size is allocated: the largest input dimension n and
# the most entries of an output matrix (5000 x 5000 float64, 200 MB).
MAX_N = 32
MAX_ENTRIES = 5000 * 5000


def check_size(n: int, rows: int, cols: int) -> None:
    """Refuse an input dimension over ``MAX_N`` or rows x cols entries (an
    output, or a count of terms to expand) over ``MAX_ENTRIES``."""
    if n > MAX_N:
        raise ValueError(f"n={n} exceeds the n <= {MAX_N} guard")
    if rows * cols > MAX_ENTRIES:
        raise ValueError(
            f"{rows}x{cols} = {rows * cols} entries exceed the {MAX_ENTRIES}-entry guard"
        )


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and convert input to a 2-D float64 array.

    Rejects empty dimensions and non-finite entries; returns a C-contiguous
    copy so callers can rely on the result being independent of the input.
    """
    return _checked(np.array(a, dtype=float, order="C"), name)


def as_square(a, name: str = "matrix") -> np.ndarray:
    return _checked(np.array(a, dtype=float, order="C"), name, square=True)


def _checked(m: np.ndarray, name: str, square: bool = False) -> np.ndarray:
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if m.shape[0] < 1 or m.shape[1] < 1:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    if square and m.shape[0] != m.shape[1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    return m


def maxabs(a) -> float:
    return float(np.max(np.abs(a)))


def norm1(a) -> float:
    """Induced 1-norm (maximum absolute column sum)."""
    return float(np.linalg.norm(np.asarray(a, dtype=float), 1))


@dataclass(frozen=True)
class GuardianValue:
    """Sign and log-magnitude of a determinant.

    ``sign`` is 0 when :func:`det_signed_log` finds the determinant zero,
    and then ``log_magnitude`` is ``-inf``.  Keeping determinants in
    (sign, log|det|) form avoids overflow for the large compound/Kronecker
    matrices whose raw determinants exceed float range.
    """

    sign: int
    log_magnitude: float

    def __mul__(self, other: "GuardianValue") -> "GuardianValue":
        s = self.sign * other.sign
        if s == 0:
            return GuardianValue(0, float("-inf"))
        return GuardianValue(s, self.log_magnitude + other.log_magnitude)

    @property
    def value(self) -> float:
        """Best-effort float value; may overflow to +/-inf for huge dets."""
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_magnitude)
        except OverflowError:
            return self.sign * math.inf


@functools.lru_cache(maxsize=32)
def _probe(n: int) -> np.ndarray:
    x = np.random.default_rng(n).standard_normal((n, 2))
    x.setflags(write=False)
    return x


def det_signed_log(a, zero_scale: float | None = None) -> GuardianValue:
    """Determinant sign and log-magnitude; zero only where a bound proves it.

    Sign and log|det| come from LAPACK (``slogdet``).  The determinant is
    zero when LAPACK meets an exactly singular factor, or when an upper
    bound on sigma_min falls below ``PIVOT_RTOL * zero_scale`` (default:
    the largest absolute entry of ``a``).  The bound is the least of
    ``|x| / |a^-1 x|`` and ``|y| / |a^-T y|`` (y = a^-1 x, normalised) over
    a fixed two-column probe x; every such ratio is >= sigma_min, and the
    transposed half step makes it tight when sigma_min is isolated.
    Callers evaluating a guardian map pass the scale of the pre-image
    matrix, so that 1x1 compressions of near-boundary matrices remain
    detectable.
    """
    m = _checked(np.asarray(a, dtype=float), "a", square=True)
    threshold = PIVOT_RTOL * (maxabs(m) if zero_scale is None else float(zero_scale))
    zero = GuardianValue(0, float("-inf"))
    sign, log_magnitude = np.linalg.slogdet(m)
    if sign == 0:
        return zero
    x = _probe(m.shape[0])
    with np.errstate(over="ignore"):  # an overflowed |y| reads as a zero bound
        for op in (m, m.T):
            try:
                y = np.linalg.solve(op, x)
            except np.linalg.LinAlgError:
                return zero
            y_norm = np.linalg.norm(y, axis=0)
            if not np.min(np.linalg.norm(x, axis=0) / y_norm) >= threshold:
                return zero
            x = y / y_norm
    return GuardianValue(int(sign), float(log_magnitude))


def expm(a, t: float = 1.0) -> np.ndarray:
    """Matrix exponential ``e^{a t}`` (scaling-and-squaring with Pade)."""
    m = as_square(a, "a")
    if not np.isfinite(t):
        raise ValueError("t must be finite")
    import scipy.linalg

    return scipy.linalg.expm(m * float(t))


def spectrum(a) -> np.ndarray:
    """All eigenvalues of a square matrix as a complex array.

    Backed by the dense LAPACK solver (Hessenberg reduction + shifted QR);
    raises ``numpy.linalg.LinAlgError`` if the QR iteration fails to
    converge rather than returning a truncated spectrum.
    """
    m = as_square(a, "a")
    return np.linalg.eigvals(m)


class Stability(str, enum.Enum):
    STABLE = "stable"
    BOUNDARY = "boundary"
    UNSTABLE = "unstable"


def is_hurwitz(a, tol: float = 1e-8) -> Stability:
    """Classify the spectral abscissa of ``a`` against the imaginary axis
    (see :func:`abscissa_stability`)."""
    return abscissa_stability(float(np.max(spectrum(a).real)), tol)


def abscissa_stability(alpha: float, tol: float = 1e-8) -> Stability:
    """stable if ``alpha = max Re(lambda) < -tol``, boundary if
    ``|alpha| <= tol``, unstable otherwise."""
    if not tol >= 0:
        raise ValueError("tol must be nonnegative")
    if alpha < -tol:
        return Stability.STABLE
    if abs(alpha) <= tol:
        return Stability.BOUNDARY
    return Stability.UNSTABLE


def match_spectra(actual, expected, tol: float) -> float:
    """Greedy nearest-neighbor multiset comparison of eigenvalue lists.

    Pairs each expected eigenvalue with the nearest remaining actual one
    and returns the largest pairing distance.  Raises if the lengths
    differ; callers assert the result against their pairing tolerance.
    ``tol`` is only used in the error message when no pairing succeeds.
    """
    act = list(np.asarray(actual, dtype=complex))
    exp = np.asarray(expected, dtype=complex)
    if len(act) != len(exp):
        raise ValueError(f"spectrum size mismatch: {len(act)} vs {len(exp)}")
    # Match large-magnitude values first; ties in the greedy order matter
    # less for well-separated spectra, which is all the tolerance supports.
    order = np.argsort(-np.abs(exp), kind="stable")
    worst = 0.0
    for idx in order:
        target = exp[idx]
        dists = [abs(x - target) for x in act]
        j = int(np.argmin(dists))
        worst = max(worst, dists[j])
        act.pop(j)
    return worst
