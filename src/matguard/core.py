"""Dense real matrix primitives shared by every other module.

All operations are pure functions on immutable inputs (arrays are never
modified in place), so everything here is safe to call concurrently.
Matrices are float64 numpy arrays in row-major order; validation happens
at the boundaries via :func:`as_matrix`, or ``_checked`` for the stacks
(..., n, n) of the rho builders.  :func:`expm` takes one matrix or a stack
(..., m, m) and an array of times; :func:`det_signed_log_stack` takes a
finite stack (N, m, m), whose stack of one is :func:`det_signed_log`; the
other public helpers take one matrix.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GuardianValue",
    "Stability",
    "as_matrix",
    "as_square",
    "check_size",
    "det_signed_log",
    "det_signed_log_stack",
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

# A first sigma_min bound of _FAR times the zero threshold (1e-6 of the scale)
# or more proves a determinant nonzero without the tightening M^T solve.
_FAR = 1e6

# Exponent band of max|A| inside which det_signed_log and the guardian
# factors leave A unscaled.  In it rho(A) (entries <= 4 max|A|), its LU
# factors and the sigma_min probe solves stay clear of overflow and of
# subnormals, with a margin of at least ~2^70 at each end for LU growth.
_SCALE_BAND = 900
_LN2 = math.log(2.0)

# Budget of one stacked evaluation, in entries of its largest stack: the
# sweep's chunks of theta, the verify suites' runs of trials and pairs and
# the groups of expm stay within it (a member or trial too large runs alone).
CHUNK_ENTRIES = 1 << 15

# Size guard of every representation builder, checked by check_size before
# anything of output size is allocated: the largest input dimension n and
# the most entries of an output matrix (5000 x 5000 float64, 200 MB), or
# the most 8-byte words that the terms of an expansion allocate.
MAX_N = 32
MAX_ENTRIES = 5000 * 5000


def check_size(n: int, rows: int, cols: int) -> None:
    """Refuse an input dimension over ``MAX_N`` or rows x cols entries (an
    output, or terms to expand times the words each allocates) over
    ``MAX_ENTRIES``."""
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
    return _checked(a, name)


def as_square(a, name: str = "matrix") -> np.ndarray:
    return _checked(a, name, square=True)


def _checked(a, name: str, square: bool = False, stack: bool = False) -> np.ndarray:
    m = np.array(a, dtype=float, order="C")
    if m.ndim != 2 and not (stack and m.ndim > 2):
        raise ValueError(f"{name} must be 2-dimensional, got ndim={m.ndim}")
    if 0 in m.shape:
        raise ValueError(f"{name} must have positive dimensions, got {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains non-finite entries")
    if square and m.shape[-2] != m.shape[-1]:
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


@functools.lru_cache(maxsize=32)
def _probe(n: int) -> np.ndarray:
    x = np.random.default_rng(n).standard_normal((n, 2))
    x.setflags(write=False)
    return x


def _band_scaled(stack: np.ndarray):
    """(stack, max|A|, e) of a stack (N, n, n), each member whose max|A| lies
    outside [2^-_SCALE_BAND, 2^_SCALE_BAND) scaled by the exact 2^-e that brings
    it into [1/2, 1) (e = 0 inside the band, where every bit is kept)."""
    scale = np.abs(stack).max(axis=(1, 2))
    e = np.frexp(scale)[1]
    shift = np.where(abs(e) > _SCALE_BAND, e, 0)
    if shift.any():
        stack = np.ldexp(stack, -shift[:, None, None])
        scale = np.ldexp(scale, -shift)
    return stack, scale, shift


def det_signed_log(a, zero_scale: float | None = None) -> GuardianValue:
    """Determinant sign and log-magnitude; zero only where a bound proves it.

    The one-matrix case of :func:`det_signed_log_stack`, whose rule it
    follows: ``zero_scale`` defaults to the largest absolute entry of
    ``a``.  Callers evaluating a guardian map pass the scale of the
    pre-image matrix, so that 1x1 compressions of near-boundary matrices
    remain detectable.  An ``a`` outside the exponent band is scaled first
    (see :func:`_band_scaled`), ``zero_scale`` with it.
    """
    stack, scales, shift = _band_scaled(as_square(a, "a")[None])
    scales = scales if zero_scale is None else np.ldexp([float(zero_scale)], -shift)
    sign, log_magnitude = (v[0] for v in det_signed_log_stack(stack, scales))
    # log|det| + 0.0 inside the band keeps every bit
    return GuardianValue(int(sign), float(log_magnitude + stack.shape[-1] * shift[0] * _LN2))


def det_signed_log_stack(stack: np.ndarray, zero_scales: np.ndarray):
    """Signs and log|det| of each member of a stack (N, m, m) of finite matrices.

    A member's determinant is zero (sign 0, log|det| -inf) when LAPACK
    meets an exactly singular factor, or when an upper bound on its
    sigma_min falls below ``PIVOT_RTOL * zero_scales[i]``.  The bound is
    the least of ``|x| / |a^-1 x|`` and ``|y| / |a^-T y|`` (y = a^-1 x,
    normalised) over a fixed two-column probe x; every such ratio is
    >= sigma_min, and the transposed half step makes it tight when
    sigma_min is isolated.  Bound and threshold work in exact units of
    2^e ~ scale, so both stay in float range at any scale.  A member
    proved zero does no further work, and so does a member whose first
    bound is at least ``_FAR`` times the threshold: the M^T solve runs only
    on the members between the two, and ``slogdet`` only on those proved
    nonzero.  Every LAPACK call acts on each member alone, so a member's
    result does not depend on the rest of the stack.
    """
    count = len(stack)
    signs = np.zeros(count, dtype=np.int64)
    log_magnitudes = np.full(count, -np.inf)
    nonzero = np.zeros(count, dtype=bool)
    mantissa, e = np.frexp(zero_scales)
    threshold = PIVOT_RTOL * mantissa
    x = _probe(stack.shape[-1])
    live = np.arange(count)
    with np.errstate(over="ignore"):  # an overflowed |y| reads as a zero bound
        for transposed, far in ((False, _FAR), (True, 1.0)):
            ops = stack if live.size == count else stack[live]
            try:
                # b as an (N, m, 2) stack: numpy 1.x and 2.x read an (N, m) b differently
                y = np.linalg.solve(ops.swapaxes(1, 2) if transposed else ops,
                                    np.broadcast_to(x, (live.size,) + x.shape[-2:]))
            except np.linalg.LinAlgError:  # an exactly singular factor, in some member
                for i in live if count > 1 else ():  # numpy refuses the whole stack
                    signs[i], log_magnitudes[i] = (
                        v[0] for v in det_signed_log_stack(stack[i:i + 1], zero_scales[i:i + 1]))
                break
            y = np.ldexp(y, e[live, None, None])
            y_norm = np.linalg.norm(y, axis=-2)
            bound = np.min(np.linalg.norm(x, axis=-2) / y_norm, axis=-1)
            nonzero[live[bound >= far * threshold[live]]] = True
            tighten = (bound < far * threshold[live]) & (bound >= threshold[live])
            live, x = live[tighten], y[tighten] / y_norm[tighten, None, :]
            if not live.size:
                break
    live = np.flatnonzero(nonzero)
    if live.size:
        ops = stack if live.size == count else stack[live]
        signs[live], log_magnitudes[live] = np.linalg.slogdet(ops)
    return signs, log_magnitudes


# [13/13] Pade approximant of e^x (Higham, SIMAX 26(4), 2005), accurate to unit
# roundoff for |x|_1 <= THETA_13; b_j is divided by b_0 so that e^0 = I exactly.
# Rows of _PADE_WEIGHTS weigh (I, x^2, x^4, x^6) into u's high and low parts, then v's.
THETA_13 = 5.371920351148152
_PADE_B = [math.factorial(26 - j) // (math.factorial(j) * math.factorial(13 - j))
           for j in range(14)]
_PADE_WEIGHTS = np.array([b / _PADE_B[0] for b in _PADE_B] + [0.0])[  # index 14 is 0
    [[14, 9, 11, 13], [1, 3, 5, 7], [14, 8, 10, 12], [0, 2, 4, 6]]
]


def expm(a, t=1.0) -> np.ndarray:
    """Matrix exponential ``e^{a t}``: the Pade approximant at a t / 2^s, squared s times.

    ``a`` is one matrix or a stack (..., m, m) and ``t`` a finite time, or an array of
    them that broadcasts against a's leading axes; the result has the broadcast leading
    shape, so ``expm(stack[:, None], times)`` is every member at every time.  A diagonal
    member (1x1 included) is exponentiated entrywise; other near-scalar inputs keep the
    fixed degree's error, doubled by each squaring (~1e-13).  The (member, time) pairs,
    in C order, are grouped by squaring count s, in groups whose working set (the 12
    group-sized stacks of :func:`_pade_squared`) stays within ``CHUNK_ENTRIES``: a group
    makes one gemm of the Pade weights, one stacked solve and one ``matrix_power``.
    Every step acts on each pair alone, on a C-ordered stack (a transposed member takes
    another BLAS path), so a pair's result does not depend on the rest.
    """
    stack = _checked(a, "a", square=True, stack=True)
    t = np.asarray(t, dtype=float)
    if not np.all(np.isfinite(t)):
        raise ValueError("t must be finite")
    *lead, m, _ = stack.shape
    shape = np.broadcast_shapes(tuple(lead), t.shape)
    members = np.broadcast_to(np.arange(stack.size // (m * m)).reshape(lead), shape).ravel()
    times = np.broadcast_to(t, shape).ravel()
    stack = stack.reshape(-1, m, m)
    out = np.empty((*shape, m, m))
    flat = out.reshape(-1, m, m)
    d = np.diagonal(stack, axis1=1, axis2=2)
    diagonal = (np.count_nonzero(stack, axis=(1, 2)) == np.count_nonzero(d, axis=1))[members]
    if diagonal.any():
        pairs, idx = np.flatnonzero(diagonal)[:, None], np.arange(m)
        flat[pairs] = 0.0
        with np.errstate(over="ignore"):  # an e^{a t} past float range reads inf
            flat[pairs, idx, idx] = np.exp(d[members[pairs[:, 0]]] * times[pairs])
    norms = np.abs(stack).sum(axis=1).max(axis=1)[members] * np.abs(times)
    squarings = np.array([math.ceil(math.log2(norm / THETA_13)) if norm > THETA_13 else 0
                          for norm in norms.tolist()], dtype=np.int64)
    size = max(1, CHUNK_ENTRIES // (12 * m * m))
    for s in sorted(set(squarings[~diagonal].tolist())):  # np.unique would import numpy.ma
        pairs = np.flatnonzero(~diagonal & (squarings == s))
        for group in np.array_split(pairs, -(-len(pairs) // size)):
            flat[group] = _pade_squared(stack[members[group]], times[group], s)
    return out


def _pade_squared(stack: np.ndarray, times: np.ndarray, s: int) -> np.ndarray:
    """The [13/13] Pade approximant of e^{a t / 2^s}, squared s times, of each
    member of a C-ordered stack: one gemm of the weights, one stacked solve.
    At most 12 stacks of the input's size are alive at once: x, its four
    powers, their four weighted sums, and u (two while x u is formed) and v."""
    x = stack * (times / 2.0**s)[:, None, None]
    powers = np.empty((4, *x.shape))  # I, x^2, x^4, x^6
    powers[0] = np.eye(x.shape[-1])
    np.matmul(x, x, out=powers[1])
    np.matmul(powers[1], powers[1], out=powers[2])
    np.matmul(powers[2], powers[1], out=powers[3])
    u_high, u_low, v_high, v_low = (_PADE_WEIGHTS @ powers.reshape(4, -1)).reshape(powers.shape)
    u = powers[3] @ u_high
    u += u_low
    u = x @ u
    v = powers[3] @ v_high
    v += v_low
    del x, powers, u_high, u_low, v_high, v_low  # the solve needs only u and v
    with np.errstate(over="ignore"):  # an e^{a t} past float range reads inf
        return np.linalg.matrix_power(np.linalg.solve(v - u, v + u), 2**s)


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
    """Classify the spectral abscissa alpha = max Re(lambda) of ``a``:
    stable if alpha < -tol, boundary if |alpha| <= tol, unstable otherwise."""
    alpha = float(np.max(spectrum(a).real))
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
