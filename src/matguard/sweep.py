"""Stability sweeps along one-parameter matrix families.

A family is A(theta) = A0 + theta*A1 + theta^2*A2 (A2 optional).  The
sweep evaluates a guardian map f on a uniform theta grid.  Every kind's f
vanishes exactly where det(A) det(A^[2]) does, so for every kind a boundary
crossing shows up as a sign change (or an outright zero) of that product
along the grid, and brackets are bisected on its sign; the kind only
chooses the f each sample prints.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import CHUNK_ENTRIES, GuardianValue, as_square, check_size
from .core import spectrum  # noqa: F401  hooked by perfbench/tracing.py, as is guardian_evaluate
from .io import MatrixIOError, matrix_from_obj, matrix_to_obj
from .representations import (
    GuardianMapKind,
    guardian_evaluate,  # noqa: F401  see spectrum
    guardian_factor_stack,
)

__all__ = [
    "Crossing",
    "ParamFamily",
    "SweepResult",
    "SweepSample",
    "refine_crossing",
    "sweep",
]


@dataclass(frozen=True)
class ParamFamily:
    """A(theta) = base + theta*dir1 + theta^2*dir2, all n x n real."""

    base: np.ndarray
    dir1: np.ndarray
    dir2: np.ndarray | None = None

    def __post_init__(self):
        base = as_square(self.base, "base")
        object.__setattr__(self, "base", base)
        for name in ("dir1",) if self.dir2 is None else ("dir1", "dir2"):
            member = as_square(getattr(self, name), name)
            if member.shape != base.shape:
                raise ValueError(
                    f"family members differ in size: {base.shape} vs {member.shape}"
                )
            object.__setattr__(self, name, member)

    @property
    def n(self) -> int:
        return self.base.shape[0]

    def at(self, theta: float) -> np.ndarray:
        return self.members(np.array([float(theta)]))[0]

    def members(self, thetas: np.ndarray) -> np.ndarray:
        """The stack (N, n, n) of A(theta) over a 1-D array of thetas."""
        if not np.isfinite(thetas).all():
            raise ValueError("theta must be finite")
        t = thetas[:, None, None]
        with np.errstate(over="ignore", invalid="ignore"):  # _chunks refuses non-finite members
            a = self.base + t * self.dir1
            if self.dir2 is not None:
                a = a + t * (t * self.dir2)  # finite wherever theta^2 dir2 is, unlike theta^2
        return a

    def to_obj(self) -> dict:
        return {
            "n": self.n,
            "base": matrix_to_obj(self.base),
            "dir1": matrix_to_obj(self.dir1),
            "dir2": None if self.dir2 is None else matrix_to_obj(self.dir2),
        }

    @classmethod
    def from_obj(cls, obj) -> "ParamFamily":
        if not isinstance(obj, dict):
            raise MatrixIOError("family document must be a JSON object")
        for key in ("n", "base", "dir1", "dir2"):
            if key not in obj:
                raise MatrixIOError(f"family document missing key {key!r}")
        if type(obj["n"]) is not int:  # as rows/cols in matrix_from_obj
            raise MatrixIOError(f"family n must be an integer, got {obj['n']!r}")
        base = matrix_from_obj(obj["base"])
        dir1 = matrix_from_obj(obj["dir1"])
        dir2 = None if obj["dir2"] is None else matrix_from_obj(obj["dir2"])
        fam = cls(base, dir1, dir2)
        if fam.n != obj["n"]:
            raise MatrixIOError(
                f"family declares n={obj['n']} but matrices are {fam.n} x {fam.n}"
            )
        return fam


@dataclass(frozen=True)
class SweepSample:
    theta: float
    f_value: GuardianValue
    max_re_lambda: float

    def to_obj(self) -> dict:
        return {
            "theta": self.theta,
            "f_sign": self.f_value.sign,
            "f_logmag": self.f_value.log_magnitude,
            "max_re_lambda": self.max_re_lambda,
        }


@dataclass(frozen=True)
class Crossing:
    """One detected boundary event.

    ``detection`` is "sign_change" (opposite-sign bracket, refinable),
    "grid_zero" (f vanished at a grid point), or "grazing" (f vanished
    at a grid point with equal nonzero signs on both sides -- a touch
    without a sign change, which bisection cannot refine).  The signs are
    those of det(A) det(A^[2]), for every kind.  ``width`` is
    the last bracket's hi - lo (0 at a grid zero): theta lies within
    width/2 of a root in that bracket.
    """

    theta: float
    lo: float
    hi: float
    width: float
    detection: str
    refined: bool
    max_re_lambda: float

    def to_obj(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SweepResult:
    kind: GuardianMapKind
    theta_min: float
    theta_max: float
    samples: tuple
    crossings: tuple
    touches: tuple = field(default=())

    def to_obj(self) -> dict:
        return {
            "kind": self.kind.value,
            "theta_min": self.theta_min,
            "theta_max": self.theta_max,
            "samples": [s.to_obj() for s in self.samples],
            "crossings": [c.to_obj() for c in self.crossings],
            "touches": [c.to_obj() for c in self.touches],
        }


def _chunks(family: ParamFamily, thetas: np.ndarray):
    """A(thetas) in stacks of the ``CHUNK_ENTRIES`` budget: the grid, each
    bisection round and the crossings' abscissae run in chunks of
    CHUNK_ENTRIES // max(1, C(n, 2))^2 members, so no chunk's A^[2] stack
    (C(n, 2)^2 entries a member) exceeds it."""
    size = max(1, CHUNK_ENTRIES // max(1, math.comb(family.n, 2)) ** 2)
    for start in range(0, len(thetas), size):
        a = family.members(thetas[start:start + size])
        bad = ~np.isfinite(a).all(axis=(1, 2))
        if bad.any():
            theta = float(thetas[start + np.argmax(bad)])
            raise ValueError(f"family member A(theta) at theta={theta!r} has non-finite entries")
        yield a


def _abscissae(family: ParamFamily, thetas: np.ndarray) -> list:
    """max Re(lambda) of each A(theta)."""
    return [alpha for a in _chunks(family, thetas)
            for alpha in np.linalg.eigvals(a).real.max(axis=1)]


def _zero_signs(family: ParamFamily, kind: GuardianMapKind, thetas: np.ndarray) -> np.ndarray:
    """sign det(A(theta)) det(A(theta)^[2]) of each theta: zero where f is."""
    return np.concatenate([det_a[0] * det_alt[0] for a in _chunks(family, thetas)
                           for _, _, det_a, det_alt in [guardian_factor_stack(kind, a)]])


def _bisect(family: ParamFamily, kind: GuardianMapKind, lo: np.ndarray, hi: np.ndarray,
            s_lo: np.ndarray, tol: float) -> tuple:
    """Bisect the brackets [lo, hi] in lockstep, on sign det(A) det(A^[2]), s_lo
    at each lo; returns each bracket's last midpoint and last width hi - lo.

    Each round evaluates the midpoints of every open bracket in one stacked
    call.  A bracket closes at a midpoint where f = 0, once it is no wider
    than tol, or when no float lies strictly between its ends.
    """
    lo, hi = lo.copy(), hi.copy()
    mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi may overflow
    live = np.arange(len(lo))
    while True:
        with np.errstate(over="ignore"):  # across the float range, hi - lo is inf
            wide = hi[live] - lo[live] > tol
        live = live[wide & (lo[live] < mid[live]) & (mid[live] < hi[live])]
        if not live.size:
            with np.errstate(over="ignore"):
                return mid, hi - lo
        s_mid = _zero_signs(family, kind, mid[live])
        live = live[s_mid != 0]  # a midpoint where f = 0 ends its bracket there
        below = s_mid[s_mid != 0] == s_lo[live]
        lo[live] = np.where(below, mid[live], lo[live])
        hi[live] = np.where(below, hi[live], mid[live])
        mid[live] = 0.5 * lo[live] + 0.5 * hi[live]


def refine_crossing(
    family: ParamFamily,
    kind: GuardianMapKind,
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> float:
    """The refined two-sample sweep over [lo, hi]: returns its first crossing.

    Requires opposite nonzero signs of det(A) det(A^[2]) at the ends; an
    end where f vanishes is returned as-is (the lo end first).
    """
    result = sweep(family, kind, lo, hi, 2, refine=True, tol=tol)
    if not result.crossings:
        raise ValueError(
            f"det(A) det(A^[2]) has the same sign at both bracket endpoints "
            f"[{result.theta_min}, {result.theta_max}]; nothing to bisect"
        )
    return result.crossings[0].theta


def sweep(
    family: ParamFamily,
    kind: GuardianMapKind,
    theta_min: float,
    theta_max: float,
    samples: int,
    refine: bool = False,
    tol: float = 1e-8,
) -> SweepResult:
    """Evaluate the guardian map on a uniform grid and find crossings.

    Events are found on the sign of det(A) det(A^[2]), zero exactly where
    f is, so every kind reports the same events.  A grid zero flanked by
    equal nonzero signs is a grazing touch (flagged, not refined, reported
    under ``touches``); any other is a crossing.  Adjacent samples with
    opposite nonzero signs bracket a crossing, located at its midpoint
    or, with ``refine``, by bisection of all brackets in lockstep.  The
    grid is evaluated as stacks of family members (see ``CHUNK_ENTRIES``).
    """
    kind = GuardianMapKind(kind)
    theta_min = float(theta_min)
    theta_max = float(theta_max)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not (math.isfinite(theta_min) and math.isfinite(theta_max)):
        raise ValueError("theta range must be finite")
    if theta_min >= theta_max:
        raise ValueError(
            f"degenerate interval: theta_min={theta_min} >= theta_max={theta_max}"
        )
    check_size(family.n, samples, 1)  # before the grid is allocated

    # from halves, exact in normal range: theta_max - theta_min may overflow
    grid = 2 * np.linspace(theta_min / 2, theta_max / 2, samples)
    chunks = [(np.linalg.eigvals(a).real.max(axis=1), *f, det_a[0] * det_alt[0])
              for a in _chunks(family, grid)
              for f, _, det_a, det_alt in [guardian_factor_stack(kind, a)]]
    alphas, f_signs, f_logs, signs = (np.concatenate(column) for column in zip(*chunks))
    evaluated = [SweepSample(float(t), GuardianValue(int(s), float(m)), float(alpha))
                 for t, s, m, alpha in zip(grid, f_signs, f_logs, alphas)]

    brackets = np.flatnonzero(signs[:-1] * signs[1:] == -1)
    # unrefined, no bracket is wider than an infinite tol: each keeps its midpoint
    stars, widths = _bisect(family, kind, grid[brackets], grid[brackets + 1],
                            signs[brackets], tol if refine else math.inf)
    located = iter(zip(stars, widths, _abscissae(family, stars)))

    crossings = []
    touches = []
    for i, sample in enumerate(evaluated):
        left = signs[i - 1] if i > 0 else 0
        right = signs[i + 1] if i + 1 < len(signs) else 0
        theta = sample.theta
        if signs[i] == 0:
            grazing = left != 0 and left == right
            event = Crossing(theta=theta, lo=theta, hi=theta, width=0.0,
                             detection="grazing" if grazing else "grid_zero",
                             refined=not grazing, max_re_lambda=sample.max_re_lambda)
            (touches if grazing else crossings).append(event)
        elif signs[i] * right == -1:
            star, width, alpha = next(located)
            crossings.append(Crossing(theta=float(star), lo=theta,
                                      hi=evaluated[i + 1].theta, width=float(width),
                                      detection="sign_change", refined=refine,
                                      max_re_lambda=float(alpha)))
    return SweepResult(
        kind=kind,
        theta_min=theta_min,
        theta_max=theta_max,
        samples=tuple(evaluated),
        crossings=tuple(crossings),
        touches=tuple(touches),
    )
