"""Stability sweeps along one-parameter matrix families.

A family is A(theta) = A0 + theta*A1 + theta^2*A2 (A2 optional).  The
sweep evaluates a guardian map on a uniform theta grid; because f is
nonzero exactly on the open Hurwitz set, a stability-boundary crossing
shows up as a sign change (or an outright zero) of f along the grid.
Brackets with opposite signs are refined by bisection on sign(f).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .core import as_square, spectrum
from .io import MatrixIOError, matrix_from_obj, matrix_to_obj
from .representations import GuardianMapKind, GuardianReport, guardian_evaluate, guardian_factors

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
        theta = float(theta)
        if not math.isfinite(theta):
            raise ValueError("theta must be finite")
        a = self.base + theta * self.dir1
        if self.dir2 is not None:
            a = a + theta * theta * self.dir2
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
    report: GuardianReport
    max_re_lambda: float

    def to_obj(self) -> dict:
        return {
            "theta": self.theta,
            "f_sign": self.report.f_value.sign,
            "f_logmag": self.report.f_value.log_magnitude,
            "max_re_lambda": self.max_re_lambda,
        }


@dataclass(frozen=True)
class Crossing:
    """One detected boundary event.

    ``detection`` is "sign_change" (opposite-sign bracket, refinable),
    "grid_zero" (f vanished at a grid point), or "grazing" (f vanished
    at a grid point with equal nonzero signs on both sides -- a touch
    without a sign change, which bisection cannot refine).
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


def _evaluate(family: ParamFamily, kind: GuardianMapKind, theta: float) -> SweepSample:
    a = family.at(theta)
    alpha = float(np.max(spectrum(a).real))
    return SweepSample(float(theta), guardian_evaluate(kind, a, max_re_lambda=alpha), alpha)


def _f_sign(family: ParamFamily, kind: GuardianMapKind, theta: float) -> int:
    g, det_a = guardian_factors(kind, family.at(theta))
    return (det_a * g).sign


def refine_crossing(
    family: ParamFamily,
    kind: GuardianMapKind,
    lo: float,
    hi: float,
    tol: float = 1e-8,
) -> float:
    """Bisect on sign(f) to a bracket no wider than tol; returns its midpoint.

    Requires opposite nonzero signs at the endpoints; an endpoint where f
    already vanishes is returned as-is.  Bisection ends early at a midpoint
    where f = 0, or when no float lies strictly between the two ends.
    """
    kind = GuardianMapKind(kind)
    lo = float(lo)
    hi = float(hi)
    if not (math.isfinite(lo) and math.isfinite(hi)) or lo >= hi:
        raise ValueError(f"bad bracket [{lo}, {hi}]")
    if not tol > 0:
        raise ValueError("tol must be positive")
    s_lo = _f_sign(family, kind, lo)
    s_hi = _f_sign(family, kind, hi)
    if s_lo == 0:
        return lo
    if s_hi == 0:
        return hi
    if s_lo == s_hi:
        raise ValueError(
            f"f has the same sign ({s_lo:+d}) at both bracket endpoints "
            f"[{lo}, {hi}]; nothing to bisect"
        )
    mid = 0.5 * lo + 0.5 * hi  # halves first: lo + hi may overflow
    while hi - lo > tol and lo < mid < hi:
        s_mid = _f_sign(family, kind, mid)
        if s_mid == 0:
            return mid
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * lo + 0.5 * hi
    return mid


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

    Grid points where f vanishes are exact events: a zero flanked by
    equal nonzero signs is a grazing touch (flagged, not refined,
    reported under ``touches``); any other grid zero is a crossing.
    Adjacent samples with opposite nonzero signs bracket a crossing,
    located at the bracket midpoint or, with ``refine``, by bisection.
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

    grid = np.linspace(theta_min, theta_max, samples)
    evaluated = [_evaluate(family, kind, t) for t in grid]
    signs = [s.report.f_value.sign for s in evaluated]

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
            lo, hi = theta, evaluated[i + 1].theta
            if refine:
                star = refine_crossing(family, kind, lo, hi, tol)
                width = min(tol, hi - lo)
            else:
                star = 0.5 * (lo + hi)
                width = hi - lo
            alpha = float(np.max(spectrum(family.at(star)).real))
            crossings.append(Crossing(theta=star, lo=lo, hi=hi, width=width,
                                      detection="sign_change", refined=refine,
                                      max_re_lambda=alpha))
    return SweepResult(
        kind=kind,
        theta_min=theta_min,
        theta_max=theta_max,
        samples=tuple(evaluated),
        crossings=tuple(crossings),
        touches=tuple(touches),
    )
