"""Thermal bath parameterization.

A bath is described by its inverse temperature beta, an emission-rate
profile gamma_plus(omega) over transition frequency, and the dipole
alignment p = cos(Theta_12) between the two excited-state transition
dipoles.  Coherence persists only for |p| = 1, so BathSpec stores an
alignment within ALIGNED_TOL of +-1 as +-1 and every other module reads
the regime off the alignment itself.  Absorption rates are never
stored; detailed balance fixes
gamma_minus(omega) = exp(-beta * omega) * gamma_plus(omega) at every
frequency, which is the KMS condition in frequency space.

Rates are direct inputs rather than Fourier transforms of a bath
correlation function: every downstream quantity depends only on
(beta, gamma_plus, p).  The default profile is the constant
gamma_plus = 1, which sets the unit of time.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Mapping, Tuple

import numpy as np

RateFunction = Callable[[float], float]

DETAILED_BALANCE_RTOL = 1e-14
ALIGNED_TOL = 1e-12


def flat_rate(gamma: float = 1.0) -> RateFunction:
    """Frequency-independent emission profile gamma_plus(omega) = gamma."""
    if not math.isfinite(gamma):
        raise ValueError("emission rate must be finite")
    if gamma < 0.0:
        raise ValueError("emission rate must be non-negative")

    def profile(omega: float) -> float:
        return gamma

    return profile


def tabulated_rate(points: Tuple[Tuple[float, float], ...]) -> RateFunction:
    """Linearly interpolated emission profile from (omega, gamma) pairs."""
    pts = sorted((float(w), float(g)) for w, g in points)
    if len(pts) < 2:
        raise ValueError("tabulated profile needs at least two points")
    omegas = np.array([p[0] for p in pts])
    gammas = np.array([p[1] for p in pts])
    if not (np.all(np.isfinite(omegas)) and np.all(np.isfinite(gammas))):
        raise ValueError("tabulated profile points must be finite")
    if np.any(gammas < 0.0):
        raise ValueError("emission rates must be non-negative")

    def profile(omega: float) -> float:
        return float(np.interp(omega, omegas, gammas))

    return profile


@dataclass(frozen=True)
class BathSpec:
    """Inverse temperature, emission-rate profile, and dipole alignment.

    beta must be at least the smallest normal float: below it, terms of
    order 1/beta (S / beta in a free energy) overflow.  An alignment
    within ALIGNED_TOL of +-1 is stored as +-1 exactly.
    """

    beta: float
    rate_fn: RateFunction = field(default_factory=flat_rate)
    alignment: float = 1.0

    def __post_init__(self) -> None:
        if not math.isfinite(self.beta):
            raise ValueError("beta must be finite")
        if not math.isfinite(self.alignment):
            raise ValueError("alignment must be finite")
        if not self.beta >= sys.float_info.min:
            raise ValueError(f"beta must be positive and at least {sys.float_info.min!r}")
        if abs(self.alignment) > 1.0:
            raise ValueError("alignment must lie in [-1, 1]")
        if abs(abs(self.alignment) - 1.0) <= ALIGNED_TOL:
            object.__setattr__(self, "alignment", math.copysign(1.0, self.alignment))


@dataclass(frozen=True)
class RatePair:
    """Emission/absorption pair (gamma_plus, gamma_minus).

    For outputs of rates_at the detailed-balance relation
    gamma_minus = exp(-beta * omega) * gamma_plus holds by construction.
    rate_derivative reuses this container for difference quotients of
    the two components, which may be negative.
    """

    gamma_plus: float
    gamma_minus: float


def rates_at(bath: BathSpec, omega: float) -> RatePair:
    """Emission and absorption rates at a transition frequency omega > 0."""
    if not omega > 0.0:
        raise ValueError(f"transition frequency must be positive, got {omega}")
    gamma_plus = float(bath.rate_fn(omega))
    if not math.isfinite(gamma_plus):
        raise ValueError(f"rate profile returned non-finite rate at omega={omega}")
    if gamma_plus < 0.0:
        raise ValueError(f"rate profile returned negative rate at omega={omega}")
    return RatePair(gamma_plus, math.exp(-bath.beta * omega) * gamma_plus)


def cross_rates(bath: BathSpec, omega: float) -> Tuple[np.ndarray, np.ndarray]:
    """The 2x2 emission and absorption rate matrices over channel pairs.

    Entry (i, j) carries gamma_pm for i = j and alignment * gamma_pm for
    i != j; both matrices are symmetric.
    """
    pair = rates_at(bath, omega)
    p = bath.alignment
    pattern = np.array([[1.0, p], [p, 1.0]])
    return pair.gamma_plus * pattern, pair.gamma_minus * pattern


def rate_derivative(bath: BathSpec, omega: float, delta: float) -> RatePair:
    """Difference quotient (rates_at(omega + delta) - rates_at(omega)) / delta.

    The splitting delta must be strictly positive; the derivative is
    defined as a finite difference at the actual splitting rather than
    an analytic limit.  Components may be negative (the absorption rate
    always falls with frequency for a flat emission profile).
    """
    if not delta > 0.0:
        raise ValueError("delta must be strictly positive")
    lo = rates_at(bath, omega)
    hi = rates_at(bath, omega + delta)
    return RatePair(
        (hi.gamma_plus - lo.gamma_plus) / delta,
        (hi.gamma_minus - lo.gamma_minus) / delta,
    )


def _json_number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{what} must be a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{what} must be finite") from None


def bath_from_json(data: Mapping) -> BathSpec:
    """Build a BathSpec from {"beta", "gamma_plus", "alignment"}.

    gamma_plus is either a number (flat profile) or
    {"kind": "tabulated", "points": [[omega, gamma], ...]} with linear
    interpolation between the given points.  Unknown keys, and bools or
    strings where numbers belong, are rejected.
    """
    unknown = set(data) - {"beta", "gamma_plus", "alignment"}
    if unknown:
        raise ValueError(f"unknown keys in bath: {sorted(unknown)}")
    raw = data.get("gamma_plus", 1.0)
    if isinstance(raw, Mapping):
        if raw.get("kind") != "tabulated":
            raise ValueError(f"unsupported rate profile kind: {raw.get('kind')!r}")
        points = raw.get("points")
        if not isinstance(points, (list, tuple)) or not all(
            isinstance(pt, (list, tuple)) and len(pt) == 2 for pt in points
        ):
            raise ValueError("tabulated profile points must be [omega, gamma] pairs")
        rate_fn = tabulated_rate(tuple(
            (_json_number(w, "rate table entry"), _json_number(g, "rate table entry"))
            for w, g in points
        ))
    else:
        rate_fn = flat_rate(_json_number(raw, "gamma_plus"))
    return BathSpec(
        beta=_json_number(data.get("beta"), "beta"),
        rate_fn=rate_fn,
        alignment=_json_number(data.get("alignment", 1.0), "alignment"),
    )
