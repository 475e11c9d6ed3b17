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
import sys
from dataclasses import dataclass
from typing import Callable, Tuple

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


_UNIT_RATE = flat_rate()  # shared, so equal default baths are equal


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
    within ALIGNED_TOL of +-1 is stored as +-1 exactly, and -0 as +0.
    rate_fn must be a pure function of omega: dynamics caches its rates.
    Baths compare by rate_fn's identity: every default bath shares one
    profile, so equal default baths are equal and share that cache, while
    each flat_rate(g) call is a distinct profile.
    """

    beta: float
    rate_fn: RateFunction = _UNIT_RATE
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
        elif self.alignment == 0.0:  # -0.0 == 0.0 as a cache key, so store one zero
            object.__setattr__(self, "alignment", 0.0)


@dataclass(frozen=True)
class RatePair:
    """Emission/absorption pair (gamma_plus, gamma_minus) at one frequency.

    rates_at builds it, so gamma_minus = exp(-beta * omega) * gamma_plus
    (detailed balance) holds by construction.
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

