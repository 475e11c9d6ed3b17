"""Dynamics of the nearly degenerate V-type three-level system.

The excited levels sit at omega1 and omega2 = omega1 + delta with a
splitting small against omega1.  Keeping the slowly oscillating
cross-channel terms (instead of dropping them by a strict secular
approximation) yields a coherence-vector equation of the same affine
shape as the degenerate case, but with rates evaluated at the two
transition frequencies and an extra coupling of strength delta between
the symmetric and antisymmetric coherences.

The equation is written for the dressed combinations
rho_plus/minus = (e^{-i delta t} rho21 +- e^{i delta t} rho12)/2 of the
interaction-picture state.  Those combinations equal the plain
Schroedinger-picture coherences, so the generator here is
time-independent and acts on the real vector (r22, r00, r+, d = Im rho21);
its pair (+delta, -delta) is exactly the excited splitting's commutator.

The reduced description is trusted only inside the window
tau_S << t << 1/delta (tau_S = 1/omega1); evolutions beyond
t * delta = 0.3 emit a warning on the module logger.  The generator is
linear in delta, so its first order in the splitting is the Frechet
derivative of the delta = 0 propagation along that slope.  At very late
times the cross terms average out and the system thermalizes as two
independent two-level systems.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .bath import BathSpec, RatePair, rate_derivative, rates_at
from .bloch import DensityMatrix
from .dynamics import (
    CoherenceVector,
    DegenerateSystem,
    GeneratorMatrix,
    _aligned_rows,
    _checked_grid,
    _generator,
    _steady_vector,
)
from .numerics import _affine_derivative, propagate_affine

logger = logging.getLogger(__name__)

VALIDITY_WINDOW_LIMIT = 0.3
SPLITTING_GUARD = 0.1


@dataclass(frozen=True)
class NearDegenerateSystem:
    """Excited levels at omega1 and omega2 >= omega1 with a small splitting.

    delta / omega1 must stay below SPLITTING_GUARD, which keeps the
    perturbative treatment honest.
    """

    omega1: float
    omega2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.omega1) and math.isfinite(self.omega2)):
            raise ValueError("both excited energies must be finite")
        if not (self.omega1 > 0.0 and self.omega2 > 0.0):
            raise ValueError("both excited energies must be positive")
        if self.omega2 < self.omega1:
            raise ValueError("omega2 must not be below omega1")
        if self.delta / self.omega1 >= SPLITTING_GUARD:
            raise ValueError(
                f"splitting ratio {self.delta / self.omega1:.3g} exceeds "
                f"guard {SPLITTING_GUARD:.3g}"
            )

    @property
    def delta(self) -> float:
        return self.omega2 - self.omega1


def neardegenerate_generator(
    system: NearDegenerateSystem, bath: BathSpec
) -> GeneratorMatrix:
    """Affine generator of the dressed coherence-vector equation.

    dynamics' builder with rates at omega1 and omega2 and the coupling
    (+delta, -delta) of (r+, d); at delta = 0 it is coherence_generator.
    """
    r1, r2 = rates_at(bath, system.omega1), rates_at(bath, system.omega2)
    return _generator(r1, r2, bath.alignment, system.delta)


def _checked_times(times: Sequence[float], system: NearDegenerateSystem) -> np.ndarray:
    """times, checked; warns once if the grid leaves the validity window."""
    times = _checked_grid(times)
    t = float(times.max(initial=0.0))
    product = t * system.delta
    if product > VALIDITY_WINDOW_LIMIT:
        logger.warning(
            "reduced dynamics used outside its validity window: "
            "t * delta = %.3g exceeds %.3g (t=%.6g, delta=%.6g, tau_S=%.6g)",
            product,
            VALIDITY_WINDOW_LIMIT,
            t,
            system.delta,
            1.0 / system.omega1,
        )
    return times


def _neardegenerate_series(
    pi0: CoherenceVector,
    system: NearDegenerateSystem,
    bath: BathSpec,
    times: Sequence[float],
) -> np.ndarray:
    """Rows (r22, r00, r+, d) at each of times, from one decomposition.

    Anchored at the two-frequency Gibbs vector, or without a splitting at
    steady_state.
    """
    times = _checked_times(times, system)
    matrix = neardegenerate_generator(system, bath).matrix
    init = pi0.as_array()
    if system.delta == 0.0:
        fixed = _steady_vector(DegenerateSystem(system.omega1), bath, init)
    else:
        r22, _, r00 = _gibbs_populations(system.omega1, system.omega2, bath.beta)
        fixed = np.array([r22, r00, 0.0, 0.0])
    return propagate_affine(matrix, fixed, init, times)


def evolve_neardegenerate(
    pi0: CoherenceVector,
    system: NearDegenerateSystem,
    bath: BathSpec,
    t: float,
) -> CoherenceVector:
    """Propagate the dressed coherence-vector equation exactly for a time t."""
    return CoherenceVector.from_array(_neardegenerate_series(pi0, system, bath, [t])[0])


def _perturbative_series(init, system, bath, times) -> np.ndarray:
    """Rows (r22, r00, r+, d) of perturbative_solution at each of times."""
    zeroth = _aligned_rows(init, system.omega1, bath, times)
    times = _checked_times(times, system)
    delta = system.delta
    if delta == 0.0:
        return zeroth
    pair = rates_at(bath, system.omega1)
    # The derivative needs no emission; this rejection is the command
    # line's contract (exit 3) for a split system dark at omega1.
    if pair.gamma_plus == 0.0:
        raise ValueError("the splitting correction needs an emission rate > 0 at omega1")
    # Every entry of _generator is linear in the rates and the splitting.
    slope = _generator(RatePair(0.0, 0.0), rate_derivative(bath, system.omega1, delta),
                       1.0, 1.0).matrix
    y0 = np.asarray(init, dtype=float)
    fixed = _steady_vector(DegenerateSystem(system.omega1), bath, y0)
    first = _affine_derivative(_generator(pair, pair, 1.0, 0.0).matrix, slope, fixed,
                               y0, times)
    return zeroth + delta * first


def perturbative_solution(
    init: Tuple[float, float, float, float],
    system: NearDegenerateSystem,
    bath: BathSpec,
    t: float,
) -> CoherenceVector:
    """Dressed coherence vector to first order in the splitting.

    Valid for aligned dipoles.  The zeroth order is the degenerate
    closed-form solution.  The correction is the Frechet derivative of
    the delta = 0 propagation along the generator's slope in delta (its
    rates' derivatives taken as difference quotients across the actual
    splitting), on the decomposition that propagate_affine caches; it
    vanishes at t = 0.  A split system with no emission at omega1 is a
    ValueError, kept as the command line's contract (exit 3).
    """
    return CoherenceVector.from_array(_perturbative_series(init, system, bath, [t])[0])


def thermalize_independent(
    rho: DensityMatrix, system: NearDegenerateSystem, bath: BathSpec
) -> DensityMatrix:
    """Late-time limit under independent decay channels.

    Once the cross terms have averaged out, each excited level
    equilibrates separately and every coherence decays, leaving the
    diagonal Gibbs state with weights (e^{-beta omega2}, e^{-beta
    omega1}, 1)/Z regardless of the input state.
    """
    rho.validate()
    populations = _gibbs_populations(system.omega1, system.omega2, bath.beta)
    return DensityMatrix(np.diag(populations))


def _gibbs_populations(omega1: float, omega2: float, beta: float) -> Tuple:
    """(rho22, rho11, rho00) of the Gibbs state of levels at omega2, omega1 and 0."""
    w2 = math.exp(-beta * omega2)
    w1 = math.exp(-beta * omega1)
    z = 1.0 + w1 + w2
    return w2 / z, w1 / z, 1.0 / z
