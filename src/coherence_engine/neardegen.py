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
tau_S << t << 1/delta (tau_S = 1/omega1); evolutions past
t = 0.3 / delta emit a warning on the module logger.  The generator is
linear in the rates and in delta, so its first order in the splitting is
the Frechet derivative of the delta = 0 propagation along the
generator's change to the actual splitting.  At very late
times the cross terms average out and the system thermalizes as two
independent two-level systems.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .bath import BathSpec, rates_at
from .bloch import DensityMatrix
from .dynamics import (
    CoherenceVector,
    GeneratorMatrix,
    _aligned_rows,
    _checked_grid,
    _generator,
    _sector,
)
from .numerics import _affine_derivative, propagate_affine
from .thermo import HamiltonianSpec, gibbs

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


def _validity_limit(system: NearDegenerateSystem) -> Optional[float]:
    """The window's last time, VALIDITY_WINDOW_LIMIT / delta; None if not finite."""
    limit = VALIDITY_WINDOW_LIMIT / system.delta if system.delta else math.inf
    return limit if limit < math.inf else None


def _checked_times(times: Sequence[float], system: NearDegenerateSystem) -> np.ndarray:
    """times, checked; warns once if the grid ends past _validity_limit."""
    times = _checked_grid(times)
    t = float(times[-1]) if times.size else 0.0  # a checked grid ends at its maximum
    limit = _validity_limit(system)
    if limit is not None and t > limit:
        logger.warning(
            "reduced dynamics used outside its validity window: "
            "t = %r exceeds %.3g / delta = %r (delta=%.6g, tau_S=%.6g)",
            t, VALIDITY_WINDOW_LIMIT, limit, system.delta, 1.0 / system.omega1,
        )
    return times


def _neardegenerate_series(
    pi0: CoherenceVector,
    system: NearDegenerateSystem,
    bath: BathSpec,
    times: Sequence[float],
) -> np.ndarray:
    """Rows (r22, r00, r+, d) at each of times, about _sector's fixed point."""
    times = _checked_times(times, system)
    init = pi0.as_array()
    eig, fixed, _ = _sector(system.omega1, system.omega2, bath, init)
    return propagate_affine(eig, fixed, init, times)


def evolve_neardegenerate(
    pi0: CoherenceVector,
    system: NearDegenerateSystem,
    bath: BathSpec,
    t: float,
) -> CoherenceVector:
    """Propagate the dressed coherence-vector equation exactly for a time t."""
    return CoherenceVector(*_neardegenerate_series(pi0, system, bath, [t])[0].tolist())


def _perturbative_series(init, system, bath, times, warn=True) -> np.ndarray:
    """Rows (r22, r00, r+, d) of perturbative_solution at each of times.

    warn=False skips the window warning, for a caller that gave it already.
    """
    zeroth = _aligned_rows(init, system.omega1, bath, times)
    times = _checked_times(times, system) if warn else _checked_grid(times)
    delta = system.delta
    if delta == 0.0:
        return zeroth
    y0 = np.asarray(init, dtype=float)
    eig, fixed, pair = _sector(system.omega1, system.omega1, bath, y0)
    # The derivative needs no emission; this rejection is the command
    # line's contract (exit 3) for a split system dark at omega1.
    if pair.gamma_plus == 0.0:
        raise ValueError("the splitting correction needs an emission rate > 0 at omega1")
    change = (_generator(pair, rates_at(bath, system.omega2), 1.0, delta).matrix
              - _generator(pair, pair, 1.0, 0.0).matrix)
    return zeroth + _affine_derivative(eig, change, fixed, y0, times)


def perturbative_solution(
    init: Tuple[float, float, float, float],
    system: NearDegenerateSystem,
    bath: BathSpec,
    t: float,
) -> CoherenceVector:
    """Dressed coherence vector to first order in the splitting.

    Valid for aligned dipoles.  The zeroth order is the degenerate
    closed-form solution.  The correction is the Frechet derivative of
    the delta = 0 propagation along the generator's change, the split
    generator minus the degenerate one at omega1, on the eigensystem that
    _sector_setup caches; it vanishes at t = 0.  A split system with no
    emission at omega1 is a ValueError, kept as the command line's
    contract (exit 3).
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
    return gibbs(HamiltonianSpec(e2=system.omega2, e1=system.omega1), bath.beta)
