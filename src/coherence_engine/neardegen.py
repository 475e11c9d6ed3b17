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
t * delta = 0.3 emit a warning on the module logger.  At very late
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
    _aligned_vector,
    _generator,
    _is_aligned,
    _model_bath,
    _sigma_ops,
    steady_state,
)
from .numerics import exp_modes, propagate_affine

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
    """times as an array; warns once if the grid leaves the validity window."""
    times = np.asarray(times, dtype=float)
    if not np.all((times >= 0.0) & (times < np.inf)):
        raise ValueError("evolution time must be finite and non-negative")
    t = float(np.max(times, initial=0.0))
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
    steady_state (alignments within ALIGNED_TOL of +-1 taken as +-1).
    """
    times = _checked_times(times, system)
    bath = _model_bath(bath)
    matrix = neardegenerate_generator(system, bath).matrix
    init = pi0.as_array()
    if system.delta == 0.0:
        limit = steady_state(DegenerateSystem(system.omega1), bath, init)
        fixed = CoherenceVector.from_density(limit).as_array()
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


def _first_order(
    t,
    slow,
    fast,
    init,
    x: float,
    g: float,
    diff: RatePair,
) -> np.ndarray:
    """First-order splitting correction (per unit delta), by direct solution.

    The correction obeys the degenerate equation driven by the source
    M1 . Pi(t), whose components split into constant, slow (e^{-g t}),
    and fast (e^{-2(1+x) g t}) parts.  Solving by variation of
    parameters gives constant responses, resonant t e^{-g t} terms from
    slow sources hitting the slow eigenmode, and mixed responses from
    the fast sources; the (rho00, rho_plus) block additionally mixes the
    two decay modes, handled through the combinations
    y1 + 2 y2 (pure slow) and x-weighted sums (pure fast).  slow and
    fast are those two decay factors at t.
    """
    a, b, c, d = init
    dgp, dgm = diff.gamma_plus, diff.gamma_minus
    big_a = 1.0 + x
    big_b = 1.0 + 2.0 * x
    p1 = (2.0 * a + b - 1.0) / 2.0
    c2 = (1.0 + 2.0 * c - big_b * b) / (4.0 * big_a)
    t_inf = (-1.0 + big_b * (b + 2.0 * c)) / (4.0 * big_a)
    s_inf = (1.0 + b + 2.0 * c) / (2.0 * big_a)

    # Source amplitudes for the population-transfer sector.  Three are g
    # times a coefficient per unit base emission rate, left uncancelled
    # to keep their rounding; the constant source mixes the steady
    # populations with the Boltzmann-weighted emission derivative.
    s0_inf = g * (
        (2.0 * dgm * (1.0 + b + 2.0 * c) - dgp * (1.0 + 2.0 * x - b - 2.0 * c))
        / (4.0 * g * big_a)
    )
    s0_2 = g * ((2.0 * dgm + dgp) * (big_b * b - 1.0 - 2.0 * c) / (4.0 * g * big_a))
    s1_inf = (x * dgp - dgm) * s_inf
    s1_2 = g * ((dgp + dgm) * (1.0 + 2.0 * c - big_b * b) / (2.0 * g * big_a))

    s3_inf = -t_inf
    s3_1 = -(dgp / 2.0) * d
    s3_2 = -c2

    alpha = (d / (2.0 * big_a * g)) * (1.0 - slow)
    e_inf = s1_inf / 2.0
    e_1 = dgp * p1 / 2.0 - d / (2.0 * big_a)
    e_2 = s1_2 / 2.0
    beta_inf = e_inf / (2.0 * big_a * g)
    beta_1 = e_1 / (big_b * g)
    beta_2 = -beta_inf - beta_1
    beta = beta_inf + beta_1 * slow + (beta_2 + e_2 * t) * fast

    y1 = 2.0 * alpha + 2.0 * beta
    y2 = big_b * alpha - beta
    y3 = (
        (s3_inf / g) * (1.0 - slow)
        + s3_1 * t * slow
        - (s3_2 / (big_b * g)) * (fast - slow)
    )

    f_inf = -d / (2.0 * big_a) + big_b * s1_inf / (4.0 * big_a) + s0_inf
    f_1 = -dgp * p1 / 2.0
    f_2 = -big_b * s1_inf / (4.0 * big_a) - e_1 + s0_2
    f_r = big_b * g * e_2
    denom = big_b * g
    h = -f_inf / g + f_2 / denom + f_r / denom ** 2
    y0 = (
        f_inf / g
        + h * slow
        + f_1 * t * slow
        - (f_2 / denom) * fast
        - (f_r / denom) * (t + 1.0 / denom) * fast
    )
    return np.array([y0, y1, y2, y3])


def _perturbative_series(init, system, bath, times) -> np.ndarray:
    """Rows (r22, r00, r+, d) of perturbative_solution at each of times."""
    if not _is_aligned(bath):
        raise ValueError("perturbative solution requires alignment = 1")
    a, b, c, d = (float(v) for v in init)
    CoherenceVector(a, b, c, d).to_density().validate()
    times = _checked_times(times, system)
    g = rates_at(bath, system.omega1).gamma_plus
    x = math.exp(-bath.beta * system.omega1)
    slow, fast = exp_modes(-g, times), exp_modes(-2.0 * (1.0 + x) * g, times)
    zeroth = np.array(_aligned_vector((a, b, c, d), x, slow, fast))
    delta = system.delta
    if delta == 0.0:
        return zeroth.T
    diff = rate_derivative(bath, system.omega1, delta)
    # The correction is per unit base emission rate.
    if g == 0.0:
        raise ValueError("the splitting correction needs an emission rate > 0 at omega1")
    first = _first_order(times, slow, fast, (a, b, c, d), x, g, diff)
    return (zeroth + delta * first).T


def perturbative_solution(
    init: Tuple[float, float, float, float],
    system: NearDegenerateSystem,
    bath: BathSpec,
    t: float,
) -> CoherenceVector:
    """Dressed coherence vector to first order in the splitting.

    Valid for aligned dipoles.  The zeroth order is the degenerate
    closed-form solution; the correction integrates the source produced
    by the generator's splitting derivative, with differential rates
    taken as difference quotients across the actual splitting.  The
    correction vanishes identically at t = 0.
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
    return _independent_gibbs(system.omega1, system.omega2, bath.beta)


def _gibbs_populations(omega1: float, omega2: float, beta: float) -> Tuple:
    """(rho22, rho11, rho00) of the Gibbs state of levels at omega2, omega1 and 0."""
    w2 = math.exp(-beta * omega2)
    w1 = math.exp(-beta * omega1)
    z = 1.0 + w1 + w2
    return w2 / z, w1 / z, 1.0 / z


def _independent_gibbs(omega1: float, omega2: float, beta: float) -> DensityMatrix:
    """Diagonal Gibbs state of levels at omega2, omega1 and 0; no checks."""
    return DensityMatrix(np.diag(_gibbs_populations(omega1, omega2, beta)))


def nonsecular_rhs_matrix(
    rho: np.ndarray, system: NearDegenerateSystem, bath: BathSpec
) -> np.ndarray:
    """Full master-equation right-hand side with non-secular cross terms.

    Operator form of the generator behind neardegenerate_generator,
    written directly on 3x3 matrices: the free commutator, a standard
    dissipator per channel at its own frequency, and alignment-weighted
    cross terms built from the generalized jump structures
    Q(a, b) = a rho b - b a rho and P(a, b) = a rho b - rho b a.  In the
    stationary frame the oscillating phases of the cross terms cancel
    against the splitting commutator, so no explicit time dependence
    remains.  Used as an independent route to validate the reduced
    4-vector dynamics.  At alignment 0 the cross terms vanish and this
    is the late-time right-hand side of two independent decay channels.
    """
    h = np.diag([system.omega2, system.omega1, 0.0]).astype(complex)
    lower, raise_ = _sigma_ops()
    rates = [rates_at(bath, system.omega1), rates_at(bath, system.omega2)]
    out = -1j * (h @ rho - rho @ h)
    for i in range(2):
        gp, gm = rates[i].gamma_plus, rates[i].gamma_minus
        a, b = lower[i], raise_[i]
        anti = b @ a
        out += gp * (a @ rho @ b - 0.5 * (anti @ rho + rho @ anti))
        anti = a @ b
        out += gm * (b @ rho @ a - 0.5 * (anti @ rho + rho @ anti))
    half_p = 0.5 * bath.alignment
    for k in range(2):
        kp = 1 - k
        gp, gm = rates[k].gamma_plus, rates[k].gamma_minus
        # Emission: Q(lower_k, raise_kp) and P(lower_kp, raise_k).
        a, b = lower[k], raise_[kp]
        out += half_p * gp * (a @ rho @ b - b @ a @ rho)
        a, b = lower[kp], raise_[k]
        out += half_p * gp * (a @ rho @ b - rho @ b @ a)
        # Absorption: Q(raise_k, lower_kp) and P(raise_kp, lower_k).
        a, b = raise_[k], lower[kp]
        out += half_p * gm * (a @ rho @ b - b @ a @ rho)
        a, b = raise_[kp], lower[k]
        out += half_p * gm * (a @ rho @ b - rho @ b @ a)
    return out

