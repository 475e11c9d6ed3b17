"""Reference routines that only the tests use.

The golden-section maximizer checks the closed-form and per-round
optimal shifts of the protocols against a route that knows nothing of
their Lambert-W form.  The 50-digit model of the repeated protocol
checks its shifts, work and round count where doubles lose digits.  The
closed-form first-order splitting correction checks the perturbative
series' Frechet derivative.

The master equations in operator form on 3x3 matrices check the
library's 4x4 sector generators: gksl_rhs_matrix for the degenerate
system, with its cross_rates matrices and _sigma_ops, and
nonsecular_rhs_matrix for the split one; the two also check each other.
reference_states integrates gksl_rhs_matrix by RK45 as the reference of
the exact propagation.  discretized_quasistatic is the staircase sweep,
built from the Boltzmann weights, that converges to the quasistatic
work.  round_by_matrices is one round of the repeated protocol built
from matrices, the reference of run_protocol1's scalar recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, List, Tuple

import numpy as np

from coherence_engine.bath import BathSpec, rates_at
from coherence_engine.bloch import DensityMatrix
from coherence_engine.dynamics import DegenerateSystem, steady_state
from coherence_engine.neardegen import NearDegenerateSystem
from coherence_engine.numerics import NumericsError, integrate_ode
from coherence_engine.protocols import ROUND_ROTATION

_DECIMAL_TOL = Decimal("1e-40")


@dataclass(frozen=True)
class MaximizeResult:
    """Result of a bracketed scalar maximization."""

    argmax: float
    value: float
    at_boundary: bool
    iterations: int

    def __iter__(self):
        yield self.argmax
        yield self.value


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def maximize_scalar(
    f: Callable[[float], float],
    bracket: Tuple[float, float],
) -> MaximizeResult:
    """Maximize a continuous scalar function on a closed bracket.

    Golden-section search down to argument tolerance 1e-10 (at most 200
    steps), followed by two clamped Newton polishing steps built from
    central finite differences.  The polish removes the O(sqrt(eps))
    plateau inherent to comparison-only searches on smooth maxima, which
    matters when the argmax is compared against closed forms at the
    1e-8 level.  If the maximum sits on a bracket endpoint (monotone f),
    the endpoint is returned with at_boundary set.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")

    def eval_f(x: float) -> float:
        fx = float(f(x))
        if not math.isfinite(fx):
            raise NumericsError(f"objective returned non-finite value at x={x!r}")
        return fx

    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = eval_f(c), eval_f(d)
    iterations = 0
    while (b - a) > 1e-10 and iterations < 200:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = eval_f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = eval_f(d)
        iterations += 1

    x = 0.5 * (a + b)
    fx = eval_f(x)

    f_lo, f_hi = eval_f(lo), eval_f(hi)
    if f_lo >= fx and f_lo >= f_hi:
        return MaximizeResult(lo, f_lo, True, iterations)
    if f_hi >= fx:
        return MaximizeResult(hi, f_hi, True, iterations)

    for _ in range(2):
        h = 1e-5 * max(1.0, abs(x))
        fp, fm = eval_f(x + h), eval_f(x - h)
        d1 = (fp - fm) / (2.0 * h)
        d2 = (fp - 2.0 * fx + fm) / (h * h)
        if d2 >= 0.0:
            break
        step = -d1 / d2
        x = min(max(x + step, lo), hi)
        fx = eval_f(x)

    return MaximizeResult(x, fx, False, iterations)


def _lambert_w_decimal(a: Decimal) -> Decimal:
    """Principal Lambert W of a >= 0, by Newton steps at the context's digits.

    Newton starts above the root, at a (or at ln a past a = e), so the
    steps on the convex w e^w fall monotonically onto it.
    """
    w = a if a <= Decimal(1).exp() else a.ln()
    for _ in range(200):
        ew = w.exp()
        step = (w * ew - a) / (ew * (w + 1))
        w -= step
        if abs(step) <= abs(w) * _DECIMAL_TOL:
            break
    return w


def protocol1_decimal(
    beta: float, omega: float, max_rounds: int = 64, shift_floor: float = 1e-6
) -> Tuple[list, Decimal]:
    """Shifts and total work of run_protocol1 from the charged state, in 50 digits.

    The same algorithm as the library, in the stdlib decimal module: the
    charged state carries no population on the lifted level, so round 1
    takes the Lambert-form shift; every later round lifts the population
    x(1 + u)/(2Z) left by the round before (x = e^{-beta omega},
    u = e^{-beta shift}, Z = 1 + x + xu), and its shift is the root of
    the work's derivative, u Z - q Z^2 - beta shift u (1 + x) with
    q = (1 + u)/(2Z) of the round before, below the largest positive-work
    shift ln((1/q - x)/(1 + x))/beta.  The stop rules are the library's.
    The inputs are taken as the exact values of the given floats.
    """
    with localcontext() as ctx:
        ctx.prec = 50
        one = Decimal(1)
        b, floor = Decimal(beta), Decimal(shift_floor)
        x = (-b * Decimal(omega)).exp()
        big_a = one + x
        shifts: list = []
        work = Decimal(0)
        q = Decimal(0)
        while len(shifts) < max_rounds:
            if q == 0:
                shift = (one + _lambert_w_decimal(x / (big_a * one.exp()))) / b
            else:
                ratio = (one / q - x) / big_a
                if ratio <= one:
                    break
                shift = _stationary_shift_decimal(q, x, b, ratio.ln() / b)
            if shift < floor:
                break
            u = (-b * shift).exp()
            z = one + x + x * u
            work += shift * (x * u / z - x * q)
            shifts.append(shift)
            q = (one + u) / (2 * z)
        return shifts, work


def _stationary_shift_decimal(
    q: Decimal, x: Decimal, b: Decimal, hi: Decimal
) -> Decimal:
    """Root in (0, hi) of u Z - q Z^2 - b shift u (1 + x), by bracketed Newton steps."""
    lo, shift, big_a = Decimal(0), hi / 2, 1 + x
    for _ in range(400):
        u = (-b * shift).exp()
        z = 1 + x + x * u
        h = u * z - q * z * z - b * shift * u * big_a
        # d/dshift of u, z and the product shift * u
        du, dz, dsu = -b * u, -b * x * u, u * (1 - b * shift)
        dh = du * z + u * dz - 2 * q * z * dz - b * big_a * dsu
        if h > 0:
            lo = shift
        else:
            hi = shift
        step = h / dh
        if abs(step) <= shift * _DECIMAL_TOL:
            return shift - step
        shift -= step
        if not lo < shift < hi:
            shift = (lo + hi) / 2
    raise NumericsError("decimal shift search did not converge")


def rate_quotients(bath: BathSpec, omega: float, delta: float) -> Tuple[float, float]:
    """(d gamma_plus, d gamma_minus): the rates' difference quotients across delta."""
    lo, hi = rates_at(bath, omega), rates_at(bath, omega + delta)
    return ((hi.gamma_plus - lo.gamma_plus) / delta,
            (hi.gamma_minus - lo.gamma_minus) / delta)


def first_order_closed_form(
    t,
    slow,
    fast,
    init,
    x: float,
    g: float,
    diff,
) -> np.ndarray:
    """First-order splitting correction (per unit delta), by direct solution.

    A hand-derived route to the term that the library takes as the
    Frechet derivative of the propagation; valid for this generator at
    alignment 1 with emission rate g > 0 at omega1 (it divides by g and
    g^2).  diff is rate_quotients across the splitting.

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
    dgp, dgm = diff
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


def cross_rates(bath: BathSpec, omega: float) -> Tuple[np.ndarray, np.ndarray]:
    """The 2x2 emission and absorption rate matrices over channel pairs.

    Entry (i, j) carries gamma_pm for i = j and alignment * gamma_pm for
    i != j; both matrices are symmetric.
    """
    pair = rates_at(bath, omega)
    p = bath.alignment
    pattern = np.array([[1.0, p], [p, 1.0]])
    return pair.gamma_plus * pattern, pair.gamma_minus * pattern


def _sigma_ops() -> Tuple[List[np.ndarray], List[np.ndarray]]:
    """Lowering and raising operators for the two decay channels.

    Channel index 0 is the |1> <-> |0> transition and index 1 is
    |2> <-> |0>, matching the row order of the cross-rate matrices.
    """
    ket2 = np.array([1.0, 0.0, 0.0])
    ket1 = np.array([0.0, 1.0, 0.0])
    ket0 = np.array([0.0, 0.0, 1.0])
    lower = [np.outer(ket0, ket1), np.outer(ket0, ket2)]
    raise_ = [np.outer(ket1, ket0), np.outer(ket2, ket0)]
    return lower, raise_


def gksl_rhs_matrix(
    rho: np.ndarray, system: DegenerateSystem, bath: BathSpec
) -> np.ndarray:
    """Full master-equation right-hand side in operator form.

    Builds -i[H, rho] plus the degenerate dissipator with emission terms
    sigma_-(i) rho sigma_+(j) and absorption terms
    sigma_+(i) rho sigma_-(j), weighted by the cross-rate matrices.
    Serves as an independent route against which the sector equations
    are checked.
    """
    h = np.diag([system.omega, system.omega, 0.0]).astype(complex)
    gamma_plus, gamma_minus = cross_rates(bath, system.omega)
    lower, raise_ = _sigma_ops()
    out = -1j * (h @ rho - rho @ h)
    for i in range(2):
        for j in range(2):
            jump = lower[i] @ rho @ raise_[j]
            anti = raise_[j] @ lower[i]
            out += gamma_plus[i, j] * (jump - 0.5 * (anti @ rho + rho @ anti))
            jump = raise_[i] @ rho @ lower[j]
            anti = lower[j] @ raise_[i]
            out += gamma_minus[i, j] * (jump - 0.5 * (anti @ rho + rho @ anti))
    return out


def reference_states(rho0, system, bath, times):
    """States at times by direct RK45 integration.

    The independent route that the exact propagation is tested against;
    evolve does not use it.  The 9x9 superoperator is read off
    gksl_rhs_matrix once, column by column, and integrated on vec(rho).
    """
    superop = np.column_stack(
        [gksl_rhs_matrix(e.reshape(3, 3), system, bath).ravel() for e in np.eye(9)]
    )
    y0 = rho0.matrix.ravel()
    sol = integrate_ode(lambda _t, y: superop @ y, y0, (0.0, max(times)))
    return [DensityMatrix((sol.at(t) if t > 0.0 else y0).reshape(3, 3))
            for t in times]


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


def discretized_quasistatic(
    beta: float, omega_from: float, omega_to: float, fixed_other_level: float,
    n_steps: int,
) -> float:
    """Staircase sweep of one level beside a fixed one and the ground state.

    Each of the n_steps stages thermalizes fully at the current level
    energy w, then moves the level suddenly by h = (omega_to -
    omega_from)/n_steps, booking its Gibbs population times -h.  Converges
    to quasistatic_work with error O(1/n_steps).
    """
    if n_steps < 1:
        raise ValueError("need at least one staircase step")
    h = (omega_to - omega_from) / n_steps
    total = 0.0
    for k in range(n_steps):
        weights = np.exp(-beta * np.array([omega_from + k * h, fixed_other_level, 0.0]))
        total -= weights[0] / weights.sum() * h
    return float(total)


def round_by_matrices(
    state: DensityMatrix, omega: float, beta: float, shift: float, bath: BathSpec
) -> Tuple[float, float, DensityMatrix, DensityMatrix, DensityMatrix]:
    """One round of the repeated protocol, each state built from matrices.

    The state is rotated by conjugation with ROUND_ROTATION, its top level
    lifted by the shift (work_in: the shift times the rotated top
    population), the split system replaced by the Gibbs state of the
    levels (omega + shift, omega, 0), the lifted level lowered back
    (work_out: the shift times its thermal population) and the result
    rebuilt by dynamics.steady_state.  Returns (work_in, work_out,
    rotated, thermal, final).
    """
    rotated = DensityMatrix(ROUND_ROTATION @ state.matrix @ ROUND_ROTATION.conj().T)
    weights = np.exp(-beta * np.array([omega + shift, omega, 0.0]))
    thermal = DensityMatrix(np.diag(weights / weights.sum()))
    top, ground = thermal[0, 0].real, thermal[2, 2].real
    final = steady_state(DegenerateSystem(omega), bath, (top, ground, 0.0, 0.0))
    return (shift * rotated[0, 0].real, shift * top, rotated, thermal, final)
