"""Reference routines that only the tests use.

The golden-section maximizer checks the closed-form and per-round
optimal shifts of the protocols against a route that knows nothing of
their Lambert-W form.  The 50-digit model of the repeated protocol
checks its shifts, work and round count where doubles lose digits.  The
closed-form first-order splitting correction checks the perturbative
series' Frechet derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Tuple

import numpy as np

from coherence_engine.numerics import NumericsError

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
    """Principal Lambert W of 0 <= a <= 1/e, by Newton steps at the context's digits."""
    w = a
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
    g^2).  diff is rate_derivative across the splitting.

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
