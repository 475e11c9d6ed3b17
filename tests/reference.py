"""Reference routines that only the tests use.

The golden-section maximizer checks the closed-form and per-round
optimal shifts of the protocols against a route that knows nothing of
their Lambert-W form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

from coherence_engine.numerics import NumericsError


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
