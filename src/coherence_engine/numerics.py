"""Shared numerical kernels.

Deterministic scalar and ODE routines used across the package: the
principal branch of the Lambert W function, exact propagation of linear
time-independent equations and its first-order change under a change of
the generator, adaptive ODE integration with dense output,
and adaptive Gauss-Kronrod quadrature.  All kernels use fixed iteration
orders, fixed tolerances and no randomness, so identical inputs give
bit-identical results.  The module holds no state: propagation takes
_decomposition's eigensystem, and the caller keeps it where it likes.

The runtime needs numpy only.  scipy, a test dependency, is imported on
first use by integrate_ode alone, the adaptive RK45 integrator that the
tests use as an independent reference.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Tuple

import numpy as np


# 4.6x the worst 1-norm eigenvector condition number (2.2e7) over 10^6
# random physical generators; at the limit the error bound eps * cond is 2e-8.
EIGVEC_COND_LIMIT = 1e8


class NumericsError(RuntimeError):
    """A kernel failed to meet its convergence contract."""


_INV_E = math.exp(-1.0)


def lambert_w_principal(z: float) -> float:
    """Principal branch W_p of the Lambert W function, w * exp(w) = z.

    Valid for z >= -1/e, returning the branch with w >= -1.  Halley steps,
    seeded by a branch-point series near z = -1/e and by log-based
    asymptotics for large z, stop after one below 1e-8 relative (the error
    after it is of the order of its cube), or after 100.  The result
    satisfies |w e^w - z| <= 1e-14 * max(1, |z|).
    """
    z = float(z)
    if not math.isfinite(z):
        raise ValueError("lambert_w_principal requires finite z")
    if z < -_INV_E:
        raise ValueError(f"lambert_w_principal requires z >= -1/e, got {z}")
    if z == 0.0:
        return 0.0
    if abs(z + _INV_E) < 1e-16:
        return -1.0

    # Initial guess: branch-point expansion near -1/e, direct series for
    # small |z|, and the standard two-term log asymptotic for large z.
    if z < -0.25:
        p = math.sqrt(2.0 * (math.e * z + 1.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    elif z < 1.0:
        w = z * (1.0 - z + 1.5 * z * z)
    else:
        lz = math.log(z)
        llz = math.log(lz) if lz > 1.0 else 0.0
        w = lz - llz

    for _ in range(100):
        ew = math.exp(w)
        f = w * ew - z
        wp1 = w + 1.0
        # Halley step; the denominator is safe away from the branch point.
        step = f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
        w -= step
        if abs(step) <= 1e-8 * abs(w):
            break

    residual = abs(w * math.exp(w) - z)
    if residual > 1e-14 * max(1.0, abs(z)):
        raise NumericsError(
            f"Lambert W iteration stalled at w={w!r} with residual {residual:.3e}"
        )
    return w


@np.errstate(over="ignore", invalid="ignore")  # exp_modes checks what overflowed
def _exponents_and_exp(rates, times) -> Tuple[np.ndarray, np.ndarray]:
    exponents = np.multiply.outer(rates, times)
    return exponents, np.exp(exponents)


def exp_modes(rates, times) -> np.ndarray:
    """e^{rate t} per rate (leading axes) and time (trailing axes).

    A mode whose exponent has a real part below -1000 is exactly 0, even
    where the exponent overflows; any other overflow raises NumericsError
    naming the horizon.
    """
    exponents, out = _exponents_and_exp(rates, times)
    if not np.isfinite(out).all():
        out = np.where(exponents.real < -1000.0, 0.0, out)
        if not np.isfinite(out).all():
            raise NumericsError(f"state not representable at t = {np.max(times):g}")
    return out


def _decomposition(matrix: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (vals, vecs, inverse) of matrix = V diag(vals) V^{-1}.

    The generators are dissipative, so a positive real part within the rounding
    bound n eps cond(V) |matrix| is clipped to 0.  A 1-norm cond(V) above
    EIGVEC_COND_LIMIT (a nearly defective matrix) raises NumericsError.
    """
    vals, vecs = np.linalg.eig(matrix)
    inverse = np.linalg.inv(vecs)
    cond = np.linalg.norm(vecs, 1) * np.linalg.norm(inverse, 1)
    if not cond <= EIGVEC_COND_LIMIT:
        raise NumericsError(f"nearly defective generator: cond(V) = {cond:.3g}")
    if max(vals.real.tolist()) > 0.0:
        tol = vals.size * np.finfo(float).eps * cond * np.linalg.norm(matrix, 1)
        vals = np.where((vals.real > 0.0) & (vals.real <= tol), vals - vals.real, vals)
    for part in (vals, vecs, inverse):
        part.setflags(write=False)
    return vals, vecs, inverse


def propagate_affine(
    eig, fixed: np.ndarray, y0: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """fixed + V e^{Lambda t} V^{-1} (y0 - fixed), for eig = (Lambda, V, V^{-1}).

    The exact solution of dy/dt = M (y - fixed) for the real matrix M
    that eig, from _decomposition, decomposes: one real row per time from
    the one eigensystem; rows at t = 0 are y0.
    """
    times = np.asarray(times, dtype=float)
    vals, vecs, inverse = eig
    modes = exp_modes(vals, times) * (inverse @ (y0 - fixed))[:, None]
    out = (fixed + (vecs @ modes).T).real
    if np.count_nonzero(times) < times.size:  # a zero time; cheaper than .any()
        out[times == 0.0] = y0
    return out


def _affine_derivative(eig, slope, fixed, y0, times) -> np.ndarray:
    """d/de at e = 0 of the rows of dy/dt = (M + e slope) y - M fixed.

    The Frechet derivative of propagate_affine's solution along the real
    slope, in Daleckii-Krein form (Higham, Functions of Matrices, SIAM
    2008, sec. 3.2), on propagate_affine's eigensystem eig of M = V
    diag(l) V^{-1}: row t is V z, z_i = phi(l_i, 0) (V^{-1} slope fixed)_i
    + sum_j (V^{-1} slope V)_ij phi(l_i, l_j) (V^{-1} (y0 - fixed))_j.
    phi(a, b) = (e^{at} - e^{bt})/(a - b) is taken as t e^{hi t}
    expm1(w)/w, w = (lo - hi) t, with hi the one of a, b with the larger
    real part: nothing overflows to +inf, and w or hi t at -inf give the
    exact limits, 0.  Each row is contracted on its own; rows at t = 0 are 0.
    """
    vals, vecs, inverse = eig

    def phi(a, b):
        hi, lo = np.where(a.real >= b.real, a, b), np.where(a.real >= b.real, b, a)
        with np.errstate(over="ignore"):
            w = np.multiply.outer(lo - hi, times)
            ratio = np.divide(np.expm1(w), w, out=np.ones_like(w), where=w != 0.0)
            return times * np.exp(np.multiply.outer(hi, times)) * ratio

    modes = phi(vals, 0.0) * (inverse @ slope @ fixed)[:, None] + np.einsum(
        "ij,ijk,j->ik", inverse @ slope @ vecs, phi(vals[:, None], vals[None, :]),
        inverse @ (y0 - fixed))
    return np.einsum("ij,jk->ik", vecs, modes).T.real


@dataclass(frozen=True)
class OdeSolution:
    """Dense-output trajectory of an initial value problem.

    ``t`` and ``y`` hold the accepted steps (y has one column per time);
    ``at`` interpolates the solution anywhere inside the integration
    span.
    """

    t: np.ndarray
    y: np.ndarray
    at: Callable[[float], np.ndarray]


def integrate_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t_span: Tuple[float, float],
) -> OdeSolution:
    """Integrate dy/dt = rhs(t, y) over t_span with dense output.

    scipy's adaptive embedded Runge-Kutta 5(4) scheme at rtol = atol =
    1e-12, imported on first use so that importing the package loads no
    scipy.  Step-size underflow or any other integrator failure raises
    NumericsError carrying the time actually reached.
    """
    y0 = np.asarray(y0)
    t0, t1 = float(t_span[0]), float(t_span[1])

    if t1 == t0:
        ts = np.array([t0])
        ys = y0.reshape(-1, 1).copy()
        return OdeSolution(ts, ys, lambda t: y0.copy())

    from scipy.integrate import solve_ivp

    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method="RK45",
        rtol=1e-12,
        atol=1e-12,
        dense_output=True,
    )
    if not sol.success:
        reached = float(sol.t[-1]) if sol.t.size else t0
        raise NumericsError(
            f"ODE integration failed at t={reached!r}: {sol.message}"
        )
    return OdeSolution(sol.t, sol.y, sol.sol)


# Gauss-Kronrod 7/15 rule on [-1, 1], QUADPACK's qk15 (Piessens et al.,
# QUADPACK, Springer 1983): nodes from 1 down to the centre, Kronrod
# weights, and the 7-point Gauss weights, which are zero at the nodes the
# Kronrod extension adds.
_GK_X = np.array([
    0.991455371120812639, 0.949107912342758525, 0.864864423359769073,
    0.741531185599394440, 0.586087235467691130, 0.405845151377397167,
    0.207784955007898468, 0.0])
_GK_WK = np.array([
    0.022935322010529225, 0.063092092629978553, 0.104790010322250184,
    0.140653259715525919, 0.169004726639267903, 0.190350578064785410,
    0.204432940075298892, 0.209482141084727828])
_GK_WG = np.array([
    0.0, 0.129484966168869693, 0.0, 0.279705391489276668,
    0.0, 0.381830050505118945, 0.0, 0.417959183673469388])
_GK_NODES = np.concatenate((-_GK_X, _GK_X[-2::-1]))
_GK_WEIGHTS = np.concatenate((_GK_WK, _GK_WK[-2::-1]))
_GK_DIFF = _GK_WEIGHTS - np.concatenate((_GK_WG, _GK_WG[-2::-1]))


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
) -> float:
    """Adaptive Gauss-Kronrod 7/15 quadrature of f over [a, b]; b may be +inf.

    Bisects the panel with the largest |K15 - G7| until the summed error
    estimate meets max(1e-12, 1e-10 * |value|).  b = +inf is mapped
    onto [0, 1) by x = a + t / (1 - t); the rule's nodes are interior, and
    one that rounds onto t = 1 in a tiny panel raises NumericsError.
    a > b gives the negative of the integral over [b, a].  numpy only:
    it replaces scipy's quad so that importing the package loads no scipy.
    Raises NumericsError after 200 bisections without convergence, or on
    a non-finite integrand or value.
    """
    if a == b:
        return 0.0
    if a > b:
        return -integrate_1d(f, b, a)
    if not math.isfinite(a):
        raise ValueError("integrate_1d needs a finite lower limit")

    def mapped(t: float) -> float:
        gap = 1.0 - t
        if gap == 0.0:  # a panel next to t = 1 narrower than rounding
            raise NumericsError("quadrature cannot resolve the integrand at infinity")
        return f(a + t / gap) / gap ** 2

    g, start, stop = (mapped, 0.0, 1.0) if b == math.inf else (f, a, b)

    # (-error, value, lo, hi): heapq pops the panel with the largest error.
    def panel(lo: float, hi: float) -> Tuple[float, float, float, float]:
        # Halved before the sum, so a width beyond the float range stays finite.
        half, mid = 0.5 * hi - 0.5 * lo, 0.5 * hi + 0.5 * lo
        fx = np.array([g(x) for x in (mid + half * _GK_NODES).tolist()])
        if not np.isfinite(fx).all():  # before inf * 0 in the sums warns
            raise NumericsError(f"integrand is not finite on [{lo!r}, {hi!r}]")
        with np.errstate(over="ignore", invalid="ignore"):  # the value check raises
            return -half * abs(fx @ _GK_DIFF), half * (fx @ _GK_WEIGHTS), lo, hi

    panels = [panel(start, stop)]
    bisections = 0
    while True:
        value = math.fsum(p[1] for p in panels)
        error = -math.fsum(p[0] for p in panels)
        if not (math.isfinite(value) and math.isfinite(error)):
            raise NumericsError(f"quadrature gave a non-finite value {value!r}")
        if error <= max(1e-12, 1e-10 * abs(value)):
            return value
        if bisections == 200:
            raise NumericsError(
                f"quadrature did not converge in {bisections} bisections "
                f"(error estimate {error:.3e})"
            )
        _, _, lo, hi = heapq.heappop(panels)
        mid = 0.5 * lo + 0.5 * hi
        heapq.heappush(panels, panel(lo, mid))
        heapq.heappush(panels, panel(mid, hi))
        bisections += 1
