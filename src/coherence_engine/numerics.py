"""Shared numerical kernels.

Deterministic scalar and ODE routines used across the package: the
principal branch of the Lambert W function, bracketed scalar
maximization, exact propagation of linear time-independent equations,
adaptive ODE integration with dense output, and adaptive quadrature.
All kernels use fixed iteration orders and no randomness, so identical
inputs give bit-identical results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

import numpy as np
from scipy.integrate import quad, solve_ivp


EIGVEC_COND_LIMIT = 1e6


class NumericsError(RuntimeError):
    """A kernel failed to meet its convergence contract."""


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and iteration limits shared by the numerical kernels.

    abs_tol and rel_tol must lie in (0, 1e-2]; max_iter must be positive.
    """

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol <= 1e-2):
            raise ValueError("abs_tol must lie in (0, 1e-2]")
        if not (0.0 < self.rel_tol <= 1e-2):
            raise ValueError("rel_tol must lie in (0, 1e-2]")
        if self.max_iter <= 0:
            raise ValueError("max_iter must be a positive integer")


_INV_E = math.exp(-1.0)


def lambert_w_principal(z: float, config: SolverConfig | None = None) -> float:
    """Principal branch W_p of the Lambert W function, w * exp(w) = z.

    Valid for z >= -1/e, returning the branch with w >= -1.  Uses a
    Halley iteration seeded by a branch-point series near z = -1/e and
    by log-based asymptotics for large z.  The result satisfies
    |w e^w - z| <= 1e-14 * max(1, |z|).
    """
    cfg = config or SolverConfig(abs_tol=1e-14, rel_tol=1e-14, max_iter=100)
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

    for _ in range(cfg.max_iter):
        ew = math.exp(w)
        f = w * ew - z
        if abs(f) <= 1e-15 * max(1.0, abs(z)):
            break
        wp1 = w + 1.0
        # Halley step; the denominator is safe away from the branch point.
        denom = ew * wp1 - (w + 2.0) * f / (2.0 * wp1)
        w -= f / denom

    residual = abs(w * math.exp(w) - z)
    if residual > 1e-14 * max(1.0, abs(z)):
        raise NumericsError(
            f"Lambert W iteration stalled at w={w!r} with residual {residual:.3e}"
        )
    return w


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
    config: SolverConfig | None = None,
) -> MaximizeResult:
    """Maximize a continuous scalar function on a closed bracket.

    Golden-section search down to argument tolerance config.abs_tol,
    followed by two clamped Newton polishing steps built from
    central finite differences.  The polish removes the O(sqrt(eps))
    plateau inherent to comparison-only searches on smooth maxima, which
    matters when the argmax is compared against closed forms at the
    1e-8 level.  If the maximum sits on a bracket endpoint (monotone f),
    the endpoint is returned with at_boundary set.
    """
    cfg = config or SolverConfig(abs_tol=1e-10, rel_tol=1e-10, max_iter=200)
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
    while (b - a) > cfg.abs_tol and iterations < cfg.max_iter:
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


def propagate_affine(
    matrix: np.ndarray, constant: np.ndarray, y0: np.ndarray, times: Sequence[float]
) -> np.ndarray:
    """Exact solution of dy/dt = matrix . y - constant at each of times.

    y(t) is read off exp(t A) (y0, 1), with A = [[matrix, -constant],
    [0, 0]] the augmented generator.  One eigendecomposition of A serves
    every time; when its eigenvector matrix is ill-conditioned (near a
    defective generator, cond above EIGVEC_COND_LIMIT) each time falls
    back to scaling-and-squaring expm.  Returns one row per time; rows at
    t = 0 are y0 exactly, and real input gives real output.
    """
    y0 = np.asarray(y0)
    n = y0.size
    aug = np.zeros((n + 1, n + 1), dtype=np.result_type(matrix, constant, y0, float))
    aug[:n, :n] = matrix
    aug[:n, n] = -np.asarray(constant)
    z0 = np.append(y0, 1.0)
    times = np.asarray(times, dtype=float)
    vals, vecs = np.linalg.eig(aug)
    if np.linalg.cond(vecs) <= EIGVEC_COND_LIMIT:
        coeffs = np.linalg.solve(vecs, z0)
        z = (vecs @ (np.exp(np.outer(vals, times)) * coeffs[:, None])).T
    else:
        from scipy.linalg import expm

        z = np.array([expm(t * aug) @ z0 for t in times]).reshape(times.size, n + 1)
    out = z[:, :n].real if np.isrealobj(aug) else z[:, :n]
    out[times == 0.0] = y0
    return out


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
    config: SolverConfig | None = None,
    fixed_steps: Optional[int] = None,
) -> OdeSolution:
    """Integrate dy/dt = rhs(t, y) over t_span with dense output.

    The default path is an adaptive embedded Runge-Kutta 5(4) scheme.
    Passing fixed_steps switches to a classical fixed-step RK4 walk with
    that many equal steps, trading accuracy for step-for-step
    reproducibility.  Step-size underflow or any other integrator
    failure raises NumericsError carrying the time actually reached.
    """
    cfg = config or SolverConfig(abs_tol=1e-10, rel_tol=1e-10, max_iter=10 ** 6)
    y0 = np.asarray(y0)
    t0, t1 = float(t_span[0]), float(t_span[1])

    if fixed_steps is not None:
        if fixed_steps < 1:
            raise ValueError("fixed_steps must be >= 1")
        ts = np.linspace(t0, t1, fixed_steps + 1)
        ys = np.empty((y0.size, ts.size), dtype=np.result_type(y0.dtype, float))
        ys[:, 0] = y0
        h = (t1 - t0) / fixed_steps
        y = y0.astype(ys.dtype)
        for k in range(fixed_steps):
            t = ts[k]
            k1 = np.asarray(rhs(t, y))
            k2 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k1))
            k3 = np.asarray(rhs(t + 0.5 * h, y + 0.5 * h * k2))
            k4 = np.asarray(rhs(t + h, y + h * k3))
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            ys[:, k + 1] = y

        def interp(t: float) -> np.ndarray:
            cols = np.array(
                [np.interp(t, ts, ys[i].real) for i in range(ys.shape[0])]
            )
            if np.iscomplexobj(ys):
                cols = cols + 1j * np.array(
                    [np.interp(t, ts, ys[i].imag) for i in range(ys.shape[0])]
                )
            return cols

        return OdeSolution(ts, ys, interp)

    if t1 == t0:
        ts = np.array([t0])
        ys = y0.reshape(-1, 1).copy()
        return OdeSolution(ts, ys, lambda t: y0.copy())

    sol = solve_ivp(
        rhs,
        (t0, t1),
        y0,
        method="RK45",
        rtol=cfg.rel_tol,
        atol=cfg.abs_tol,
        dense_output=True,
    )
    if not sol.success:
        reached = sol.t[-1] if sol.t.size else t0
        raise NumericsError(
            f"ODE integration failed at t={reached!r}: {sol.message}"
        )
    return OdeSolution(sol.t, sol.y, sol.sol)


def integrate_1d(
    f: Callable[[float], float],
    a: float,
    b: float,
    config: SolverConfig | None = None,
) -> float:
    """Adaptive quadrature of f over [a, b]; b may be +inf.

    Raises NumericsError if the quadrature reports non-convergence or
    the error estimate exceeds the requested tolerances.
    """
    cfg = config or SolverConfig(abs_tol=1e-12, rel_tol=1e-10, max_iter=200)
    if a == b:
        return 0.0
    value, abserr, info, *tail = quad(
        f, a, b, epsabs=cfg.abs_tol, epsrel=cfg.rel_tol, full_output=1
    )
    if tail:
        raise NumericsError(f"quadrature did not converge: {tail[0]}")
    if abserr > 10.0 * max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise NumericsError(
            f"quadrature error estimate {abserr:.3e} exceeds tolerance"
        )
    return float(value)
