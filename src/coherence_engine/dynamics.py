"""Open dynamics of the degenerate V-type three-level system.

The excited states |2> and |1> share the energy omega and both decay to
the ground state |0> through dipole transitions whose cross-coupling is
set by the bath alignment p.  The master equation splits into two
decoupled sectors.  The real 4-vector Pi = (r22, r00, r+ = Re rho21,
d = Im rho21) obeys the affine equation dPi/dt = M Pi - b, with M built
by the same function as neardegen's, whose splitting delta couples r+
and d through the pair (+delta, -delta); here delta = 0.  The block
(rho20, rho10) of ground-excited coherences obeys a homogeneous 2x2
equation and only decays; its conjugate (rho02, rho01) follows by
Hermiticity.

Sign convention: with the generator written as dPi/dt = M Pi - b, every
eigenvalue of M has a non-positive real part; for |p| < 1 all real
parts are strictly negative and the state relaxes to the Gibbs fixed
point M^{-1} b.  The rate of approach is set by the slowest eigenvalue
of M (largest real part), which closes linearly as |p| -> 1: at
beta = omega = 1 it is -0.1264, -0.012685 and -0.0012689 for
p = 0.9, 0.99 and 0.999.  (Descriptions of this system sometimes quote the
eigenvalues of -M instead, which flips the sign of the statement; the
convention here is fixed by checking the analytic aligned solution
against direct integration.)  At |p| = 1 the generator becomes singular
and a one-parameter family of coherent steady states appears.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .bath import BathSpec, RatePair, rates_at
from .bloch import DensityMatrix, _hermitian_eigenvalues, _require_hermitian_unit_trace
# integrate_ode is unused here; perfbench/selftest.py reads this binding.
from .numerics import exp_modes, integrate_ode, propagate_affine  # noqa: F401
from .thermo import _l1_coherences

TRACE_DRIFT_TOL = 1e-12


@dataclass(frozen=True)
class DegenerateSystem:
    """Two degenerate excited levels at energy omega above the ground state."""

    omega: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.omega):
            raise ValueError("omega must be finite")
        if not self.omega > 0.0:
            raise ValueError("omega must be positive")


@dataclass(frozen=True)
class CoherenceVector:
    """The 4-vector (rho22, rho00, rho_plus, rho_minus) of the closed sector.

    rho_plus = (rho21 + rho12)/2 is real for Hermitian states and
    rho_minus = (rho21 - rho12)/2 is purely imaginary; the latter is
    stored through its imaginary part rho_minus_im, so all four fields
    are real.  to_density().validate() checks the state.
    """

    rho22: float
    rho00: float
    rho_plus: float
    rho_minus_im: float = 0.0

    @property
    def rho11(self) -> float:
        return 1.0 - self.rho22 - self.rho00

    @property
    def rho21(self) -> complex:
        return self.rho_plus + 1j * self.rho_minus_im

    @property
    def rho12(self) -> complex:
        return self.rho_plus - 1j * self.rho_minus_im

    def as_array(self) -> np.ndarray:
        return np.array([self.rho22, self.rho00, self.rho_plus, self.rho_minus_im])

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "CoherenceVector":
        r22, r00, rp, d = np.asarray(values, dtype=float).tolist()
        return cls(r22, r00, rp, d)

    @classmethod
    def from_density(cls, rho: DensityMatrix) -> "CoherenceVector":
        m = rho.matrix
        return cls(
            rho22=float(m[0, 0].real),
            rho00=float(m[2, 2].real),
            rho_plus=float(m[0, 1].real),
            rho_minus_im=float(m[0, 1].imag),
        )

    def to_density(self) -> DensityMatrix:
        m = np.zeros((3, 3), dtype=complex)
        m[0, 0] = self.rho22
        m[1, 1] = self.rho11
        m[2, 2] = self.rho00
        m[0, 1] = self.rho21
        m[1, 0] = self.rho12
        return DensityMatrix(m)


@dataclass(frozen=True)
class GeneratorMatrix:
    """Read-only generator (M, b): dPi/dt = M Pi - b on the real (r22, r00, r+, d)."""

    matrix: np.ndarray
    constant: np.ndarray

    def __post_init__(self) -> None:
        self.matrix.setflags(write=False)
        self.constant.setflags(write=False)

    def real_form(self) -> Tuple[np.ndarray, np.ndarray]:
        """Writable copies of (matrix, constant)."""
        return self.matrix.copy(), self.constant.copy()


def _generator(r1: RatePair, r2: RatePair, p: float, delta: float) -> GeneratorMatrix:
    """The generator for excited levels at omega1 (rates r1) and omega1 + delta (r2).

    At r1 = r2 and delta = 0 it is the degenerate generator bit for bit:
    gm1 + gm2 is then exactly 2 gm.
    """
    gp1, gm1 = r1.gamma_plus, r1.gamma_minus
    gp2, gm2 = r2.gamma_plus, r2.gamma_minus
    loss = gp1 + (gm1 + gm2)
    matrix = np.array(
        [
            [-gp2, gm2, -p * gp1, 0.0],
            [gp2 - gp1, -loss, p * (gp1 + gp2), 0.0],
            [0.5 * p * (gp1 - gp2), 0.5 * p * loss, -0.5 * (gp1 + gp2), delta],
            [0.0, 0.0, -delta, -0.5 * (gp1 + gp2)],
        ]
    )
    constant = np.array([0.0, -gp1, 0.5 * p * gp1, 0.0])
    return GeneratorMatrix(matrix, constant)


def coherence_generator(system: DegenerateSystem, bath: BathSpec) -> GeneratorMatrix:
    """The affine generator of the degenerate coherence-vector equation."""
    pair = rates_at(bath, system.omega)
    return _generator(pair, pair, bath.alignment, 0.0)


def _checked_grid(times) -> np.ndarray:
    """times as a 1-D array; the one time rule of every evolver."""
    t = np.asarray(times, dtype=float)
    # Non-decreasing from t[0] >= 0 up to t[-1] < inf; a NaN fails a comparison.
    if t.ndim != 1 or not (
        (t[1:] >= t[:-1]).all() and (t.size == 0 or 0.0 <= t[0] and t[-1] < math.inf)
    ):
        raise ValueError("times must be finite, non-negative and non-decreasing")
    return t


def evolve(
    rho0: DensityMatrix,
    system: DegenerateSystem,
    bath: BathSpec,
    t: float,
) -> DensityMatrix:
    """The state at time t, by exact propagation; its unit trace is asserted."""
    rho_t = evolve_trajectory(rho0, system, bath, [t])[0]
    drift = abs(rho_t.trace - 1.0)
    if drift > TRACE_DRIFT_TOL:
        raise RuntimeError(f"trace drifted by {drift:.3e} during evolution")
    return rho_t


def evolve_trajectory(
    rho0: DensityMatrix,
    system: DegenerateSystem,
    bath: BathSpec,
    times: Sequence[float],
) -> List[DensityMatrix]:
    """States along a time grid, by exact propagation of each sector.

    The 4-vector (r22, r00, r+, d) is propagated on coherence_generator
    about steady_state, one decomposition for every time.
    The ground-excited coherences obey d/dt (rho20, rho10) =
    [[a, b], [b, a]] (rho20, rho10) with a = -i omega - gamma_plus/2 -
    gamma_minus and b = -p gamma_plus/2, so rho20 +- rho10 decay as
    e^{(a +- b) t}.  States at t = 0 are rho0 itself; every other state
    is a read-only view of its own row of one (n, 3, 3) stack.
    """
    t = _checked_grid(times)
    m0 = rho0.matrix
    _require_hermitian_unit_trace(m0)
    init = CoherenceVector.from_density(rho0).as_array()
    fixed = _steady_vector(system, bath, init)
    pair = rates_at(bath, system.omega)
    matrix = _generator(pair, pair, bath.alignment, 0.0).matrix
    r22, r00, rp, d = propagate_affine(matrix, fixed, init, t).T
    a = -1j * system.omega - 0.5 * pair.gamma_plus - pair.gamma_minus
    b = -0.5 * bath.alignment * pair.gamma_plus
    ms = np.zeros((t.size, 3, 3), dtype=complex)
    ms[:, 0, 0], ms[:, 1, 1], ms[:, 2, 2] = r22, 1.0 - r22 - r00, r00
    ms[:, 0, 1] = rp + 1j * d
    if m0[0, 2] or m0[1, 2]:  # without them these columns stay exact zeros
        even = 0.5 * (m0[0, 2] + m0[1, 2]) * exp_modes(a + b, t)
        odd = 0.5 * (m0[0, 2] - m0[1, 2]) * exp_modes(a - b, t)
        ms[:, 0, 2], ms[:, 1, 2] = even + odd, even - odd
    ms[:, 1, 0], ms[:, 2, 0], ms[:, 2, 1] = (
        ms[:, 0, 1].conj(), ms[:, 0, 2].conj(), ms[:, 1, 2].conj()
    )
    ms.setflags(write=False)
    return [rho0 if tk == 0.0 else DensityMatrix._view(m) for tk, m in zip(t.tolist(), ms)]


# The entries in row-major order over the basis (|2>, |1>, |0>), the layout
# of a flattened matrix, which trajectory_rows relies on.
_ENTRY_LABELS = ("22", "21", "20", "12", "11", "10", "02", "01", "00")


def trajectory_columns() -> List[str]:
    entries = [f"{part}_rho{label}" for label in _ENTRY_LABELS for part in ("re", "im")]
    return ["t", *entries, "c_l1", "min_eigenvalue"]


def trajectory_rows(
    times: Sequence[float], states: Iterable[DensityMatrix]
) -> List[List[float]]:
    """Rows matching trajectory_columns for CSV emission."""
    pairs = list(zip(times, states))
    t = np.array([tk for tk, _ in pairs], dtype=float)
    ms = np.array([state.matrix for _, state in pairs]).reshape(t.size, 3, 3)
    entries = ms.reshape(t.size, 9).view(float)
    return np.column_stack(
        (t, entries, _l1_coherences(ms), _hermitian_eigenvalues(ms)[:, 0])
    ).tolist()


def _aligned_vector(init, x: float, slow, fast) -> Tuple:
    """Aligned-dipole closed form as the real 4-vector (r22, r00, r+, d).

    init is (rho22, rho00, rho_plus, rho_minus_im) at t = 0, x the
    Boltzmann factor, and slow = e^{-g t}, fast = e^{-2(1+x) g t} the two
    decay factors (scalars or arrays); slow = fast = 0 is the t -> infinity
    limit.
    """
    a, b, c, d = init
    big_a = 1.0 + x
    big_b = 1.0 + 2.0 * x
    r22 = (
        (1.0 + 2.0 * x - b - 2.0 * c)
        + 2.0 * big_a * (2.0 * a + b - 1.0) * slow
        + (1.0 + 2.0 * c - big_b * b) * fast
    ) / (4.0 * big_a)
    r00 = ((1.0 + b + 2.0 * c) + (-1.0 - 2.0 * c + big_b * b) * fast) / (
        2.0 * big_a
    )
    rp = ((-1.0 + big_b * (b + 2.0 * c)) + (1.0 + 2.0 * c - big_b * b) * fast) / (
        4.0 * big_a
    )
    return r22, r00, rp, d * slow


def _aligned_rows(init, omega: float, bath: BathSpec, times) -> np.ndarray:
    """Rows (r22, r00, r+, d) of _aligned_vector at omega, after the input checks."""
    if bath.alignment != 1.0:
        raise ValueError("closed-form evolution requires alignment = 1")
    a, b, c, d = (float(v) for v in init)
    CoherenceVector(a, b, c, d).to_density().validate()
    times = _checked_grid(times)
    g = rates_at(bath, omega).gamma_plus
    x = math.exp(-bath.beta * omega)
    slow, fast = exp_modes(-g, times), exp_modes(-2.0 * (1.0 + x) * g, times)
    return np.array(_aligned_vector((a, b, c, d), x, slow, fast)).T


def analytic_evolution_aligned(
    init: Tuple[float, float, float, float],
    system: DegenerateSystem,
    bath: BathSpec,
    t,
):
    """Closed-form aligned-dipole evolution of (rho22, rho00, rho12).

    For perfectly aligned dipoles the coherence-vector equation has the
    explicit solution of _aligned_vector, parameterized by the initial
    data rho22(0) = a, rho00(0) = b, rho_plus(0) = c, rho_minus(0) = i d
    and x = exp(-beta omega).  Accepts a scalar time or a grid under the
    evolvers' one time rule and returns (rho22, rho00, rho12) with rho12
    complex.
    """
    rho22, rho00, rp, d = _aligned_rows(init, system.omega, bath, np.atleast_1d(t)).T
    rho12 = rp - 1j * d
    if np.ndim(t) == 0:
        return float(rho22[0]), float(rho00[0]), complex(rho12[0])
    return rho22, rho00, rho12


def _steady_vector(system: DegenerateSystem, bath: BathSpec, init) -> np.ndarray:
    """steady_state as the real 4-vector (r22, r00, r+, d)."""
    a, b, c, d = (float(v) for v in init)
    if rates_at(bath, system.omega).gamma_plus == 0.0:
        return np.array([a, b, c, d])
    x = math.exp(-bath.beta * system.omega)
    if abs(bath.alignment) < 1.0:
        z = 1.0 + 2.0 * x
        return np.array([x / z, 1.0 / z, 0.0, 0.0])
    sign = bath.alignment
    r22, r00, rp, _d = _aligned_vector((a, b, sign * c, d), x, 0.0, 0.0)
    return np.array([r22, r00, sign * rp, 0.0])


def steady_state(
    system: DegenerateSystem,
    bath: BathSpec,
    init: Tuple[float, float, float, float],
) -> DensityMatrix:
    """Long-time state of the coherence sector, in closed form.

    The initial state when nothing emits (gamma_plus = 0 at omega); else
    the Gibbs state, unless |alignment| = 1, where the state keeps a
    memory of the initial (rho00, rho_plus).  Anti-aligned dipoles map
    onto aligned ones by flipping the sign of rho_plus.
    """
    return CoherenceVector.from_array(_steady_vector(system, bath, init)).to_density()
