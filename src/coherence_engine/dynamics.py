"""Open dynamics of the degenerate V-type three-level system.

The excited states |2> and |1> share the energy omega and both decay to
the ground state |0> through dipole transitions whose cross-coupling is
set by the bath alignment p.  The master equation splits into two
decoupled sectors.  The real 4-vector Pi = (r22, r00, r+ = Re rho21,
d = Im rho21) obeys the affine equation dPi/dt = M Pi - b; this module
owns it for neardegen too, writing its states in _sector_states and
handing out (eigensystem of M, fixed point) from _sector; its one cache,
_sector_setup, builds and decomposes M once per (levels, bath).  A
splitting delta couples r+ and d through (+delta, -delta).  The block
(rho20, rho10) of ground-excited coherences obeys a homogeneous 2x2
equation and only decays; its conjugate follows by Hermiticity.

Sign convention: with the generator written as dPi/dt = M Pi - b, every
eigenvalue of M has a non-positive real part; for |p| < 1 all real
parts are strictly negative and the state relaxes to the Gibbs fixed
point M^{-1} b.  The rate of approach is set by the slowest eigenvalue
of M (largest real part), which closes linearly as |p| -> 1: at
beta = omega = 1 it is -0.1264, -0.012685 and -0.0012689 for
p = 0.9, 0.99 and 0.999.  At |p| = 1 the generator becomes singular
and a one-parameter family of coherent steady states appears.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .bath import BathSpec, RatePair, rates_at
from .bloch import (DensityMatrix, PhysicalityError, _hermitian_eigenvalues,
                    _require_hermitian_unit_trace)
# integrate_ode is unused here; perfbench/selftest.py reads this binding.
from .numerics import _decomposition, exp_modes, integrate_ode, propagate_affine  # noqa: F401
from .thermo import _gibbs_weights, _l1_coherences


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

    def as_array(self) -> np.ndarray:
        return np.array([self.rho22, self.rho00, self.rho_plus, self.rho_minus_im])

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "CoherenceVector":
        r22, r00, rp, d = np.asarray(values, dtype=float).tolist()
        return cls(r22, r00, rp, d)

    @classmethod
    def from_density(cls, rho: DensityMatrix) -> "CoherenceVector":
        m = rho.matrix
        r22, r00, r21 = float(m[0, 0].real), float(m[2, 2].real), m[0, 1]
        return cls(r22, r00, float(r21.real), float(r21.imag))

    def to_density(self) -> DensityMatrix:
        return DensityMatrix(
            _sector_states(self.rho22, self.rho00, self.rho_plus, self.rho_minus_im)
        )


def _sector_states(r22, r00, rp, d) -> np.ndarray:
    """The (..., 3, 3) states of sector vectors (r22, r00, r+, d), scalars or arrays.

    The one writer of the sector's layout: rho11 = 1 - r22 - r00,
    rho21 = r+ + i d and rho12 = r+ - i d; every other entry is +0.
    """
    m = np.zeros(getattr(r22, "shape", ()) + (3, 3), dtype=complex)
    m[..., 0, 0], m[..., 1, 1], m[..., 2, 2] = r22, 1.0 - r22 - r00, r00
    m[..., 0, 1], m[..., 1, 0] = rp + 1j * d, rp - 1j * d
    return m


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


def _require_finite(init) -> None:
    """The sector's one rule on an initial vector: every entry is finite."""
    if not all(map(math.isfinite, init)):
        raise PhysicalityError("entries are not all finite")


@functools.lru_cache(maxsize=64)
def _sector_setup(omega1: float, omega2: float, bath: BathSpec) -> Tuple:
    """_sector's start-free part, cached per (levels, bath); rate_fn must be pure.

    (rates at omega1, read-only eigensystem of the generator, x = e^{-beta
    omega1}, read-only Gibbs vector); a failed decomposition is not cached.
    """
    r1 = rates_at(bath, omega1)
    r2 = r1 if omega2 == omega1 else rates_at(bath, omega2)
    eig = _decomposition(_generator(r1, r2, bath.alignment, omega2 - omega1).matrix)
    x = math.exp(-bath.beta * omega1)
    r22, _, r00 = _gibbs_weights(math.exp(-bath.beta * omega2), x)
    gibbs = np.array([r22, r00, 0.0, 0.0])
    gibbs.setflags(write=False)
    return r1, eig, x, gibbs


def _sector(omega1: float, omega2: float, bath: BathSpec, init: np.ndarray) -> Tuple:
    """(eigensystem, fixed point, rates at omega1) for levels at omega1 <= omega2.

    The generator's (vals, vecs, inverse) is _sector_setup's cached one.  The
    fixed point is the Gibbs vector, or at omega1 = omega2 steady_state's for init.
    """
    _require_finite(init.tolist())
    pair, eig, x, gibbs = _sector_setup(omega1, omega2, bath)
    if omega1 == omega2:
        return eig, _steady_vector(pair.gamma_plus, x, bath.alignment, init), pair
    return eig, gibbs, pair


def _checked_grid(times) -> np.ndarray:
    """times as a 1-D array; the one time rule of every evolver."""
    t = np.asarray(times, dtype=float)
    # Non-decreasing from v[0] >= 0 up to v[-1] < inf; a NaN fails a comparison.
    if t.ndim != 1 or not (
        (v := t.tolist()) == [] or all(map(float.__le__, v[:-1], v[1:]))
        and 0.0 <= v[0] and v[-1] < math.inf
    ):
        raise ValueError("times must be finite, non-negative and non-decreasing")
    return t


def evolve(
    rho0: DensityMatrix,
    system: DegenerateSystem,
    bath: BathSpec,
    t: float,
) -> DensityMatrix:
    """The state at time t: evolve_trajectory's state on the grid [t]."""
    return evolve_trajectory(rho0, system, bath, [t])[0]


def evolve_trajectory(
    rho0: DensityMatrix,
    system: DegenerateSystem,
    bath: BathSpec,
    times: Sequence[float],
) -> List[DensityMatrix]:
    """States along a time grid, by exact propagation of each sector.

    The 4-vector (r22, r00, r+, d) is propagated about _sector's fixed point.
    The ground-excited coherences obey d/dt (rho20, rho10) =
    [[a, b], [b, a]] (rho20, rho10) with a = -i omega - gamma_plus/2 -
    gamma_minus and b = -p gamma_plus/2, so rho20 +- rho10 decay as
    e^{(a +- b) t}.  States at t = 0 are rho0 itself; every other state
    is a read-only view of its own row of one (n, 3, 3) stack.
    """
    t = _checked_grid(times)
    m0 = rho0.matrix
    _require_hermitian_unit_trace(m0)
    init = np.array([m0[0, 0].real, m0[2, 2].real, m0[0, 1].real, m0[0, 1].imag])
    eig, fixed, pair = _sector(system.omega, system.omega, bath, init)
    ms = _sector_states(*propagate_affine(eig, fixed, init, t).T)
    if m0[0, 2] or m0[1, 2]:  # without them these entries stay +0
        a = -1j * system.omega - 0.5 * pair.gamma_plus - pair.gamma_minus
        b = -0.5 * bath.alignment * pair.gamma_plus
        even = 0.5 * (m0[0, 2] + m0[1, 2]) * exp_modes(a + b, t)
        odd = 0.5 * (m0[0, 2] - m0[1, 2]) * exp_modes(a - b, t)
        ms[:, 0, 2], ms[:, 1, 2] = even + odd, even - odd
        ms[:, 2, 0], ms[:, 2, 1] = ms[:, 0, 2].conj(), ms[:, 1, 2].conj()
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
    """Rows matching trajectory_columns for CSV emission; lengths must match."""
    pairs = list(zip(times, states, strict=True))
    n = len(pairs)
    ms = np.array([state.matrix for _, state in pairs], dtype=complex).reshape(n, 3, 3)
    rows = np.empty((n, 21))
    rows[:, 0] = [tk for tk, _ in pairs]
    rows[:, 1:19] = ms.reshape(n, 9).view(float)
    rows[:, 19] = _l1_coherences(ms)
    rows[:, 20] = _hermitian_eigenvalues(ms)[:, 0]
    return rows.tolist()


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
    ms = _sector_states(*_aligned_rows(init, system.omega, bath, np.atleast_1d(t)).T)
    rho22, rho00, rho12 = ms[:, 0, 0].real, ms[:, 2, 2].real, ms[:, 1, 0]
    if np.ndim(t) == 0:
        return float(rho22[0]), float(rho00[0]), complex(rho12[0])
    return rho22, rho00, rho12


def _steady_vector(gamma_plus: float, x: float, alignment: float, init) -> np.ndarray:
    """steady_state as the real 4-vector (r22, r00, r+, d); x = e^{-beta omega}."""
    a, b, c, d = (float(v) for v in init)
    if gamma_plus == 0.0:
        return np.array([a, b, c, d])
    if abs(alignment) < 1.0:
        r22, _, r00 = _gibbs_weights(x, x)
        return np.array([r22, r00, 0.0, 0.0])
    r22, r00, rp, _d = _aligned_vector((a, b, alignment * c, d), x, 0.0, 0.0)
    return np.array([r22, r00, alignment * rp, 0.0])


def steady_state(
    system: DegenerateSystem,
    bath: BathSpec,
    init: Tuple[float, float, float, float],
) -> DensityMatrix:
    """Long-time state of the coherence sector, in closed form.

    The initial state when nothing emits (gamma_plus = 0 at omega); else the
    Gibbs state, unless |alignment| = 1, where the state keeps a memory of
    the initial (rho00, rho_plus).  Anti-aligned dipoles map onto aligned
    ones by flipping the sign of rho_plus.  A non-finite init is a PhysicalityError.
    """
    _require_finite(init)
    x, pair = math.exp(-bath.beta * system.omega), rates_at(bath, system.omega)
    vector = _steady_vector(pair.gamma_plus, x, bath.alignment, init)
    return CoherenceVector.from_array(vector).to_density()
