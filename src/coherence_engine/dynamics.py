"""Open dynamics of the degenerate V-type three-level system.

The excited states |2> and |1> share the energy omega and both decay to
the ground state |0> through dipole transitions whose cross-coupling is
set by the bath alignment p.  The full Bloch dynamics splits into three
decoupled sectors: the excited populations and excited-excited
coherences {q1, q2, q7, q8}, and two sectors of ground-excited
coherences that only decay.  On the first sector the motion closes on
the coherence vector Pi = (rho22, rho00, rho_plus, rho_minus) and takes
the affine form dPi/dt = M Pi - b.

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

from .bath import BathSpec, cross_rates, rates_at
from .bloch import BlochVector, DensityMatrix, from_bloch, to_bloch
from .numerics import integrate_ode, propagate_affine
from .thermo import l1_coherence

TRACE_DRIFT_TOL = 1e-12
ALIGNED_TOL = 1e-12
CONDITION_GUARD = 1e12


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
    are real.  Range checks live in validate(), not the constructor, so
    integrator iterates with tiny constraint violations stay
    representable.
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

    @property
    def rho_minus(self) -> complex:
        return 1j * self.rho_minus_im

    def as_array(self) -> np.ndarray:
        return np.array([self.rho22, self.rho00, self.rho_plus, self.rho_minus_im])

    def validate(self, tol: float = 1e-9) -> "CoherenceVector":
        if not -tol <= self.rho22 <= 1.0 + tol:
            raise ValueError(f"rho22 = {self.rho22!r} outside [0, 1]")
        if not -tol <= self.rho00 <= 1.0 + tol:
            raise ValueError(f"rho00 = {self.rho00!r} outside [0, 1]")
        if self.rho22 + self.rho00 > 1.0 + tol:
            raise ValueError("rho22 + rho00 exceeds 1")
        return self

    @classmethod
    def from_array(cls, values: Sequence[float]) -> "CoherenceVector":
        r22, r00, rp, d = (float(v) for v in values)
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
    """Affine generator (M, b) of the coherence-vector equation.

    dPi/dt = matrix . Pi - constant.  The matrix acts on the complex
    vector (rho22, rho00, rho_plus, rho_minus); for the degenerate
    system it is real, while the near-degenerate generator carries
    imaginary couplings between rho_plus and rho_minus.
    """

    matrix: np.ndarray
    constant: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        c = np.array(self.constant, dtype=complex)
        if m.shape != (4, 4) or c.shape != (4,):
            raise ValueError("generator needs a 4x4 matrix and a 4-vector")
        m.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "constant", c)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.matrix)

    def is_singular(self, tol: float = 1e-12) -> bool:
        return bool(np.min(np.abs(self.eigenvalues())) < tol)

    def real_form(self) -> Tuple[np.ndarray, np.ndarray]:
        """The generator rewritten on the real vector (r22, r00, r+, d).

        Substituting rho_minus = i d amounts to conjugating by
        diag(1, 1, 1, i): column 4 picks up a factor i and row 4 a
        factor -i, which turns the -i delta couplings of the
        near-degenerate generator into the real pair (+delta, -delta).
        """
        transform = np.diag([1.0, 1.0, 1.0, 1j])
        inverse = np.diag([1.0, 1.0, 1.0, -1j])
        m_real = inverse @ self.matrix @ transform
        b_real = inverse @ self.constant
        if np.max(np.abs(m_real.imag)) > 1e-14 or np.max(np.abs(b_real.imag)) > 1e-14:
            raise ValueError("generator has no real form on (r22, r00, r+, d)")
        return m_real.real.copy(), b_real.real.copy()


def coherence_generator(system: DegenerateSystem, bath: BathSpec) -> GeneratorMatrix:
    """The affine generator of the degenerate coherence-vector equation."""
    pair = rates_at(bath, system.omega)
    gp, gm = pair.gamma_plus, pair.gamma_minus
    p = bath.alignment
    matrix = np.array(
        [
            [-gp, gm, -p * gp, 0.0],
            [0.0, -(gp + 2.0 * gm), 2.0 * p * gp, 0.0],
            [0.0, 0.5 * p * (gp + 2.0 * gm), -gp, 0.0],
            [0.0, 0.0, 0.0, -gp],
        ]
    )
    constant = np.array([0.0, -gp, 0.5 * p * gp, 0.0])
    return GeneratorMatrix(matrix, constant)


def _bloch_rhs_array(
    q: np.ndarray, omega: float, gp: float, gm: float, p: float
) -> np.ndarray:
    q1, q2, q3, q4, q5, q6, q7, q8 = q
    pop = q7 + q8
    drive = gm * p * (1.0 - pop)
    damp = p * (1.0 + 0.5 * pop)
    dq = np.empty(8, dtype=complex)
    dq[0] = drive - gp * (q1 + damp)
    dq[1] = drive - gp * (q2 + damp)
    dq[2] = -1j * omega * q3 - 0.5 * gp * (q3 + p * q5) - gm * q3
    dq[3] = 1j * omega * q4 - 0.5 * gp * (q4 + p * q6) - gm * q4
    dq[4] = -1j * omega * q5 - 0.5 * gp * (q5 + p * q3) - gm * q5
    dq[5] = 1j * omega * q6 - 0.5 * gp * (q6 + p * q4) - gm * q6
    dq[6] = gm * (1.0 - pop) - gp * (1.0 + q7 + 0.5 * p * (q1 + q2))
    dq[7] = gm * (1.0 - pop) - gp * (1.0 + q8 + 0.5 * p * (q1 + q2))
    return dq


def bloch_rhs(q: BlochVector, system: DegenerateSystem, bath: BathSpec) -> BlochVector:
    """Time derivative of the full 8-component Bloch vector.

    The sectors {q1, q2, q7, q8}, {q3, q5}, and {q4, q6} evolve
    independently; the last two carry the ground-excited coherences and
    admit only decaying solutions.
    """
    pair = rates_at(bath, system.omega)
    dq = _bloch_rhs_array(
        q.as_array(), system.omega, pair.gamma_plus, pair.gamma_minus, bath.alignment
    )
    return BlochVector.from_array(dq)


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
    Serves as an independent route against which the componentwise Bloch
    equations are checked.
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


def _bloch_problem(rho0: DensityMatrix, system: DegenerateSystem, bath: BathSpec):
    """Initial Bloch array and right-hand side of a run."""
    q0 = to_bloch(rho0).as_array()
    pair = rates_at(bath, system.omega)

    def rhs(_t: float, q: np.ndarray) -> np.ndarray:
        return _bloch_rhs_array(
            q, system.omega, pair.gamma_plus, pair.gamma_minus, bath.alignment
        )

    return q0, rhs


def _real_bloch(q: np.ndarray) -> np.ndarray:
    """(Re q1, Im q1, Re q3, Im q3, Re q5, Im q5, q7, q8) of each Bloch row."""
    x = np.empty(q.shape)
    x[..., 0:6:2], x[..., 1:6:2] = q[..., 0:6:2].real, q[..., 0:6:2].imag
    x[..., 6:] = q[..., 6:].real
    return x


def _complex_bloch(x: np.ndarray) -> np.ndarray:
    """Inverse of _real_bloch; q2, q4, q6 are exact conjugates (Hermitian)."""
    q = np.empty(x.shape, dtype=complex)
    q[..., 0:6:2] = x[..., 0:6:2] + 1j * x[..., 1:6:2]
    q[..., 1:6:2] = q[..., 0:6:2].conj()
    q[..., 6:] = x[..., 6:]
    return q


def _reference_states(rho0, system, bath, times, fixed_steps=None):
    """States at times by direct RK45 integration, or fixed-step RK4.

    The independent route that the exact propagation is tested against;
    evolve does not use it.
    """
    q0, rhs = _bloch_problem(rho0, system, bath)
    sol = integrate_ode(rhs, q0, (0.0, max(times)), fixed_steps=fixed_steps)
    return [from_bloch(BlochVector.from_array(sol.at(t) if t > 0.0 else q0))
            for t in times]


def evolve(
    rho0: DensityMatrix,
    system: DegenerateSystem,
    bath: BathSpec,
    t: float,
) -> DensityMatrix:
    """The state at time t, by exact propagation; its unit trace is asserted."""
    if t < 0.0:
        raise ValueError("evolution time must be non-negative")
    if t == 0.0:
        return rho0
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
    """States along a time grid, by exact propagation of the real Bloch vector.

    The affine generator is read off the Bloch right-hand side on the
    basis vectors, so the model is written down once, in _bloch_rhs_array.
    One decomposition of it serves every time.
    """
    times = [float(t) for t in times]
    if any(t < 0.0 for t in times) or any(
        t2 < t1 for t1, t2 in zip(times, times[1:])
    ):
        raise ValueError("times must be non-negative and non-decreasing")
    q0, rhs = _bloch_problem(rho0, system, bath)
    shift = _real_bloch(rhs(0.0, _complex_bloch(np.zeros(8))))
    matrix = np.column_stack(
        [_real_bloch(rhs(0.0, _complex_bloch(e))) - shift for e in np.eye(8)]
    )
    qs = _complex_bloch(propagate_affine(matrix, -shift, _real_bloch(q0), times))
    return [
        from_bloch(BlochVector.from_array(q0 if t == 0.0 else q))
        for t, q in zip(times, qs)
    ]


_ENTRY_LABELS = ("22", "21", "20", "12", "11", "10", "02", "01", "00")
# Basis order (|2>, |1>, |0>): level k sits at row/column 2 - k.
_ENTRY_INDEX = {s: (2 - int(s[0]), 2 - int(s[1])) for s in _ENTRY_LABELS}


def trajectory_columns() -> List[str]:
    cols = ["t"]
    for label in _ENTRY_LABELS:
        cols.append(f"re_rho{label}")
        cols.append(f"im_rho{label}")
    cols.append("c_l1")
    cols.append("min_eigenvalue")
    return cols


def trajectory_rows(
    times: Sequence[float], states: Iterable[DensityMatrix]
) -> List[List[float]]:
    """Rows matching trajectory_columns for CSV emission."""
    rows = []
    for t, state in zip(times, states):
        row = [float(t)]
        for label in _ENTRY_LABELS:
            z = state.matrix[_ENTRY_INDEX[label]]
            row.extend([float(z.real), float(z.imag)])
        row.append(l1_coherence(state))
        row.append(state.min_eigenvalue())
        rows.append(row)
    return rows


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
    and x = exp(-beta omega).  Accepts a scalar or array of times and
    returns (rho22, rho00, rho12) with rho12 complex.
    """
    if abs(bath.alignment - 1.0) > ALIGNED_TOL:
        raise ValueError("closed-form evolution requires alignment = 1")
    a, b, c, d = (float(v) for v in init)
    CoherenceVector(a, b, c, d).to_density().validate()
    pair = rates_at(bath, system.omega)
    g = pair.gamma_plus
    x = math.exp(-bath.beta * system.omega)
    t = np.asarray(t, dtype=float)
    slow = np.exp(-g * t)
    fast = np.exp(-2.0 * (1.0 + x) * g * t)
    rho22, rho00, rho_plus, d_t = _aligned_vector((a, b, c, d), x, slow, fast)
    rho12 = rho_plus - 1j * d_t
    if rho22.ndim == 0:
        return float(rho22), float(rho00), complex(rho12)
    return rho22, rho00, rho12


def steady_state(
    system: DegenerateSystem,
    bath: BathSpec,
    init: Tuple[float, float, float, float],
) -> DensityMatrix:
    """Long-time state of the coherence sector.

    Without emission (gamma_plus = 0 at omega) the generator vanishes and
    every state is stationary, so the initial state is returned.  For
    |alignment| < 1 the generator is invertible and the fixed point
    is the Gibbs state, independent of the initial data.  For aligned
    dipoles the generator is singular and the steady state retains a
    memory of the initial (rho00, rho_plus); anti-aligned dipoles map
    onto the aligned case by flipping the sign of rho_plus, which is a
    conjugation by diag(1, -1) on the excited subspace.  Alignments
    within the condition-number guard of +-1 route to the analytic
    branch to avoid catastrophic cancellation in the linear solve.
    """
    a, b, c, d = (float(v) for v in init)
    if rates_at(bath, system.omega).gamma_plus == 0.0:
        return CoherenceVector(a, b, c, d).to_density()
    p = bath.alignment
    x = math.exp(-bath.beta * system.omega)
    use_aligned = abs(abs(p) - 1.0) <= ALIGNED_TOL
    if not use_aligned:
        gen = coherence_generator(system, bath)
        m_real, b_real = gen.real_form()
        if np.linalg.cond(m_real) > CONDITION_GUARD:
            use_aligned = True
        else:
            vec = np.linalg.solve(m_real, b_real)
            return CoherenceVector.from_array(vec).to_density()
    sign = 1.0 if p >= 0.0 else -1.0
    r22, r00, rp, _d = _aligned_vector((a, b, sign * c, d), x, 0.0, 0.0)
    return CoherenceVector(r22, r00, sign * rp, 0.0).to_density()
