"""Work extraction from stationary coherence of the degenerate V system.

Two cyclic protocols operate on states confined to the subspace spanned
by the populations and the excited-excited coherence.

The repeated protocol rotates the coherence into a population
imbalance, lifts the emptied level, lets the split system thermalize,
extracts work by lowering the level back, and finally lets the aligned
degenerate bath rebuild a (smaller) stationary coherence.  Each round
consumes part of the coherence; the shift sequence is optimized round
by round and converges to zero, with the state approaching the ordinary
Gibbs state.

The single-shot protocol maps a general subspace state onto an
effective three-level Gibbs state of mismatched frequencies, then
harvests the mismatch by quasistatic level sweeps.  Its net work
saturates the free-energy difference of the initial state exactly.

Work bookkeeping is explicit: every step carries separate non-negative
work_in and work_out entries, and a ledger totals them.  Energies are
measured in units of the reference transition frequency times hbar, so
"lowering a level by w with population p" extracts p*w.

The repeated protocol runs as a scalar recurrence in x = e^{-beta omega}
and u = e^{-beta shift}: after round 1 the pre-lift population is
x(1 + u)/(2Z), Z = 1 + x + xu, never read from a matrix, so the series
keeps its digits where x is far below machine epsilon.  Every round's
states follow from closed forms in one stacked pass and are checked,
with the input, in another; each ledger takes all of its l1 coherences
from one stacked pass over its states.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .bath import BathSpec, rates_at
from .bloch import DensityMatrix, _validate_all
from .dynamics import DegenerateSystem, steady_state
from .numerics import integrate_1d, lambert_w_principal
from .thermo import SUBSPACE_TOL, HamiltonianSpec, _l1_coherences, gibbs

SHIFT_ROOT_TOL = 1e-13


@dataclass(frozen=True)
class ProtocolStep:
    """One ledger entry: what happened, what it cost, what it paid."""

    label: str
    work_in: float
    work_out: float
    coherence_before: float
    coherence_after: float
    state_after: DensityMatrix

    def __post_init__(self) -> None:
        if self.work_in < 0.0 or self.work_out < 0.0:
            raise ValueError("work entries must be non-negative")

    @property
    def net_work(self) -> float:
        return self.work_out - self.work_in


@dataclass
class ProtocolLedger:
    """Ordered step record with running work totals."""

    steps: List[ProtocolStep] = field(default_factory=list)

    @property
    def net_work(self) -> float:
        return math.fsum(s.work_out - s.work_in for s in self.steps)

    @property
    def final_state(self) -> DensityMatrix:
        if not self.steps:
            raise ValueError("empty ledger has no final state")
        return self.steps[-1].state_after

    def to_json_dict(self) -> dict:
        return {
            "steps": [
                {
                    "label": s.label,
                    "work_in": s.work_in,
                    "work_out": s.work_out,
                    "coherence_before": s.coherence_before,
                    "coherence_after": s.coherence_after,
                    "state": s.state_after.to_json(),
                }
                for s in self.steps
            ],
            "net_work": self.net_work,
        }

    def csv_rows(self) -> Tuple[List[str], List[List[float]]]:
        header = [
            "step",
            "work_in",
            "work_out",
            "coherence_before",
            "coherence_after",
        ]
        rows = []
        for idx, s in enumerate(self.steps):
            rows.append(
                [
                    float(idx),
                    s.work_in,
                    s.work_out,
                    s.coherence_before,
                    s.coherence_after,
                ]
            )
        return header, rows


@dataclass(frozen=True)
class GeneralInitialState:
    """Subspace state written as a ground weight plus an excited qubit.

    The excited 2x2 block is (1 - b)(I + n . sigma)/2 with Bloch vector
    n of length n_norm and polar angles (theta, phi); b is the ground
    population.  Any such state is physical by construction.
    """

    b: float
    n_norm: float
    theta: float
    phi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.b <= 1.0:
            raise ValueError("ground population must lie in [0, 1]")
        if not 0.0 <= self.n_norm <= 1.0:
            raise ValueError("Bloch vector length must lie in [0, 1]")
        if not (math.isfinite(self.theta) and math.isfinite(self.phi)):
            raise ValueError("Bloch vector angles must be finite")

    def bloch_vector(self) -> np.ndarray:
        st, ct = math.sin(self.theta), math.cos(self.theta)
        return self.n_norm * np.array(
            [st * math.cos(self.phi), st * math.sin(self.phi), ct]
        )

    def to_density(self) -> DensityMatrix:
        nx, ny, nz = self.bloch_vector()
        w = 1.0 - self.b
        block = 0.5 * w * np.array(
            [[1.0 + nz, nx - 1j * ny], [nx + 1j * ny, 1.0 - nz]], dtype=complex
        )
        m = np.zeros((3, 3), dtype=complex)
        m[:2, :2] = block
        m[2, 2] = self.b
        return DensityMatrix(m)

    @classmethod
    def from_density(cls, rho: DensityMatrix) -> "GeneralInitialState":
        rho.validate()
        m = rho.matrix
        if abs(m[0, 2]) > SUBSPACE_TOL or abs(m[1, 2]) > SUBSPACE_TOL:
            raise ValueError("state has coherence with the ground level")
        b = float(m[2, 2].real)
        w = 1.0 - b
        if w <= 1e-15:
            return cls(b=1.0, n_norm=0.0, theta=0.0, phi=0.0)
        nz = float((m[0, 0] - m[1, 1]).real) / w
        nx = 2.0 * float(m[0, 1].real) / w
        ny = -2.0 * float(m[0, 1].imag) / w
        norm = math.sqrt(nx * nx + ny * ny + nz * nz)
        if norm < 1e-15:
            return cls(b=b, n_norm=0.0, theta=0.0, phi=0.0)
        theta = math.acos(max(-1.0, min(1.0, nz / norm)))
        phi = math.atan2(ny, nx)
        return cls(b=b, n_norm=min(norm, 1.0), theta=theta, phi=phi)


@dataclass(frozen=True)
class RoundResult:
    """Per-round series entry of the repeated protocol driver.

    The round lifts a level from omega to lifted_level = omega + shift;
    partition is the split system's 1 + e^{-beta omega} + e^{-beta lifted}.
    """

    index: int
    shift: float
    lifted_level: float
    partition: float
    work_in: float
    work_out: float
    coherence_after: float

    @property
    def net_work(self) -> float:
        return self.work_out - self.work_in


def coherence_unitary(theta: float, phi: float) -> np.ndarray:
    """Energy-preserving rotation diagonalizing an excited-block qubit.

    Acts only inside the degenerate excited doublet, so it commutes with
    any Hamiltonian that is proportional to the identity there.  For a
    state whose excited Bloch vector points along (theta, phi), the
    conjugated state is diagonal with the larger population on the
    middle level.
    """
    half = 0.5 * theta
    return np.array(
        [
            [-math.sin(half), math.cos(half) * np.exp(-1j * phi), 0.0],
            [math.cos(half) * np.exp(1j * phi), math.sin(half), 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )


_SQRT_HALF = 1.0 / math.sqrt(2.0)
# Rotation used by the repeated protocol: sends the symmetric excited
# superposition to the middle level and the antisymmetric one to the top.
ROUND_ROTATION = np.array(
    [
        [_SQRT_HALF, -_SQRT_HALF, 0.0],
        [_SQRT_HALF, _SQRT_HALF, 0.0],
        [0.0, 0.0, 1.0],
    ],
    dtype=complex,
)


def _conjugate(u: np.ndarray, rho: DensityMatrix) -> DensityMatrix:
    return DensityMatrix(u @ rho.matrix @ u.conj().T)


def _require_bath(bath: BathSpec, beta: float) -> None:
    """A protocol's bath must be aligned and at the protocol's beta."""
    if bath.alignment != 1.0:
        raise ValueError("protocol requires a fully aligned bath")
    if beta != bath.beta:
        raise ValueError(f"beta {beta!r} differs from the bath's beta {bath.beta!r}")


def protocol_initial_state(beta: float, omega: float) -> DensityMatrix:
    """Stationary state reached from the ground state under full alignment.

    Carries the largest stationary coherence available at the given
    temperature and is the natural charged state for both protocols.
    """
    system = DegenerateSystem(omega=omega)
    bath = BathSpec(beta=beta, alignment=1.0)
    return steady_state(system, bath, (0.0, 1.0, 0.0, 0.0))


def _ledger(rows, chain: np.ndarray) -> ProtocolLedger:
    """Ledger of (label, state_after, work_in, work_out) rows.

    Each step starts where the step before ended; chain stacks the first
    state and every state_after, for one l1 pass over all coherences.
    """
    c = _l1_coherences(chain).tolist()
    return ProtocolLedger(
        [
            ProtocolStep(label, w_in, w_out, c[k], c[k + 1], after)
            for k, (label, after, w_in, w_out) in enumerate(rows)
        ]
    )


def _chain(first: DensityMatrix, rows) -> np.ndarray:
    """The chain stack of _ledger: first, then the rows' states_after."""
    return np.array([first.matrix] + [row[1].matrix for row in rows])


def _round_states(x: float, beta_shifts: np.ndarray, emits: bool):
    """(rounds, 3, 3) stacks of the thermal and final states, u = e^{-beta_shifts}.

    The thermal state is diag(xu, x, 1)/Z, Z = 1 + x + xu.  The final state
    is dynamics._aligned_vector's fixed point from ground population 1/Z,
    written in x and u so that nothing cancels at low temperature; without
    emission the bath leaves the thermal state as it is.
    """
    u = np.exp(-beta_shifts)
    z = 1.0 + x + x * u
    thermal = np.zeros((u.size, 3, 3), dtype=complex)
    thermal[:, 0, 0] = x * u / z
    thermal[:, 1, 1] = x / z
    thermal[:, 2, 2] = 1.0 / z
    if not emits:
        return thermal, thermal
    big_a = 1.0 + x
    final = np.zeros_like(thermal)
    final[:, 0, 0] = final[:, 1, 1] = x * (2.0 + (1.0 + u) / z) / (4.0 * big_a)
    final[:, 2, 2] = (1.0 + 1.0 / z) / (2.0 * big_a)
    final[:, 0, 1] = final[:, 1, 0] = -x * np.expm1(-beta_shifts) / (4.0 * big_a * z)
    return thermal, final


def _round_rows(prefix: str, rotated, thermal, final, work_in: float, work_out: float):
    """Ledger rows of one round: rotate, lift, thermalize, extract, rebuild."""
    return [
        (prefix + "rotate", rotated, 0.0, 0.0),
        (prefix + "lift", rotated, work_in, 0.0),
        (prefix + "thermalize-split", thermal, 0.0, 0.0),
        (prefix + "extract", thermal, 0.0, work_out),
        (prefix + "rebuild-coherence", final, 0.0, 0.0),
    ]


def protocol1_round(
    state: DensityMatrix,
    omega: float,
    beta: float,
    shift: float,
    bath: BathSpec,
) -> Tuple[ProtocolLedger, DensityMatrix]:
    """Execute one round of the repeated extraction protocol.

    Steps: rotate the coherence into populations, lift the emptied top
    level by the shift, thermalize at the split frequencies, lower the
    level back while extracting, and let the aligned degenerate bath
    restore a stationary state.  Thermalizations are taken in their
    long-time limits.
    """
    if shift <= 0.0:
        raise ValueError("level shift must be positive")
    _require_bath(bath, beta)
    state.validate()
    emits = rates_at(bath, omega).gamma_plus > 0.0
    rotated = _conjugate(ROUND_ROTATION, state)
    thermal, final = (
        DensityMatrix(m[0])
        for m in _round_states(math.exp(-beta * omega), np.array([beta * shift]), emits)
    )
    _validate_all([rotated, final])
    lifted = max(float(rotated.matrix[0, 0].real), 0.0)
    extracted = float(thermal.matrix[0, 0].real)
    rows = _round_rows("", rotated, thermal, final, shift * lifted, shift * extracted)
    return _ledger(rows, _chain(state, rows)), final


def optimal_shift_round1(beta: float, omega: float) -> float:
    """Optimal first-round shift, in closed form.

    The stationarity condition for the first round (no population on
    the lifted level) solves with the principal Lambert branch:
    shift = (1/beta) [1 + W(1/((1 + e^{beta omega}) e))].  The Lambert
    argument is evaluated as x / ((1 + x) e) with x = e^{-beta omega},
    which cannot overflow at low temperature.
    """
    if beta <= 0.0 or omega <= 0.0:
        raise ValueError("inverse temperature and frequency must be positive")
    x = math.exp(-beta * omega)
    arg = x / ((1.0 + x) * math.e)
    return (1.0 + lambert_w_principal(arg)) / beta


def _stationarity(shift: float, q: float, r: float, x: float, beta: float):
    """Residual of the round work's stationarity and its derivative in the shift.

    The round work is shift (xu/Z - xq); its derivative times Z^2/x is
    u Z - q Z^2 - beta shift u (1 + x), with no factor x to underflow.  In
    e = 1 - u and r = 1 - q(1 + 2x) no term of it is a difference of
    numbers of order 1, so a small shift keeps its relative digits.
    """
    v = beta * shift
    e = -math.expm1(-v)
    u = math.exp(-v)
    big_a, w = 1.0 + x, e * (1.0 - q * x)
    h = (1.0 + 2.0 * x) * r - big_a * (e + v * u) + x * e * (w - 2.0 * r)
    dh = beta * (2.0 * x * u * (w - r) - big_a * u * (2.0 - v))
    return h, dh


def _optimal_shift(
    q: float, r: float, x: float, beta: float, omega: float
) -> Optional[float]:
    """Shift maximizing the round work for the pre-lift population x q.

    r = 1 - q(1 + 2x) comes in closed form where the caller has one; q = 0
    is round 1 of the charged state, in closed form.  Returns None when no
    positive-work shift exists: the protocol has exhausted the state.
    """
    if q == 0.0:
        return optimal_shift_round1(beta, omega)
    # The work is positive below hi, where the residual is negative; at
    # shift 0 the residual is (1 + 2x) r, so the root is bracketed.
    hi = math.log1p(r / (q * (1.0 + x))) / beta if r > 0.0 else 0.0
    if hi <= 0.0:
        return None
    lo, shift = 0.0, 0.5 * hi
    for _ in range(200):
        h, dh = _stationarity(shift, q, r, x, beta)
        if h > 0.0:
            lo = shift
        else:
            hi = shift
        # A converged step is taken before the bracket test: at the root it
        # rounds onto the bracket end the residual's sign just moved.
        step = h / dh if dh != 0.0 else math.inf
        if abs(step) <= SHIFT_ROOT_TOL * shift:
            return shift - step
        shift -= step
        if not lo < shift < hi:
            shift = 0.5 * (lo + hi)
    return shift


def run_protocol1(
    initial: DensityMatrix,
    omega: float,
    beta: float,
    bath: BathSpec,
    max_rounds: int = 64,
    shift_floor: float = 1e-6,
) -> Tuple[ProtocolLedger, List[RoundResult]]:
    """Drive the repeated protocol until the optimal shift collapses.

    A scalar recurrence in x = e^{-beta omega} and u = e^{-beta shift}:
    round 1 lifts the pre-lift population of the given state, every later
    round x(1 + u)/(2Z), Z = 1 + x + xu, of the round before, never read
    from a matrix.  The driver stops before a round whose optimal shift
    falls below the floor, when no positive-work shift exists, when the
    population underflows to 0, or after max_rounds rounds.  The states
    follow in one stacked pass and are checked together in the order the
    rounds made them, so a failure raises the first unphysical state's
    error.
    """
    if max_rounds < 1:
        raise ValueError("at least one round is required")
    if shift_floor < 0.0:
        raise ValueError("shift floor must be non-negative")
    _require_bath(bath, beta)
    initial.validate()
    emits = rates_at(bath, omega).gamma_plus > 0.0
    x = math.exp(-beta * omega)
    m = initial.matrix
    population = float(
        (0.5 * (m[0, 0] + m[1, 1]) - 0.5 * (m[0, 1] + m[1, 0])).real
    )
    # rho11 = 1 - rho22 - rho00 is off by about eps, so a population within eps
    # of 0 is 0: the charged state's round 1 is the closed form by construction.
    if population <= math.ulp(1.0):
        population, q, r = 0.0, 0.0, 1.0
    else:
        q = population / x if x > 0.0 else math.inf
        r = 1.0 - q * (1.0 + 2.0 * x)
    rounds = []
    while len(rounds) < max_rounds:
        shift = _optimal_shift(q, r, x, beta, omega)
        if shift is None or shift < shift_floor:
            break
        u = math.exp(-beta * shift)
        z = 1.0 + x + x * u
        rounds.append((shift, population, z))
        q, r = (1.0 + u) / (2.0 * z), -math.expm1(-beta * shift) / (2.0 * z)
        population = x * q
        if population <= 0.0:
            break
    if not rounds:
        return ProtocolLedger(), []
    shifts, lifted, partitions = zip(*rounds)

    thermal, final = _round_states(x, beta * np.array(shifts), emits)
    inputs = np.concatenate((m[None], final[:-1]))
    rotated = ROUND_ROTATION @ inputs @ ROUND_ROTATION.conj().T
    works_in = (np.array(shifts) * lifted).tolist()
    works_out = (np.array(shifts) * thermal[:, 0, 0].real).tolist()
    rot, th, fin = ([DensityMatrix(a) for a in ms] for ms in (rotated, thermal, final))
    _validate_all([s for pair in zip([initial, *fin], rot) for s in pair] + fin[-1:])
    rows = []
    for k, states in enumerate(zip(rot, th, fin, works_in, works_out), 1):
        rows += _round_rows(f"round {k}: ", *states)
    steps = np.stack((rotated, rotated, thermal, thermal, final), axis=1)
    ledger = _ledger(rows, np.concatenate((m[None], steps.reshape(-1, 3, 3))))
    return ledger, [
        RoundResult(k + 1, s, omega + s, partitions[k], works_in[k], works_out[k],
                    ledger.steps[5 * k + 4].coherence_after)
        for k, s in enumerate(shifts)
    ]


def _shift_work(population: float, w_from: float, w_to: float) -> float:
    """Signed work from suddenly moving one level, positive = extracted.

    An unpopulated level moves for free even when the target sits at
    infinity, so the zero-population case short-circuits.
    """
    if population == 0.0:
        return 0.0
    return population * (w_from - w_to)


def _sweep_model(beta: float, fixed_other_level: float, mode: str):
    """Log-partition function and moving population of a level sweep.

    The partition function is Z(w) = c + n e^{-beta w}: one moving level
    (n = 1) beside a fixed one (c = 1 + e^{-beta fixed_other_level}) in
    single-level-sweep mode, two degenerate moving levels (n = 2, c = 1)
    in both-levels-sweep mode.  Returns (log Z, n e^{-beta w} / Z) as
    functions of w.
    """
    if beta <= 0.0:
        raise ValueError("inverse temperature must be positive")
    if mode == "single-level-sweep":
        c, n = 1.0 + math.exp(-beta * fixed_other_level), 1.0
    elif mode == "both-levels-sweep":
        c, n = 1.0, 2.0
    else:
        raise ValueError(f"unknown sweep mode: {mode!r}")

    def log_partition(w: float) -> float:
        return math.log(c + n * math.exp(-beta * w))

    def population(w: float) -> float:
        boltz = n * math.exp(-beta * w)
        return boltz / (c + boltz)

    return log_partition, population


def quasistatic_work(
    beta: float,
    omega_from: float,
    omega_to: float,
    fixed_other_level: float,
    mode: str = "single-level-sweep",
) -> float:
    """Work from an infinitely slow level sweep against the bath.

    In single-level-sweep mode one level moves from omega_from to
    omega_to while the other stays at fixed_other_level; in
    both-levels-sweep mode the two (degenerate) levels move together
    and fixed_other_level is ignored.  Positive values mean extracted
    work.  Effective level energies may be non-positive or infinite;
    the partition-function expressions stay well defined.
    """
    log_partition, _ = _sweep_model(beta, fixed_other_level, mode)
    if omega_from == omega_to:
        return 0.0
    return (log_partition(omega_to) - log_partition(omega_from)) / beta


def quasistatic_work_quadrature(
    beta: float,
    omega_from: float,
    omega_to: float,
    fixed_other_level: float,
    mode: str = "single-level-sweep",
) -> float:
    """Quadrature route to quasistatic_work, for cross-checks.

    Integrates the instantaneous thermal population of the moving
    level(s) over the sweep.  Supports an infinite omega_from through
    the integrator's improper-integral handling.
    """
    _, population = _sweep_model(beta, fixed_other_level, mode)
    return integrate_1d(population, omega_to, omega_from)


def discretized_quasistatic(
    beta: float,
    omega_from: float,
    omega_to: float,
    fixed_other_level: float,
    n_steps: int,
    mode: str = "single-level-sweep",
) -> float:
    """Staircase version of the quasistatic sweep with n_steps stages.

    Each stage thermalizes fully at the current frequency and then
    shifts the level(s) suddenly by (omega_to - omega_from)/n_steps,
    booking population times shift.  Converges to the quasistatic value
    with error O(1/n_steps).
    """
    if n_steps < 1:
        raise ValueError("need at least one staircase step")
    _, population = _sweep_model(beta, fixed_other_level, mode)
    h = (omega_to - omega_from) / n_steps
    total = 0.0
    for k in range(n_steps):
        w = omega_from + k * h
        total -= population(w) * h
    return total


def _matching_frequency(beta: float, population: float, ground: float) -> float:
    """Level energy giving the population/ground ratio a Gibbs form."""
    if population == 0.0:
        return math.inf
    return -math.log(population / ground) / beta


def protocol2(
    init: GeneralInitialState,
    omega: float,
    beta: float,
    bath: BathSpec,
    work_mode: str = "closed",
) -> ProtocolLedger:
    """Run the single-shot extraction cycle on a general subspace state.

    Rotates the excited qubit diagonal, reshapes the spectrum so the
    state is an exact Gibbs state of effective frequencies, then sweeps
    the levels quasistatically back to degeneracy at the physical
    frequency.  The net work saturates the free-energy difference of
    the initial state.  work_mode selects closed-form sweep works or an
    independent quadrature route.
    """
    if init.b == 0.0:
        raise ValueError("matching requires a nonzero ground population")
    if work_mode not in ("closed", "quadrature"):
        raise ValueError(f"unknown work mode: {work_mode!r}")
    if omega <= 0.0:
        raise ValueError("frequency must be positive")
    _require_bath(bath, beta)

    rho = init.to_density()
    rotation = coherence_unitary(init.theta, init.phi)
    diagonal = _conjugate(rotation, rho)

    p0 = init.b
    p1 = 0.5 * (1.0 - init.b) * (1.0 + init.n_norm)
    p2 = 0.5 * (1.0 - init.b) * (1.0 - init.n_norm)
    omega1 = _matching_frequency(beta, p1, p0)
    omega2 = _matching_frequency(beta, p2, p0)
    w_lower = _shift_work(p1, omega, omega1)
    w_raise = _shift_work(p2, omega2, omega)

    if work_mode == "closed":
        w_sweep_down = quasistatic_work(beta, omega2, omega1, omega1)
        w_sweep_up = quasistatic_work(beta, omega1, omega, 0.0, "both-levels-sweep")
    else:
        w_sweep_down = quasistatic_work_quadrature(beta, omega2, omega1, omega1)
        w_sweep_up = quasistatic_work_quadrature(
            beta, omega1, omega, 0.0, "both-levels-sweep"
        )

    u1 = math.exp(-beta * omega1)
    z1 = 1.0 + 2.0 * u1
    merged = DensityMatrix(np.diag([u1 / z1, u1 / z1, 1.0 / z1]))
    final = gibbs(HamiltonianSpec.degenerate(omega), beta)
    rows = [
        ("rotate", diagonal, 0.0, 0.0),
        ("match-middle-level", diagonal, max(-w_lower, 0.0), max(w_lower, 0.0)),
        ("match-top-level", diagonal, max(w_raise, 0.0), max(-w_raise, 0.0)),
        ("sweep-to-common-level", merged,
         max(-w_sweep_down, 0.0), max(w_sweep_down, 0.0)),
        ("sweep-to-physical-level", final,
         max(-w_sweep_up, 0.0), max(w_sweep_up, 0.0)),
    ]
    return _ledger(rows, _chain(rho, rows))
