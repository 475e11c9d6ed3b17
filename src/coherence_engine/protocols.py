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
keeps its digits where x is far below machine epsilon.  Each round's
u, 1 - u and Z are computed there once; its states, written from closed
forms into one chain, its works and its series entry all read them, and
the input and every rotated and final row are checked in one pass.  A
ledger is its columns: the labels, the works, one read-only stack of
the first state and then every step's state, and their l1 coherences.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .bath import BathSpec, rates_at
from .bloch import DensityMatrix, _require_hermitian_unit_trace, _validate_all
from .dynamics import DegenerateSystem, steady_state
from .numerics import integrate_1d, lambert_w_principal
from .thermo import SUBSPACE_TOL, _gibbs_weights, _l1_coherences

SHIFT_ROOT_TOL = 1e-13
# The five steps of a protocol-1 round, in ledger order.
_ROUND_STEPS = ("rotate", "lift", "thermalize-split", "extract", "rebuild-coherence")


class ProtocolLedger:
    """Ordered step record, held as columns, with its work total.

    labels holds one label per step, and work_in and work_out one work
    each, as read-only float arrays.  chain stacks the first state and
    then the state after every step, (steps + 1, 3, 3), so a ledger
    without steps holds its first state alone.  The constructor checks
    the works (each >= 0, so NaN fails), keeps a read-only copy of chain
    (the caller's array stays as it was) and takes the l1 coherence of
    every row in one pass: step k's coherence is coherences[k] before it
    and coherences[k + 1] after it.
    """

    def __init__(
        self,
        labels: Sequence[str],
        work_in: Sequence[float],
        work_out: Sequence[float],
        chain: np.ndarray,
    ) -> None:
        n = len(labels)
        if not len(work_in) == len(work_out) == n:
            raise ValueError("a ledger needs one work_in and one work_out per label")
        works = np.array((work_in, work_out), dtype=float)
        if works.shape != (2, n):
            raise ValueError("work entries must be numbers")
        if not (works >= 0.0).all():
            raise ValueError("work entries must be non-negative")
        chain = np.array(chain, dtype=complex)
        if chain.shape != (n + 1, 3, 3):
            raise ValueError(f"state chain must have shape ({n + 1}, 3, 3)")
        chain.setflags(write=False)
        coherences = _l1_coherences(chain)
        works.setflags(write=False)
        coherences.setflags(write=False)
        self.labels = tuple(labels)
        self.work_in, self.work_out = works
        self.chain = chain
        self.coherences = coherences

    @property
    def net_work(self) -> float:
        return math.fsum((self.work_out - self.work_in).tolist())

    @property
    def final_state(self) -> DensityMatrix:
        return DensityMatrix._view(self.chain[-1])


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
ROUND_ROTATION.setflags(write=False)
_ROUND_ROTATION_ADJ = ROUND_ROTATION.conj().T


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


def _round_states(x: float, u: Sequence[float], e: Sequence[float], z: Sequence[float],
                  emits: bool, rounds: np.ndarray) -> None:
    """Write each round's steps 2 and 4 into rounds, a zeroed (n, 5, 3, 3) view.

    u = e^{-beta shift}, e = 1 - u and Z = 1 + x + xu are the recurrence's own
    values, one per round, so the rows share their bits with the works, the
    partition column and the next (q, r); nothing here takes an exponential.
    Step 2 is the thermal state diag(xu, x, 1)/Z.  Step 4 is the final state,
    dynamics._aligned_vector's fixed point from ground population 1/Z, in x and
    u so that nothing cancels at low temperature; without emission the bath
    leaves the thermal state as it is.  The entries go in through strided
    views of each round's 45 entries, in which a diagonal is every fourth.
    """
    flat = rounds.reshape(len(z), 45).real
    c2, c4 = 2.0 * (1.0 + x), 4.0 * (1.0 + x)
    # per round: the thermal diagonal, then the final excited, ground and coherence entries
    table = np.array([
        (x * u_k / z_k, x / z_k, 1.0 / z_k,
         x * (2.0 + (1.0 + u_k) / z_k) / c4, (1.0 + 1.0 / z_k) / c2, x * e_k / (c4 * z_k))
        for u_k, e_k, z_k in zip(u, e, z)
    ]).reshape(len(z), 6)
    flat[:, 18:27:4] = table[:, :3]
    if not emits:
        rounds[:, 4] = rounds[:, 2]
        return
    flat[:, 36:41:4] = table[:, 3:4]
    flat[:, 44] = table[:, 4]
    flat[:, 37:40:2] = table[:, 5:]


@functools.lru_cache(maxsize=64)
def _round_labels(n: int) -> Tuple[str, ...]:
    """The ledger labels of n protocol-1 rounds, five steps each."""
    return tuple(f"round {k}: {step}" for k in range(1, n + 1) for step in _ROUND_STEPS)


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
    follow in one stacked pass and are checked together with the input,
    in ledger order, so a failure raises the first unphysical state's
    error; the input is checked finite, Hermitian and unit-trace first.
    """
    if isinstance(max_rounds, bool) or not isinstance(max_rounds, int):
        raise ValueError("max_rounds must be an integer")
    if max_rounds < 1:
        raise ValueError("at least one round is required")
    if not (math.isfinite(shift_floor) and shift_floor >= 0.0):
        raise ValueError("shift floor must be finite and non-negative")
    _require_bath(bath, beta)
    m = initial.matrix
    _require_hermitian_unit_trace(m)  # its positivity is checked with the rounds' rows
    emits = rates_at(bath, omega).gamma_plus > 0.0
    x = math.exp(-beta * omega)
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
        u, e = math.exp(-beta * shift), -math.expm1(-beta * shift)
        z = 1.0 + x + x * u  # the partition column's Z, not _gibbs_weights' 1 + (x + xu)
        rounds.append((shift, population, u, e, z))
        q, r = (1.0 + u) / (2.0 * z), e / (2.0 * z)
        population = x * q
        if population <= 0.0:
            break
    n = len(rounds)
    shifts, lifted, u, e, z = zip(*rounds) if rounds else ((),) * 5

    # the first state, then each round's five steps, padded to whole rounds;
    # a round rotates the row before it
    chain = np.zeros((5 * n + 5, 3, 3), dtype=complex)
    chain[0] = m
    steps = chain[1:5 * n + 1].reshape(n, 5, 3, 3)
    _round_states(x, u, e, z, emits, steps)
    np.matmul(ROUND_ROTATION @ chain[:5 * n:5], _ROUND_ROTATION_ADJ, out=steps[:, 0])
    # the lift and the extract move no state
    steps[:, 1::2] = steps[:, :4:2]
    # one row per round, one column per step: the lift pays, the extract earns
    works = np.zeros((2, n, 5))
    works[0, :, 1] = np.multiply(shifts, lifted)
    works[1, :, 3] = np.multiply(shifts, steps[:, 2, 0, 0].real)
    # the input, then each round's rotated and final states (rows 5k and 5k + 1
    # short of the padding), in ledger order
    _validate_all(chain.reshape(n + 1, 5, 3, 3)[:, :2].reshape(-1, 3, 3)[:-1])
    ledger = ProtocolLedger(_round_labels(n), *works.reshape(2, -1), chain[:5 * n + 1])
    # each round's coherence_after is that of its rebuild-coherence state
    return ledger, [
        RoundResult(k, s, omega + s, z_k, w_in, w_out, c)
        for k, (s, z_k, w_in, w_out, c) in enumerate(zip(
            shifts, z, works[0, :, 1].tolist(), works[1, :, 3].tolist(),
            ledger.coherences[5::5].tolist()), 1)
    ]


def _shift_work(population: float, w_from: float, w_to: float) -> float:
    """Signed work from suddenly moving one level, positive = extracted.

    An unpopulated level moves for free even when the target sits at
    infinity, so the zero-population case short-circuits.
    """
    if population == 0.0:
        return 0.0
    return population * (w_from - w_to)


def _exp(x: float) -> float:
    """math.exp, with inf where it would overflow."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log_add_exp(a: float, b: float) -> float:
    """log(e^a + e^b), finite wherever the result is."""
    hi, lo = max(a, b), min(a, b)
    return hi if hi == math.inf else hi + math.log1p(math.exp(lo - hi))


def _sweep_model(beta: float, fixed_other_level: float, mode: str):
    """Log-partition function and moving population of a level sweep.

    The partition function is Z(w) = c + n e^{-beta w}: one moving level
    (n = 1) beside a fixed one (c = 1 + e^{-beta fixed_other_level}) in
    single-level-sweep mode, two degenerate moving levels (n = 2, c = 1)
    in both-levels-sweep mode.  Returns (log Z, n e^{-beta w} / Z) as
    functions of w, in log-sum-exp form only where the plain sum overflows.
    """
    if beta <= 0.0:
        raise ValueError("inverse temperature must be positive")
    if mode == "single-level-sweep":
        c, n = 1.0 + _exp(-beta * fixed_other_level), 1.0
    elif mode == "both-levels-sweep":
        c, n = 1.0, 2.0
    else:
        raise ValueError(f"unknown sweep mode: {mode!r}")
    log_c = math.log(c) if c < math.inf else _log_add_exp(0.0, -beta * fixed_other_level)

    def log_partition(w: float) -> float:
        z = c + n * _exp(-beta * w)
        return math.log(z) if z < math.inf else _log_add_exp(log_c, math.log(n) - beta * w)

    def population(w: float) -> float:
        boltz = n * _exp(-beta * w)
        if c + boltz < math.inf:
            return boltz / (c + boltz)
        return math.exp(-_log_add_exp(0.0, log_c - math.log(n) + beta * w))  # 1 / (1 + c / boltz)

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
    # 1/b must stay far from overflow: the rule BathSpec applies to beta.
    if not init.b >= sys.float_info.min:
        raise ValueError(f"matching needs a ground population >= {sys.float_info.min!r}")
    if work_mode not in ("closed", "quadrature"):
        raise ValueError(f"unknown work mode: {work_mode!r}")
    if omega <= 0.0:
        raise ValueError("frequency must be positive")
    _require_bath(bath, beta)

    rho = init.to_density().matrix
    rotation = coherence_unitary(init.theta, init.phi)
    diagonal = rotation @ rho @ rotation.conj().T

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

    u1, x = math.exp(-beta * omega1), math.exp(-beta * omega)
    merged, final = np.diag(_gibbs_weights(u1, u1)), np.diag(_gibbs_weights(x, x))
    steps = [
        ("rotate", 0.0, 0.0),
        ("match-middle-level", max(-w_lower, 0.0), max(w_lower, 0.0)),
        ("match-top-level", max(w_raise, 0.0), max(-w_raise, 0.0)),
        ("sweep-to-common-level", max(-w_sweep_down, 0.0), max(w_sweep_down, 0.0)),
        ("sweep-to-physical-level", max(-w_sweep_up, 0.0), max(w_sweep_up, 0.0)),
    ]
    labels, work_in, work_out = zip(*steps)
    return ProtocolLedger(
        labels, work_in, work_out, [rho, diagonal, diagonal, diagonal, merged, final])
