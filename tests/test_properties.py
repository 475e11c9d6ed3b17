"""Property tests of the dynamics and the protocols over the parameter domain."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_engine.bath import (
    DETAILED_BALANCE_RTOL,
    BathSpec,
    flat_rate,
    rates_at,
    tabulated_rate,
)
from coherence_engine.bloch import DensityMatrix
from coherence_engine.dynamics import (
    CoherenceVector,
    DegenerateSystem,
    analytic_evolution_aligned,
    coherence_generator,
    evolve,
    evolve_trajectory,
    steady_state,
)
from coherence_engine.neardegen import (
    NearDegenerateSystem,
    neardegenerate_generator,
)
from coherence_engine.protocols import (
    GeneralInitialState,
    protocol2,
    protocol_initial_state,
    run_protocol1,
)
from coherence_engine.thermo import HamiltonianSpec, fed, gibbs, l1_coherence
from reference import gksl_rhs_matrix, nonsecular_rhs_matrix

PROPERTY = settings(max_examples=50, derandomize=True, database=None, deadline=None)
# Work and FED are differences of energies of order omega <= 5, so each
# carries an absolute rounding error of a few ulp of omega.
ROUNDING = 1e-15
BETAS = st.floats(min_value=0.05, max_value=1000.0)
OMEGAS = st.floats(min_value=0.1, max_value=5.0)
STATES = st.builds(
    GeneralInitialState,
    b=st.floats(min_value=1e-3, max_value=1.0),
    n_norm=st.floats(min_value=0.0, max_value=1.0),
    theta=st.floats(min_value=0.0, max_value=math.pi),
    phi=st.floats(min_value=-math.pi, max_value=math.pi),
)
UNIT = st.floats(min_value=-1.0, max_value=1.0)
ALIGNMENTS = st.one_of(st.sampled_from([-1.0, 1.0]), UNIT)
GAMMAS = st.floats(min_value=0.0, max_value=5.0)
RATES = st.one_of(
    st.builds(flat_rate, GAMMAS),
    st.builds(
        lambda w, dw, g1, g2: tabulated_rate(((w, g1), (w + dw, g2))),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.01, max_value=5.0),
        GAMMAS,
        GAMMAS,
    ),
)


@st.composite
def densities(draw):
    """Full 3x3 states (g g^H + 1e-9 I) / tr, exactly Hermitian, near-pure included."""
    parts = np.array(draw(st.lists(UNIT, min_size=18, max_size=18)))
    g = (parts[:9] + 1j * parts[9:]).reshape(3, 3)
    m = g @ g.conj().T + 1e-9 * np.eye(3)
    m = 0.5 * (m + m.conj().T)
    return DensityMatrix(m / np.trace(m).real)


@PROPERTY
@given(beta=BETAS, omega=OMEGAS, p=ALIGNMENTS, rho=densities(),
       s=st.floats(min_value=0.0, max_value=200.0),
       t=st.floats(min_value=0.0, max_value=2000.0))
def test_evolution_semigroup_and_invariants(beta, omega, p, rho, s, t):
    """P(t) P(s) = P(s + t); trace 1, Hermitian and PSD along trajectories."""
    system = DegenerateSystem(omega)
    bath = BathSpec(beta=beta, alignment=p)
    chained = evolve(evolve(rho, system, bath, s), system, bath, t)
    direct = evolve(rho, system, bath, s + t)
    gap = float(np.max(np.abs(chained.matrix - direct.matrix)))
    assert gap <= 1e-10, gap
    for state in evolve_trajectory(rho, system, bath, np.linspace(0.0, s + t, 7)):
        m = state.matrix
        assert abs(state.trace - 1.0) <= 1e-12
        assert np.array_equal(m, m.conj().T)
        assert state.min_eigenvalue() >= -1e-10


@PROPERTY
@given(beta=BETAS, omega=OMEGAS, init=STATES)
def test_protocol_work_bounded_by_fed(beta, omega, init):
    """0 <= W1 <= FED for protocol 1 and W2 = FED for protocol 2 (closed)."""
    bath = BathSpec(beta=beta, alignment=1.0)
    ham = HamiltonianSpec.degenerate(omega)
    charged = protocol_initial_state(beta, omega)
    ledger, _rounds = run_protocol1(charged, omega, beta, bath)
    bound = fed(charged, ham, beta)
    assert -ROUNDING <= ledger.net_work <= bound + ROUNDING, (ledger.net_work, bound)
    single = protocol2(init, omega, beta, bath)
    gap = abs(single.net_work - fed(init.to_density(), ham, beta))
    assert gap <= 1e-10, gap


@PROPERTY
@given(beta=st.floats(min_value=0.05, max_value=700.0), omega=OMEGAS)
def test_protocol1_work_within_relative_fed_bound(beta, omega):
    """0 <= W1 <= FED (1 + 1e-12) for the charged state, at every temperature.

    The FED of the charged state is log1p(x/(1 + x))/beta, x = e^{-beta omega},
    which keeps its digits where x is far below eps.
    """
    bath = BathSpec(beta=beta, alignment=1.0)
    charged = protocol_initial_state(beta, omega)
    ledger, _rounds = run_protocol1(charged, omega, beta, bath)
    x = math.exp(-beta * omega)
    bound = math.log1p(x / (1.0 + x)) / beta
    assert 0.0 <= ledger.net_work <= bound * (1.0 + 1e-12), (ledger.net_work, bound)


@PROPERTY
@given(beta=BETAS, omega=OMEGAS)
def test_protocol1_consumes_coherence_as_fuel(beta, omega):
    """Each round of protocol 1 yields work >= 0 and leaves no more coherence."""
    bath = BathSpec(beta=beta, alignment=1.0)
    charged = protocol_initial_state(beta, omega)
    _ledger, rounds = run_protocol1(charged, omega, beta, bath)
    coherence = [l1_coherence(charged)] + [r.coherence_after for r in rounds]
    for before, after in zip(coherence, coherence[1:]):
        assert after <= before, (before, after)
    for r in rounds:
        assert r.net_work >= -ROUNDING, (r.index, r.net_work)


def _gibbs_residual(generator, rho):
    """max |M Pi - b| at the coherence vector (rho22, rho00, 0, 0) of diagonal rho."""
    pi = np.array([rho[0, 0], rho[2, 2], 0.0, 0.0])
    return float(np.max(np.abs(generator.matrix @ pi - generator.constant)))


@PROPERTY
@given(beta=BETAS, omega=OMEGAS, p=ALIGNMENTS, rate_fn=RATES,
       split=st.floats(min_value=0.0, max_value=0.099))
def test_gibbs_state_is_fixed_point_of_every_route(beta, omega, p, rate_fn, split):
    """Detailed balance: no route to the dynamics moves the Gibbs state."""
    bath = BathSpec(beta=beta, rate_fn=rate_fn, alignment=p)
    degenerate = DegenerateSystem(omega)
    near = NearDegenerateSystem(omega, omega + split * omega)
    rates = [rates_at(bath, w).gamma_plus for w in (near.omega1, near.omega2)]
    bound = DETAILED_BALANCE_RTOL * max(1.0, *rates)

    rho = gibbs(HamiltonianSpec.degenerate(omega), beta).matrix
    rho_split = gibbs(HamiltonianSpec(e2=near.omega2, e1=near.omega1), beta).matrix
    residuals = {
        "gksl": np.max(np.abs(gksl_rhs_matrix(rho, degenerate, bath))),
        "coherence": _gibbs_residual(coherence_generator(degenerate, bath), rho),
        "nonsecular": np.max(np.abs(nonsecular_rhs_matrix(rho_split, near, bath))),
        "neardegenerate": _gibbs_residual(neardegenerate_generator(near, bath),
                                          rho_split),
    }
    assert max(residuals.values()) <= bound, (residuals, bound)


def _sector(rho):
    """The 4-vector (rho22, rho00, rho_plus, rho_minus_im) of a density matrix."""
    return CoherenceVector.from_density(rho).as_array()


@PROPERTY
@given(beta=BETAS, omega=OMEGAS, p=ALIGNMENTS, rate_fn=RATES, init=STATES)
def test_long_time_state_is_a_fixed_point_keeping_the_null_invariant(
    beta, omega, p, rate_fn, init
):
    """steady_state solves M y = b; at |p| = 1 it keeps l . y of M's left null vector.

    Checked against the generator itself, not against evolution, which
    is anchored at this same state.  The left null vector comes from an
    SVD of M, independent of the closed forms.
    """
    system = DegenerateSystem(omega)
    bath = BathSpec(beta=beta, rate_fn=rate_fn, alignment=p)
    y0 = _sector(init.to_density())
    limit = _sector(steady_state(system, bath, tuple(y0)))
    m, b = coherence_generator(system, bath).real_form()
    gamma_plus = rates_at(bath, omega).gamma_plus
    residual = float(np.max(np.abs(m @ limit - b)))
    assert residual <= DETAILED_BALANCE_RTOL * max(1.0, gamma_plus), residual
    # Rates near the subnormal range round the generator's entries off its
    # singular structure, so the invariant is checked above them.
    if abs(p) == 1.0 and gamma_plus > 1e-290:
        u, s, _vh = np.linalg.svd(m / np.max(np.abs(m)))
        assert s[-1] <= 1e-14, s
        drift = abs(float(u[:, -1] @ (limit - y0)))
        assert drift <= 1e-14, drift


@PROPERTY
@given(beta=BETAS, omega=OMEGAS, p=st.sampled_from([-1.0, 1.0]), rate_fn=RATES,
       rho=densities())
def test_aligned_evolution_at_1e16_matches_the_closed_form(beta, omega, p, rate_fn,
                                                           rho):
    """Far beyond every decay time the state is physical and equals the closed form."""
    system = DegenerateSystem(omega)
    bath = BathSpec(beta=beta, rate_fn=rate_fn, alignment=p)
    state = evolve_trajectory(rho, system, bath, [1e16])[0]
    assert state.min_eigenvalue() >= -1e-10
    r22, r00, rp, d = _sector(rho)
    aligned = BathSpec(beta=beta, rate_fn=rate_fn, alignment=1.0)
    e22, e00, e12 = analytic_evolution_aligned((r22, r00, p * rp, d), system, aligned,
                                               1e16)
    expected = np.array([e22, e00, p * e12.real, -e12.imag])
    gap = float(np.max(np.abs(_sector(state) - expected)))
    assert gap <= 1e-14, gap


def test_alignment_sign_conjugates_each_trajectory_exactly():
    """p -> -p maps the run from U rho0 U to U rho_t U, U = diag(1, -1, 1).

    An exact law of the model, held to exact float equality (signed zeros
    compare equal) over a fixed grid of alignments, temperatures and starts.
    """
    g = np.random.default_rng(15).normal(size=(2, 3, 3))
    full = (g[0] + 1j * g[1]) @ (g[0] + 1j * g[1]).conj().T
    starts = [np.diag([0.0, 0.0, 1.0]).astype(complex),
              CoherenceVector(0.3, 0.2, 0.2, -0.1).to_density().matrix,
              full / np.trace(full).real]
    flip = np.array([1.0, -1.0, 1.0])
    conjugate = np.outer(flip, flip)
    times = [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 200.0, 1500.0]
    system = DegenerateSystem(1.0)
    for p in (1.0, 0.99, 0.5, 0.3):
        for beta in (0.5, 1.0, 3.0):
            for m in starts:
                plus = evolve_trajectory(DensityMatrix(m), system,
                                         BathSpec(beta=beta, alignment=p), times)
                minus = evolve_trajectory(DensityMatrix(conjugate * m), system,
                                          BathSpec(beta=beta, alignment=-p), times)
                for t, a, b in zip(times, plus, minus):
                    assert np.array_equal(conjugate * a.matrix, b.matrix), (p, beta, t)


@pytest.mark.parametrize("s", [
    1e-300, 1e-100, 1e-10, 1e-3, 1e3, 1e10, 1e100, 1e307,
    pytest.param(1e308, marks=pytest.mark.xfail(
        raises=np.linalg.LinAlgError, strict=True,
        reason="ROADMAP item 10: gamma_plus + 2 gamma_minus overflows in the generator")),
])
def test_rate_time_scaling_leaves_each_trajectory_unchanged(s):
    """gamma -> s gamma with t -> t/s gives the same states, within 1e-14.

    An exact law of the model on the closed sector (ground-excited
    coherences also rotate at omega, which does not scale); the bound is a
    few n eps cond(V) of the 4x4 generator's eigenvectors.  Each scaled
    bath differs from its reference only in rate_fn, so the law also fails
    if the sector cache ignores it.
    """
    starts = [CoherenceVector(0.0, 1.0, 0.0).to_density(),
              CoherenceVector(0.3, 0.2, 0.2, -0.1).to_density()]
    times = np.array([0.0, 0.1, 1.0, 5.0, 50.0, 1500.0])
    system = DegenerateSystem(1.0)
    for p in (1.0, -1.0, 0.99, 0.5):
        for rho0 in starts:
            reference = evolve_trajectory(rho0, system, BathSpec(beta=1.0, alignment=p), times)
            scaled = evolve_trajectory(rho0, system, BathSpec(1.0, flat_rate(s), p), times / s)
            for t, a, b in zip(times, reference, scaled):
                gap = float(np.max(np.abs(a.matrix - b.matrix)))
                assert gap <= 1e-14, (p, t, gap)
