"""Property tests of the dynamics and the protocols over the parameter domain."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_engine.bath import BathSpec
from coherence_engine.bloch import DensityMatrix
from coherence_engine.dynamics import DegenerateSystem, evolve, evolve_trajectory
from coherence_engine.protocols import (
    GeneralInitialState,
    protocol2,
    protocol_initial_state,
    run_protocol1,
)
from coherence_engine.thermo import HamiltonianSpec, fed

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
