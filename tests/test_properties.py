"""Property tests of the extraction protocols over the parameter domain."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from coherence_engine.bath import BathSpec
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
