"""Coherence engine: V-system open dynamics and work extraction.

Simulation toolkit for a three-level V system coupled to a thermal
bath, where aligned decay channels interfere and sustain stationary
excited-state coherence.  Provides the reduced coherence-vector
dynamics with closed-form aligned solutions, the nearly degenerate
extension with its first-order splitting correction, thermodynamic
functionals (free energy, extractable-work bounds, l1 coherence), and
two work-extraction protocols that convert stationary coherence into
work against a single bath.
"""

from .bath import (
    BathSpec,
    RatePair,
    flat_rate,
    rate_derivative,
    rates_at,
    tabulated_rate,
)
from .bloch import DensityMatrix, PhysicalityError
from .dynamics import (
    CoherenceVector,
    DegenerateSystem,
    GeneratorMatrix,
    analytic_evolution_aligned,
    coherence_generator,
    evolve,
    evolve_trajectory,
    steady_state,
    trajectory_columns,
    trajectory_rows,
)
from .neardegen import (
    NearDegenerateSystem,
    evolve_neardegenerate,
    neardegenerate_generator,
    perturbative_solution,
    thermalize_independent,
)
from .numerics import (
    NumericsError,
    integrate_1d,
    lambert_w_principal,
)
from .protocols import (
    GeneralInitialState,
    ProtocolLedger,
    ProtocolStep,
    RoundResult,
    coherence_unitary,
    optimal_shift_round1,
    protocol2,
    protocol_initial_state,
    quasistatic_work,
    quasistatic_work_quadrature,
    run_protocol1,
)
from .thermo import (
    HamiltonianSpec,
    eigen_subspace,
    fed,
    fed_subspace,
    free_energy,
    gibbs,
    l1_coherence,
    trace_distance,
    von_neumann_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BathSpec",
    "CoherenceVector",
    "DegenerateSystem",
    "DensityMatrix",
    "GeneralInitialState",
    "GeneratorMatrix",
    "HamiltonianSpec",
    "NearDegenerateSystem",
    "NumericsError",
    "PhysicalityError",
    "ProtocolLedger",
    "ProtocolStep",
    "RatePair",
    "RoundResult",
    "analytic_evolution_aligned",
    "coherence_generator",
    "coherence_unitary",
    "eigen_subspace",
    "evolve",
    "evolve_neardegenerate",
    "evolve_trajectory",
    "fed",
    "fed_subspace",
    "flat_rate",
    "free_energy",
    "gibbs",
    "integrate_1d",
    "l1_coherence",
    "lambert_w_principal",
    "neardegenerate_generator",
    "optimal_shift_round1",
    "perturbative_solution",
    "protocol2",
    "protocol_initial_state",
    "quasistatic_work",
    "quasistatic_work_quadrature",
    "rate_derivative",
    "rates_at",
    "run_protocol1",
    "steady_state",
    "tabulated_rate",
    "thermalize_independent",
    "trace_distance",
    "trajectory_columns",
    "trajectory_rows",
    "von_neumann_entropy",
]
