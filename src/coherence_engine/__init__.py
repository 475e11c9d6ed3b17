"""Coherence engine: V-system open dynamics and work extraction.

Simulation toolkit for a three-level V system coupled to a thermal
bath, where aligned decay channels interfere and sustain stationary
excited-state coherence.  Provides the reduced coherence-vector
dynamics with closed-form aligned solutions, the nearly degenerate
extension with its first-order splitting correction, thermodynamic
functionals (free energy, extractable-work bounds, l1 coherence), and
two work-extraction protocols that convert stationary coherence into
work against a single bath.

The namespace is lazy (PEP 562): ``import coherence_engine`` loads
neither numpy nor any submodule, and a public name imports its home
module on first use.  So the command line can set numpy's thread
variables before numpy starts.
"""

import importlib
import sys
import types

__version__ = "0.1.0"

# Each public name, by home module: the one list of the package's API.
_EXPORTS = {
    "bath": ("BathSpec", "RatePair", "flat_rate", "rates_at", "tabulated_rate"),
    "bloch": ("DensityMatrix", "PhysicalityError"),
    "dynamics": ("CoherenceVector", "DegenerateSystem", "GeneratorMatrix",
                 "analytic_evolution_aligned", "coherence_generator", "evolve",
                 "evolve_trajectory", "steady_state", "trajectory_columns",
                 "trajectory_rows"),
    "neardegen": ("NearDegenerateSystem", "evolve_neardegenerate",
                  "neardegenerate_generator", "perturbative_solution",
                  "thermalize_independent"),
    "numerics": ("NumericsError", "integrate_1d", "lambert_w_principal"),
    "protocols": ("GeneralInitialState", "ProtocolLedger", "RoundResult",
                  "coherence_unitary", "optimal_shift_round1", "protocol2",
                  "protocol_initial_state", "quasistatic_work",
                  "quasistatic_work_quadrature", "run_protocol1"),
    "thermo": ("HamiltonianSpec", "eigen_subspace", "fed", "fed_subspace", "free_energy",
               "gibbs", "l1_coherence", "trace_distance", "von_neumann_entropy"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = (*_EXPORTS, "cli")

__all__ = sorted(_HOME)


class _Namespace(types.ModuleType):
    """The package: the import of a home module also binds its names here.

    The import system binds each submodule on its package the moment the
    submodule has run, so the names bound here are the module's originals,
    as an eager ``from .module import ...`` would have bound them, and a
    tool that patches the names it finds in the package finds them all.
    """

    def __setattr__(self, name, value):
        super().__setattr__(name, value)
        for export in _EXPORTS.get(name, ()):
            super().__setattr__(export, getattr(value, export))


sys.modules[__name__].__class__ = _Namespace


def __getattr__(name):
    if name not in _HOME and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    importlib.import_module(f"{__name__}.{_HOME.get(name, name)}")
    return globals()[name]


def __dir__():
    return sorted({*globals(), *_HOME, *_SUBMODULES})
