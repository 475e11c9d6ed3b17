"""Thermodynamic functionals for the three-level system.

Provides the l1 coherence monotone, von Neumann entropy and
non-equilibrium free energy, the free energy difference (FED) that
bounds extractable work, Gibbs states, and the closed-form eigenvalues
of states confined to the excited-coherence subspace.  Natural
logarithms are used throughout, so entropies and free energies are in
nats and energy units respectively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .bloch import DensityMatrix, PhysicalityError, _hermitian_eigenvalues

SUBSPACE_TOL = 1e-12
_ENTROPY_CLAMP = 1e-300


@dataclass(frozen=True)
class HamiltonianSpec:
    """Diagonal system Hamiltonian (E2, E1, 0) in basis order (|2>, |1>, |0>).

    The ground energy is the reference, fixed at zero.
    """

    e2: float
    e1: float

    def __post_init__(self) -> None:
        if self.e2 < 0.0 or self.e1 < 0.0:
            raise ValueError("excited energies must be non-negative")

    @classmethod
    def degenerate(cls, omega: float) -> "HamiltonianSpec":
        return cls(e2=omega, e1=omega)

    def matrix(self) -> np.ndarray:
        return np.diag([self.e2, self.e1, 0.0]).astype(complex)


def l1_coherence(rho: DensityMatrix) -> float:
    """Sum of the moduli of all off-diagonal entries."""
    return float(_l1_coherences(rho.matrix))


def _l1_coherences(ms: np.ndarray) -> np.ndarray:
    """l1_coherence over a stack of 3x3 matrices."""
    m = np.abs(ms)
    return m.sum(axis=(-2, -1)) - m.trace(axis1=-2, axis2=-1)


def eigen_subspace(rho: DensityMatrix) -> Tuple[float, float, float]:
    """Closed-form spectrum of a state with no ground-excited coherence.

    For rho20 = rho10 = 0 the ground level decouples, leaving
    lambda0 = rho00 and the two excited-block eigenvalues
    lambda_pm = [rho11 + rho22 +- sqrt((rho11 - rho22)^2 + 4 |rho12|^2)] / 2.
    Returns (lambda0, lambda_plus, lambda_minus); one below -1e-12 raises
    ValueError.
    """
    m = rho.matrix
    outer = max(abs(m[0, 2]), abs(m[1, 2]))
    if outer > SUBSPACE_TOL:
        raise PhysicalityError(
            f"state has ground-excited coherence of magnitude {outer:.3e}"
        )
    r22, r11 = m[0, 0].real, m[1, 1].real
    lam0 = 1.0 - r11 - r22
    root = math.sqrt((r11 - r22) ** 2 + 4.0 * abs(m[0, 1]) ** 2)
    lam_plus = 0.5 * (r11 + r22 + root)
    lam_minus = 0.5 * (r11 + r22 - root)
    for lam in (lam0, lam_plus, lam_minus):
        if lam < -1e-12:
            raise ValueError(f"eigenvalue {lam!r} below zero")
    return lam0, lam_plus, lam_minus


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho) in nats, with 0 * ln 0 taken as 0."""
    entropy = 0.0
    for lam in _hermitian_eigenvalues(rho.matrix):
        if lam > _ENTROPY_CLAMP:
            entropy -= lam * math.log(lam)
    return entropy


def free_energy(rho: DensityMatrix, hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Non-equilibrium free energy F(rho) = Tr(rho H) - S(rho) / beta."""
    energy = float(np.real(np.trace(rho.matrix @ hamiltonian.matrix())))
    return energy - von_neumann_entropy(rho) / beta


def gibbs(hamiltonian: HamiltonianSpec, beta: float) -> DensityMatrix:
    """Thermal state exp(-beta H) / Z for the diagonal Hamiltonian."""
    weights = np.array(
        [
            math.exp(-beta * hamiltonian.e2),
            math.exp(-beta * hamiltonian.e1),
            1.0,
        ]
    )
    return DensityMatrix(np.diag(weights / weights.sum()))


def fed(rho: DensityMatrix, hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Free energy difference F(rho) - F(gibbs); the extractable-work bound."""
    return free_energy(rho, hamiltonian, beta) - free_energy(
        gibbs(hamiltonian, beta), hamiltonian, beta
    )


def fed_subspace(rho: DensityMatrix, omega: float, beta: float) -> float:
    """FED of a subspace state under a degenerate Hamiltonian, in closed form.

    Uses the subspace spectrum instead of a generic eigendecomposition:
    FED = omega (rho11 + rho22) + (1/beta) [sum_i lambda_i ln lambda_i + ln Z]
    with Z = 1 + 2 exp(-beta omega).  Agrees with the generic fed() path
    to high precision and exists as an independent route for testing.
    """
    spectrum = eigen_subspace(rho)
    m = rho.matrix
    excited = float(m[0, 0].real + m[1, 1].real)
    z = 1.0 + 2.0 * math.exp(-beta * omega)
    lam_sum = 0.0
    for lam in spectrum:
        if lam > _ENTROPY_CLAMP:
            lam_sum += lam * math.log(lam)
    return omega * excited + (lam_sum + math.log(z)) / beta


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    diff = rho.matrix - sigma.matrix
    return 0.5 * float(np.sum(np.abs(_hermitian_eigenvalues(diff))))
