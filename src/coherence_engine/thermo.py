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
        if not (0.0 <= self.e2 < math.inf and 0.0 <= self.e1 < math.inf):  # NaN fails too
            raise ValueError("excited energies must be finite and non-negative")

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


def _entropy(spectrum) -> float:
    """-sum lam ln lam over a spectrum, in the order given, with 0 ln 0 taken as 0."""
    entropy = 0.0
    for lam in spectrum:
        if lam > _ENTROPY_CLAMP:
            entropy -= lam * math.log(lam)
    return entropy


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr(rho ln rho) in nats, with 0 * ln 0 taken as 0."""
    return _entropy(_hermitian_eigenvalues(rho.matrix))


def free_energy(rho: DensityMatrix, hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Non-equilibrium free energy F(rho) = Tr(rho H) - S(rho) / beta."""
    r22, r11, r00 = rho.matrix.diagonal().real.tolist()  # Tr(rho H) has rho @ H's bits
    energy = (hamiltonian.e2 * r22 + hamiltonian.e1 * r11) + 0.0 * r00
    return energy - von_neumann_entropy(rho) / beta


def gibbs(hamiltonian: HamiltonianSpec, beta: float) -> DensityMatrix:
    """Thermal state exp(-beta H) / Z for the diagonal Hamiltonian."""
    w2, w1 = math.exp(-beta * hamiltonian.e2), math.exp(-beta * hamiltonian.e1)
    return DensityMatrix(np.diag(_gibbs_weights(w2, w1)))


def _gibbs_weights(w2, w1) -> Tuple:
    """(rho22, rho11, rho00) = (w2, w1, 1)/Z of Boltzmann factors, scalars or arrays.

    The one writer of thermal populations: Z = 1 + (w1 + w2) adds the small terms first.
    """
    z = 1.0 + (w1 + w2)
    return w2 / z, w1 / z, 1.0 / z


def fed(rho: DensityMatrix, hamiltonian: HamiltonianSpec, beta: float) -> float:
    """Free energy difference F(rho) - F(gibbs); the extractable-work bound.

    F(gibbs) is summed from the Gibbs weights, its spectrum, as free_energy sums it.
    """
    e2, e1 = hamiltonian.e2, hamiltonian.e1
    p2, p1, p0 = weights = _gibbs_weights(math.exp(-beta * e2), math.exp(-beta * e1))
    gibbs_free = (p2 * e2 + p1 * e1) + p0 * 0.0 - _entropy(sorted(weights)) / beta
    return free_energy(rho, hamiltonian, beta) - gibbs_free


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
    return omega * excited + (math.log(z) - _entropy(spectrum)) / beta


def trace_distance(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Half the trace norm of rho - sigma."""
    diff = rho.matrix - sigma.matrix
    return 0.5 * float(np.sum(np.abs(_hermitian_eigenvalues(diff))))
