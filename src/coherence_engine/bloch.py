"""State representation for the V-type three-level system.

Density matrices are stored in the fixed basis order (|2>, |1>, |0>):
row and column 0 belong to the upper excited state |2>, row 1 to the
excited state |1>, and row 2 to the ground state |0>.  The dynamics
works on two sectors of such a matrix: the 4-vector (rho22, rho00,
rho_plus, rho_minus) of excited populations and the excited-excited
coherence rho21, and the block (rho20, rho10) of ground-excited
coherences; the remaining entries follow from unit trace and
Hermiticity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
POSITIVITY_TOL = -1e-10


class PhysicalityError(ValueError):
    """A matrix failed a density-matrix validity check."""


def _require_hermitian_unit_trace(m: np.ndarray) -> None:
    """Raise PhysicalityError unless m is finite, Hermitian and unit-trace.

    The finiteness check comes first: NaN passes every tolerance
    comparison, and inf - inf in the Hermiticity defect warns.  The
    array methods, not the np.max/np.trace functions, keep the added
    check at no net cost on the validate hot path.
    """
    if not np.isfinite(m).all():
        raise PhysicalityError("entries are not all finite")
    herm_defect, trace_defect = _defects(m)
    if herm_defect > HERMITICITY_TOL:
        raise PhysicalityError(f"not Hermitian (defect {herm_defect:.3e})")
    if trace_defect > TRACE_TOL:
        raise PhysicalityError(f"trace differs from 1 by {trace_defect:.3e}")


def _defects(ms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Hermiticity and unit-trace defects of a matrix or of a stack."""
    herm = np.abs(ms - ms.conj().swapaxes(-1, -2)).max(axis=(-2, -1))
    return herm, abs(ms.trace(axis1=-2, axis2=-1) - 1.0)


def _hermitian_eigenvalues(ms: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a matrix or of a stack."""
    return np.linalg.eigvalsh(0.5 * (ms + ms.conj().swapaxes(-1, -2)))


def _validate_all(states: Sequence["DensityMatrix"]) -> None:
    """Validate every state with one stacked pass, in order.

    The stacked defects and eigenvalues equal the per-matrix ones bit
    for bit, so the pass succeeds exactly when each validate() would.
    On any failure the states are validated one by one, which raises
    the first failing state's own PhysicalityError.
    """
    ms = np.array([s.matrix for s in states])
    if np.isfinite(ms).all():
        herm, trace = _defects(ms)
        if (
            herm.max() <= HERMITICITY_TOL
            and trace.max() <= TRACE_TOL
            and _hermitian_eigenvalues(ms)[:, 0].min() >= POSITIVITY_TOL
        ):
            return
    for s in states:
        s.validate()


@dataclass(frozen=True)
class DensityMatrix:
    """A 3x3 complex matrix in basis order (|2>, |1>, |0>).

    Construction only checks the shape; physicality (Hermiticity, unit
    trace, positivity) is validated separately via validate() so that
    intermediate integrator states with O(1e-10) constraint violations
    remain representable.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (3, 3):
            raise ValueError(f"density matrix must be 3x3, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    def __getitem__(self, idx) -> complex:
        return self.matrix[idx]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def min_eigenvalue(self) -> float:
        return float(_hermitian_eigenvalues(self.matrix)[0])

    def validate(self) -> "DensityMatrix":
        """Raise PhysicalityError unless Hermitian, unit-trace, and PSD."""
        _require_hermitian_unit_trace(self.matrix)
        min_eig = self.min_eigenvalue()
        if min_eig < POSITIVITY_TOL:
            raise PhysicalityError(f"negative eigenvalue {min_eig:.3e}")
        return self

    def is_physical(self) -> bool:
        try:
            self.validate()
        except PhysicalityError:
            return False
        return True

    @classmethod
    def ground(cls) -> "DensityMatrix":
        return cls(np.diag([0.0, 0.0, 1.0]))

    def to_json(self) -> List[List[List[float]]]:
        """Nested arrays of [re, im] pairs in basis order (|2>, |1>, |0>)."""
        return [
            [[float(z.real), float(z.imag)] for z in row] for row in self.matrix
        ]
