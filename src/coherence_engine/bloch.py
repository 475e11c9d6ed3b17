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
    herm_defect = np.abs(m - m.conj().T).max()
    if herm_defect > HERMITICITY_TOL:
        raise PhysicalityError(f"not Hermitian (defect {herm_defect:.3e})")
    trace_defect = abs(m.trace() - 1.0)
    if trace_defect > TRACE_TOL:
        raise PhysicalityError(f"trace differs from 1 by {trace_defect:.3e}")


def _hermitian_eigenvalues(ms: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian part of a matrix or of a stack."""
    return np.linalg.eigvalsh(0.5 * (ms + ms.conj().swapaxes(-1, -2)))


def _validate_all(ms: np.ndarray) -> None:
    """Validate every matrix of an (n, 3, 3) stack with one pass, in order.

    One adjoint serves the defects and the Hermitian part, each reduced
    to its stack extreme; the entries equal validate()'s bit for bit, so
    the pass succeeds exactly when each validate() would.  On any failure
    the rows are validated one by one, raising the first failure's error.
    """
    if np.isfinite(ms).all():
        adjoint = ms.conj().swapaxes(-1, -2)
        if (
            np.abs(ms - adjoint).max() <= HERMITICITY_TOL
            and abs(ms.trace(axis1=-2, axis2=-1) - 1.0).max() <= TRACE_TOL
            and np.linalg.eigvalsh(0.5 * (ms + adjoint))[:, 0].min() >= POSITIVITY_TOL
        ):
            return
    for m in ms:
        DensityMatrix(m).validate()


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

    @classmethod
    def _view(cls, m: np.ndarray) -> "DensityMatrix":
        """A state over m, a read-only 3x3 complex array, without the copy."""
        state = object.__new__(cls)
        object.__setattr__(state, "matrix", m)
        return state

    @classmethod
    def ground(cls) -> "DensityMatrix":
        return cls(np.diag([0.0, 0.0, 1.0]))
