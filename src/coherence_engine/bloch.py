"""State representation for the V-type three-level system.

Density matrices are stored in the fixed basis order (|2>, |1>, |0>):
row and column 0 belong to the upper excited state |2>, row 1 to the
excited state |1>, and row 2 to the ground state |0>.  The generalized
Bloch description expands a state as rho = (I + sum_i q_i P_i) / 3 in
the ladder basis P_1..P_8 built from the Gell-Mann matrices, so that

    rho22 = (1 + q7)/3      rho21 = q1/3     rho20 = q3/3
    rho11 = (1 + q8)/3      rho12 = q2/3     rho02 = q4/3
    rho00 = (1 - q7 - q8)/3 rho10 = q5/3     rho01 = q6/3

The off-diagonal components q1..q6 are complex and come in conjugate
pairs (q2 = conj(q1) and so on) whenever rho is Hermitian; q7 and q8
are real.  The pairing means the vector carries exactly eight real
degrees of freedom even though six entries are stored as complex
numbers.
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
    herm_defect = float(np.abs(m - m.conj().T).max())
    if herm_defect > HERMITICITY_TOL:
        raise PhysicalityError(f"not Hermitian (defect {herm_defect:.3e})")
    trace_defect = abs(m.trace() - 1.0)
    if trace_defect > TRACE_TOL:
        raise PhysicalityError(f"trace differs from 1 by {trace_defect:.3e}")


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
        herm = 0.5 * (self.matrix + self.matrix.conj().T)
        return float(np.linalg.eigvalsh(herm)[0])

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

    @classmethod
    def from_json(cls, data: Sequence[Sequence[Sequence[float]]]) -> "DensityMatrix":
        m = np.array(
            [[complex(pair[0], pair[1]) for pair in row] for row in data]
        )
        return cls(m)


@dataclass(frozen=True)
class BlochVector:
    """Generalized Bloch components q1..q8 of a three-level state.

    q1..q6 are the (generally complex) coherence components in the
    ladder basis; q7 and q8 are real population asymmetries.  For a
    Hermitian state, q2, q4, q6 equal the conjugates of q1, q3, q5.
    """

    q1: complex
    q2: complex
    q3: complex
    q4: complex
    q5: complex
    q6: complex
    q7: complex
    q8: complex

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.q1, self.q2, self.q3, self.q4, self.q5, self.q6, self.q7, self.q8],
            dtype=complex,
        )

    @classmethod
    def from_array(cls, q: np.ndarray) -> "BlochVector":
        q = np.asarray(q, dtype=complex)
        if q.shape != (8,):
            raise ValueError("Bloch vector must have 8 components")
        return cls(*q)


@dataclass(frozen=True)
class BasisMatrices:
    """The eight Gell-Mann matrices and their ladder combinations."""

    lambdas: Tuple[np.ndarray, ...]
    p_matrices: Tuple[np.ndarray, ...]


def gellmann_basis() -> BasisMatrices:
    """Gell-Mann matrices lambda_1..lambda_8 and the ladder basis P_1..P_8.

    The lambdas are Hermitian, traceless, and normalized as
    Tr(lambda_i lambda_j) = 2 delta_ij.  The ladder combinations are
    P1 = (l1 + i l2)/2, P2 = (l1 - i l2)/2, P3 = (l4 + i l5)/2,
    P4 = (l4 - i l5)/2, P5 = (l6 + i l7)/2, P6 = (l6 - i l7)/2,
    P7 = (sqrt(3) l8 + l3)/2 = diag(1, 0, -1), and
    P8 = (sqrt(3) l8 - l3)/2 = diag(0, 1, -1).
    """
    i = 1j
    l1 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=complex)
    l2 = np.array([[0, -i, 0], [i, 0, 0], [0, 0, 0]], dtype=complex)
    l3 = np.array([[1, 0, 0], [0, -1, 0], [0, 0, 0]], dtype=complex)
    l4 = np.array([[0, 0, 1], [0, 0, 0], [1, 0, 0]], dtype=complex)
    l5 = np.array([[0, 0, -i], [0, 0, 0], [i, 0, 0]], dtype=complex)
    l6 = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)
    l7 = np.array([[0, 0, 0], [0, 0, -i], [0, i, 0]], dtype=complex)
    l8 = np.diag([1, 1, -2]).astype(complex) / np.sqrt(3.0)
    lambdas = (l1, l2, l3, l4, l5, l6, l7, l8)

    p1 = (l1 + i * l2) / 2
    p2 = (l1 - i * l2) / 2
    p3 = (l4 + i * l5) / 2
    p4 = (l4 - i * l5) / 2
    p5 = (l6 + i * l7) / 2
    p6 = (l6 - i * l7) / 2
    p7 = (np.sqrt(3.0) * l8 + l3) / 2
    p8 = (np.sqrt(3.0) * l8 - l3) / 2
    return BasisMatrices(lambdas, (p1, p2, p3, p4, p5, p6, p7, p8))


def to_bloch(rho: DensityMatrix) -> BlochVector:
    """Expand a Hermitian unit-trace state in the ladder basis.

    Rejects non-Hermitian or non-unit-trace input; positivity is not
    required here (unphysical but Hermitian matrices still have a
    well-defined expansion).
    """
    m = rho.matrix
    _require_hermitian_unit_trace(m)
    return BlochVector(
        q1=3.0 * m[0, 1],
        q2=3.0 * m[1, 0],
        q3=3.0 * m[0, 2],
        q4=3.0 * m[2, 0],
        q5=3.0 * m[1, 2],
        q6=3.0 * m[2, 1],
        q7=3.0 * m[0, 0] - 1.0,
        q8=3.0 * m[1, 1] - 1.0,
    )


def from_bloch(q: BlochVector) -> DensityMatrix:
    """Rebuild the 3x3 matrix from Bloch components (inverse of to_bloch).

    The reconstruction always has exact unit trace; it may be
    unphysical for arbitrary q, and the caller checks when needed.
    """
    m = np.empty((3, 3), dtype=complex)
    m[0, 0] = (1.0 + q.q7) / 3.0
    m[1, 1] = (1.0 + q.q8) / 3.0
    m[2, 2] = (1.0 - q.q7 - q.q8) / 3.0
    m[0, 1] = q.q1 / 3.0
    m[1, 0] = q.q2 / 3.0
    m[0, 2] = q.q3 / 3.0
    m[2, 0] = q.q4 / 3.0
    m[1, 2] = q.q5 / 3.0
    m[2, 1] = q.q6 / 3.0
    return DensityMatrix(m)
