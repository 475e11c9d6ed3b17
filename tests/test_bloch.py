import numpy as np
import pytest

from coherence_engine.bloch import (
    BlochVector,
    DensityMatrix,
    PhysicalityError,
    from_bloch,
    gellmann_basis,
    to_bloch,
)


def test_gellmann_lambdas_orthonormal():
    basis = gellmann_basis()
    assert len(basis.lambdas) == 8
    for i, li in enumerate(basis.lambdas):
        np.testing.assert_allclose(li, li.conj().T, atol=1e-15)
        assert abs(np.trace(li)) <= 1e-15
        for j, lj in enumerate(basis.lambdas):
            expected = 2.0 if i == j else 0.0
            assert np.trace(li @ lj) == pytest.approx(expected, abs=1e-14)


def test_ladder_combinations():
    basis = gellmann_basis()
    p = basis.p_matrices
    raise21 = np.zeros((3, 3), dtype=complex)
    raise21[0, 1] = 1.0
    np.testing.assert_allclose(p[0], raise21, atol=1e-15)
    np.testing.assert_allclose(p[1], raise21.T, atol=1e-15)
    np.testing.assert_allclose(p[6], np.diag([1.0, 0.0, -1.0]), atol=1e-15)
    np.testing.assert_allclose(p[7], np.diag([0.0, 1.0, -1.0]), atol=1e-15)


def test_component_layout_top_level():
    rho = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
    q = to_bloch(rho)
    assert q.q7 == pytest.approx(2.0, abs=1e-15)
    assert q.q8 == pytest.approx(-1.0, abs=1e-15)
    assert abs(q.q1) <= 1e-15


def test_component_layout_excited_coherence():
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = m[1, 1] = 0.5
    m[0, 1] = m[1, 0] = 0.5
    q = to_bloch(DensityMatrix(m))
    assert q.q1 == pytest.approx(1.5, abs=1e-15)
    assert q.q2 == pytest.approx(1.5, abs=1e-15)
    assert q.q2 == pytest.approx(np.conj(q.q1), abs=1e-15)


def test_bloch_roundtrip_random(random_density):
    for _ in range(25):
        rho = DensityMatrix(random_density())
        back = from_bloch(to_bloch(rho))
        np.testing.assert_allclose(back.matrix, rho.matrix, atol=1e-14)


def test_bloch_vector_array_roundtrip(rng):
    values = rng.normal(size=8) + 1j * rng.normal(size=8)
    q = BlochVector.from_array(values)
    np.testing.assert_allclose(q.as_array(), values, atol=0.0)


def test_to_bloch_rejects_bad_trace():
    with pytest.raises(PhysicalityError):
        to_bloch(DensityMatrix(np.diag([1.0, 0.5, 0.0]).astype(complex)))


def test_validate_accepts_ground():
    DensityMatrix.ground().validate()


def test_validate_rejects_nonhermitian():
    m = np.diag([0.5, 0.5, 0.0]).astype(complex)
    m[0, 1] = 0.3
    with pytest.raises(PhysicalityError):
        DensityMatrix(m).validate()


def test_validate_rejects_negative_eigenvalue():
    m = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(PhysicalityError):
        DensityMatrix(m).validate()
    assert not DensityMatrix(m).is_physical()


def test_validate_rejects_non_finite_entries():
    # NaN compares False against every tolerance; it must never reach eigvalsh
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 1), (0, 1), (0, 2)):
            m = np.diag([0.5, 0.5, 0.0]).astype(complex)
            m[i, j] = m[j, i] = value
            rho = DensityMatrix(m)
            with pytest.raises(PhysicalityError):
                rho.validate()
            assert not rho.is_physical()
            with pytest.raises(PhysicalityError):
                to_bloch(rho)


def test_min_eigenvalue_and_trace(random_density):
    rho = DensityMatrix(random_density())
    assert rho.min_eigenvalue() >= -1e-12
    assert rho.trace == pytest.approx(1.0, abs=1e-12)


def test_density_json_roundtrip(random_density):
    rho = DensityMatrix(random_density())
    back = DensityMatrix.from_json(rho.to_json())
    np.testing.assert_allclose(back.matrix, rho.matrix, atol=0.0)


def test_matrix_is_readonly():
    rho = DensityMatrix.ground()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
