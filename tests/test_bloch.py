import numpy as np
import pytest

from coherence_engine.bloch import (
    DensityMatrix,
    PhysicalityError,
    _defects,
    _hermitian_eigenvalues,
    _validate_all,
)


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


def test_positivity_tolerance_to_1e_7_either_side():
    """POSITIVITY_TOL = -1e-10 is the boundary, for one state and for a stack."""
    for scale, physical in ((1.0 + 1e-7, False), (1.0 - 1e-7, True)):
        eps = 1e-10 * scale
        rho = DensityMatrix(np.diag([1.0 + eps, -eps, 0.0]))
        assert rho.min_eigenvalue() == -eps
        if physical:
            rho.validate()
            _validate_all([rho])
        else:
            for check in (rho.validate, lambda: _validate_all([rho])):
                with pytest.raises(PhysicalityError, match="negative eigenvalue"):
                    check()


def test_validate_rejects_non_finite_entries():
    # NaN compares False against every tolerance; it must never reach eigvalsh
    for value in (np.nan, np.inf, -np.inf):
        for i, j in ((0, 0), (1, 1), (0, 1), (0, 2)):
            m = np.diag([0.5, 0.5, 0.0]).astype(complex)
            m[i, j] = m[j, i] = value
            rho = DensityMatrix(m)
            with pytest.raises(PhysicalityError):
                rho.validate()


def test_min_eigenvalue_and_trace(random_density):
    rho = DensityMatrix(random_density())
    assert rho.min_eigenvalue() >= -1e-12
    assert rho.trace == pytest.approx(1.0, abs=1e-12)


def test_hermitian_eigenvalues_of_a_stack_match_one_at_a_time(random_density):
    stack = np.array([random_density() for _ in range(9)] + [np.zeros((3, 3))])
    stack[1, 0, 2] = stack[1, 2, 0] = 0.0
    stack[2] *= 1e-300
    stack[3, 1, 1] = -0.0
    stack[4, 0, 1] += 1e-3
    spectra = _hermitian_eigenvalues(stack)
    expected = [DensityMatrix(m).min_eigenvalue() for m in stack]
    assert repr(spectra[:, 0].tolist()) == repr(expected)
    for m, spectrum in zip(stack, spectra):
        assert repr(_hermitian_eigenvalues(m).tolist()) == repr(spectrum.tolist())



def test_validate_all_raises_the_first_failure_in_order(random_density, monkeypatch):
    def invalid(state):
        try:
            return not state.validate()
        except PhysicalityError:
            return True

    good = [DensityMatrix(random_density()) for _ in range(4)]
    nonhermitian = np.diag([0.5, 0.5, 0.0]).astype(complex)
    nonhermitian[0, 1] = 0.3
    nan = np.diag([0.5, 0.5, 0.0]).astype(complex)
    nan[1, 1] = np.nan
    negative = DensityMatrix(np.diag([1.2, -0.2, 0.0]))
    bad_trace = DensityMatrix(np.diag([0.5, 0.6, 0.0]))
    stacks = [
        good[:2] + [DensityMatrix(nonhermitian), DensityMatrix(nan)] + good[2:],
        good[:1] + [negative, DensityMatrix(nonhermitian)],
        good + [DensityMatrix(nan), negative],
    ] + [good[:3] + [bad] for bad in (DensityMatrix(nonhermitian), negative, bad_trace)]
    for states in stacks:
        first_bad = next(s for s in states if invalid(s))
        with pytest.raises(PhysicalityError) as expected:
            first_bad.validate()
        with pytest.raises(PhysicalityError) as raised:
            _validate_all(states)
        assert str(raised.value) == str(expected.value)
    # a physical stack passes on the stacked path, with no per-state validate
    monkeypatch.setattr(DensityMatrix, "validate", None)
    _validate_all(good + [DensityMatrix.ground()])


def test_validate_all_stacked_defects_match_one_at_a_time(random_density):
    stack = np.array([random_density() for _ in range(9)] + [np.zeros((3, 3))])
    stack[1, 0, 2] = stack[1, 2, 0] = 0.0
    stack[2] *= 1e-300
    stack[3, 1, 1] = -0.0
    stack[4, 0, 1] += 1e-3
    stack[5, 2, 2] += 1e-11
    herm, trace = _defects(stack)
    assert repr(herm.tolist()) == repr(
        [float(np.abs(m - m.conj().T).max()) for m in stack]
    )
    assert repr(trace.tolist()) == repr([float(abs(m.trace() - 1.0)) for m in stack])
    for m, h, t in zip(stack, herm, trace):
        assert repr(tuple(map(float, _defects(m)))) == repr((float(h), float(t)))
    spectra = _hermitian_eigenvalues(stack)
    for m, spectrum in zip(stack, spectra):
        assert repr(_hermitian_eigenvalues(m).tolist()) == repr(spectrum.tolist())

def test_density_to_json_layout(random_density):
    """Rows in basis order (|2>, |1>, |0>), each entry a [re, im] pair of floats."""
    rho = DensityMatrix(random_density())
    data = rho.to_json()
    assert len(data) == 3 and all(len(row) == 3 for row in data)
    for i, row in enumerate(data):
        for j, pair in enumerate(row):
            assert all(type(v) is float for v in pair)
            assert pair == [rho.matrix[i, j].real, rho.matrix[i, j].imag]
    assert DensityMatrix.ground().to_json()[2][2] == [1.0, 0.0]


def test_matrix_is_readonly():
    rho = DensityMatrix.ground()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
