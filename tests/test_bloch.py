import numpy as np
import pytest

from coherence_engine.bloch import (
    HERMITICITY_TOL,
    TRACE_TOL,
    DensityMatrix,
    PhysicalityError,
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
            _validate_all(rho.matrix[None])
        else:
            for check in (rho.validate, lambda: _validate_all(rho.matrix[None])):
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
            _validate_all(np.array([s.matrix for s in states]))
        assert str(raised.value) == str(expected.value)
    # a physical stack passes on the stacked path, with no per-state validate
    monkeypatch.setattr(DensityMatrix, "validate", None)
    _validate_all(np.array([s.matrix for s in good + [DensityMatrix.ground()]]))


def test_validate_all_stacked_defects_match_one_at_a_time(random_density):
    stack = np.array([random_density() for _ in range(9)] + [np.zeros((3, 3))])
    stack[1, 0, 2] = stack[1, 2, 0] = 0.0
    stack[2] *= 1e-300
    stack[3, 1, 1] = -0.0
    stack[4, 0, 1] += 1e-3
    stack[5, 2, 2] += 1e-11
    # what _validate_all computes: one adjoint for the defects and the
    # Hermitian part, each check reduced to its stack maximum (minimum)
    adjoint = stack.conj().swapaxes(-1, -2)
    herm = np.abs(stack - adjoint).max()
    trace = abs(stack.trace(axis1=-2, axis2=-1) - 1.0).max()
    spectra = np.linalg.eigvalsh(0.5 * (stack + adjoint))
    # validate()'s defects and eigenvalues, one matrix at a time
    assert repr(float(herm)) == repr(max(float(np.abs(m - m.conj().T).max()) for m in stack))
    assert repr(float(trace)) == repr(max(float(abs(m.trace() - 1.0)) for m in stack))
    for m, spectrum in zip(stack, spectra):
        assert repr(_hermitian_eigenvalues(m).tolist()) == repr(spectrum.tolist())
    assert repr(float(spectra[:, 0].min())) == repr(
        min(DensityMatrix(m).min_eigenvalue() for m in stack)
    )


def test_validate_and_validate_all_agree_at_the_tolerance_edges():
    def verdict(check):
        try:
            check()
            return "ok"
        except PhysicalityError as error:
            return str(error)

    edges = []
    for defect in (HERMITICITY_TOL, np.nextafter(HERMITICITY_TOL, 1.0)):
        m = np.diag([0.5, 0.5, 0.0]).astype(complex)
        m[0, 1] = defect
        edges.append(m)
    for k in range(8, 13):
        edges.append(np.diag([0.5, 0.5, k * TRACE_TOL / 10]).astype(complex))
    verdicts = [verdict(DensityMatrix(m).validate) for m in edges]
    assert verdicts[:2] == ["ok", "not Hermitian (defect 1.000e-12)"]
    assert "ok" in verdicts[2:] and any("trace" in v for v in verdicts[2:])
    for m, expected in zip(edges, verdicts):
        assert verdict(lambda: _validate_all(m[None])) == expected


def test_matrix_is_readonly():
    rho = DensityMatrix.ground()
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    with pytest.raises(ValueError, match="3x3"):
        DensityMatrix(np.eye(2) / 2.0)
