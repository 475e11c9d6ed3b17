import math
import sys

import numpy as np
import pytest

from coherence_engine.bloch import DensityMatrix
from coherence_engine.dynamics import CoherenceVector
from coherence_engine.thermo import (
    HamiltonianSpec,
    _l1_coherences,
    eigen_subspace,
    fed,
    fed_subspace,
    free_energy,
    gibbs,
    l1_coherence,
    trace_distance,
    von_neumann_entropy,
)


def _coherent_stationary_state(beta, omega):
    x = math.exp(-beta * omega)
    top = x / (2.0 * (1.0 + x))
    m = np.array(
        [
            [top, top, 0.0],
            [top, top, 0.0],
            [0.0, 0.0, 1.0 / (1.0 + x)],
        ],
        dtype=complex,
    )
    return DensityMatrix(m)


def test_hamiltonian_spec():
    ham = HamiltonianSpec.degenerate(1.3)
    np.testing.assert_allclose(ham.matrix(), np.diag([1.3, 1.3, 0.0]), atol=0.0)
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError):
            HamiltonianSpec(e2=bad, e1=1.0)
        with pytest.raises(ValueError):
            HamiltonianSpec(e2=1.0, e1=bad)
    # zero is an energy, not a rejection: both bounds are inclusive
    flat = HamiltonianSpec(e2=0.0, e1=0.0)
    np.testing.assert_array_equal(flat.matrix(), np.zeros((3, 3)))


def test_hamiltonian_spec_rejects_infinite_energies():
    # An empty level at infinite energy would add 0 * inf = NaN to Tr(rho H)
    for bad in (math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            HamiltonianSpec(e2=bad, e1=1.0)
        with pytest.raises(ValueError, match="finite"):
            HamiltonianSpec(e2=1.0, e1=bad)
    rho = DensityMatrix(np.diag([0.0, 0.3, 0.7]))
    largest = HamiltonianSpec(e2=sys.float_info.max, e1=1.0)
    assert fed(rho, largest, 1.0) == fed(rho, HamiltonianSpec(e2=1e300, e1=1.0), 1.0)
    assert math.isfinite(fed(rho, largest, 1.0))


def test_free_energy_sums_the_diagonal_as_the_matmul_trace(random_density, subspace_sampler):
    # Tr(rho H) is (E2 rho22 + E1 rho11) + 0 rho00, bit for bit the real part
    # of the trace of rho @ H, over full and subspace states and degenerate,
    # split, zero, tiny and huge energies
    states = [DensityMatrix(random_density()) for _ in range(20)]
    states += [CoherenceVector(*subspace_sampler()).to_density() for _ in range(20)]
    states += [DensityMatrix.ground(), DensityMatrix(np.diag([0.5, 0.5, 0.0]))]
    energies = [(0.0, 0.0), (1.0, 1.0), (0.3, 2.5), (2.5, 0.3), (1e-300, 1e-300),
                (1e300, 1e300), (1e300, 1e-300), (0.0, 1e300), (1e-300, 0.0)]
    for beta in (0.05, 1.0, 20.0):
        for e2, e1 in energies:
            ham = HamiltonianSpec(e2, e1)
            for rho in states:
                energy = float(np.real(np.trace(rho.matrix @ ham.matrix())))
                assert free_energy(rho, ham, beta) == energy - von_neumann_entropy(rho) / beta


def test_l1_coherence_values():
    assert l1_coherence(DensityMatrix.ground()) == 0.0
    state = _coherent_stationary_state(1.0, 1.0)
    assert l1_coherence(state) == pytest.approx(1.0 / (math.e + 1.0), abs=1e-15)


def test_l1_coherences_of_a_stack_match_one_at_a_time(random_density):
    stack = np.array([random_density() for _ in range(9)] + [np.zeros((3, 3))])
    stack[1, 0, 2] = stack[1, 2, 0] = 0.0
    stack[2] *= 1e300
    stack[3, 0, 1] = complex(-0.0, -0.0)
    expected = [l1_coherence(DensityMatrix(m)) for m in stack]
    assert repr(_l1_coherences(stack).tolist()) == repr(expected)


def test_eigen_subspace_matches_dense_diagonalization(subspace_sampler):
    for _ in range(40):
        a, b, c, d = subspace_sampler()
        rho = CoherenceVector(a, b, c, d).to_density()
        spectrum = eigen_subspace(rho)
        dense = np.linalg.eigvalsh(rho.matrix)
        np.testing.assert_allclose(np.sort(spectrum), np.sort(dense), atol=1e-12)


def test_eigen_subspace_rejects_outer_coherence():
    m = np.diag([0.3, 0.3, 0.4]).astype(complex)
    m[0, 2] = m[2, 0] = 0.1
    with pytest.raises(ValueError):
        eigen_subspace(DensityMatrix(m))


def test_eigen_subspace_rejects_negative_eigenvalue():
    # |rho12| = 0.4 exceeds sqrt(rho22 rho11) = 0.3: lambda_minus = -0.1.
    m = np.diag([0.3, 0.3, 0.4]).astype(complex)
    m[0, 1] = m[1, 0] = 0.4
    with pytest.raises(ValueError, match="below zero"):
        eigen_subspace(DensityMatrix(m))
    # within the -1e-12 tolerance the spectrum is returned as computed
    m[0, 1] = m[1, 0] = 0.3 + 1e-13
    lam0, lam_plus, lam_minus = eigen_subspace(DensityMatrix(m))
    assert -1e-12 < lam_minus < 0.0
    assert (lam0, lam_plus) == pytest.approx((0.4, 0.6), abs=1e-12)
    # The floor itself, to 1e-7 either side: lambda_minus = -(rho12 - 1e-6).
    m = np.diag([1e-6, 1e-6, 1.0 - 2e-6]).astype(complex)
    m[0, 1] = m[1, 0] = 1e-6 + 1e-12 * (1.0 + 1e-7)
    with pytest.raises(ValueError, match="below zero"):
        eigen_subspace(DensityMatrix(m))
    m[0, 1] = m[1, 0] = 1e-6 + 1e-12 * (1.0 - 1e-7)
    assert eigen_subspace(DensityMatrix(m))[2] == pytest.approx(-9.999999e-13, rel=1e-9)


def test_entropy_limits():
    assert von_neumann_entropy(DensityMatrix.ground()) == pytest.approx(0.0, abs=1e-12)
    mixed = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
    assert von_neumann_entropy(mixed) == pytest.approx(math.log(3.0), abs=1e-12)


def test_gibbs_state_degenerate():
    beta = omega = 1.0
    x = math.exp(-beta * omega)
    state = gibbs(HamiltonianSpec.degenerate(omega), beta)
    expected = np.diag([x, x, 1.0]) / (1.0 + 2.0 * x)
    np.testing.assert_allclose(state.matrix, expected, atol=1e-15)


def test_fed_of_gibbs_vanishes():
    ham = HamiltonianSpec.degenerate(1.0)
    assert fed(gibbs(ham, 1.0), ham, 1.0) == pytest.approx(0.0, abs=1e-14)


def test_fed_nonnegative_and_consistent(subspace_sampler):
    ham = HamiltonianSpec.degenerate(1.0)
    for _ in range(20):
        a, b, c, d = subspace_sampler()
        rho = CoherenceVector(a, b, c, d).to_density()
        value = fed(rho, ham, 1.0)
        assert value >= -1e-12
        direct = free_energy(rho, ham, 1.0) - free_energy(gibbs(ham, 1.0), ham, 1.0)
        assert value == pytest.approx(direct, abs=1e-14)


def test_fed_is_the_free_energy_difference_bit_for_bit(random_density):
    # fed takes F(gibbs) from the Gibbs weights; it must equal the difference
    # of the two free energies exactly, over temperatures from 1e-3 to 1e3,
    # degenerate, split and zero energies, and general states
    states = [DensityMatrix(random_density()) for _ in range(6)]
    states += [DensityMatrix.ground(), DensityMatrix(np.eye(3) / 3.0)]
    energies = [(0.0, 0.0), (1.0, 1.0), (0.3, 2.5), (2.5, 0.3), (0.0, 1.7),
                (1e-9, 5.0), (40.0, 0.01), (0.5, 0.5 + 1e-12)]
    for beta in np.logspace(-3.0, 3.0, 13).tolist():
        for e2, e1 in energies:
            ham = HamiltonianSpec(e2, e1)
            gibbs_free = free_energy(gibbs(ham, beta), ham, beta)
            for rho in states:
                assert fed(rho, ham, beta) == free_energy(rho, ham, beta) - gibbs_free


def test_fed_subspace_agrees_with_general_route(subspace_sampler):
    for _ in range(30):
        a, b, c, d = subspace_sampler()
        rho = CoherenceVector(a, b, c, d).to_density()
        general = fed(rho, HamiltonianSpec.degenerate(1.0), 1.0)
        closed = fed_subspace(rho, 1.0, 1.0)
        assert closed == pytest.approx(general, abs=1e-12)


def test_fed_of_coherent_stationary_state():
    beta = omega = 1.0
    state = _coherent_stationary_state(beta, omega)
    x = math.exp(-1.0)
    expected = math.log((1.0 + 2.0 * x) / (1.0 + x))
    assert fed_subspace(state, omega, beta) == pytest.approx(expected, rel=1e-13)
    assert expected == pytest.approx(0.2381830264138283, rel=1e-14)


def test_trace_distance_properties():
    rho = DensityMatrix.ground()
    sigma = DensityMatrix(np.diag([0.5, 0.0, 0.5]).astype(complex))
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(rho, sigma) == pytest.approx(0.5, abs=1e-14)
    assert trace_distance(sigma, rho) == trace_distance(rho, sigma)
