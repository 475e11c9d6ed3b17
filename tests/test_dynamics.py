import math

import numpy as np
import pytest

from coherence_engine.bath import BathSpec, flat_rate, rates_at, tabulated_rate
from coherence_engine.bloch import DensityMatrix, from_bloch, to_bloch
from coherence_engine.dynamics import (
    CoherenceVector,
    DegenerateSystem,
    _reference_states,
    analytic_evolution_aligned,
    bloch_rhs,
    coherence_generator,
    evolve,
    evolve_trajectory,
    gksl_rhs_matrix,
    steady_state,
    trajectory_columns,
    trajectory_rows,
)


def _rhs_from_operator_form(pi, system, bath):
    """Map the operator-form master equation onto the coherence vector."""
    m_dot = gksl_rhs_matrix(pi.to_density().matrix, system, bath)
    return np.array(
        [
            m_dot[0, 0],
            m_dot[2, 2],
            0.5 * (m_dot[0, 1] + m_dot[1, 0]),
            0.5 * (m_dot[0, 1] - m_dot[1, 0]),
        ]
    )


def test_degenerate_system_requires_positive_omega():
    DegenerateSystem(0.3)
    with pytest.raises(ValueError):
        DegenerateSystem(0.0)
    with pytest.raises(ValueError):
        DegenerateSystem(-1.0)


def test_degenerate_system_rejects_non_finite_omega():
    for omega in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite"):
            DegenerateSystem(omega)


def test_coherence_vector_roundtrip(subspace_sampler):
    for _ in range(10):
        a, b, c, d = subspace_sampler()
        pi = CoherenceVector(a, b, c, d).validate()
        back = CoherenceVector.from_density(pi.to_density())
        np.testing.assert_allclose(back.as_array(), pi.as_array(), atol=1e-15)
        assert pi.rho21 == pytest.approx(complex(c, d))
        assert pi.rho12 == pytest.approx(complex(c, -d))
        assert pi.rho11 == pytest.approx(1.0 - a - b)


def test_coherence_vector_validate_rejects_bad_populations():
    with pytest.raises(ValueError):
        CoherenceVector(0.7, 0.5, 0.0, 0.0).validate()
    with pytest.raises(ValueError):
        CoherenceVector(-0.2, 0.5, 0.0, 0.0).validate()


def test_generator_matches_operator_form(subspace_sampler):
    system = DegenerateSystem(1.0)
    for alignment in (1.0, 0.4, -0.7, 0.0):
        bath = BathSpec(beta=0.8, alignment=alignment)
        gen = coherence_generator(system, bath)
        for _ in range(10):
            a, b, c, d = subspace_sampler()
            pi = CoherenceVector(a, b, c, d)
            vec = np.array([a, b, c, 1j * d])
            from_generator = gen.matrix @ vec - gen.constant
            from_operator = _rhs_from_operator_form(pi, system, bath)
            np.testing.assert_allclose(from_generator, from_operator, atol=1e-14)


def test_bloch_rhs_matches_operator_form(random_density):
    system = DegenerateSystem(1.3)
    for alignment in (1.0, 0.6, -1.0):
        bath = BathSpec(beta=0.5, alignment=alignment)
        for _ in range(10):
            rho = DensityMatrix(random_density())
            q = to_bloch(rho)
            dq = bloch_rhs(q, system, bath).as_array()
            m_dot = gksl_rhs_matrix(rho.matrix, system, bath)
            expected = 3.0 * np.array(
                [
                    m_dot[0, 1],
                    m_dot[1, 0],
                    m_dot[0, 2],
                    m_dot[2, 0],
                    m_dot[1, 2],
                    m_dot[2, 1],
                    m_dot[0, 0],
                    m_dot[1, 1],
                ]
            )
            np.testing.assert_allclose(dq, expected, atol=1e-13)


def test_ground_state_rhs_rates():
    system = DegenerateSystem(1.0)
    for alignment in (1.0, 0.3):
        bath = BathSpec(beta=1.0, alignment=alignment)
        pair = rates_at(bath, system.omega)
        dq = bloch_rhs(to_bloch(DensityMatrix.ground()), system, bath).as_array()
        assert dq[6].real == pytest.approx(3.0 * pair.gamma_minus, abs=1e-15)
        assert dq[7].real == pytest.approx(3.0 * pair.gamma_minus, abs=1e-15)
        # matrix entries: d(rho22)/dt = gamma_minus, d(rho21)/dt = p gamma_minus
        m_dot = gksl_rhs_matrix(DensityMatrix.ground().matrix, system, bath)
        assert m_dot[0, 0].real == pytest.approx(pair.gamma_minus, abs=1e-15)
        assert m_dot[0, 1].real == pytest.approx(
            alignment * pair.gamma_minus, abs=1e-15
        )


def test_generator_spectrum_damped():
    system = DegenerateSystem(1.0)
    for alignment in (-1.0, -0.5, 0.0, 0.5, 0.99, 1.0):
        for beta in (0.3, 1.0, 3.0):
            gen = coherence_generator(system, BathSpec(beta=beta, alignment=alignment))
            assert np.max(gen.eigenvalues().real) <= 1e-12


def test_generator_singular_only_when_aligned():
    system = DegenerateSystem(1.0)
    assert coherence_generator(system, BathSpec(beta=1.0, alignment=1.0)).is_singular()
    assert coherence_generator(system, BathSpec(beta=1.0, alignment=-1.0)).is_singular()
    assert not coherence_generator(
        system, BathSpec(beta=1.0, alignment=0.5)
    ).is_singular()


def test_real_form_is_identity_for_degenerate_generator():
    gen = coherence_generator(DegenerateSystem(1.0), BathSpec(beta=1.0, alignment=0.7))
    m_real, b_real = gen.real_form()
    np.testing.assert_allclose(m_real, gen.matrix.real, atol=0.0)
    np.testing.assert_allclose(b_real, gen.constant.real, atol=0.0)


def test_evolve_preserves_trace_and_positivity():
    system = DegenerateSystem(1.0)
    bath = BathSpec(beta=1.0, alignment=1.0)
    rho0 = CoherenceVector(0.3, 0.2, 0.1, 0.05).to_density()
    rho_t = evolve(rho0, system, bath, 2.0)
    assert rho_t.trace == pytest.approx(1.0, abs=1e-12)
    assert rho_t.min_eigenvalue() >= -1e-9
    fixed = _reference_states(rho0, system, bath, [2.0], fixed_steps=4000)[0]
    np.testing.assert_allclose(fixed.matrix, rho_t.matrix, atol=1e-8)


def test_evolve_time_edge_cases():
    system = DegenerateSystem(1.0)
    bath = BathSpec(beta=1.0)
    rho0 = DensityMatrix.ground()
    assert evolve(rho0, system, bath, 0.0) is rho0
    with pytest.raises(ValueError):
        evolve(rho0, system, bath, -0.1)


def test_analytic_matches_numerical_evolution(subspace_sampler):
    system = DegenerateSystem(1.0)
    bath = BathSpec(beta=1.0, alignment=1.0)
    for _ in range(10):
        init = subspace_sampler()
        for t in (0.3, 1.7):
            r22, r00, r12 = analytic_evolution_aligned(init, system, bath, t)
            rho_t = evolve(
                CoherenceVector(*init).to_density(), system, bath, t
            )
            assert rho_t.matrix[0, 0].real == pytest.approx(r22, abs=1e-9)
            assert rho_t.matrix[2, 2].real == pytest.approx(r00, abs=1e-9)
            assert rho_t.matrix[1, 0] == pytest.approx(r12, abs=1e-9)


def test_propagation_matches_rk45_reference(random_density):
    """Exact propagation against direct RK45 integration, full 3x3 states."""
    system = DegenerateSystem(1.0)
    for alignment in (1.0, -1.0, 0.5, 0.0, 0.99):
        bath = BathSpec(beta=1.0, alignment=alignment)
        for horizon in (50.0, 1500.0):
            rho0 = DensityMatrix(random_density())
            times = np.linspace(0.0, horizon, 11)
            exact = evolve_trajectory(rho0, system, bath, times)
            reference = _reference_states(rho0, system, bath, times)
            for state, ref in zip(exact, reference):
                np.testing.assert_allclose(state.matrix, ref.matrix, atol=1e-8)


def test_analytic_requires_aligned_dipoles():
    with pytest.raises(ValueError):
        analytic_evolution_aligned(
            (0.2, 0.3, 0.1, 0.0),
            DegenerateSystem(1.0),
            BathSpec(beta=1.0, alignment=0.5),
            1.0,
        )


def test_analytic_vectorizes_over_time():
    system = DegenerateSystem(1.0)
    bath = BathSpec(beta=1.0, alignment=1.0)
    init = (0.25, 0.3, 0.08, -0.02)
    times = np.array([0.0, 0.5, 2.0])
    r22, r00, r12 = analytic_evolution_aligned(init, system, bath, times)
    assert r22.shape == times.shape
    for k, t in enumerate(times):
        s22, s00, s12 = analytic_evolution_aligned(init, system, bath, float(t))
        assert r22[k] == pytest.approx(s22, abs=0.0)
        assert r00[k] == pytest.approx(s00, abs=0.0)
        assert complex(r12[k]) == pytest.approx(s12, abs=0.0)
    assert r22[0] == pytest.approx(init[0], abs=1e-15)
    assert r00[0] == pytest.approx(init[1], abs=1e-15)


def test_steady_state_aligned_from_ground():
    beta = omega = 1.0
    x = math.exp(-beta * omega)
    rho = steady_state(
        DegenerateSystem(omega), BathSpec(beta=beta, alignment=1.0), (0.0, 1.0, 0.0, 0.0)
    )
    top = x / (2.0 * (1.0 + x))
    expected = np.array(
        [[top, top, 0.0], [top, top, 0.0], [0.0, 0.0, 1.0 / (1.0 + x)]],
        dtype=complex,
    )
    np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)
    # residual coherence survives: c_l1 = 1/(exp(beta omega) + 1)
    assert 2.0 * top == pytest.approx(1.0 / (math.exp(beta * omega) + 1.0), abs=1e-16)


def test_steady_state_partial_alignment_is_thermal():
    beta, omega = 0.7, 1.3
    x = math.exp(-beta * omega)
    gibbs = np.diag([x, x, 1.0]).astype(complex) / (1.0 + 2.0 * x)
    system = DegenerateSystem(omega)
    bath = BathSpec(beta=beta, alignment=0.7)
    for init in ((0.0, 1.0, 0.0, 0.0), (0.3, 0.2, 0.15, -0.1)):
        rho = steady_state(system, bath, init)
        np.testing.assert_allclose(rho.matrix, gibbs, atol=1e-13)


def test_steady_state_antialigned_flips_coherence_sign():
    system = DegenerateSystem(1.0)
    init = (0.3, 0.25, 0.12, 0.0)
    flipped = (0.3, 0.25, -0.12, 0.0)
    plus = steady_state(system, BathSpec(beta=1.0, alignment=1.0), flipped)
    minus = steady_state(system, BathSpec(beta=1.0, alignment=-1.0), init)
    assert minus.matrix[0, 1].real == pytest.approx(
        -plus.matrix[0, 1].real, abs=1e-15
    )
    assert minus.matrix[0, 0].real == pytest.approx(
        plus.matrix[0, 0].real, abs=1e-15
    )
    assert minus.matrix[2, 2].real == pytest.approx(
        plus.matrix[2, 2].real, abs=1e-15
    )


def test_steady_state_without_emission_keeps_initial_state():
    """gamma_plus = 0 at omega makes the generator zero: nothing moves."""
    system = DegenerateSystem(1.0)
    zero_at_omega = tabulated_rate(((0.5, 1.0), (1.0, 0.0), (1.5, 1.0)))
    for rate_fn in (flat_rate(0.0), zero_at_omega):
        for alignment in (0.5, 1.0):
            bath = BathSpec(beta=1.0, rate_fn=rate_fn, alignment=alignment)
            for init in ((0.0, 1.0, 0.0, 0.0), (0.3, 0.2, 0.15, 0.05)):
                rho = steady_state(system, bath, init)
                np.testing.assert_array_equal(
                    rho.matrix, CoherenceVector(*init).to_density().matrix
                )


def test_steady_state_matches_long_time_evolution():
    system = DegenerateSystem(1.0)
    init = (0.28, 0.22, 0.1, 0.04)
    rho0 = CoherenceVector(*init).to_density()
    for alignment in (1.0, 0.7):
        bath = BathSpec(beta=1.0, alignment=alignment)
        target = steady_state(system, bath, init)
        settled = evolve(rho0, system, bath, 80.0)
        np.testing.assert_allclose(settled.matrix, target.matrix, atol=1e-9)


def test_trajectory_rows_and_columns():
    system = DegenerateSystem(1.0)
    bath = BathSpec(beta=1.0, alignment=1.0)
    rho0 = CoherenceVector(0.3, 0.2, 0.1, 0.05).to_density()
    times = [0.0, 0.5, 1.0]
    states = evolve_trajectory(rho0, system, bath, times)
    cols = trajectory_columns()
    rows = trajectory_rows(times, states)
    assert cols[0] == "t"
    assert "re_rho22" in cols and "im_rho12" in cols
    assert cols[-2:] == ["c_l1", "min_eigenvalue"]
    assert len(rows) == 3
    assert all(len(row) == len(cols) for row in rows)
    assert [row[0] for row in rows] == times
    np.testing.assert_allclose(
        states[0].matrix, rho0.matrix, atol=1e-15
    )
    for t, state in zip(times, states):
        single = evolve(rho0, system, bath, t)
        np.testing.assert_allclose(state.matrix, single.matrix, atol=1e-8)


def test_trajectory_rejects_decreasing_times():
    with pytest.raises(ValueError):
        evolve_trajectory(
            DensityMatrix.ground(),
            DegenerateSystem(1.0),
            BathSpec(beta=1.0),
            [0.0, 2.0, 1.0],
        )


def test_bloch_roundtrip_through_dynamics(random_density):
    rho = DensityMatrix(random_density())
    again = from_bloch(to_bloch(rho))
    np.testing.assert_allclose(again.matrix, rho.matrix, atol=1e-14)
