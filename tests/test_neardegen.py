import dataclasses
import logging
import math

import numpy as np
import pytest

from coherence_engine.bath import (
    BathSpec,
    flat_rate,
    rate_derivative,
    tabulated_rate,
)
from coherence_engine.bloch import DensityMatrix
from coherence_engine.dynamics import (
    CoherenceVector,
    DegenerateSystem,
    analytic_evolution_aligned,
    coherence_generator,
    evolve_trajectory,
    gksl_rhs_matrix,
)
from coherence_engine.neardegen import (
    NearDegenerateSystem,
    _neardegenerate_series,
    _perturbative_series,
    evolve_neardegenerate,
    neardegenerate_generator,
    nonsecular_rhs_matrix,
    perturbative_solution,
    thermalize_independent,
)
from coherence_engine.numerics import _decomposition, integrate_ode

RAMP = tabulated_rate(((0.2, 0.8), (1.5, 1.3), (3.0, 1.1)))


def _reduced_rhs(pi, system, bath):
    """The operator-form right-hand side on (r22, r00, r+, d), d = Im rho_minus."""
    m_dot = nonsecular_rhs_matrix(pi.to_density().matrix, system, bath)
    return np.array(
        [
            m_dot[0, 0],
            m_dot[2, 2],
            0.5 * (m_dot[0, 1] + m_dot[1, 0]),
            -0.5j * (m_dot[0, 1] - m_dot[1, 0]),
        ]
    )


def test_system_guard_and_splitting():
    system = NearDegenerateSystem(1.0, 1.05)
    assert system.delta == pytest.approx(0.05)
    with pytest.raises(ValueError):
        NearDegenerateSystem(1.0, 1.2)
    NearDegenerateSystem(1.0, 1.0999)
    with pytest.raises(ValueError):
        NearDegenerateSystem(1.0, 0.9)
    with pytest.raises(ValueError):
        NearDegenerateSystem(0.0, 1.0)


def test_system_rejects_non_finite_energies():
    for omega1, omega2 in ((math.inf, math.inf), (1.0, math.inf), (math.nan, 1.0)):
        with pytest.raises(ValueError):
            NearDegenerateSystem(omega1, omega2)


def test_generator_reduces_to_degenerate_limit():
    rng = np.random.default_rng(2014)
    for k in range(2000):
        omega = float(rng.uniform(0.1, 4.0))
        bath = BathSpec(
            beta=float(rng.uniform(0.05, 10.0)),
            rate_fn=RAMP if k % 2 else flat_rate(float(rng.uniform(0.1, 3.0))),
            alignment=float(rng.uniform(-1.0, 1.0)),
        )
        near = neardegenerate_generator(NearDegenerateSystem(omega, omega), bath)
        flat = coherence_generator(DegenerateSystem(omega), bath)
        assert np.array_equal(near.matrix, flat.matrix)
        assert np.array_equal(near.constant, flat.constant)


def test_generator_is_degenerate_part_plus_splitting_slope():
    """The splitting enters exactly through the difference-quotient slope."""
    bath = BathSpec(beta=0.9, rate_fn=RAMP, alignment=0.7)
    system = NearDegenerateSystem(1.0, 1.04)
    delta = system.delta
    p = bath.alignment
    near = neardegenerate_generator(system, bath)
    flat = coherence_generator(DegenerateSystem(system.omega1), bath)
    diff = rate_derivative(bath, system.omega1, delta)
    dgp, dgm = diff.gamma_plus, diff.gamma_minus
    slope = np.array(
        [
            [-dgp, dgm, 0.0, 0.0],
            [dgp, -dgm, p * dgp, 0.0],
            [-0.5 * p * dgp, 0.5 * p * dgm, -0.5 * dgp, 1.0],
            [0.0, 0.0, -1.0, -0.5 * dgp],
        ]
    )
    np.testing.assert_allclose(
        near.matrix, flat.matrix + delta * slope, atol=1e-15
    )
    np.testing.assert_allclose(near.constant, flat.constant, atol=0.0)


def test_real_form_turns_splitting_coupling_real():
    bath = BathSpec(beta=1.0, alignment=1.0)
    system = NearDegenerateSystem(1.0, 1.03)
    m_real, b_real = neardegenerate_generator(system, bath).real_form()
    assert m_real[2, 3] == pytest.approx(system.delta, abs=1e-16)
    assert m_real[3, 2] == pytest.approx(-system.delta, abs=1e-16)
    assert np.isrealobj(m_real) and np.isrealobj(b_real)


def test_reduced_generator_matches_operator_form(subspace_sampler):
    system = NearDegenerateSystem(1.0, 1.05)
    for alignment in (1.0, 0.5):
        bath = BathSpec(beta=0.8, rate_fn=RAMP, alignment=alignment)
        gen = neardegenerate_generator(system, bath)
        for _ in range(10):
            a, b, c, d = subspace_sampler()
            pi = CoherenceVector(a, b, c, d)
            from_generator = gen.matrix @ pi.as_array() - gen.constant
            from_operator = _reduced_rhs(pi, system, bath)
            np.testing.assert_allclose(from_generator, from_operator, atol=1e-14)


def test_operator_form_preserves_trace_and_hermiticity(random_density):
    system = NearDegenerateSystem(1.0, 1.05)
    bath = BathSpec(beta=1.0, rate_fn=RAMP, alignment=0.9)
    independent = dataclasses.replace(bath, alignment=0.0)
    for rates in (bath, independent):
        for _ in range(5):
            rho = random_density()
            m_dot = nonsecular_rhs_matrix(rho, system, rates)
            assert abs(np.trace(m_dot)) < 1e-14
            np.testing.assert_allclose(m_dot, m_dot.conj().T, atol=1e-14)


def test_nonsecular_collapses_to_degenerate_operator_form(random_density):
    bath = BathSpec(beta=1.0, alignment=0.8)
    rho = random_density()
    near = nonsecular_rhs_matrix(rho, NearDegenerateSystem(1.0, 1.0), bath)
    flat = gksl_rhs_matrix(rho, DegenerateSystem(1.0), bath)
    np.testing.assert_allclose(near, flat, atol=1e-15)


def test_two_frequency_gibbs_is_exact_fixed_point():
    system = NearDegenerateSystem(1.0, 1.06)
    for alignment in (1.0, 0.4):
        bath = BathSpec(beta=1.2, rate_fn=RAMP, alignment=alignment)
        w2 = math.exp(-bath.beta * system.omega2)
        w1 = math.exp(-bath.beta * system.omega1)
        z = 1.0 + w1 + w2
        gen = neardegenerate_generator(system, bath)
        pi = np.array([w2 / z, 1.0 / z, 0.0, 0.0], dtype=complex)
        residual = gen.matrix @ pi - gen.constant
        np.testing.assert_allclose(residual, np.zeros(4), atol=1e-16)
        # the same state kills the full operator-form generator
        rho = np.diag([w2 / z, w1 / z, 1.0 / z]).astype(complex)
        np.testing.assert_allclose(
            nonsecular_rhs_matrix(rho, system, bath), np.zeros((3, 3)), atol=1e-16
        )


def test_thermalize_independent_fixed_point():
    system = NearDegenerateSystem(1.0, 1.07)
    bath = BathSpec(beta=0.8, rate_fn=RAMP, alignment=1.0)
    rho0 = CoherenceVector(0.3, 0.2, 0.1, 0.05).to_density()
    settled = thermalize_independent(rho0, system, bath)
    w2 = math.exp(-bath.beta * system.omega2)
    w1 = math.exp(-bath.beta * system.omega1)
    z = 1.0 + w1 + w2
    np.testing.assert_allclose(
        settled.matrix, np.diag([w2, w1, 1.0]).astype(complex) / z, atol=1e-16
    )
    residual = nonsecular_rhs_matrix(
        settled.matrix, system, dataclasses.replace(bath, alignment=0.0)
    )
    np.testing.assert_allclose(residual, np.zeros((3, 3)), atol=1e-16)


def test_evolve_zero_splitting_matches_closed_form(subspace_sampler):
    bath = BathSpec(beta=1.0, alignment=1.0)
    system = NearDegenerateSystem(1.0, 1.0)
    flat = DegenerateSystem(1.0)
    for _ in range(5):
        init = subspace_sampler()
        t = 1.4
        out = evolve_neardegenerate(CoherenceVector(*init), system, bath, t)
        r22, r00, r12 = analytic_evolution_aligned(init, flat, bath, t)
        assert out.rho22 == pytest.approx(r22, abs=1e-10)
        assert out.rho00 == pytest.approx(r00, abs=1e-10)
        assert out.rho12 == pytest.approx(r12, abs=1e-10)


def test_evolve_matches_rk45_on_real_form():
    system = NearDegenerateSystem(1.0, 1.02)
    y0 = np.array([0.3, 0.25, 0.1, 0.02])
    for alignment in (1.0, 0.5):
        bath = BathSpec(beta=1.0, rate_fn=RAMP, alignment=alignment)
        m_real, b_real = neardegenerate_generator(system, bath).real_form()
        sol = integrate_ode(lambda _t, y: m_real @ y - b_real, y0, (0.0, 10.0))
        for t in (0.5, 3.0, 10.0):
            out = evolve_neardegenerate(CoherenceVector(*y0), system, bath, t)
            np.testing.assert_allclose(out.as_array(), sol.at(t), atol=1e-8)


def test_evolve_time_zero_and_negative():
    bath = BathSpec(beta=1.0, alignment=1.0)
    system = NearDegenerateSystem(1.0, 1.02)
    pi0 = CoherenceVector(0.2, 0.3, 0.05, 0.01)
    out = evolve_neardegenerate(pi0, system, bath, 0.0)
    assert isinstance(out, CoherenceVector)
    np.testing.assert_allclose(out.as_array(), pi0.as_array(), atol=0.0)
    with pytest.raises(ValueError):
        evolve_neardegenerate(pi0, system, bath, -1.0)


def test_validity_window_warning(caplog):
    bath = BathSpec(beta=1.0, alignment=1.0)
    system = NearDegenerateSystem(1.0, 1.05)
    pi0 = CoherenceVector(0.2, 0.3, 0.05, 0.0)
    with caplog.at_level(logging.WARNING, logger="coherence_engine.neardegen"):
        evolve_neardegenerate(pi0, system, bath, 2.0)
        assert not caplog.records
        evolve_neardegenerate(pi0, system, bath, 10.0)
    assert any("validity window" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="coherence_engine.neardegen"):
        perturbative_solution((0.2, 0.3, 0.05, 0.0), system, bath, 10.0)
    assert any("validity window" in r.message for r in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="coherence_engine.neardegen"):
        _neardegenerate_series(pi0, system, bath, [0.0, 2.0, 10.0])
    assert any("validity window" in r.message for r in caplog.records)


def test_first_order_richardson_slope_matches_numerics(subspace_sampler):
    """The first-order slope, extrapolated to delta -> 0, agrees between routes.

    s(delta) = (solution - zeroth order) / delta has an O(delta) error on
    either route; 2 s(delta/2) - s(delta) removes it, so every term of the
    correction, and not only its leading one, is checked against the
    exact propagation.
    """
    bath = BathSpec(beta=1.0, rate_fn=RAMP, alignment=1.0)
    delta = 2e-3
    flat = NearDegenerateSystem(1.0, 1.0)
    for _ in range(3):
        init = subspace_sampler()
        for t in (0.5, 1.0, 3.0, 8.0):
            zeroth = perturbative_solution(init, flat, bath, t).as_array()

            def slopes(d):
                system = NearDegenerateSystem(1.0, 1.0 + d)
                pert = perturbative_solution(init, system, bath, t).as_array()
                exact = evolve_neardegenerate(
                    CoherenceVector(*init), system, bath, t
                ).as_array()
                return (pert - zeroth) / d, (exact - zeroth) / d

            (pert_half, exact_half), (pert_full, exact_full) = (
                slopes(0.5 * delta), slopes(delta)
            )
            np.testing.assert_allclose(
                2.0 * pert_half - pert_full,
                2.0 * exact_half - exact_full,
                rtol=0.0,
                atol=1e-5,
                err_msg=f"init={init}, t={t}",
            )


def test_splitting_correction_needs_emission_at_omega1():
    """The correction is per unit emission rate: g = 0 is a ValueError."""
    init = (0.3, 0.25, 0.1, 0.02)
    dark = BathSpec(beta=1.0, rate_fn=flat_rate(0.0), alignment=1.0)
    with pytest.raises(ValueError, match="emission rate"):
        perturbative_solution(init, NearDegenerateSystem(1.0, 1.005), dark, 1.0)


def test_perturbative_zero_splitting_is_closed_form():
    bath = BathSpec(beta=1.0, alignment=1.0)
    init = (0.3, 0.25, 0.1, 0.02)
    t = 0.8
    out = perturbative_solution(init, NearDegenerateSystem(1.0, 1.0), bath, t)
    r22, r00, r12 = analytic_evolution_aligned(init, DegenerateSystem(1.0), bath, t)
    assert out.rho22 == pytest.approx(r22, abs=1e-15)
    assert out.rho00 == pytest.approx(r00, abs=1e-15)
    assert out.rho12 == pytest.approx(r12, abs=1e-15)


def test_perturbative_correction_vanishes_at_t_zero():
    bath = BathSpec(beta=1.0, rate_fn=RAMP, alignment=1.0)
    init = (0.3, 0.25, 0.1, 0.02)
    out = perturbative_solution(init, NearDegenerateSystem(1.0, 1.05), bath, 0.0)
    np.testing.assert_allclose(out.as_array(), np.array(init), atol=1e-15)


def test_perturbative_solution_is_one_row_of_the_series(subspace_sampler, caplog):
    times = np.linspace(0.0, 400.0, 41)
    flat = BathSpec(beta=1.3, alignment=1.0)
    for bath in (flat, dataclasses.replace(flat, rate_fn=RAMP)):
        for omega2 in (1.0, 1.001, 1.05):
            system = NearDegenerateSystem(1.0, omega2)
            init = subspace_sampler()
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="coherence_engine.neardegen"):
                series = _perturbative_series(init, system, bath, times)
            assert len(caplog.records) == (0 if omega2 == 1.0 else 1)
            assert series.shape == (times.size, 4)
            for t, row in zip(times, series):
                single = perturbative_solution(init, system, bath, float(t))
                assert repr(single.as_array().tolist()) == repr(row.tolist())


def test_perturbative_error_scales_quadratically():
    """Halving the splitting should quarter the residual against the ODE."""
    bath = BathSpec(beta=1.0, rate_fn=RAMP, alignment=1.0)
    init = (0.3, 0.25, 0.1, 0.02)
    t = 1.0
    errors = []
    for delta in (0.02, 0.01):
        system = NearDegenerateSystem(1.0, 1.0 + delta)
        pert = perturbative_solution(init, system, bath, t)
        exact = evolve_neardegenerate(
            CoherenceVector(*init), system, bath, t
        )
        errors.append(
            float(np.max(np.abs(pert.as_array() - exact.as_array())))
        )
    ratio = errors[0] / errors[1]
    assert 3.4 < ratio < 4.6


def test_perturbative_first_order_slope_matches_numerics():
    """(solution - zeroth order)/delta agrees between routes as delta -> 0."""
    bath = BathSpec(beta=1.0, rate_fn=RAMP, alignment=1.0)
    init = (0.3, 0.25, 0.1, 0.02)
    t = 1.0
    delta = 0.005
    zeroth = perturbative_solution(
        init, NearDegenerateSystem(1.0, 1.0), bath, t
    ).as_array()
    system = NearDegenerateSystem(1.0, 1.0 + delta)
    pert_slope = (
        perturbative_solution(init, system, bath, t).as_array() - zeroth
    ) / delta
    ode_slope = (
        evolve_neardegenerate(CoherenceVector(*init), system, bath, t)
        .as_array()
        - zeroth
    ) / delta
    np.testing.assert_allclose(pert_slope, ode_slope, atol=0.02)


def test_perturbative_rejections():
    system = NearDegenerateSystem(1.0, 1.02)
    with pytest.raises(ValueError):
        perturbative_solution(
            (0.2, 0.3, 0.05, 0.0), system, BathSpec(beta=1.0, alignment=0.5), 1.0
        )
    with pytest.raises(ValueError):
        perturbative_solution(
            (0.9, 0.9, 0.0, 0.0), system, BathSpec(beta=1.0, alignment=1.0), 1.0
        )
    with pytest.raises(ValueError):
        perturbative_solution(
            (0.2, 0.3, 0.05, 0.0), system, BathSpec(beta=1.0, alignment=1.0), -1.0
        )


def test_evolvers_give_the_same_bits_on_a_warm_cache(subspace_sampler):
    """Outputs from a cleared decomposition cache equal those from a warm one."""
    times = [0.0, 0.5, 3.0, 10.0]
    configs = [
        (rate_fn, p, omega2)
        for rate_fn in (flat_rate(), RAMP)
        for p in (1.0, -1.0, 1.0 - 1e-13, 0.99, 0.5, 0.0)
        for omega2 in (1.0, 1.004)
    ]
    starts = [CoherenceVector(*subspace_sampler()) for _ in configs]

    def run(rate_fn, p, omega2, pi0):
        bath = BathSpec(beta=0.8, rate_fn=rate_fn, alignment=p)
        system = NearDegenerateSystem(1.0, omega2)
        states = evolve_trajectory(pi0.to_density(), DegenerateSystem(1.0), bath, times)
        series = [evolve_neardegenerate(pi0, system, bath, t).as_array() for t in times]
        return np.array([s.matrix for s in states]), np.array(series)

    cold = []
    for config, pi0 in zip(configs, starts):
        _decomposition.cache_clear()
        cold.append(run(*config, pi0))
    for config, pi0, (states, series) in zip(configs, starts, cold):
        warm_states, warm_series = run(*config, pi0)
        assert np.array_equal(warm_states, states)
        assert np.array_equal(warm_series, series)
    assert _decomposition.cache_info().hits > 0
