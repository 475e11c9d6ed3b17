import dataclasses
import logging
import math

import numpy as np
import pytest

from coherence_engine.bath import (
    BathSpec,
    flat_rate,
    rates_at,
    tabulated_rate,
)
from coherence_engine.bloch import DensityMatrix, PhysicalityError
from coherence_engine.dynamics import (
    CoherenceVector,
    DegenerateSystem,
    _sector_setup,
    analytic_evolution_aligned,
    coherence_generator,
    evolve_trajectory,
)
from coherence_engine.neardegen import (
    NearDegenerateSystem,
    _neardegenerate_series,
    _perturbative_series,
    evolve_neardegenerate,
    neardegenerate_generator,
    perturbative_solution,
    thermalize_independent,
)
from coherence_engine.numerics import _decomposition, exp_modes, integrate_ode
from coherence_engine.thermo import HamiltonianSpec, gibbs
from reference import (
    first_order_closed_form,
    gksl_rhs_matrix,
    nonsecular_rhs_matrix,
    rate_quotients,
)

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
    dgp, dgm = rate_quotients(bath, system.omega1, delta)
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
    # the limit holds for every state, so the input is checked, not ignored
    with pytest.raises(PhysicalityError, match="negative eigenvalue"):
        thermalize_independent(DensityMatrix(np.diag([1.2, -0.2, 0.0])), system, bath)


@pytest.mark.parametrize("alignment", [1.0, 0.5])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 3.0, 5.0])
def test_gibbs_start_stays_put(beta, alignment):
    """From the split Gibbs state every row is the first, bit for bit.

    thermalize_independent returns that same state byte for byte.  At
    delta = 0 the fixed point is steady_state's: off alignment it is the
    same Gibbs state, but at alignment 1 it comes from the aligned closed
    form, whose populations round through 1 + 2x - b - 2c and move by up
    to an ulp, so that case is bounded here rather than exact.
    """
    bath = BathSpec(beta=beta, alignment=alignment)
    times = np.linspace(0.0, 5.0, 11)
    for omega2 in (1.001, 1.005, 1.02, 1.05, 1.0):
        system = NearDegenerateSystem(1.0, omega2)
        rho = gibbs(HamiltonianSpec(e2=omega2, e1=1.0), beta)
        pi0 = CoherenceVector.from_density(rho)
        rows = _neardegenerate_series(pi0, system, bath, times)
        assert rows[0].tobytes() == pi0.as_array().tobytes()
        if omega2 == 1.0 and alignment == 1.0:
            assert np.abs(rows - rows[0]).max() <= 2.3e-16
        else:
            assert rows.tobytes() == np.tile(rows[0], (times.size, 1)).tobytes()
        settled = thermalize_independent(rho, system, bath)
        assert settled.matrix.tobytes() == rho.matrix.tobytes()


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
        assert out.to_density().matrix[1, 0] == pytest.approx(r12, abs=1e-10)


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


def test_first_order_matches_closed_form_reference(subspace_sampler):
    """The series' first-order term equals the hand-derived closed form.

    (series - zeroth order) / delta against the variation-of-parameters
    solution over 300 seeded aligned configurations; the bound leaves room
    for the subtraction's rounding, about eps / delta.
    """
    rng = np.random.default_rng(1995)
    times = np.linspace(0.0, 20.0, 41)
    worst = 0.0
    for k in range(300):
        omega = float(rng.uniform(0.3, 3.0))
        rate_fn = RAMP if k % 2 else flat_rate(float(rng.uniform(0.1, 3.0)))
        bath = BathSpec(beta=float(rng.uniform(0.05, 10.0)), rate_fn=rate_fn,
                        alignment=1.0)
        system = NearDegenerateSystem(omega, omega + 1e-3)
        init = subspace_sampler()
        g = rates_at(bath, omega).gamma_plus
        x = math.exp(-bath.beta * omega)
        slow, fast = exp_modes(-g, times), exp_modes(-2.0 * (1.0 + x) * g, times)
        reference = first_order_closed_form(
            times, slow, fast, init, x, g, rate_quotients(bath, omega, system.delta)
        ).T
        zeroth = _perturbative_series(init, NearDegenerateSystem(omega, omega), bath, times)
        first = (_perturbative_series(init, system, bath, times) - zeroth) / system.delta
        worst = max(worst, float(np.max(np.abs(first - reference))))
    assert worst <= 1e-12


def test_splitting_correction_needs_emission_at_omega1():
    """A split system that emits nothing at omega1 is a ValueError (exit 3 in the CLI)."""
    init = (0.3, 0.25, 0.1, 0.02)
    dark = BathSpec(beta=1.0, rate_fn=flat_rate(0.0), alignment=1.0)
    with pytest.raises(ValueError, match="emission rate"):
        perturbative_solution(init, NearDegenerateSystem(1.0, 1.005), dark, 1.0)
    # without a splitting there is no correction to make: the state stays put
    flat = perturbative_solution(init, NearDegenerateSystem(1.0, 1.0), dark, 1.0)
    assert flat.as_array().tolist() == list(init)


def test_perturbative_zero_splitting_is_closed_form():
    bath = BathSpec(beta=1.0, alignment=1.0)
    init = (0.3, 0.25, 0.1, 0.02)
    t = 0.8
    out = perturbative_solution(init, NearDegenerateSystem(1.0, 1.0), bath, t)
    r22, r00, r12 = analytic_evolution_aligned(init, DegenerateSystem(1.0), bath, t)
    assert out.rho22 == pytest.approx(r22, abs=1e-15)
    assert out.rho00 == pytest.approx(r00, abs=1e-15)
    assert out.to_density().matrix[1, 0] == pytest.approx(r12, abs=1e-15)


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
    """Outputs from cleared decomposition and sector caches equal those from warm ones."""
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
        _sector_setup.cache_clear()
        cold.append(run(*config, pi0))
    for config, pi0, (states, series) in zip(configs, starts, cold):
        warm_states, warm_series = run(*config, pi0)
        assert np.array_equal(warm_states, states)
        assert np.array_equal(warm_series, series)
    assert _sector_setup.cache_info().hits > 0


def test_signed_zeros_never_share_a_cached_start_or_alignment():
    """-0.0 == 0.0 as a cache key, so neither a start nor a zero's sign may key one.

    A start with -0.0 entries, run after its +0.0 twin, and a bath at
    alignment -0.0, run after one at +0.0, give the bytes of a cold call.
    """
    times = [0.0, 0.5, 3.0]

    def run(start, bath, omega2):
        pi0 = CoherenceVector(*start)
        states = evolve_trajectory(pi0.to_density(), DegenerateSystem(1.0), bath, times)
        series = [evolve_neardegenerate(pi0, NearDegenerateSystem(1.0, omega2), bath, t)
                  for t in times]
        return (b"".join(s.matrix.tobytes() for s in states)
                + b"".join(v.as_array().tobytes() for v in series))

    def cold(start, bath, omega2):
        _sector_setup.cache_clear()
        return run(start, bath, omega2)

    plus, minus = (0.3, 0.2, 0.0, 0.0), (0.3, 0.2, -0.0, -0.0)
    for rate_fn in (flat_rate(), flat_rate(0.0), RAMP):
        for p in (1.0, -1.0, 0.5):
            for omega2 in (1.0, 1.004):
                bath = BathSpec(beta=0.8, rate_fn=rate_fn, alignment=p)
                expected = cold(minus, bath, omega2)
                run(plus, bath, omega2)
                assert run(minus, bath, omega2) == expected, (p, omega2)
        zero, negative_zero = (BathSpec(beta=0.8, rate_fn=rate_fn, alignment=a)
                               for a in (0.0, -0.0))
        assert math.copysign(1.0, negative_zero.alignment) == 1.0
        for omega2 in (1.0, 1.004):
            expected = cold(plus, negative_zero, omega2)
            run(plus, zero, omega2)
            assert run(plus, negative_zero, omega2) == expected, omega2


def test_warnings_and_errors_repeat_on_a_warm_cache(caplog):
    """Only the start-free set-up is cached: every call warns and checks again."""
    pi0 = CoherenceVector(0.3, 0.2, 0.1, 0.05)
    bath = BathSpec(beta=1.0)
    system = NearDegenerateSystem(1.0, 1.05)
    for _ in range(3):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="coherence_engine.neardegen"):
            evolve_neardegenerate(pi0, system, bath, 10.0)  # t * delta = 0.5
        assert ["validity window" in r.message for r in caplog.records] == [True]
    for omega2 in (1.0, 1.05):
        split = NearDegenerateSystem(1.0, omega2)
        for _ in range(3):
            with pytest.raises(PhysicalityError, match="finite"):
                evolve_neardegenerate(CoherenceVector(math.nan, 0.2, 0.1, 0.05), split, bath, 1.0)
    negative = BathSpec(beta=1.0, rate_fn=lambda omega: -1.0)
    for _ in range(3):
        with pytest.raises(ValueError, match="negative rate"):
            evolve_neardegenerate(pi0, system, negative, 1.0)
        with pytest.raises(ValueError, match="negative rate"):
            evolve_trajectory(pi0.to_density(), DegenerateSystem(1.0), negative, [1.0])


def test_sector_cache_holds_read_only_arrays_and_stays_bounded():
    """The entry holds the generator's eigensystem, read-only; rows never alias it."""
    _sector_setup.cache_clear()
    bath = BathSpec(beta=1.0)
    system = NearDegenerateSystem(1.0, 1.004)
    _, eig, _, gibbs_vector = _sector_setup(1.0, 1.004, bath)
    for array in (*eig, gibbs_vector):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    expected = _decomposition(neardegenerate_generator(system, bath).matrix)
    assert all(np.array_equal(a, b) for a, b in zip(eig, expected))
    pi0 = CoherenceVector(0.3, 0.2, 0.1, 0.05)
    first = _neardegenerate_series(pi0, system, bath, [0.0, 0.5, 3.0])
    rows = first.copy()
    first[:] = np.nan
    assert np.array_equal(_neardegenerate_series(pi0, system, bath, [0.0, 0.5, 3.0]), rows)
    maxsize = _sector_setup.cache_info().maxsize
    assert maxsize == 64
    for k in range(maxsize + 10):
        evolve_neardegenerate(pi0, NearDegenerateSystem(1.0, 1.0 + 1e-4 * k), bath, 1.0)
    assert _sector_setup.cache_info().currsize == maxsize
