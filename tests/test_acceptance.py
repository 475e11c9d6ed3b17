"""Acceptance gate: end-to-end checks of the package's headline claims.

Each test prints one ACCEPTANCE line with the measured numbers before
asserting against its pinned tolerance, so a full run documents the
actual margins.  All checks run from scratch in seconds on one core.
"""

import math

import numpy as np
import pytest

from coherence_engine.bath import BathSpec, rates_at, tabulated_rate
from coherence_engine.bloch import DensityMatrix
from coherence_engine.dynamics import (
    CoherenceVector,
    DegenerateSystem,
    analytic_evolution_aligned,
    coherence_generator,
    evolve,
    evolve_trajectory,
)
from coherence_engine.neardegen import (
    NearDegenerateSystem,
    evolve_neardegenerate,
    neardegenerate_generator,
    perturbative_solution,
)
from coherence_engine.protocols import (
    GeneralInitialState,
    coherence_unitary,
    optimal_shift_round1,
    protocol2,
    protocol_initial_state,
    quasistatic_work,
    run_protocol1,
)
from coherence_engine.thermo import (
    HamiltonianSpec,
    fed_subspace,
    gibbs,
    l1_coherence,
    trace_distance,
)
from reference import discretized_quasistatic, maximize_scalar

ALIGNED = BathSpec(beta=1.0, alignment=1.0)


def _report(index: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {index}: {'PASS' if ok else 'FAIL'} - {detail}")


def _random_subspace_init(rng):
    weights = rng.dirichlet(np.ones(3))
    a, mid, b = (float(w) for w in weights)
    radius = math.sqrt(a * mid) * math.sqrt(float(rng.uniform(0.0, 0.95)))
    angle = float(rng.uniform(0.0, 2.0 * math.pi))
    return a, b, radius * math.cos(angle), radius * math.sin(angle)


def test_criterion_01_steady_state_coherence():
    """Ground start, aligned dipoles, beta*omega = 1: residual coherence."""
    system = DegenerateSystem(1.0)
    settled = evolve(DensityMatrix.ground(), system, ALIGNED, 50.0)
    measured = l1_coherence(settled)
    expected = 1.0 / (math.e + 1.0)
    gap = abs(measured - expected)
    ok = gap <= 1e-8
    _report(1, ok, f"c_l1 = {measured:.12f}, closed form {expected:.12f}, "
                   f"|gap| = {gap:.3e} (tol 1e-8)")
    assert gap <= 1e-8


def test_criterion_02_closed_form_vs_integrator():
    """100 random aligned initial states: closed form tracks the ODE."""
    rng = np.random.default_rng(20260814)
    system = DegenerateSystem(1.0)
    times = np.linspace(0.0, 50.0, 11)
    worst = 0.0
    for _ in range(100):
        init = _random_subspace_init(rng)
        states = evolve_trajectory(
            CoherenceVector(*init).to_density(), system, ALIGNED, times
        )
        r22, r00, r12 = analytic_evolution_aligned(init, system, ALIGNED, times)
        for k, state in enumerate(states):
            m = state.matrix
            worst = max(
                worst,
                abs(float(m[0, 0].real) - float(r22[k])),
                abs(float(m[2, 2].real) - float(r00[k])),
                abs(float(m[1, 1].real) - float(1.0 - r22[k] - r00[k])),
                abs(complex(m[1, 0]) - complex(r12[k])),
            )
    ok = worst <= 1e-8
    _report(2, ok, f"max entrywise deviation over 100 states x 11 times = "
                   f"{worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_03_gibbs_convergence_partial_alignment():
    """|alignment| < 1 erases all memory: evolved state reaches Gibbs.

    The approach to Gibbs is governed by the slowest eigenvalue of the
    coherence generator, and that spectral gap closes linearly as the
    alignment approaches 1 (0.99 gives a rate of only ~0.0127).  A
    fixed horizon therefore cannot test convergence at every alignment,
    so each alignment is checked at t_p = max(200, ln(1e8)/|Re lam_slow|),
    the time over which the slowest mode shrinks by 1e8, so that an O(1)
    initial displacement ends within the 1e-8 tolerance.  At alignment
    0.99 the integrated trajectory must also decay between t = 200 and
    t = 400 by exactly the factor exp(200 Re lam_slow) that the spectrum
    predicts.
    """
    system = DegenerateSystem(1.0)
    target = gibbs(HamiltonianSpec.degenerate(1.0), 1.0)

    def distance_at(bath, t):
        settled = evolve(DensityMatrix.ground(), system, bath, t)
        return trace_distance(settled, target)

    baths, rates, horizons, distances = {}, {}, {}, {}
    for p in (0.0, 0.5, 0.99):
        baths[p] = BathSpec(beta=1.0, alignment=p)
        spectrum = np.linalg.eigvals(coherence_generator(system, baths[p]).matrix)
        rates[p] = float(np.max(spectrum.real))
        horizons[p] = max(200.0, math.log(1e8) / abs(rates[p]))
        distances[p] = distance_at(baths[p], horizons[p])
    worst = max(distances.values())

    slowest = rates[0.99]
    measured = distance_at(baths[0.99], 400.0) / distance_at(baths[0.99], 200.0)
    predicted = math.exp(200.0 * slowest)
    rate_error = abs(measured / predicted - 1.0)

    ok = worst <= 1e-8 and rate_error <= 1e-6
    detail = ", ".join(
        f"p={p}: t={horizons[p]:.1f} d={distances[p]:.3e}" for p in distances
    )
    _report(3, ok, f"trace distance to Gibbs at slowest-mode horizon: {detail} "
                   f"(tol 1e-8); p=0.99 lam_slow={slowest:.7f}, "
                   f"d(400)/d(200)={measured:.6f} vs exp(200 lam_slow)="
                   f"{predicted:.6f}, rel err {rate_error:.1e} (tol 1e-6)")
    assert worst <= 1e-8, (
        f"state has not reached Gibbs by the slowest-mode horizon; measured {detail}"
    )
    assert rate_error <= 1e-6, (
        f"alignment 0.99 decays at d(400)/d(200)={measured:.9f}, generator "
        f"predicts {predicted:.9f} (lam_slow={slowest})"
    )


def test_criterion_04_lambert_optimum_vs_golden_section():
    """Closed-form first-round shift equals the brute-force maximizer."""
    worst = 0.0
    for beta in np.linspace(0.1, 5.0, 10):
        for omega in np.linspace(0.5, 3.0, 10):
            beta, omega = float(beta), float(omega)
            x = math.exp(-beta * omega)

            def round1_work(shift):
                u = math.exp(-beta * shift)
                return shift * x * u / (1.0 + x + x * u)

            found = maximize_scalar(round1_work, (1e-6 / beta, 6.0 / beta))
            worst = max(worst, abs(found.argmax - optimal_shift_round1(beta, omega)))
    ok = worst <= 1e-8
    _report(4, ok, f"max |shift gap| over 10x10 (beta, omega) grid = "
                   f"{worst:.3e} (tol 1e-8)")
    assert worst <= 1e-8


def test_criterion_05_repeated_protocol_work_ordering():
    """Repeated protocol: 0 < total work < FED, both decreasing in beta."""
    omega = 1.0
    works, feds = [], []
    for k in range(1, 16):
        beta = 0.2 * k
        bath = BathSpec(beta=beta, alignment=1.0)
        initial = protocol_initial_state(beta, omega)
        ledger, rounds = run_protocol1(initial, omega, beta, bath)
        total = ledger.net_work
        bound = fed_subspace(initial, omega, beta)
        assert rounds, f"no rounds executed at beta={beta}"
        assert all(r.net_work >= 0.0 for r in rounds)
        coherences = [l1_coherence(initial)] + [r.coherence_after for r in rounds]
        assert all(c2 < c1 for c1, c2 in zip(coherences, coherences[1:])), (
            f"coherence did not strictly decrease at beta={beta}"
        )
        assert 0.0 < total < bound
        works.append(total)
        feds.append(bound)
    decreasing = all(w2 < w1 for w1, w2 in zip(works, works[1:])) and all(
        f2 < f1 for f1, f2 in zip(feds, feds[1:])
    )
    ok = decreasing
    _report(5, ok, f"beta grid 0.2..3.0: work {works[0]:.4f} -> {works[-1]:.6f}, "
                   f"FED {feds[0]:.4f} -> {feds[-1]:.6f}, "
                   f"0 < W < FED rowwise, monotone = {decreasing}")
    assert decreasing


def test_criterion_06_repeated_protocol_drains_to_thermal():
    """With a 1e-6 shift floor the series lands on the thermal state."""
    beta = omega = 1.0
    initial = protocol_initial_state(beta, omega)
    ledger, rounds = run_protocol1(
        initial, omega, beta, ALIGNED, shift_floor=1e-6
    )
    final = ledger.final_state
    distance = trace_distance(final, gibbs(HamiltonianSpec.degenerate(omega), beta))
    ok = distance < 1e-4
    _report(6, ok, f"{len(rounds)} rounds, final trace distance to Gibbs = "
                   f"{distance:.3e} (tol 1e-4)")
    assert distance < 1e-4


def test_criterion_07_single_shot_fed_saturation():
    """Single-shot cycle extracts exactly the free-energy difference."""
    beta = omega = 1.0
    rng = np.random.default_rng(7)
    states = [
        GeneralInitialState(
            b=float(rng.uniform(0.02, 0.98)),
            n_norm=float(rng.uniform(0.0, 1.0)),
            theta=float(rng.uniform(0.0, math.pi)),
            phi=float(rng.uniform(-math.pi, math.pi)),
        )
        for _ in range(200)
    ]
    states.append(GeneralInitialState(b=0.4, n_norm=1.0, theta=0.9, phi=0.3))
    worst_closed = 0.0
    worst_quad = 0.0
    for init in states:
        target = fed_subspace(init.to_density(), omega, beta)
        closed = protocol2(init, omega, beta, ALIGNED).net_work
        worst_closed = max(worst_closed, abs(closed - target))
    for init in states[::40] + [states[-1]]:
        target = fed_subspace(init.to_density(), omega, beta)
        quad = protocol2(init, omega, beta, ALIGNED, work_mode="quadrature").net_work
        worst_quad = max(worst_quad, abs(quad - target))
    ok = worst_closed <= 1e-10 and worst_quad <= 1e-6
    _report(7, ok, f"|net - fed|: closed max {worst_closed:.3e} over 201 states "
                   f"(tol 1e-10), quadrature max {worst_quad:.3e} (tol 1e-6)")
    assert worst_closed <= 1e-10
    assert worst_quad <= 1e-6


def test_criterion_08_staircase_convergence():
    """Discretized sweep converges at first order to the quasistatic work."""
    beta, w_from, w_to, fixed = 1.0, 2.0, 1.0, 1.0
    target = quasistatic_work(beta, w_from, w_to, fixed)
    errors = {
        n: abs(discretized_quasistatic(beta, w_from, w_to, fixed, n) - target)
        for n in (64, 128, 256)
    }
    r1 = errors[64] / errors[128]
    r2 = errors[128] / errors[256]
    ok = 1.8 < r1 < 2.2 and 1.8 < r2 < 2.2
    _report(8, ok, f"errors N=64/128/256: {errors[64]:.3e}/{errors[128]:.3e}/"
                   f"{errors[256]:.3e}, doubling ratios {r1:.3f}, {r2:.3f} "
                   f"(target ~2)")
    assert 1.8 < r1 < 2.2
    assert 1.8 < r2 < 2.2


def test_criterion_09_perturbative_order():
    """First-order splitting correction leaves an O(delta^2) residual."""
    init = (0.3, 0.25, 0.1, 0.02)
    times = np.linspace(0.0, 10.0, 21)[1:]
    errors = []
    for delta in (1e-2, 5e-3, 2.5e-3):
        system = NearDegenerateSystem(1.0, 1.0 + delta)
        worst = 0.0
        for t in times:
            pert = perturbative_solution(init, system, ALIGNED, float(t))
            numeric = evolve_neardegenerate(
                CoherenceVector(*init), system, ALIGNED, float(t)
            )
            worst = max(
                worst, float(np.max(np.abs(pert.as_array() - numeric.as_array())))
            )
        errors.append(worst)
    r1 = errors[0] / errors[1]
    r2 = errors[1] / errors[2]
    near = neardegenerate_generator(NearDegenerateSystem(1.0, 1.0), ALIGNED)
    flat = coherence_generator(DegenerateSystem(1.0), ALIGNED)
    exact_reduction = np.array_equal(
        near.matrix, flat.matrix.astype(complex)
    ) and np.array_equal(near.constant, flat.constant.astype(complex))
    ok = 3.5 < r1 < 4.5 and 3.5 < r2 < 4.5 and exact_reduction
    _report(9, ok, f"residuals {errors[0]:.3e}/{errors[1]:.3e}/{errors[2]:.3e}, "
                   f"halving ratios {r1:.3f}, {r2:.3f} (window 3.5..4.5), "
                   f"zero-splitting generator reduction exact = {exact_reduction}")
    assert 3.5 < r1 < 4.5
    assert 3.5 < r2 < 4.5
    assert exact_reduction


def test_criterion_10_structural_invariants():
    """Trace, positivity, detailed balance, and energy-preserving rotation."""
    worst_trace = 0.0
    worst_eig = 0.0
    times = np.linspace(0.0, 30.0, 16)
    for alignment, init in (
        (1.0, (0.0, 1.0, 0.0, 0.0)),
        (0.5, (0.3, 0.2, 0.1, 0.05)),
        (-1.0, (0.25, 0.3, -0.08, 0.02)),
    ):
        bath = BathSpec(beta=1.0, alignment=alignment)
        states = evolve_trajectory(
            CoherenceVector(*init).to_density(),
            DegenerateSystem(1.0),
            bath,
            times,
        )
        for state in states:
            worst_trace = max(worst_trace, abs(state.trace - 1.0))
            worst_eig = min(worst_eig, state.min_eigenvalue())

    worst_balance = 0.0
    profiles = (None, tabulated_rate(((0.1, 0.7), (2.0, 1.4), (6.0, 1.1))))
    for profile in profiles:
        for beta in (0.2, 1.0, 3.0):
            bath = (
                BathSpec(beta=beta)
                if profile is None
                else BathSpec(beta=beta, rate_fn=profile)
            )
            for omega in (0.3, 1.0, 1.7):
                pair = rates_at(bath, omega)
                worst_balance = max(
                    worst_balance,
                    abs(pair.gamma_minus / pair.gamma_plus - math.exp(-beta * omega)),
                )

    h_free = np.diag([1.0, 1.0, 0.0])
    worst_commutator = 0.0
    for theta in np.linspace(0.0, math.pi, 7):
        for phi in np.linspace(-math.pi, math.pi, 7):
            u = coherence_unitary(float(theta), float(phi))
            worst_commutator = max(
                worst_commutator, float(np.max(np.abs(u @ h_free - h_free @ u)))
            )

    ok = (
        worst_trace < 1e-12
        and worst_eig >= -1e-8
        and worst_balance <= 1e-14
        and worst_commutator <= 1e-14
    )
    _report(10, ok, f"trace drift {worst_trace:.3e} (tol 1e-12), min eigenvalue "
                    f"{worst_eig:.3e} (floor -1e-8), detailed-balance gap "
                    f"{worst_balance:.3e} (tol 1e-14), rotation commutator "
                    f"{worst_commutator:.3e} (tol 1e-14)")
    assert worst_trace < 1e-12
    assert worst_eig >= -1e-8
    assert worst_balance <= 1e-14
    assert worst_commutator <= 1e-14
