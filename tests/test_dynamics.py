import itertools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.linalg import block_diag

from coherence_engine.bath import BathSpec, flat_rate, rates_at, tabulated_rate
from coherence_engine.bloch import DensityMatrix, PhysicalityError
from coherence_engine.dynamics import (
    CoherenceVector,
    DegenerateSystem,
    _checked_grid,
    _sector,
    _sector_setup,
    analytic_evolution_aligned,
    coherence_generator,
    evolve,
    evolve_trajectory,
    steady_state,
    trajectory_columns,
    trajectory_rows,
)
from coherence_engine.neardegen import (
    NearDegenerateSystem,
    _neardegenerate_series,
    _perturbative_series,
    evolve_neardegenerate,
    perturbative_solution,
)
from coherence_engine.numerics import _decomposition
from coherence_engine.thermo import l1_coherence
from reference import gksl_rhs_matrix, reference_states


def _rhs_from_operator_form(pi, system, bath):
    """Map the operator-form master equation onto (r22, r00, r+, d = Im rho_minus)."""
    m_dot = gksl_rhs_matrix(pi.to_density().matrix, system, bath)
    return np.array(
        [
            m_dot[0, 0],
            m_dot[2, 2],
            0.5 * (m_dot[0, 1] + m_dot[1, 0]),
            -0.5j * (m_dot[0, 1] - m_dot[1, 0]),
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
        pi = CoherenceVector(a, b, c, d)
        pi.to_density().validate()
        back = CoherenceVector.from_density(pi.to_density())
        np.testing.assert_allclose(back.as_array(), pi.as_array(), atol=1e-15)
        assert pi.to_density().matrix[0, 1] == pytest.approx(complex(c, d))
        assert pi.to_density().matrix[1, 0] == pytest.approx(complex(c, -d))
        assert pi.to_density().matrix[1, 1] == pytest.approx(1.0 - a - b)


def test_coherence_vector_validate_rejects_bad_populations():
    with pytest.raises(PhysicalityError):
        CoherenceVector(0.7, 0.5, 0.0, 0.0).to_density().validate()
    with pytest.raises(PhysicalityError):
        CoherenceVector(-0.2, 0.5, 0.0, 0.0).to_density().validate()


def test_generator_matches_operator_form(subspace_sampler):
    system = DegenerateSystem(1.0)
    for alignment in (1.0, 0.4, -0.7, 0.0):
        bath = BathSpec(beta=0.8, alignment=alignment)
        gen = coherence_generator(system, bath)
        for _ in range(10):
            a, b, c, d = subspace_sampler()
            pi = CoherenceVector(a, b, c, d)
            from_generator = gen.matrix @ pi.as_array() - gen.constant
            from_operator = _rhs_from_operator_form(pi, system, bath)
            np.testing.assert_allclose(from_generator, from_operator, atol=1e-14)


def _rhs_from_sectors(rho, system, bath):
    """The master-equation right-hand side assembled from its two sectors."""
    m = rho.matrix
    m_real, b_real = coherence_generator(system, bath).real_form()
    d22, d00, dp, dd = m_real @ CoherenceVector.from_density(rho).as_array() - b_real
    pair = rates_at(bath, system.omega)
    a = -1j * system.omega - 0.5 * pair.gamma_plus - pair.gamma_minus
    b = -0.5 * bath.alignment * pair.gamma_plus
    out = np.diag([d22, -d22 - d00, d00]).astype(complex)
    out[0, 1] = dp + 1j * dd
    out[0, 2] = a * m[0, 2] + b * m[1, 2]
    out[1, 2] = b * m[0, 2] + a * m[1, 2]
    out[1, 0], out[2, 0], out[2, 1] = (
        np.conj(out[0, 1]), np.conj(out[0, 2]), np.conj(out[1, 2])
    )
    return out


def test_bloch_rhs_matches_operator_form(random_density):
    """The 4-vector and rho20/rho10 equations give every operator-form entry."""
    system = DegenerateSystem(1.3)
    for alignment in (1.0, 0.6, -1.0):
        bath = BathSpec(beta=0.5, alignment=alignment)
        for _ in range(10):
            rho = DensityMatrix(random_density())
            m_dot = gksl_rhs_matrix(rho.matrix, system, bath)
            np.testing.assert_allclose(
                _rhs_from_sectors(rho, system, bath), m_dot, rtol=0.0, atol=1e-13
            )


def test_ground_state_rhs_rates():
    system = DegenerateSystem(1.0)
    for alignment in (1.0, 0.3):
        bath = BathSpec(beta=1.0, alignment=alignment)
        pair = rates_at(bath, system.omega)
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
            assert np.max(np.linalg.eigvals(gen.matrix).real) <= 1e-12


def test_generator_singular_only_when_aligned():
    system = DegenerateSystem(1.0)
    for alignment, singular in ((1.0, True), (-1.0, True), (0.5, False)):
        gen = coherence_generator(system, BathSpec(beta=1.0, alignment=alignment))
        smallest = np.min(np.abs(np.linalg.eigvals(gen.matrix)))
        assert (smallest < 1e-12) == singular


def test_real_form_is_identity_for_degenerate_generator():
    gen = coherence_generator(DegenerateSystem(1.0), BathSpec(beta=1.0, alignment=0.7))
    m_real, b_real = gen.real_form()
    np.testing.assert_allclose(m_real, gen.matrix.real, atol=0.0)
    np.testing.assert_allclose(b_real, gen.constant.real, atol=0.0)
    # the generator is read-only; real_form hands out writable copies
    for array in (gen.matrix, gen.constant):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0.0
    m_real[0, 0] = b_real[0] = 0.0


def test_evolve_preserves_trace_and_positivity():
    system = DegenerateSystem(1.0)
    bath = BathSpec(beta=1.0, alignment=1.0)
    rho0 = CoherenceVector(0.3, 0.2, 0.1, 0.05).to_density()
    rho_t = evolve(rho0, system, bath, 2.0)
    assert rho_t.trace == pytest.approx(1.0, abs=1e-12)
    assert rho_t.min_eigenvalue() >= -1e-9
    reference = reference_states(rho0, system, bath, [2.0])[0]
    np.testing.assert_allclose(reference.matrix, rho_t.matrix, atol=1e-8)


def test_evolve_time_edge_cases():
    system = DegenerateSystem(1.0)
    bath = BathSpec(beta=1.0)
    rho0 = DensityMatrix.ground()
    assert evolve(rho0, system, bath, 0.0) is rho0
    with pytest.raises(ValueError):
        evolve(rho0, system, bath, -0.1)


def test_evolve_at_time_zero_checks_the_state_as_later_times_do():
    system, bath = DegenerateSystem(1.0), BathSpec(beta=1.0)
    heavy = DensityMatrix(np.diag([0.5, 0.5, 0.5]))
    for t in (0.0, 1.0):
        with pytest.raises(PhysicalityError, match="trace"):
            evolve(heavy, system, bath, t)
    # Hermitian and unit-trace is enough at t = 0 too
    unsigned = DensityMatrix(np.diag([1.2, -0.2, 0.0]))
    assert evolve(unsigned, system, bath, 0.0) is unsigned


@pytest.mark.parametrize("t", [
    math.nan, math.inf, -1.0, -math.inf,
    pytest.param([0.0, 2.0, 1.0], id="decreasing"),
    pytest.param([0.0, math.nan, 1.0], id="inner-nan"),
    pytest.param([[0.0, 1.0]], id="2-D"),
    pytest.param(np.array(-1.0), id="0-d"),
])
def test_evolvers_reject_non_finite_times(t):
    """Every evolver applies the one time rule, with its one message.

    A scalar time ends a grid [0, 1, t]; a list or an array is the grid itself.
    """
    rule = "times must be finite, non-negative and non-decreasing"
    grid = t if isinstance(t, (list, np.ndarray)) else [0.0, 1.0, t]
    bath = BathSpec(beta=1.0, alignment=0.5)
    rho0 = DensityMatrix.ground()
    with pytest.raises(ValueError, match=rule):
        evolve(rho0, DegenerateSystem(1.0), bath, t)
    with pytest.raises(ValueError, match=rule):
        evolve_trajectory(rho0, DegenerateSystem(1.0), bath, grid)
    near = NearDegenerateSystem(1.0, 1.001)
    init = (0.2, 0.3, 0.05, 0.01)
    with pytest.raises(ValueError, match=rule):
        evolve_neardegenerate(CoherenceVector(*init), near, bath, t)
    with pytest.raises(ValueError, match=rule):
        perturbative_solution(init, near, BathSpec(beta=1.0), t)
    with pytest.raises(ValueError, match=rule):
        analytic_evolution_aligned(init, DegenerateSystem(1.0), BathSpec(beta=1.0), t)
    # the grids behind neardegen-check
    with pytest.raises(ValueError, match=rule):
        _neardegenerate_series(CoherenceVector(*init), near, bath, grid)
    with pytest.raises(ValueError, match=rule):
        _perturbative_series(init, near, BathSpec(beta=1.0), grid)


@pytest.mark.parametrize("grid", [
    pytest.param([], id="empty"),
    pytest.param([-0.0, 1.0], id="signed-zero"),
    pytest.param([0.5, 1.0, 1.0, 2.0], id="repeated"),
    pytest.param([0, 1, 1, 2], id="integers"),
])
def test_evolvers_accept_every_grid_the_time_rule_allows(grid):
    """Empty, signed-zero, repeated and integer grids pass, as float arrays of the input."""
    assert _checked_grid(grid).tobytes() == np.asarray(grid, dtype=float).tobytes()
    bath = BathSpec(beta=1.0, alignment=0.5)
    near = NearDegenerateSystem(1.0, 1.001)
    init = (0.2, 0.3, 0.05, 0.01)
    runs = [
        evolve_trajectory(DensityMatrix.ground(), DegenerateSystem(1.0), bath, grid),
        _neardegenerate_series(CoherenceVector(*init), near, bath, grid),
        _perturbative_series(init, near, BathSpec(beta=1.0), grid),
        analytic_evolution_aligned(init, DegenerateSystem(1.0), BathSpec(beta=1.0), grid)[0],
    ]
    assert [len(run) for run in runs] == [len(grid)] * 4


def test_fresh_default_baths_share_one_sector_setup(random_density):
    """Equal default baths hit one cache entry and give a cold call's bytes."""
    system, times = DegenerateSystem(1.0), np.linspace(0.0, 20.0, 11)
    starts = [DensityMatrix(random_density()) for _ in range(5)]

    def run(rho0):
        states = evolve_trajectory(rho0, system, BathSpec(1.0, alignment=0.5), times)
        return np.array([state.matrix for state in states]).tobytes()

    _sector_setup.cache_clear()
    warm = [run(rho0) for rho0 in starts]
    info = _sector_setup.cache_info()
    assert (info.hits, info.misses) == (4, 1)
    for rho0, got in zip(starts, warm):
        _decomposition.cache_clear()
        _sector_setup.cache_clear()
        assert got == run(rho0)


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
    """Exact propagation against direct RK45 integration, full 3x3 states.

    The 10 cases' 9x9 superoperators (read off gksl_rhs_matrix) are
    integrated on vec(rho) in one block-diagonal call.  The RMS error norm
    spreads over sqrt(10) blocks, so the reference runs at rtol = atol =
    1e-12/sqrt(10), and no case gets a coarser reference than a call of
    its own at 1e-12 would give.
    """
    system = DegenerateSystem(1.0)
    cases = []
    for alignment in (1.0, -1.0, 0.5, 0.0, 0.99):
        bath = BathSpec(beta=1.0, alignment=alignment)
        for horizon in (50.0, 1500.0):
            rho0 = DensityMatrix(random_density())
            cases.append((bath, rho0, np.linspace(0.0, horizon, 11)))
    superops = [
        np.column_stack([gksl_rhs_matrix(e.reshape(3, 3), system, bath).ravel()
                         for e in np.eye(9)])
        for bath, _rho0, _times in cases
    ]
    generator = block_diag(*superops)
    tol = 1e-12 / math.sqrt(len(cases))
    sol = solve_ivp(lambda _t, y: generator @ y, (0.0, 1500.0),
                    np.concatenate([rho0.matrix.ravel() for _b, rho0, _t in cases]),
                    method="RK45", rtol=tol, atol=tol, dense_output=True)
    assert sol.success
    for k, (bath, rho0, times) in enumerate(cases):
        exact = evolve_trajectory(rho0, system, bath, times)
        for t, state in zip(times, exact):
            ref = sol.sol(t)[9 * k:9 * k + 9].reshape(3, 3) if t > 0.0 else rho0.matrix
            np.testing.assert_allclose(state.matrix, ref, atol=1e-8)


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


def _reference_rows(times, states):
    """The per-state rows that trajectory_rows must reproduce bit for bit.

    Entries are looked up by the column labels, so the test also pins the
    order of the columns against the matrix layout.
    """
    labels = [name[-2:] for name in trajectory_columns()[1:-2:2]]
    rows = []
    for t, state in zip(times, states):
        row = [float(t)]
        for label in labels:
            z = state.matrix[2 - int(label[0]), 2 - int(label[1])]
            row += [float(z.real), float(z.imag)]
        rows.append(row + [l1_coherence(state), state.min_eigenvalue()])
    return rows


def _no_more_than(n, states):
    yield from states[:n]
    raise AssertionError("states read past the end of the time grid")


def test_trajectory_rows_match_per_state_reference(random_density, subspace_sampler):
    signed = np.diag([0.5, 0.5, 0.0]).astype(complex)
    signed[0, 1], signed[1, 0] = complex(-0.0, 0.0), complex(0.0, -0.0)
    signed[2, 2] = complex(-0.0, -0.0)
    states = [DensityMatrix.ground(), DensityMatrix(signed)]
    states += [DensityMatrix(random_density()) for _ in range(6)]
    states += [CoherenceVector(*subspace_sampler()).to_density() for _ in range(6)]
    system = DegenerateSystem(1.3)
    times = np.linspace(0.0, 40.0, 7)
    for alignment in (1.0, -1.0, 0.99, 0.0):
        bath = BathSpec(beta=2.0, alignment=alignment)
        for rho0 in states[:4] + states[-2:]:
            states += evolve_trajectory(rho0, system, bath, times)
    grid = [-0.0, 0, 1] + list(np.linspace(2.0, 1e5, len(states) - 3))
    for ts, ss in [
        (grid, states),
        ([], []),
        (grid, []),
        ([], states),
        (grid[:5], states),
        (grid, states[:3]),
        (np.array(grid), (s for s in states)),
        (grid[:4], _no_more_than(4, states)),
    ]:
        ss, ref_ss = itertools.tee(ss)
        assert repr(trajectory_rows(ts, ss)) == repr(_reference_rows(ts, ref_ss))
    assert len(trajectory_rows(grid[:5], states)) == 5
    assert len(trajectory_rows(grid, states[:3])) == 3


def test_trajectory_rejects_decreasing_times():
    args = DensityMatrix.ground(), DegenerateSystem(1.0), BathSpec(beta=1.0)
    for grid in ([0.0, 2.0, 1.0], np.array([[0.0, 1.0]]), np.array(1.0)):
        with pytest.raises(ValueError, match="non-decreasing"):
            evolve_trajectory(*args, grid)
    assert evolve_trajectory(*args, []) == []


def test_evolve_trajectory_rejects_unphysical_input():
    system, bath = DegenerateSystem(1.0), BathSpec(beta=1.0, alignment=0.5)
    nan = np.diag([0.5, 0.5, 0.0]).astype(complex)
    nan[0, 2] = nan[2, 0] = np.nan
    skew = np.diag([0.5, 0.5, 0.0]).astype(complex)
    skew[0, 1] = 0.3
    for m in (nan, skew, np.diag([1.0, 0.5, 0.0])):
        with pytest.raises(PhysicalityError):
            evolve_trajectory(DensityMatrix(m), system, bath, [0.0, 1.0])
    # the sector evolvers apply the same finiteness rule to a bare 4-vector
    with pytest.raises(PhysicalityError, match="not all finite"):
        evolve_neardegenerate(CoherenceVector(math.nan, 0.5, 0.0, 0.0),
                              NearDegenerateSystem(1.0, 1.005), BathSpec(beta=1.0), 1.0)
    with pytest.raises(PhysicalityError, match="not all finite"):
        steady_state(DegenerateSystem(1.0), BathSpec(beta=1.0), (math.nan, 0.5, 0.0, 0.0))
    # Hermitian and unit-trace is enough: positivity is not required
    states = evolve_trajectory(
        DensityMatrix(np.diag([1.2, -0.2, 0.0])), system, bath, [1.0]
    )
    assert states[0].trace == pytest.approx(1.0, abs=1e-15)


def test_trajectory_states_are_read_only_rows_of_one_stack():
    system, bath = DegenerateSystem(1.0), BathSpec(beta=1.0, alignment=0.5)
    rho0 = CoherenceVector(0.3, 0.2, 0.1, 0.05).to_density()
    states = evolve_trajectory(rho0, system, bath, [0.0, 0.5, 0.5, 2.0])
    assert states[0] is rho0
    for state in states[1:]:
        assert not np.shares_memory(state.matrix, rho0.matrix)
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 1.0
    # equal times give equal values in separate rows
    assert not np.shares_memory(states[1].matrix, states[2].matrix)
    np.testing.assert_array_equal(states[1].matrix, states[2].matrix)


@pytest.mark.parametrize(
    "profile", [flat_rate(0.7), tabulated_rate(((0.5, 0.3), (2.0, 1.7)))],
    ids=["flat", "tabulated"],
)
def test_steady_vector_is_steady_state_bit_for_bit(profile):
    """The fixed point the propagation uses is steady_state's, bit for bit."""
    inits = [(0.0, 1.0, 0.0, 0.0), (0.3, 0.2, 0.1, 0.05), (0.25, 0.4, -0.2, -0.1)]
    for alignment in (1.0, -1.0, 1.0 - 1e-13, 0.5):
        for beta, rates in ((1.3, profile), (0.4, flat_rate(0.0))):
            bath = BathSpec(beta=beta, rate_fn=rates, alignment=alignment)
            for init in inits:
                system = DegenerateSystem(1.1)
                vector = _sector(system.omega, system.omega, bath, np.array(init))[1]
                state = steady_state(system, bath, init)
                expected = CoherenceVector.from_density(state).as_array()
                assert vector.tobytes() == expected.tobytes()


def test_trajectory_states_have_the_bytes_of_the_one_sector_writer():
    """Each state at t > 0 is the state CoherenceVector writes for its own vector.

    In particular the entries the sector leaves empty are +0, as they are in
    the t = 0 state, so every row of a trajectory writes the same zeros.
    """
    system = DegenerateSystem(1.0)
    starts = [DensityMatrix.ground(), CoherenceVector(0.3, 0.2, 0.2, 0.1).to_density(),
              CoherenceVector(0.25, 0.4, -0.2, -0.1).to_density()]
    for alignment in (1.0, -1.0, 0.5, 0.0, 0.99):
        bath = BathSpec(beta=1.0, alignment=alignment)
        for rho0 in starts:
            states = evolve_trajectory(rho0, system, bath, np.linspace(0.0, 20.0, 6))
            for state in states[1:]:
                rebuilt = CoherenceVector.from_density(state).to_density()
                assert state.matrix.tobytes() == rebuilt.matrix.tobytes()


def test_ground_state_keeps_ground_excited_coherences_exactly_zero():
    system = DegenerateSystem(1.0)
    for alignment in (1.0, -1.0, 0.5, 0.0):
        bath = BathSpec(beta=1.0, alignment=alignment)
        times = np.linspace(0.0, 50.0, 11)
        for state in evolve_trajectory(DensityMatrix.ground(), system, bath, times):
            for i, j in ((0, 2), (1, 2), (2, 0), (2, 1)):
                assert state.matrix[i, j] == 0.0
