import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import block_diag, expm

from coherence_engine.numerics import (
    NumericsError,
    _decomposition,
    integrate_1d,
    integrate_ode,
    lambert_w_principal,
    propagate_affine,
)
from coherence_engine.protocols import _sweep_model
from reference import maximize_scalar


def test_lambert_trivial_points():
    assert lambert_w_principal(0.0) == 0.0
    assert lambert_w_principal(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w_principal(1.0) == pytest.approx(0.5671432904097838, abs=1e-14)


def test_lambert_branch_point():
    assert lambert_w_principal(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
    with pytest.raises(ValueError):
        lambert_w_principal(-1.0 / math.e - 1e-9)


def test_lambert_residual_grid():
    lo = -1.0 / math.e + 1e-12
    grid = np.concatenate(
        [
            np.linspace(lo, -1e-6, 40),
            np.geomspace(1e-12, 1e6, 60),
        ]
    )
    for z in grid:
        w = lambert_w_principal(float(z))
        assert w >= -1.0
        assert abs(w * math.exp(w) - z) <= 1e-14 * max(1.0, abs(z))


def test_maximize_parabola():
    res = maximize_scalar(lambda x: -((x - 2.0) ** 2), (0.0, 5.0))
    assert res.argmax == pytest.approx(2.0, abs=1e-8)
    assert res.value == pytest.approx(0.0, abs=1e-15)
    assert not res.at_boundary
    argmax, value = res
    assert argmax == res.argmax and value == res.value


def test_maximize_monotone_hits_boundary():
    res = maximize_scalar(lambda x: x, (0.0, 1.0))
    assert res.at_boundary
    assert res.argmax == pytest.approx(1.0, abs=1e-8)


def test_maximize_round1_work_function():
    beta = omega = 1.0
    x = math.exp(-beta * omega)

    def work(s):
        u = math.exp(-beta * s)
        return s * x * u / (1.0 + x + x * u)

    res = maximize_scalar(work, (1e-12, 12.0))
    assert res.argmax == pytest.approx(1.0903875089495634, abs=1e-8)


def test_maximize_rejects_non_finite():
    with pytest.raises(NumericsError):
        maximize_scalar(lambda x: math.inf if x > 0.5 else x, (0.0, 1.0))


def test_integrate_ode_scalar_decay():
    sol = integrate_ode(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    assert sol.y[0, -1] == pytest.approx(math.exp(-1.0), abs=1e-10)


def test_integrate_ode_zero_rhs():
    y0 = np.array([0.3, -0.7])
    sol = integrate_ode(lambda t, y: np.zeros_like(y), y0, (0.0, 5.0))
    np.testing.assert_allclose(sol.y[:, -1], y0, atol=1e-14)
    np.testing.assert_allclose(sol.at(2.5), y0, atol=1e-14)


def test_integrate_ode_degenerate_span():
    y0 = np.array([1.0, 2.0])
    sol = integrate_ode(lambda t, y: -y, y0, (0.0, 0.0))
    np.testing.assert_allclose(sol.at(0.0), y0, atol=0.0)


def test_rk45_block_system_matches_matrix_exponential(rng):
    """RK45, the tests' reference integrator, against expm on 100 systems at once.

    One call on the block-diagonal system.  Its RMS error norm spreads
    over the sqrt(100) = 10 blocks, so it runs at rtol = atol = 1e-13, ten
    times the 1e-12 of integrate_ode, and no system gets a coarser
    solution than a call of its own would give.
    """
    mats, starts = [], []
    for _ in range(100):
        a = rng.normal(size=(4, 4))
        abscissa = float(np.max(np.linalg.eigvals(a).real))
        target = float(rng.uniform(-10.0, -0.1))
        mats.append(a + (target - abscissa) * np.eye(4))
        starts.append(rng.normal(size=4))
    system = block_diag(*mats)
    sol = solve_ivp(lambda t, y: system @ y, (0.0, 1.0), np.concatenate(starts),
                    method="RK45", rtol=1e-13, atol=1e-13)
    assert sol.success
    for a, y0, end in zip(mats, starts, sol.y[:, -1].reshape(100, 4)):
        assert np.max(np.abs(end - expm(a) @ y0)) <= 1e-9


def test_integrate_ode_complex_state():
    y0 = np.array([1.0 + 0.0j])
    sol = integrate_ode(lambda t, y: 1j * y, y0, (0.0, math.pi))
    assert sol.y[0, -1] == pytest.approx(-1.0 + 0.0j, abs=1e-9)


def test_propagate_affine_matches_expm_of_augmented_generator(rng):
    for _ in range(20):
        m = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
        b = rng.normal(size=4)
        y0 = rng.normal(size=4)
        times = [0.0, 0.3, 1.0, 4.0]
        out = propagate_affine(m, np.linalg.solve(m, b), y0, times)
        assert out.dtype == np.float64 and out.shape == (4, 4)
        assert np.array_equal(out[0], y0)
        aug = np.zeros((5, 5))
        aug[:4, :4], aug[:4, 4] = m, -b
        for row, t in zip(out, times):
            np.testing.assert_allclose(row, (expm(t * aug) @ np.append(y0, 1.0))[:4],
                                       atol=1e-11)


def test_propagate_affine_jordan_block_raises():
    """A defective generator has no eigenvector basis: NumericsError, no fallback.

    The failure is not cached, so a second call raises again.
    """
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    y0 = np.array([0.7, -1.3])
    for _ in range(2):
        with pytest.raises(NumericsError, match="nearly defective"):
            propagate_affine(jordan, np.zeros(2), y0, [0.0, 0.5, 3.0])


def _affine_problem(rng):
    m = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
    return m, rng.normal(size=4), rng.normal(size=4), [0.0, 0.3, 1.0, 4.0]


def test_propagate_affine_warm_equals_cold(rng):
    for _ in range(10):
        m, fixed, y0, times = _affine_problem(rng)
        _decomposition.cache_clear()
        cold = propagate_affine(m, fixed, y0, times)
        warm = propagate_affine(m.copy(), fixed, y0, times)
        assert _decomposition.cache_info().hits == 1
        assert np.array_equal(warm, cold)


def test_propagate_affine_answers_for_a_matrix_changed_in_place(rng):
    m, fixed, y0, times = _affine_problem(rng)
    before = propagate_affine(m, fixed, y0, times)
    m[0, 1] += 0.5
    after = propagate_affine(m, fixed, y0, times)
    _decomposition.cache_clear()
    assert np.array_equal(after, propagate_affine(m, fixed, y0, times))
    assert not np.array_equal(after, before)


def test_propagate_affine_rows_do_not_alias_the_cache(rng):
    m, fixed, y0, times = _affine_problem(rng)
    first = propagate_affine(m, fixed, y0, times)
    expected = first.copy()
    first[:] = np.nan
    assert np.array_equal(propagate_affine(m, fixed, y0, times), expected)
    vals, vecs, inverse = _decomposition(m.tobytes(), m.shape, m.dtype)
    assert not (vals.flags.writeable or vecs.flags.writeable or inverse.flags.writeable)


def test_decomposition_cache_stays_bounded(rng):
    maxsize = _decomposition.cache_info().maxsize
    _decomposition.cache_clear()
    for _ in range(maxsize + 10):
        m, fixed, y0, times = _affine_problem(rng)
        propagate_affine(m, fixed, y0, times)
        assert _decomposition.cache_info().currsize <= maxsize
    assert _decomposition.cache_info().currsize == maxsize


def test_integrate_1d_basic():
    assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert integrate_1d(lambda x: x * x, 2.0, 2.0) == 0.0
    assert integrate_1d(lambda x: x, 1.0, 0.0) == pytest.approx(-0.5, abs=1e-12)
    assert integrate_1d(math.exp, 3.0, -1.0) == pytest.approx(
        math.exp(-1.0) - math.exp(3.0), abs=1e-12
    )
    with pytest.raises(NumericsError, match="did not converge in 200 bisections"):
        integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)


def test_integrate_1d_improper():
    value = integrate_1d(lambda x: math.exp(-x), 0.0, math.inf)
    assert value == pytest.approx(1.0, abs=1e-10)
    assert integrate_1d(lambda x: math.exp(-x), math.inf, 0.0) == pytest.approx(
        -1.0, abs=1e-10
    )
    # the protocol-2 population sweep from omega1 to infinity:
    # int e^{-bw} / (c + e^{-bw}) dw = ln(1 + e^{-b omega1} / c) / b
    beta, omega1 = 1.3, 0.8
    c = 1.0 + math.exp(-beta * omega1)
    value = integrate_1d(
        lambda w: math.exp(-beta * w) / (c + math.exp(-beta * w)), omega1, math.inf
    )
    expected = math.log1p(math.exp(-beta * omega1) / c) / beta
    assert value == pytest.approx(expected, abs=1e-12)


def test_integrate_1d_matches_scipy_quad_on_sweep_integrands():
    for beta in np.linspace(0.2, 3.0, 5):
        for fixed in np.linspace(0.5, 3.0, 4):
            for mode in ("single-level-sweep", "both-levels-sweep"):
                _, population = _sweep_model(beta, fixed, mode)
                for lo, hi in ((0.5, 3.0), (fixed, 0.5), (fixed, math.inf)):
                    reference = quad(population, lo, hi, epsabs=1e-13, epsrel=1e-13)[0]
                    value = integrate_1d(population, lo, hi)
                    assert value == pytest.approx(reference, abs=1e-10)


def test_integrate_1d_divergent_reported():
    with pytest.raises(NumericsError):
        integrate_1d(lambda x: 1.0 / x, 0.0, 1.0)
