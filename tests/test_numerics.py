import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.linalg import block_diag, expm

from coherence_engine import numerics
from coherence_engine.numerics import (
    NumericsError,
    _decomposition,
    integrate_1d,
    integrate_ode,
    lambert_w_principal,
    propagate_affine,
)
from coherence_engine.protocols import _sweep_model
from reference import _lambert_w_decimal, maximize_scalar


def test_lambert_trivial_points():
    assert lambert_w_principal(0.0) == 0.0
    assert lambert_w_principal(math.e) == pytest.approx(1.0, abs=1e-14)
    assert lambert_w_principal(1.0) == pytest.approx(0.5671432904097838, abs=1e-14)


def test_lambert_branch_point():
    assert lambert_w_principal(-1.0 / math.e) == pytest.approx(-1.0, abs=1e-7)
    # below the branch point the domain check answers, not a math error further on
    for z in (-1.0 / math.e - 1e-9, -1.0):
        with pytest.raises(ValueError, match="requires z >= -1/e"):
            lambert_w_principal(z)
    for z in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite z"):
            lambert_w_principal(z)


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


def test_lambert_keeps_its_relative_digits():
    # the stop rule is a relative step, so W is within 1 ulp of a 50-digit
    # Newton at small z too
    with localcontext() as ctx:
        ctx.prec = 50
        for z in np.geomspace(1e-8, 1e6, 230).tolist() + [1.3621602035512732e-4]:
            exact = float(_lambert_w_decimal(Decimal(z)))
            assert abs(lambert_w_principal(z) - exact) <= math.ulp(exact), z


def test_lambert_stops_one_step_after_convergence(monkeypatch):
    # Halley's error after a step is of the order of the step's cube, so the
    # iteration stops after at most 4 steps here: one exp per step, one for
    # the residual check
    class CountingMath:
        calls = 0

        def __getattr__(self, name):
            return getattr(math, name)

        def exp(self, x):
            CountingMath.calls += 1
            return math.exp(x)

    monkeypatch.setattr(numerics, "math", CountingMath())
    counts = []
    for z in np.geomspace(1e-8, 1e6, 230).tolist() + [-0.3, -0.1, 1e-300]:
        CountingMath.calls = 0
        lambert_w_principal(z)
        counts.append(CountingMath.calls)
    assert max(counts) <= 5 and min(counts) >= 2


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


def test_integrate_ode_reports_where_it_failed():
    """dy/dt = y^2 from y(0) = 1 blows up at t = 1; the error names that time."""
    with pytest.raises(NumericsError, match=r"failed at t=0\.99999") as info:
        integrate_ode(lambda t, y: y * y, np.array([1.0]), (0.0, 2.0))
    reached = float(str(info.value).split("t=")[1].split(":")[0])
    assert reached == pytest.approx(1.0, abs=1e-9)


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
        out = propagate_affine(_decomposition(m), np.linalg.solve(m, b), y0, times)
        assert out.dtype == np.float64 and out.shape == (4, 4)
        assert np.array_equal(out[0], y0)
        aug = np.zeros((5, 5))
        aug[:4, :4], aug[:4, 4] = m, -b
        for row, t in zip(out, times):
            np.testing.assert_allclose(row, (expm(t * aug) @ np.append(y0, 1.0))[:4],
                                       atol=1e-11)


def test_propagate_affine_jordan_block_raises():
    """A defective generator has no eigenvector basis: NumericsError, no fallback."""
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    y0 = np.array([0.7, -1.3])
    with pytest.raises(NumericsError, match="nearly defective"):
        propagate_affine(_decomposition(jordan), np.zeros(2), y0, [0.0, 0.5, 3.0])


def _affine_problem(rng):
    m = rng.normal(size=(4, 4)) - 2.0 * np.eye(4)
    return m, rng.normal(size=4), rng.normal(size=4), [0.0, 0.3, 1.0, 4.0]


def test_propagate_affine_rows_do_not_alias_the_cache(rng):
    """The eigensystem is read-only, and writing to one call's rows changes no later call."""
    m, fixed, y0, times = _affine_problem(rng)
    eig = _decomposition(m)
    assert not any(part.flags.writeable for part in eig)
    first = propagate_affine(eig, fixed, y0, times)
    expected = first.copy()
    first[:] = np.nan
    assert np.array_equal(propagate_affine(eig, fixed, y0, times), expected)
    assert all(np.array_equal(a, b) for a, b in zip(eig, _decomposition(m)))


def test_integrate_1d_basic():
    assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert integrate_1d(lambda x: x * x, 2.0, 2.0) == 0.0
    # an empty interval is 0 even at an infinite limit or an overflowing integrand
    for a in (math.inf, -math.inf, 1e308):
        assert integrate_1d(math.exp, a, a) == 0.0
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
    for limits in ((-math.inf, 0.0), (0.0, -math.inf)):
        with pytest.raises(ValueError, match="finite lower limit"):
            integrate_1d(math.exp, *limits)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_integrate_1d_rejects_a_non_finite_integrand(bad):
    """A NaN or infinite node value is a NumericsError before any panel sum warns."""
    for b in (1.0, math.inf):
        with pytest.raises(NumericsError, match="integrand is not finite"):
            integrate_1d(lambda x: bad if x > 0.5 else 1.0, 0.0, b)


@pytest.mark.parametrize(
    "value, b", [(1e308, 1e308), (-1e308, 1e308), (1e300, 1e10)]
)
def test_integrate_1d_overflowing_panel_sum_is_a_numerics_error(value, b):
    """Finite node values whose weighted sum overflows raise no RuntimeWarning."""
    with pytest.raises(NumericsError, match="quadrature gave a non-finite value"):
        integrate_1d(lambda x: value, 0.0, b)


def test_integrate_1d_on_an_interval_wider_than_the_float_range():
    """A width hi - lo beyond the float range places its nodes without overflow."""
    with pytest.raises(NumericsError, match="quadrature gave a non-finite value inf"):
        integrate_1d(lambda x: 1e308, -1e308, 1e308)
    assert integrate_1d(lambda x: 0.0, -1e308, 1e308) == 0.0
    # lo + hi overflows here too, in the panel's centre and in its split
    # point; a step at 1.5e308 needs the splits (it used to integrate to 0.0).
    value = integrate_1d(lambda x: 1.0 if x < 1.5e308 else 0.0, 1e308, 1.7e308)
    assert value == pytest.approx(5e307, rel=1e-10)
