import dataclasses
import math
import sys

import numpy as np
import pytest

from coherence_engine.bath import (
    ALIGNED_TOL,
    BathSpec,
    flat_rate,
    rates_at,
    tabulated_rate,
)
from coherence_engine.cli import main
from coherence_engine.dynamics import DegenerateSystem, coherence_generator
from coherence_engine.neardegen import NearDegenerateSystem, neardegenerate_generator
from reference import cross_rates


def test_detailed_balance_everywhere():
    for beta in (0.1, 0.5, 1.0, 2.0, 5.0):
        for omega in (0.2, 1.0, 3.0):
            bath = BathSpec(beta=beta)
            pair = rates_at(bath, omega)
            assert pair.gamma_minus / pair.gamma_plus == pytest.approx(
                math.exp(-beta * omega), abs=1e-14
            )


def test_flat_rate_default():
    fn = flat_rate()
    assert fn(0.3) == 1.0 and fn(7.0) == 1.0
    assert flat_rate(2.5)(1.0) == 2.5
    with pytest.raises(ValueError):
        flat_rate(-1.0)


def test_default_baths_are_equal_and_each_flat_rate_call_is_its_own_profile():
    """Every default bath shares one profile, so equal default baths are equal."""
    bath = BathSpec(1.0)
    assert bath == BathSpec(1.0) and hash(bath) == hash(BathSpec(1.0))
    half, fresh = dataclasses.replace(bath, alignment=0.5), BathSpec(1.0, alignment=0.5)
    assert half == fresh and hash(half) == hash(fresh)
    assert dataclasses.replace(half, alignment=1.0) == bath
    # an explicit profile is a profile of its own, even with the default's rates
    assert BathSpec(1.0, flat_rate(1.0)) != BathSpec(1.0)
    assert flat_rate(1.0) is not flat_rate(1.0)
    assert math.copysign(1.0, flat_rate(-0.0)(1.0)) == -1.0


def test_tabulated_rate_interpolates():
    fn = tabulated_rate([(1.0, 1.0), (2.0, 3.0)])
    assert fn(1.5) == pytest.approx(2.0, abs=1e-15)
    assert fn(1.0) == 1.0 and fn(2.0) == 3.0
    with pytest.raises(ValueError):
        tabulated_rate([(1.0, 1.0)])
    with pytest.raises(ValueError):
        tabulated_rate([(1.0, -1.0), (2.0, 1.0)])


def test_bath_spec_validation():
    with pytest.raises(ValueError):
        BathSpec(beta=0.0)
    with pytest.raises(ValueError):
        BathSpec(beta=1.0, alignment=1.5)
    BathSpec(beta=1.0, alignment=-1.0)


def test_beta_below_the_smallest_normal_float_is_rejected():
    """Below it, terms of order 1/beta (S / beta in a free energy) overflowed."""
    for beta in (5e-324, 1e-320, 6e-309, math.nextafter(sys.float_info.min, 0.0)):
        with pytest.raises(ValueError, match="at least"):
            BathSpec(beta=beta)
    assert BathSpec(beta=sys.float_info.min).beta == sys.float_info.min


def test_alignment_within_tolerance_of_one_is_stored_as_one(tmp_path):
    assert ALIGNED_TOL == 1e-12
    for sign in (1.0, -1.0):
        for near in (1.0 - 1e-13, 1.0 - ALIGNED_TOL, 1.0):
            stored = BathSpec(beta=1.0, alignment=sign * near).alignment
            assert stored == sign and type(stored) is float
        for far in (1.0 - 2e-12, 0.5, 0.0):
            assert BathSpec(beta=1.0, alignment=sign * far).alignment == sign * far
    bath = BathSpec(beta=1.0, alignment=1.0 - 1e-13)
    assert dataclasses.replace(bath, beta=2.0).alignment == 1.0
    near = dataclasses.replace(BathSpec(beta=1.0, alignment=0.5), alignment=-1.0 + 1e-13)
    assert near.alignment == -1.0
    # the command line's bath is stored aligned too: protocol 1 needs alignment 1
    argv = ["protocol1", "--alignment", repr(1.0 - 1e-13), "--out", str(tmp_path / "p")]
    assert main(argv) == 0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_generators_near_alignment_are_the_aligned_ones(sign):
    near, exact = (BathSpec(beta=0.7, alignment=sign * p) for p in (1.0 - 1e-13, 1.0))
    degenerate = DegenerateSystem(1.3)
    split = NearDegenerateSystem(1.3, 1.31)
    for build, system in ((coherence_generator, degenerate),
                          (neardegenerate_generator, split)):
        a, b = build(system, near), build(system, exact)
        assert np.array_equal(a.matrix, b.matrix)
        assert np.array_equal(a.constant, b.constant)
    for got, want in zip(cross_rates(near, 1.3), cross_rates(exact, 1.3)):
        assert np.array_equal(got, want)


def test_non_finite_parameters_rejected():
    for beta, alignment in ((math.inf, 1.0), (math.nan, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite"):
            BathSpec(beta=beta, alignment=alignment)
    for gamma in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            flat_rate(gamma)


def test_rates_at_requires_positive_frequency():
    bath = BathSpec(beta=1.0)
    with pytest.raises(ValueError):
        rates_at(bath, 0.0)


def test_rates_at_rejects_non_finite_rates():
    # NaN passes a "< 0" check, and a non-finite rate would otherwise
    # reach the steady state and the protocols as a plausible number.
    for bad in (math.nan, math.inf, -math.inf):
        bath = BathSpec(beta=1.0, rate_fn=lambda omega, bad=bad: bad)
        with pytest.raises(ValueError, match="non-finite"):
            rates_at(bath, 1.0)
    negative = BathSpec(beta=1.0, rate_fn=lambda omega: -1.0)
    with pytest.raises(ValueError, match="negative rate"):
        rates_at(negative, 1.0)


def test_cross_rates_pattern():
    bath = BathSpec(beta=1.0, alignment=0.4)
    gamma_plus, gamma_minus = cross_rates(bath, 1.0)
    pair = rates_at(bath, 1.0)
    expected_plus = pair.gamma_plus * np.array([[1.0, 0.4], [0.4, 1.0]])
    expected_minus = pair.gamma_minus * np.array([[1.0, 0.4], [0.4, 1.0]])
    np.testing.assert_allclose(gamma_plus, expected_plus, atol=1e-15)
    np.testing.assert_allclose(gamma_minus, expected_minus, atol=1e-15)

