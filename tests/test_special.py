import math

import numpy as np
import pytest
from scipy import special as sp_special

from cbfcert.special import BetaDomainError, regularized_incomplete_beta

from oracles import betainc_quadrature


def test_uniform_cdf_identity():
    for x in (0.0, 0.25, 1.0):
        assert regularized_incomplete_beta(x, 1.0, 1.0) == pytest.approx(x, abs=1e-14)


def test_symmetric_midpoint():
    for a in (2.0, 7.5):
        assert regularized_incomplete_beta(0.5, a, a) == pytest.approx(0.5, abs=1e-12)


def test_matches_quadrature_oracle():
    assert regularized_incomplete_beta(0.3, 2.0, 5.0) == pytest.approx(
        betainc_quadrature(0.3, 2.0, 5.0), abs=1e-9
    )


@pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 3.0), (4.0, 2.5), (30.0, 70.0),
                                 (500.0, 12.0), (1901.0, 100.0), (95001.0, 5000.0)])
def test_accuracy_against_scipy(a, b):
    for x in np.linspace(0.001, 0.999, 23):
        mine = regularized_incomplete_beta(float(x), a, b)
        ref = float(sp_special.betainc(a, b, x))
        assert abs(mine - ref) < 1e-10, (x, a, b, mine, ref)


def test_one_small_parameter_with_a_large_one_matches_scipy():
    # lgamma(big) - lgamma(a + b) cancels from about big ln(big) when
    # min(a, b) < 50: this point was off by 1.5e-9 before that difference
    # went through Stirling's series
    ref = float(sp_special.betainc(1e6, 40.0, 0.99996))
    assert abs(regularized_incomplete_beta(0.99996, 1e6, 40.0) - ref) < 1e-12
    for small in (0.5, 1.0, 3.0, 10.0, 40.0, 49.9):
        for big in (50.0, 1e3, 1e5, 1e6, 1e7):
            for a, b in ((big, small), (small, big)):
                mean = a / (a + b)
                for q in (0.3, 0.7, 1.0, 1.5, 2.5):
                    # around the mean, where I_x moves
                    x = 1.0 - q * (1.0 - mean) if a > b else q * mean
                    if 0.0 < x < 1.0:
                        mine = regularized_incomplete_beta(x, a, b)
                        ref = float(sp_special.betainc(a, b, x))
                        assert abs(mine - ref) < 1e-10, (x, a, b, mine, ref)


def test_huge_parameters_converge():
    # the scale used by the largest verification sample counts
    val = regularized_incomplete_beta(0.95, 950001.0, 50000.0)
    ref = float(sp_special.betainc(950001.0, 50000.0, 0.95))
    assert abs(val - ref) < 1e-10


def test_domain_errors():
    with pytest.raises(BetaDomainError):
        regularized_incomplete_beta(-0.1, 1.0, 1.0)
    with pytest.raises(BetaDomainError):
        regularized_incomplete_beta(1.1, 1.0, 1.0)
    with pytest.raises(BetaDomainError):
        regularized_incomplete_beta(0.5, 0.0, 1.0)
    with pytest.raises(BetaDomainError):
        regularized_incomplete_beta(0.5, 1.0, -2.0)
    # non-finite shapes used to run the whole continued fraction and end in
    # a bare ArithmeticError, and a + b = inf in a ZeroDivisionError
    for x, a, b in ((0.5, math.nan, 2.0), (0.5, math.inf, 2.0), (0.5, 2.0, math.inf),
                    (0.3, 1e308, 1e308)):
        with pytest.raises(BetaDomainError, match="finite"):
            regularized_incomplete_beta(x, a, b)


def test_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 101)
    vals = [regularized_incomplete_beta(float(x), 3.0, 4.0) for x in xs]
    assert all(v2 >= v1 - 1e-14 for v1, v2 in zip(vals, vals[1:]))
