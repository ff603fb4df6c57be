"""Regularized incomplete beta function via continued fractions.

This is the only special function the certification math needs: it is the
CDF of the Beta distribution, used to convert a conformal quantile index
into a (violation rate, confidence) pair. certificate.epsilon_for inverts
it from a Peizer-Pratt start by Newton and Halley steps, with the Beta
density taken from _log_front.
"""

from __future__ import annotations

import math

_MAX_ITERATIONS = 5000
_EPS = 3e-16
_FPMIN = 1e-300


class BetaDomainError(ValueError):
    """Raised when (x, a, b) fall outside x in [0, 1], a > 0, b > 0, with
    a, b and a + b finite."""


def _stirling_remainder(z: float) -> float:
    # Binet function delta(z) = lgamma(z) - (z-1/2)ln z + z - ln(2 pi)/2,
    # truncated series; good to ~1e-18 for z >= 50
    zz = z * z
    return (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0 - 1.0 / (1680.0 * zz)) / zz) / zz) / z


def _log_front(x: float, a: float, b: float) -> float:
    """log of x^a (1-x)^b / B(a, b), organized to avoid the catastrophic
    cancellation the plain lgamma form suffers when a or b is large."""
    total = a + b
    small, big = min(a, b), max(a, b)
    if small < 50.0:
        powers = a * math.log(x) + b * math.log1p(-x)
        if big < 50.0:
            return powers - (math.lgamma(a) + math.lgamma(b) - math.lgamma(total))
        # lgamma(big) - lgamma(a + b) through Stirling's series: the two
        # lgammas would cancel to a few hundred from about big ln(big)
        big_minus_total = (-small * math.log(total) - (big - 0.5) * math.log1p(small / big)
                           + small + _stirling_remainder(big) - _stirling_remainder(total))
        return powers - math.lgamma(small) - big_minus_total
    mu = a / total
    t1 = a * math.log1p((x - mu) / mu)
    t2 = b * math.log1p((mu - x) / (1.0 - mu))
    half = 0.5 * math.log(a * b / (total * 2.0 * math.pi))
    corr = _stirling_remainder(a) + _stirling_remainder(b) - _stirling_remainder(total)
    return t1 + t2 + half - corr


def _continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the standard incomplete-beta continued
    # fraction; only called with x below the (a+1)/(a+b+2) switch point,
    # where convergence is fast.
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _FPMIN:
        d = _FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITERATIONS + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = 1.0 + aa / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge for a={a}, b={b}, x={x}"
    )


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """Return I_x(a, b), the regularized incomplete beta function.

    Uses the symmetry I_x(a, b) = 1 - I_{1-x}(b, a) so the continued
    fraction is always evaluated in its fast-convergence region. Absolute
    accuracy is well below 1e-10 over the full domain.
    """
    if not (0.0 <= x <= 1.0):
        raise BetaDomainError(f"x must lie in [0, 1], got {x}")
    if a <= 0.0 or b <= 0.0:
        raise BetaDomainError(f"a and b must be positive, got a={a}, b={b}")
    if not math.isfinite(a + b):
        raise BetaDomainError(f"a, b and a + b must be finite, got a={a}, b={b}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    log_front = _log_front(x, a, b)
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front) * _continued_fraction(a, b, x) / a
    return 1.0 - math.exp(log_front) * _continued_fraction(b, a, 1.0 - x) / b
