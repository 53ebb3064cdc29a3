"""Exact and high-precision reference values for the tests, from the standard library alone.

Nothing here imports `twostate`, so an oracle cannot share a fault with the code it checks.  The binomial weights
of the time machine are exact rationals of the float eta (every float is a dyadic rational), and `log` takes the
logarithm of such a rational to a chosen number of digits through `decimal`.
"""

from __future__ import annotations

import math
from decimal import MAX_EMAX, MIN_EMIN, Decimal, localcontext
from fractions import Fraction


def binomial_weights(n_terms: int, eta: float) -> list:
    """The exact weights alpha_n = C(N, n) * eta**n * (1 - eta)**(N - n), n = 0..N, of the float `eta`, as Fractions."""
    p, q = float(eta).as_integer_ratio()
    return [Fraction(math.comb(n_terms, n) * p**n * (q - p) ** (n_terms - n), q**n_terms) for n in range(n_terms + 1)]


def weight_sum(weights: list) -> Fraction:
    """sum alpha_n, exactly."""
    return sum(weights, Fraction(0))


def square_sum(n_terms: int, eta: float) -> Fraction:
    """S = sum alpha_n**2 of `binomial_weights(n_terms, eta)`, exactly, in integers over the one denominator q**(2N)."""
    p, q = float(eta).as_integer_ratio()
    p2, r2 = p * p, (q - p) ** 2
    total, p_power = 0, 1
    for n in range(n_terms + 1):  # Horner's rule in (1 - eta)**2: term n ends up times r2**(N - n)
        total = total * r2 + math.comb(n_terms, n) ** 2 * p_power
        p_power *= p2
    return Fraction(total, q ** (2 * n_terms))


def log(x: Fraction, digits: int = 40) -> Decimal:
    """ln x of a positive Fraction, rounded to `digits` significant digits.

    The quotient is formed with 10 guard digits, so its rounding moves the logarithm by about 10**-(digits + 10).
    """
    if x <= 0:
        raise ValueError(f"log of a nonpositive number {x}")
    with localcontext() as ctx:
        ctx.prec, ctx.Emax, ctx.Emin = digits + 10, MAX_EMAX, MIN_EMIN
        value = (Decimal(x.numerator) / Decimal(x.denominator)).ln()
        ctx.prec = digits
        return +value
