"""The oracle module `precise` against closed forms, so a test that leans on it leans on something checked."""

from __future__ import annotations

import math
import subprocess
import sys
from decimal import localcontext
from fractions import Fraction
from pathlib import Path

import pytest

import precise


@pytest.mark.parametrize("eta", [-3.0, 0.0, 0.3, 0.5, 1.0, 1.7, 10.0, 2.0**-30])
def test_the_weights_sum_to_one(eta):
    # the binomial theorem: sum_n C(N, n) eta**n (1 - eta)**(N - n) = (eta + 1 - eta)**N
    for n_terms in (1, 2, 13, 60):
        weights = precise.binomial_weights(n_terms, eta)
        assert len(weights) == n_terms + 1 and precise.weight_sum(weights) == 1


@pytest.mark.parametrize("n_terms", [1, 2, 13, 60, 400])
def test_the_square_sum_at_one_half_is_the_central_binomial_over_4_to_the_n(n_terms):
    # sum_n C(N, n)**2 = C(2N, N), each weight C(N, n) / 2**N
    assert precise.square_sum(n_terms, 0.5) == Fraction(math.comb(2 * n_terms, n_terms), 4**n_terms)


@pytest.mark.parametrize("n_terms, eta", [(13, 0.3), (5, -2.0), (7, 2.0**-20)])
def test_the_square_sum_is_the_sum_of_the_squared_weights(n_terms, eta):
    assert precise.square_sum(n_terms, eta) == sum(w * w for w in precise.binomial_weights(n_terms, eta))


@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(3, 8), Fraction(10**40 + 1, 10**40), Fraction(7, 3) ** 900, Fraction(1, 3**2000)]
)
def test_an_80_digit_rerun_moves_the_40_digit_log_by_less_than_1e_35(x):
    assert abs(precise.log(x, 80) - precise.log(x)) < 1e-35


def test_the_log_meets_its_closed_forms():
    assert precise.log(Fraction(1)) == 0
    with localcontext(prec=80):
        assert abs(precise.log(Fraction(2**1000)) - 1000 * precise.log(Fraction(2), 80)) < 1e-35
    assert float(precise.log(Fraction(1, 2))) == math.log(0.5)
    with pytest.raises(ValueError):
        precise.log(Fraction(0))


def test_the_module_imports_nothing_but_the_standard_library():
    # an oracle that shared code with the package could share its faults; a fresh process shows what it loads
    code = "import sys, precise; print(sorted(m for m in sys.modules if m.split('.')[0] in ('twostate', 'numpy')))"
    here = str(Path(__file__).resolve().parent)
    out = subprocess.run([sys.executable, "-c", code], cwd=here, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
