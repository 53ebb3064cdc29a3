"""One domain per invariant: each range check of the library is a `linalg.Domain` constant.

The five range checks that the domains replaced are copied here as they were, as an oracle: each domain must
accept exactly what its check accepted at each bound of the width, its `math.nextafter` neighbours, each integer
minimum and the minimum - 1, the signed zeros, the least subnormal, the infinities, NaN, a bool, a numpy integer
and a float with an integral value.  Moving any bound by one ulp, or an integer minimum by one, fails a probe.
"""

from __future__ import annotations

import math
import sys

import numpy as np
import pytest

from twostate.errors import ValidationError
from twostate.linalg import COUNT, FINITE, GRID_POINTS, NONNEGATIVE, POSITIVE, SEED, WIDTH
from twostate.protective import ADIABATIC_STEPS
from twostate.weak import AZIMUTHAL_SAMPLES

# ---------------------------------------------------------------------------
# the oracle: the range checks of the parent, verbatim


def require_integer(value, what: str, minimum: int) -> None:
    """Refuse as `what` anything but an int or a numpy integer of at least `minimum`; a bool is refused too."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ValidationError(f"{what} must be an integer of at least {minimum}, got {value!r}")


def require_positive(value: float, what: str) -> None:
    """Refuse as `what` a value that is not finite and positive (a width, a duration)."""
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{what} must be finite and positive, got {value}")


def require_width(value: float, what: str) -> None:
    """Refuse as `what` a Gaussian width that `require_positive` refuses or whose square under- or overflows."""
    require_positive(value, what)
    if not sys.float_info.min <= value * value <= sys.float_info.max / 8:
        raise ValidationError(f"{what} {value} lies outside 1.5e-154..4.7e153, where its square is a normal float")


def _require_nonnegative(value: float, what: str) -> None:
    if not (math.isfinite(value) and value >= 0):
        raise ValidationError(f"{what} must be finite and nonnegative, got {value}")


def _require_schedule_inputs(n_terms: int, eta: float) -> None:
    """A schedule needs an integer step count of at least 1 and a finite eta."""
    require_integer(n_terms, "n_terms", 1)
    if not math.isfinite(eta):
        raise ValidationError("eta must be finite")


# (oracle of one value, its domain): every library check of the parent and the domain now in its place
PAIRS = {
    "require_width": (lambda v: require_width(v, "width"), WIDTH),
    "require_positive": (lambda v: require_positive(v, "total time"), POSITIVE),
    "_require_nonnegative": (lambda v: _require_nonnegative(v, "delta_t"), NONNEGATIVE),
    "_require_schedule_inputs-eta": (lambda v: _require_schedule_inputs(1, v), FINITE),
    "_require_schedule_inputs-n_terms": (lambda v: _require_schedule_inputs(v, 0.5), COUNT),
    "require_integer-1": (lambda v: require_integer(v, "n", 1), COUNT),
    "require_integer-0": (lambda v: require_integer(v, "seed", 0), SEED),
    "require_integer-8": (lambda v: require_integer(v, "azimuthal samples", 8), AZIMUTHAL_SAMPLES),
    "require_integer-16": (lambda v: require_integer(v, "grid points", 16), GRID_POINTS),
    "require_integer-100": (lambda v: require_integer(v, "steps", 100), ADIABATIC_STEPS),
}
WIDTH_LO, WIDTH_HI = 2.0**-511, 4.740375954054588e153  # the least and the largest width `require_width` accepted
PROBES = [
    *(x for end in (WIDTH_LO, WIDTH_HI) for x in (math.nextafter(end, -math.inf), end, math.nextafter(end, math.inf))),
    *(0.0, -0.0, 5e-324, -5e-324, math.inf, -math.inf, math.nan, 0.5, -0.5, 1e308, -1e308),
    *(x for m in (0, 1, 8, 16, 100) for x in (m, m - 1, np.int64(m), np.int64(m - 1), float(m))),
    *(True, False, np.float64(1.0), 10**20),
]


def _accepts(check, value) -> bool:
    try:
        check(value)
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("name", PAIRS)
def test_each_domain_accepts_what_the_check_it_replaced_accepted(name):
    oracle, domain = PAIRS[name]
    got = [(value, _accepts(oracle, value), _accepts(lambda v: domain.require(v, "x"), value)) for value in PROBES]
    assert [(value, old) for value, old, new in got if old != new] == []


def test_the_width_domain_ends_where_the_square_of_a_width_stops_being_a_normal_float():
    assert (WIDTH.lo, WIDTH.hi, WIDTH.ends) == (WIDTH_LO, WIDTH_HI, "[]")
    assert WIDTH_LO**2 == sys.float_info.min and math.nextafter(WIDTH_LO, 0) ** 2 < sys.float_info.min
    assert WIDTH_HI**2 <= sys.float_info.max / 8 < math.nextafter(WIDTH_HI, math.inf) ** 2


def test_a_domain_refuses_with_one_message_and_prints_its_interval():
    with pytest.raises(ValidationError) as refused:
        WIDTH.require(1e-200, "width")
    assert str(refused.value) == f"width must be a float in {WIDTH}, got 1e-200; its square must be a normal float"
    with pytest.raises(ValidationError, match=r"^n must be an integer in \[1, inf\), got 2\.0$"):
        COUNT.require(2.0, "n")
    intervals = [str(domain) for domain in (COUNT, POSITIVE, NONNEGATIVE, FINITE)]
    assert intervals == ["[1, inf)", "(0, inf)", "[0, inf)", "(-inf, inf)"]


def test_a_cap_narrows_a_domain_and_never_widens_it():
    assert str(COUNT.capped(10, "a reason")) == "[1, 10]" and COUNT.capped(10, "a reason").why == "a reason"
    with pytest.raises(ValidationError, match=r"a cap must be an integer in \[8, inf\), got 7"):
        AZIMUTHAL_SAMPLES.capped(7, "below the minimum")
