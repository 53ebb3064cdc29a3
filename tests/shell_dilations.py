"""Shell dilations and radius schedules of the gravitational time machine.

A register of N+1 control levels steers a massive shell between radii that
realize the small dilations delta_t_n = n*delta_t/N which `twostate.timemachine`
superposes.  These helpers turn the shell's mass, rest radius and duration
into those lags and back; no scenario reads them, so they live beside the
tests in `test_timemachine.py` that check them.
"""

from __future__ import annotations

import math

import numpy as np

from twostate.errors import ValidationError
from twostate.linalg import require_integer, require_positive
from twostate.timemachine import _require_nonnegative

GRAVITATIONAL_CONSTANT = 6.67430e-11  # m^3 kg^-1 s^-2
LIGHT_SPEED = 299792458.0  # m / s


def _one_minus_sqrt_one_minus(x: float) -> float:
    # 1 - sqrt(1-x) without cancellation for tiny x
    return x / (1.0 + math.sqrt(1.0 - x))


def _schwarzschild_radius(mass: float, *radii: float) -> float:
    """2GM/c^2 of a finite, nonnegative mass; each of `radii` must be finite and exceed it."""
    _require_nonnegative(mass, "mass")
    rs = 2.0 * GRAVITATIONAL_CONSTANT * mass / LIGHT_SPEED**2
    for r in radii:
        if not (math.isfinite(r) and r > rs):
            raise ValidationError(f"radius {r} must be finite and exceed the Schwarzschild radius {rs}")
    return rs


def sr_dilation(velocity: float, duration: float) -> float:
    """Time lag T*(1 - sqrt(1 - V^2/c^2)) accumulated by a moving system."""
    _require_nonnegative(duration, "duration")
    if not 0 <= velocity < LIGHT_SPEED:
        raise ValidationError("velocity must satisfy 0 <= V < c")
    return duration * _one_minus_sqrt_one_minus((velocity / LIGHT_SPEED) ** 2)


def gr_dilation(mass: float, radius: float, duration: float) -> float:
    """Time lag inside a massive shell, T*(1 - sqrt(1 - 2GM/(c^2 R)))."""
    _require_nonnegative(duration, "duration")
    return duration * _one_minus_sqrt_one_minus(_schwarzschild_radius(mass, radius) / radius)


def shell_pair_dilation(mass: float, r_rest: float, radius: float, duration: float) -> float:
    """Extra lag of a shell at `radius` relative to the rest radius r_rest.

    Evaluated as T*(rs/R - rs/R0) / (sqrt(1-rs/R0) + sqrt(1-rs/R)) so the
    near-cancelling square roots never meet head on.
    """
    _require_nonnegative(duration, "duration")
    rs = _schwarzschild_radius(mass, r_rest, radius)
    a = math.sqrt(1.0 - rs / r_rest)
    b = math.sqrt(1.0 - rs / radius)
    return duration * (rs / radius - rs / r_rest) / (a + b)


def radius_schedule(n_terms: int, delta_t: float, shell_mass: float, r0: float, external_t: float = 1.0) -> np.ndarray:
    """Shell radii R_n realizing delta_t_n = n*delta_t/N over the external duration.

    Inverts the shell dilation relative to the rest radius R0 exactly: the
    rest radius's own lag 1 - sqrt(1 - rs/R0) is kept however small it is,
    so shell_pair_dilation(M, R0, R_n, T) returns delta_t_n.
    """
    require_integer(n_terms, "n_terms", 1)
    _require_nonnegative(delta_t, "maximal elementary shift delta_t")
    require_positive(external_t, "external duration")
    rs = _schwarzschild_radius(shell_mass, r0)
    if rs == 0.0:
        raise ValidationError("a massive shell is required for a radius schedule")
    base = math.sqrt(1.0 - rs / r0)
    rest_gap = _one_minus_sqrt_one_minus(rs / r0)  # 1 - base, stably
    radii = []
    for n in range(n_terms + 1):
        target = n * delta_t / n_terms
        if target >= external_t * base:
            raise ValidationError(f"target lag {target} is not achievable within duration {external_t}")
        if target == 0.0:
            radii.append(r0)
            continue
        one_minus_root = rest_gap + target / external_t
        one_minus_root_sq = one_minus_root * (2.0 - one_minus_root)  # 1 - root**2
        radii.append(rs / one_minus_root_sq)
    return np.array(radii)
