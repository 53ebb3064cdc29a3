"""Two views of the impulsive pointer that no scenario reads: the joint state and the momentum shift.

`joint_state_after_impulse` assembles the system-pointer state before any
post-selection, and `momentum_shift_imaginary_part` reads the mean momentum
of a post-selected pointer.  The tests in `test_pointer.py` check both
against the closed forms of `twostate.pointer`.
"""

from __future__ import annotations

import warnings

import numpy as np

from twostate.linalg import DenseOperator, hermitian_eigendecomposition
from twostate.pointer import GaussianPointer, _gaussian_sum, pointer_distribution_postselected
from twostate.states import GeneralizedTwoStateVector, StateVector


def joint_state_after_impulse(pre: StateVector, obs: DenseOperator, pointer: GaussianPointer) -> np.ndarray:
    """sum_n (P_n psi) x psi_in(Q - c_n), exact via the spectral shift: row i is basis state i on `pointer.grid`."""
    decomp = hermitian_eigendecomposition(obs)
    pointer.check_covers(decomp.eigenvalues)
    pointer.check_resolves()
    norm = (np.pi * pointer.delta**2) ** -0.25
    branches = decomp.branches(pre.amplitudes) * norm
    return _gaussian_sum(pointer.grid.values, branches, decomp.eigenvalues, 2 * pointer.delta**2)


def momentum_shift_imaginary_part(tsv: GeneralizedTwoStateVector, obs: DenseOperator, pointer: GaussianPointer) -> float:
    """Mean momentum of the post-selected pointer.

    In the weak regime this equals Im(C_w) / D**2: the momentum-space
    Gaussian exp(-D**2 P**2 / 2) picks up exp(Im(C_w) * P) from the complex
    shift, which recenters its density at Im(C_w)/D**2.
    """
    result = pointer_distribution_postselected(tsv, obs, pointer)
    if result.regime != "weak":
        warnings.warn("pointer width is outside the weak regime; momentum shift is not Im(C_w)/D^2")
    p = result.p_grid.values
    return float(np.sum(p * result.p_density) * result.p_grid.spacing)
