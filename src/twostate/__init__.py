"""Numerical toolkit for pre- and post-selected quantum systems.

Conditional probabilities for intermediate ideal measurements, weak values
and their pointer-level von Neumann dynamics, superposed time evolutions
with binomial amplification, and protective measurements, plus a scenario
registry and CLI packaging the canonical worked examples.
"""

from .errors import (
    DimensionMismatch,
    GridOverflow,
    OverlapTooSmall,
    PostSelectionImpossible,
    ResourceLimit,
    TwoStateError,
    ValidationError,
)
from .ideal import (
    OutcomeDistribution,
    abl,
    abl_degenerate_post,
    born,
    born_backward,
    certain_outcome,
    counterfactual_decomposition_check,
    product_rule_report,
)
from .linalg import (
    DenseOperator,
    Grid1D,
    SpectralDecomposition,
    WaveFunction1D,
    fourier_pair,
    gaussian_wavefunction,
    hermitian_eigendecomposition,
    identity,
    pauli,
    projector_onto,
    spin_direction,
    spin_up,
    tensor_product,
)
from .pointer import (
    GaussianPointer,
    PointerResult,
    ensemble_mean_estimator,
    joint_state_after_impulse,
    momentum_shift_imaginary_part,
    moment_expansion_residual,
    n_spin_pointer_closed_form,
    pointer_distribution_postselected,
    pointer_distribution_preselected,
)
from .protective import (
    AdiabaticSchedule,
    LargeSpin,
    adiabatic_protective_measurement,
    model_spin_protection,
    protected_two_state_measurement,
    weak_value_substituted_hamiltonian,
)
from .states import (
    CoStateVector,
    GeneralizedTwoStateVector,
    StateVector,
    TwoStateVector,
    interchange,
)
from .timemachine import (
    TimeMachineConfig,
    amplified_shift,
    binomial_schedule,
    gaussian_shift_distortion,
    gr_dilation,
    radius_schedule,
    run_machine,
    sr_dilation,
    success_scaling_probe,
)
from .weak import (
    WeakValue,
    WeakVector,
    certainty_cone,
    theorem_i_check,
    theorem_ii_check,
    weak_value,
    weak_value_degenerate_post,
    weak_vector,
)

__version__ = "0.1.0"
