"""Exception types shared across the package."""


class TwoStateError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(TwoStateError, ValueError):
    """Operands act on spaces of different dimensions."""


class ValidationError(TwoStateError, ValueError):
    """A value violates a construction invariant (non-Hermitian, NaN, ...)."""


class ResourceLimit(TwoStateError, RuntimeError):
    """A tensor construction would exceed the configured dimension cap."""


class PostSelectionImpossible(TwoStateError, ValueError):
    """The conditional probability formula has an identically zero (or an overflowed) denominator."""


class OverlapTooSmall(TwoStateError, ValueError):
    """A ratio formula would divide by a (near-)vanishing overlap.

    Weak values genuinely diverge for near-orthogonal selections, so this is
    raised explicitly instead of letting infinities propagate.
    """


class GridOverflow(TwoStateError, ValueError):
    """A shift or eigenvalue range does not fit on the sampling grid."""
