"""Exception hierarchy shared across the package.

Every failure mode has a dedicated class so callers (and the CLI exit-code
mapping) can tell configuration problems apart from numerical breakdowns.
"""


class BlBayesError(Exception):
    """Base class for all package errors."""


class ValidationError(BlBayesError):
    """A config or input field failed validation.

    ``path`` names the offending field ("views.omega[1]", "data.m", ...).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DimensionError(BlBayesError):
    """Array shapes are inconsistent with the requested operation."""


class NotPositiveDefiniteError(BlBayesError):
    """A matrix required to be symmetric positive definite is not."""


class DegreesOfFreedomError(BlBayesError):
    """Inverse-Wishart degrees of freedom too small for the dimension."""


class ParameterError(BlBayesError):
    """A scalar distribution parameter is out of range."""


class RankError(BlBayesError):
    """A view matrix is row-rank deficient."""


class AugmentationError(BlBayesError):
    """Augmenting a view matrix failed to produce an invertible square matrix."""


class InsufficientDataError(BlBayesError):
    """Not enough rows/observations for the requested computation."""


class FormatError(BlBayesError):
    """Malformed input file (CSV/JSON)."""


class NumericalError(BlBayesError):
    """A linear system was too ill-conditioned, a factorization failed, or
    an output value is not finite."""


class ChainError(BlBayesError):
    """An MCMC chain produced a non-finite or invalid state."""

    def __init__(self, message: str, iteration: int | None = None):
        self.iteration = iteration
        if iteration is not None:
            message = f"{message} (iteration {iteration})"
        super().__init__(message)


class BasisError(BlBayesError):
    """An eigenvector basis is not orthonormal to tolerance."""


class ModelSizeError(BlBayesError):
    """The model dimension violates a structural constraint."""
