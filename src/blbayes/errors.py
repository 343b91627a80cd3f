"""Exception hierarchy shared across the package.

Every failure mode has a dedicated class. Those an input causes derive from
:class:`InputError`, for which the CLI exits 2; it exits 3 for every other
:class:`BlBayesError`, a numerical or chain breakdown.
"""


class BlBayesError(Exception):
    """Base class for all package errors."""


class InputError(BlBayesError):
    """An input file that cannot be read, or an input that fails validation."""


class ValidationError(InputError):
    """A config or input field failed validation.

    ``path`` names the offending field ("views.omega[1]", "data.m", ...).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DimensionError(InputError):
    """Array shapes are inconsistent with the requested operation."""


class NotPositiveDefiniteError(BlBayesError):
    """A matrix required to be symmetric positive definite is not."""


class DegreesOfFreedomError(BlBayesError):
    """Inverse-Wishart degrees of freedom too small for the dimension."""


class ParameterError(BlBayesError):
    """A scalar distribution parameter is out of range."""


class RankError(InputError):
    """A view matrix is row-rank deficient."""


class AugmentationError(BlBayesError):
    """Augmenting a view matrix failed to produce an invertible square matrix."""


class InsufficientDataError(InputError):
    """Not enough rows/observations for the requested computation."""


class FormatError(InputError):
    """A price file that cannot be read or is malformed."""


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


class ModelSizeError(InputError):
    """The model dimension violates a structural constraint."""
