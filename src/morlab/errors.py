"""Exception types shared across the package."""


class MorlabError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(MorlabError, ValueError):
    """An argument is outside its documented domain (bad probability, eta, theta, ...)."""


class ModelError(MorlabError):
    """A model-level assumption fails (reducible chain, non-negative-definite TD matrix, ...)."""


class DivergenceError(MorlabError):
    """Iterates blew up; carries the iteration index at which it happened."""

    def __init__(self, message: str, iteration: int | None = None):
        super().__init__(message)
        self.iteration = iteration


class ConvergenceError(MorlabError):
    """An iterative solver hit its cap without meeting its certificate."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class DataError(MorlabError, ValueError):
    """Logged data violates an invariant (zero-support action, degenerate weights, ...)."""


class ConfigError(MorlabError, ValueError):
    """An experiment config file is malformed; message names section/field."""
