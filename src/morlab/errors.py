"""Exception types shared across the package. Each carries the CLI exit code for
it, and a layer that knows where a failure happened adds that with ``within``."""

import copy
from numbers import Integral


class MorlabError(Exception):
    """Base class for all package-specific errors (exit code 2: bad input). Keyword
    facts become attributes; type, message and facts survive a worker pool's pickle."""

    exit_code = 2
    iteration: int | None = None   # the (actor) iteration at which a run failed

    def __init__(self, message: str, **facts):
        super().__init__(message)
        self.__dict__.update(facts)

    def within(self, where: str, **facts) -> "MorlabError":
        """A copy of this error, its message prefixed by ``where: `` and ``facts`` added."""
        wrapped = copy.copy(self)
        wrapped.args = (f"{where}: {self}",)
        wrapped.__dict__.update(facts)
        return wrapped


class ParameterError(MorlabError, ValueError):
    """An argument is outside its documented domain (bad probability, eta, theta, ...)."""


def check_integer(name: str, value, minimum: int):
    """ParameterError naming ``name`` unless ``value`` is an int or a numpy
    integer, not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


class ModelError(MorlabError):
    """A model-level assumption fails (reducible chain, non-negative-definite TD matrix, ...)."""


class DivergenceError(MorlabError):
    """Iterates blew up (exit code 3); ``iteration`` is where it happened."""

    exit_code = 3


class ConvergenceError(MorlabError):
    """An iterative solver missed its certificate (exit code 3); carries ``residual``."""

    exit_code = 3
    residual: float | None = None


class DataError(MorlabError, ValueError):
    """Logged data violates an invariant (zero-support action, degenerate weights, ...)."""


class ConfigError(MorlabError, ValueError):
    """An experiment config file is malformed; message names section/field."""
