"""Exception types shared across the package. Each carries the CLI exit code for
it, and a layer that knows where a failure happened adds that with ``within``."""

import copy

import numpy as np


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
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


_ENDS = {"(0": "positive", "[0": "non-negative", "inf)": "finite", "inf]": ""}


def check_float(name: str, value, low: float, high: float, ends: str = "()"):
    """ParameterError naming ``name``, the interval and ``value`` unless ``value`` is a
    real number (an int, a float or a numpy scalar, not a bool) from ``low`` to ``high``,
    each end closed where ``ends`` ("()", "[)", "(]" or "[]") has a bracket. NaN fails."""
    if not (isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool)
            and (low <= value if ends[0] == "[" else low < value)
            and (value <= high if ends[1] == "]" else value < high)):
        words = (_ENDS.get(f"{ends[0]}{low:g}", f"{'at least' if ends[0] == '[' else 'above'} {low:g}"),
                 _ENDS.get(f"{high:g}{ends[1]}", f"{'at most' if ends[1] == ']' else 'below'} {high:g}"))
        raise ParameterError(f"{name} must be {' and '.join(filter(None, words))}, "
                             f"got {type(value).__name__} {value!r}")


def check_types(*checks):
    """ParameterError for the first (name, value, type) of ``checks`` whose value is not one."""
    for name, value, kind in checks:
        if not isinstance(value, kind):
            raise ParameterError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def check_array(name: str, value, shape: tuple, integer: bool = False,
                error: type = ParameterError) -> np.ndarray:
    """``value`` as an int64 array of indices if ``integer``, else as a finite
    float array, of ``shape``, in which None matches any length; ``error``
    (ParameterError by default) naming ``name`` otherwise.

    Nothing is coerced: a string, bool or object array, a ragged list, and
    floats where indices are expected all raise. Integers are numbers, so an
    integer array passes as floats. A float64 or int64 array comes back as
    itself, not a copy.
    """
    try:
        array = np.asarray(value)
    except ValueError:   # a ragged list
        raise error(f"{name} must be an array, got a ragged {type(value).__name__}") from None
    if array.dtype.kind not in ("iu" if integer else "iuf"):
        raise error(f"{name} must hold {'integers' if integer else 'numbers'}, "
                    f"got dtype {array.dtype}")
    if array.shape != shape:   # a shape with None in it: compare axis by axis
        mismatch = array.ndim != len(shape)
        for n, k in zip(shape, array.shape):   # a loop: twice as fast as any() here
            mismatch = mismatch or n is not None and n != k
        if mismatch:
            dims = ", ".join("*" if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
            raise error(f"{name} must have shape ({dims}), got {array.shape}")
    if integer:
        return array.astype(np.int64, copy=False)
    array = array.astype(float, copy=False)
    if np.count_nonzero(np.isfinite(array)) != array.size:   # half the time of .all()
        raise error(f"{name} must be finite")
    return array


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
