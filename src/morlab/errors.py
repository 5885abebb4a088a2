"""Exception types shared across the package. Each carries the CLI exit code for
it, and a layer that knows where a failure happened adds that with ``within``."""

import copy
import math
import sys

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
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {_shown(value)}")


def _shown(value) -> str:
    """The type and repr of ``value``, but the digit count of an int beyond the
    largest float: Python refuses the repr of one of more than 4,300 digits."""
    if isinstance(value, int) and abs(value) > sys.float_info.max:
        n = abs(value)
        digits = int(math.log10(n)) + 1   # the count, or one off next to a power of 10
        digits += (10 ** digits <= n) - (10 ** (digits - 1) > n)
        sign = "negative " if value < 0 else ""
        return f"{sign}int of {digits} digits"
    return f"{type(value).__name__} {value!r}"


_ENDS = {"(0": "positive", "[0": "non-negative", "inf)": "finite", "inf]": ""}


def check_float(name: str, value, low: float, high: float, ends: str = "()"):
    """ParameterError naming ``name``, the interval and ``value`` unless ``value`` is a
    real number (an int, a float or a numpy scalar, not a bool) from ``low`` to ``high``,
    each end closed where ``ends`` ("()", "[)", "(]" or "[]") has a bracket. NaN fails,
    and so does an int beyond the largest float, which no float can hold."""
    if not (isinstance(value, (float, int, np.floating, np.integer)) and not isinstance(value, bool)
            and (not isinstance(value, int) or abs(value) <= sys.float_info.max)
            and _inside(value, value, low, high, ends)):
        words = (_ENDS.get(f"{ends[0]}{low:g}", f"{'at least' if ends[0] == '[' else 'above'} {low:g}"),
                 _ENDS.get(f"{high:g}{ends[1]}", f"{'at most' if ends[1] == ']' else 'below'} {high:g}"))
        raise ParameterError(f"{name} must be {' and '.join(filter(None, words))}, got {_shown(value)}")


def _inside(lo, hi, low: float, high: float, ends: str) -> bool:
    """Whether ``lo`` and ``hi`` lie from ``low`` to ``high``, each end closed where ``ends`` has a bracket."""
    return (low <= lo if ends[0] == "[" else low < lo) and (hi <= high if ends[1] == "]" else hi < high)


def check_types(*checks):
    """ParameterError for the first (name, value, type) of ``checks`` whose value is not one."""
    for name, value, kind in checks:
        if not isinstance(value, kind):
            raise ParameterError(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def check_array(name: str, value, shape: tuple, integer: bool = False,
                error: type = ParameterError, within: tuple | None = None) -> np.ndarray:
    """``value`` as an int64 array of indices if ``integer``, else as a finite
    float array, of ``shape``, in which None matches any length, and inside
    ``within``, a (low, high, ends) read as ``check_float`` reads it, if given;
    ``error`` (ParameterError by default) naming ``name`` otherwise.

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
    array = array.astype(np.int64 if integer else float, copy=False)
    if not integer and np.count_nonzero(np.isfinite(array)) != array.size:   # half the time of .all()
        raise error(f"{name} must be finite")
    if within and array.size:   # an empty array, a 0-step draw say, has no min()
        low, high, ends = within
        lo, hi = array.min(), array.max()
        if not _inside(lo, hi, low, high, ends):
            raise error(f"{name} must lie in {ends[0]}{low:g}, {high:g}{ends[1]}, got {lo} to {hi}")
    return array


_ROW_SUM_TOL = 1e-12   # how far the sum of a row of probabilities may be from 1


def check_distribution(name: str, value, shape: tuple) -> np.ndarray:
    """``check_array`` of a probability table: entries in [0, 1], each row along
    the last axis summing to 1 within 1e-12."""
    array = check_array(name, value, shape, within=(0, 1, "[]"))
    off = np.abs(array.sum(axis=-1) - 1.0).max()
    if off > _ROW_SUM_TOL:
        raise ParameterError(f"each row of {name} must sum to 1 within 1e-12, got one off by {off:.2g}")
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
