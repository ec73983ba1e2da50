"""Exception types shared across the package, and its two argument rules.

Argument validation failures (bad sizes, inverted intervals, out-of-domain
points) raise ValueError subclasses so callers can catch them uniformly;
runtime numerical breakdowns raise RuntimeError subclasses and carry enough
context to reproduce the failing case.  The integer rule, ``integer``: every
size, order, trial count, seed and eigenvalue index is an integer (numpy
integers included), and a fractional one raises InvalidSizeError instead of
being truncated; ``least`` is the package's one integer lower-bound check (also
InvalidSizeError).  The ascending rule, ``strictly_increasing``: a spectrum
or an index list is one-dimensional and strictly increasing, else ShapeError.
"""

import operator

import numpy as np


class InvalidSizeError(ValueError):
    """A size, order, trial count, seed or index that is not an integer or is out of range."""


class ShapeError(ValueError):
    """Input arrays have inconsistent or unexpected shapes/symmetry."""


class InvalidDataError(ValueError):
    """Input contains NaN or infinite entries where finite data is required."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of the function."""


class DegenerateInputError(ValueError):
    """Input is a measure-zero degenerate configuration (e.g. exact ties)."""


class UnsupportedError(ValueError):
    """Requested option is outside the supported set (e.g. beta not in {1,2,4})."""


class NumericalRangeError(ArithmeticError):
    """A value cannot be represented without overflow in double precision."""


class NumericalFailureError(RuntimeError):
    """An iterative numerical procedure failed to converge.

    The ``context`` dict carries diagnostics (seed, size, tolerances) so the
    failing configuration can be replayed.
    """

    def __init__(self, message, **context):
        super().__init__(message)
        self.context = dict(context)


class DiscretizationFailureError(NumericalFailureError):
    """A discretized operator violated a structural bound (raise the order)."""


def integer(value, name, least=None):
    """value as an int (numpy integers included), >= least if given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidSizeError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidSizeError(f"{name} must be >= {least}, got {value}")
    return value


def strictly_increasing(values, name):
    """values as a float array, if one-dimensional and strictly increasing."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise ShapeError(f"{name} must be one-dimensional, got shape {values.shape}")
    if not (values[1:] > values[:-1]).all():
        raise ShapeError(f"{name} must be strictly increasing")
    return values
