"""Exception types shared across the package, and its seven argument rules.

Argument validation failures raise ValueError subclasses so callers can
catch them uniformly; runtime numerical breakdowns raise RuntimeError
subclasses and carry enough context to reproduce the failing case.  Each
argument domain has one rule, which raises one class:

- integer: sizes, counts, indices; fractions refused, not truncated; ``least`` and ``most``
  are the one integer bounds ("{name} must be <= {most}, got ..."); InvalidSizeError
- uint64: seeds, integers in [0, 2**64); InvalidSizeError
- one_of: an option such as beta; UnsupportedError
- finite: no NaN or inf; InvalidDataError
- extended_real: no NaN, +-inf allowed (points such as a shift); InvalidDataError
- strictly_increasing: spectra and intervals; ShapeError
- rank: "{name} must be a scalar" or "one-dimensional" ..., ", got shape ..."; ShapeError

No other module raises InvalidSizeError.  The array rules refuse data that is
not real (_real) or NaN as InvalidDataError, always.
"""

import operator

import numpy as np


class InvalidSizeError(ValueError):
    """A size, order, trial count, seed or index that is not an integer or is out of range."""


class ShapeError(ValueError):
    """Input arrays have inconsistent or unexpected shapes/symmetry."""


class InvalidDataError(ValueError):
    """Input is not real (e.g. complex), or not finite where finite data is required."""


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


def integer(value, name, least=None, most=None):
    """value as an int (numpy integers included), in [least, most] where given."""
    try:
        value = operator.index(value)
    except TypeError:
        raise InvalidSizeError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise InvalidSizeError(f"{name} must be >= {least}, got {value}")
    if most is not None and value > most:
        raise InvalidSizeError(f"{name} must be <= {most}, got {value}")
    return value


def uint64(value, name):
    """value as an int, if it is an integer in [0, 2**64) (a seed)."""
    value = integer(value, name, least=0)
    if value >> 64:
        raise InvalidSizeError(f"{name} must be < 2**64, got {value}")
    return value


def one_of(value, name, choices):
    """value, if it is one of choices."""
    if value not in choices:
        raise UnsupportedError(
            f"{name} must be one of {{{','.join(map(str, choices))}}}, got {value}"
        )
    return value


def _real(values, name):
    """values as a float array, if their dtype is bool, int or float: any other
    (complex, whose cast drops the imaginary part) raises InvalidDataError."""
    values = np.asarray(values)
    if values.dtype.kind not in "biuf":
        raise InvalidDataError(f"{name} must be real, got dtype {values.dtype}")
    return values.astype(float, copy=False)


def finite(values, name):
    """values as a real float array, if every entry is finite."""
    values = _real(values, name)
    if not np.isfinite(values).all():
        raise InvalidDataError(f"{name} must be finite")
    return values


def extended_real(values, name):
    """values as a real float array, if no entry is NaN (+-inf allowed)."""
    values = _real(values, name)
    if np.isnan(values).any():
        raise InvalidDataError(f"{name} must not be NaN")
    return values


def rank(values, name, *ndims):
    """values, an array as the rules above return it, if its rank is one of ndims."""
    if values.ndim not in ndims:
        wanted = {(0,): "a scalar", (0, 1): "a scalar or one-dimensional", (1,): "one-dimensional",
                  (1, 2): "one- or two-dimensional", (2,): "two-dimensional"}[ndims]
        raise ShapeError(f"{name} must be {wanted}, got shape {values.shape}")
    return values


def strictly_increasing(values, name):
    """values as a real float array, if one-dimensional, strictly increasing and not NaN."""
    values = rank(_real(values, name), name, 1)
    if values.size == 1 or not (values[1:] > values[:-1]).all():  # NaN fails the order
        if extended_real(values, name).size > 1:
            raise ShapeError(f"{name} must be strictly increasing")
    return values
