"""Semicircle distribution and the centering/scaling constants for bulk and
edge eigenvalue fluctuations.

Everything here is a deterministic pure function.  The unit semicircle
density, CDF and its inverse operate on [-1, 1]; matrices sampled at size n
have spectra living on roughly [-sqrt(2n), sqrt(2n)], so centers are
reported in those units.

The quantile is Kepler's equation: with t = sin(phi/2) the CDF is
(phi + sin phi)/(2 pi) + 1/2, so t is read off the root of
phi + sin phi = pi |2q - 1| on [0, pi].  The left side is increasing and
concave there, so Newton's method from phi = 0 rises monotonically to the
root and never passes it; no bracket or bisection fallback is needed, and
a loop that still fails to converge raises NumericalFailureError.
"""

from dataclasses import dataclass
from math import asin, copysign, cos, log, pi, sin, sqrt
import os
import sys
import warnings

from .ensembles import BETAS
from .errors import DomainError, NumericalFailureError, finite, integer, one_of, rank

# Quantile ratios closer than this to 0 or 1 put the center in the singular
# scaling region t -> +-1 and are rejected; inside it 1 - t^2 >= 2.8e-4.
_BULK_GUARD = 1e-6

_EDGE_SMALL_K = 10

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


def _warn_outside_package(message):
    """warnings.warn attributed to the first calling frame outside the
    package (the skip_file_prefixes of Python 3.12, by hand)."""
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, stacklevel=level)


def semicircle_density(x):
    """Density (2/pi) sqrt(1 - x^2) of the unit semicircle law on [-1, 1]."""
    x = float(rank(finite(x, "x"), "x", 0))
    if abs(x) > 1.0:
        return 0.0
    return sqrt(1.0 - x * x) / (0.5 * pi)


def semicircle_cdf(t):
    """CDF of the unit semicircle law: (2/pi) * integral of sqrt(1-x^2) from -1 to t.

    Evaluated in closed form as (t sqrt(1-t^2) + arcsin t)/pi + 1/2.
    """
    t = float(rank(finite(t, "t"), "t", 0))
    if not -1.0 <= t <= 1.0:
        raise DomainError(f"semicircle_cdf defined on [-1, 1], got {t}")
    return (t * sqrt(1.0 - t * t) + asin(t)) / pi + 0.5


def semicircle_quantile(q):
    """Inverse of semicircle_cdf, solved to |cdf(t) - q| <= 1e-13.

    Newton's method on Kepler's equation phi + sin phi = pi |2q - 1| (see
    the module docstring), then t = sin(phi/2) with the sign of 2q - 1; a
    concave increasing function puts every Newton step between the iterate
    and the root.
    """
    q = float(rank(finite(q, "q"), "q", 0))
    if not 0.0 <= q <= 1.0:
        raise DomainError(f"quantile argument must lie in [0, 1], got {q}")
    if q == 0.0:
        return -1.0
    if q == 1.0:
        return 1.0

    target = pi * abs(2.0 * q - 1.0)
    phi = 0.0
    for _ in range(100):
        f = phi + sin(phi) - target  # +-2 pi (cdf(t) - q)
        if abs(f) <= 1e-13:
            return copysign(sin(0.5 * phi), q - 0.5)
        phi -= f / (1.0 + cos(phi))
    raise NumericalFailureError("semicircle quantile did not converge", q=q, phi=phi)


@dataclass(frozen=True)
class CenterScale:
    """Affine normalization for one eigenvalue: X = (x - center) / scale."""

    center: float
    scale: float

    def __post_init__(self):
        if self.scale <= 0.0:
            raise DomainError(f"scale must be positive, got {self.scale}")


def bulk_center_scale(k, n, beta):
    """Center t*sqrt(2n) with t the k/n semicircle quantile, and scale
    sqrt(log n / (2 beta (1-t^2) n)), for eigenvalue number k, 1 <= k <= n.
    """
    k, n, beta = _check_arguments(k, n, beta, 0)
    ratio = k / n
    if not (_BULK_GUARD <= ratio <= 1.0 - _BULK_GUARD):
        raise DomainError(
            f"k/n = {ratio} too close to the spectral edge for the bulk scaling"
        )
    t = semicircle_quantile(ratio)
    center = t * sqrt(2.0 * n)
    scale = sqrt(log(n) / (2.0 * beta * (1.0 - t * t) * n))
    return CenterScale(center=center, scale=scale)


def edge_center_scale(k, n, beta):
    """Normalization for eigenvalue number n-k near the upper spectral edge.

    center = sqrt(2n) (1 - (3 pi k / (4 sqrt(2) n))^(2/3))
    scale  = ((1/(12 pi))^(2/3) * 2 log k / (beta n^(1/3) k^(2/3)))^(1/2)

    k counts inward from the edge, 1 <= k <= n - 1, and k = 1 makes the
    scale collapse to zero.  k < 10 is far outside the intended
    k -> infinity regime, so it issues a UserWarning.
    """
    k, n, beta = _check_arguments(k, n, beta, 1)
    if k == 1:
        raise DomainError("edge scaling degenerates at k = 1 (log k = 0)")
    if k < _EDGE_SMALL_K:
        _warn_outside_package(
            f"edge scaling requested at k={k} < {_EDGE_SMALL_K}; far from the "
            "large-k regime"
        )
    center = sqrt(2.0 * n) * (1.0 - (3.0 * pi * k / (4.0 * sqrt(2.0) * n)) ** (2.0 / 3.0))
    scale = sqrt(
        (1.0 / (12.0 * pi)) ** (2.0 / 3.0)
        * 2.0
        * log(k)
        / (beta * n ** (1.0 / 3.0) * k ** (2.0 / 3.0))
    )
    return CenterScale(center=center, scale=scale)


def _check_arguments(k, n, beta, gap):
    """(k, n, beta) as ints after the one argument check of both centre
    functions: beta an integer in BETAS, as EnsembleSpec takes it, n >= 1
    and 1 <= k <= n - gap (gap 0 in the bulk, 1 at the edge)."""
    beta = one_of(integer(beta, "beta"), "beta", BETAS)
    n = integer(n, "n", least=1)
    return integer(k, "k", least=1, most=n - gap), n, beta
