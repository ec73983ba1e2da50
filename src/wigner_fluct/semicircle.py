"""Semicircle distribution and the centering/scaling constants for bulk and
edge eigenvalue fluctuations.

Everything here is a deterministic pure function.  The unit-scale semicircle
CDF and its inverse operate on [-1, 1]; matrices sampled at size n have
spectra living on roughly [-sqrt(2n), sqrt(2n)], so centers are reported in
those units.
"""

from dataclasses import dataclass
from math import asin, log, pi, sqrt
import os
import sys
import warnings

from .errors import DomainError, InvalidSizeError

# Quantile ratios closer than this to 0 or 1 put the center in the singular
# scaling region t -> +-1 and are rejected.
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


def semicircle_density(x, sigma=1.0):
    """Density (1/(2 pi sigma^2)) sqrt(4 sigma^2 - x^2) on [-2 sigma, 2 sigma]."""
    if sigma <= 0:
        raise DomainError(f"sigma must be positive, got {sigma}")
    if abs(x) > 2.0 * sigma:
        return 0.0
    return sqrt(4.0 * sigma * sigma - x * x) / (2.0 * pi * sigma * sigma)


def semicircle_cdf(t):
    """CDF of the unit semicircle law: (2/pi) * integral of sqrt(1-x^2) from -1 to t.

    Evaluated in closed form as (t sqrt(1-t^2) + arcsin t)/pi + 1/2.
    """
    if t < -1.0 or t > 1.0:
        raise DomainError(f"semicircle_cdf defined on [-1, 1], got {t}")
    if t <= -1.0:
        return 0.0
    if t >= 1.0:
        return 1.0
    return (t * sqrt(1.0 - t * t) + asin(t)) / pi + 0.5


def semicircle_quantile(q):
    """Inverse of semicircle_cdf, solved to |cdf(t) - q| <= 1e-13.

    Bracketed Newton iteration with bisection fallback; the bracket can never
    escape [-1, 1] and the derivative (the density) is positive inside it.
    """
    if q < 0.0 or q > 1.0:
        raise DomainError(f"quantile argument must lie in [0, 1], got {q}")
    if q == 0.0:
        return -1.0
    if q == 1.0:
        return 1.0

    lo, hi = -1.0, 1.0
    t = 2.0 * q - 1.0  # crude but correctly ordered starting point
    for _ in range(200):
        f = semicircle_cdf(t) - q
        if abs(f) <= 1e-13:
            return t
        if f > 0.0:
            hi = t
        else:
            lo = t
        dens = (2.0 / pi) * sqrt(max(1.0 - t * t, 0.0))
        if dens > 0.0:
            step = t - f / dens
        else:
            step = t
        if lo < step < hi:
            t = step
        else:
            t = 0.5 * (lo + hi)
    return t


@dataclass(frozen=True)
class CenterScale:
    """Affine normalization for one eigenvalue: X = (x - center) / scale."""

    center: float
    scale: float
    regime: str  # "bulk" or "edge"
    beta: int
    k: int
    n: int
    small_k_warning: bool = False

    def __post_init__(self):
        if self.scale <= 0.0:
            raise DomainError(f"scale must be positive, got {self.scale}")


def bulk_center_scale(k, n, beta):
    """Center t*sqrt(2n) with t the k/n semicircle quantile, and scale
    sqrt(log n / (2 beta (1-t^2) n)), for eigenvalue number k (1-based).
    """
    _check_beta(beta)
    if n < 1:
        raise InvalidSizeError(f"n must be >= 1, got {n}")
    ratio = k / n
    if not (_BULK_GUARD <= ratio <= 1.0 - _BULK_GUARD):
        raise DomainError(
            f"k/n = {ratio} too close to the spectral edge for the bulk scaling"
        )
    t = semicircle_quantile(ratio)
    if 1.0 - t * t <= 1e-12:
        raise DomainError(f"bulk quantile t = {t} is singular")
    center = t * sqrt(2.0 * n)
    scale = sqrt(log(n) / (2.0 * beta * (1.0 - t * t) * n))
    return CenterScale(center=center, scale=scale, regime="bulk", beta=beta, k=k, n=n)


def edge_center_scale(k, n, beta):
    """Normalization for eigenvalue number n-k near the upper spectral edge.

    center = sqrt(2n) (1 - (3 pi k / (4 sqrt(2) n))^(2/3))
    scale  = ((1/(12 pi))^(2/3) * 2 log k / (beta n^(1/3) k^(2/3)))^(1/2)

    k counts inward from the edge and must satisfy 2 <= k < n (k = 1 makes
    the scale collapse to zero).  k < 10 is far outside the intended
    k -> infinity regime, so the result carries a warning flag.
    """
    _check_beta(beta)
    if n < 1:
        raise InvalidSizeError(f"n must be >= 1, got {n}")
    if not 1 <= k < n:
        raise DomainError(f"edge index k must satisfy 1 <= k < n, got k={k}, n={n}")
    if k == 1:
        raise DomainError("edge scaling degenerates at k = 1 (log k = 0)")
    small = k < _EDGE_SMALL_K
    if small:
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
    return CenterScale(
        center=center,
        scale=scale,
        regime="edge",
        beta=beta,
        k=k,
        n=n,
        small_k_warning=small,
    )


def _check_beta(beta):
    if beta not in (1, 2, 4):
        raise DomainError(f"beta must be 1, 2 or 4, got {beta}")
