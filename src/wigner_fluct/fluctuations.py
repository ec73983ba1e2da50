"""Normalization of sampled eigenvalues into fluctuation coordinates and the
predicted limiting covariance of several jointly-normalized eigenvalues.

Index conventions (all 1-based, matching x_1 < x_2 < ... < x_n):

  bulk: indices are the k_i themselves, ascending, with gap exponents
        theta_i tied to k_{i+1} - k_i ~ n^theta_i.
  edge: indices are offsets k_i from the top, ascending, so coordinate i
        normalizes eigenvalue number n - k_i; gaps carry exponents theta_i
        and the leading offset grows like n^gamma.

For finite n the exponents are defined as theta_i = log(k_{i+1} - k_i) / log n
(the asymptotic ~ relation has no finite-n content); they may also be
declared explicitly.
"""

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import DomainError, ShapeError
from .semicircle import bulk_center_scale, edge_center_scale
from .spectra import SpectrumSample


@dataclass(frozen=True)
class IndexSpec:
    """Which eigenvalues to normalize jointly, and the declared growth
    exponents that drive the predicted covariance."""

    regime: str  # "bulk" or "edge"
    indices: tuple
    thetas: tuple = ()
    gamma: float = 0.0  # edge only

    def __post_init__(self):
        if self.regime not in ("bulk", "edge"):
            raise DomainError(f"regime must be 'bulk' or 'edge', got {self.regime!r}")
        idx = tuple(int(k) for k in self.indices)
        object.__setattr__(self, "indices", idx)
        if len(idx) < 1:
            raise ShapeError("at least one eigenvalue index required")
        if any(b <= a for a, b in zip(idx, idx[1:])):
            raise ShapeError(f"indices must be strictly increasing, got {idx}")
        th = tuple(float(t) for t in self.thetas)
        object.__setattr__(self, "thetas", th)
        if th and len(th) != len(idx) - 1:
            raise ShapeError(
                f"{len(idx)} indices need {len(idx) - 1} gap exponents, got {len(th)}"
            )
        if self.regime == "bulk":
            if any(not 0.0 < t <= 1.0 for t in th):
                raise DomainError(f"bulk gap exponents must lie in (0, 1], got {th}")
        else:
            if not 0.0 < self.gamma < 1.0:
                raise DomainError(f"edge regime needs gamma in (0, 1), got {self.gamma}")
            if any(not 0.0 < t < self.gamma for t in th):
                raise DomainError(
                    f"edge gap exponents must lie in (0, gamma={self.gamma}), got {th}"
                )

    @property
    def m(self):
        return len(self.indices)


def thetas_from_indices(indices, n):
    """Finite-n gap exponents theta_i = log(k_{i+1} - k_i) / log n."""
    idx = tuple(indices)
    if any(b <= a for a, b in zip(idx, idx[1:])):
        raise ShapeError(f"indices must be strictly increasing, got {idx}")
    if n < 2:
        raise DomainError("need n >= 2 to define gap exponents")
    return tuple(log(b - a) / log(n) for a, b in zip(idx, idx[1:]))


def bulk_index_spec(indices, n):
    """IndexSpec for bulk indices with exponents inferred from the gaps."""
    idx = tuple(indices)
    thetas = thetas_from_indices(idx, n) if len(idx) > 1 else ()
    thetas = tuple(min(t, 1.0) for t in thetas)
    return IndexSpec(regime="bulk", indices=idx, thetas=thetas)


def edge_index_spec(indices, n):
    """IndexSpec for edge offsets with gamma and exponents inferred."""
    idx = tuple(indices)
    gamma = log(idx[0]) / log(n)
    thetas = thetas_from_indices(idx, n) if len(idx) > 1 else ()
    return IndexSpec(regime="edge", indices=idx, thetas=thetas, gamma=gamma)


@dataclass(frozen=True)
class FluctuationVector:
    """Normalized coordinates of one trial."""

    x: np.ndarray
    trial: int = 0

    def __post_init__(self):
        arr = np.asarray(self.x, dtype=float)
        object.__setattr__(self, "x", arr)
        if not np.all(np.isfinite(arr)):
            raise DomainError("fluctuation coordinates must be finite")


def coordinates(spec: IndexSpec, n, beta):
    """(positions, centers, scales): for each coordinate, the 0-based
    position it reads in an ascending spectrum of size n (k - 1 in the bulk,
    n - k - 1 at the edge) and the center and scale it is normalized by
    (bulk_center_scale or edge_center_scale).  The one place that maps
    indices to eigenvalues; normalize() and stats.run_mc both read it."""
    bulk = spec.regime == "bulk"
    center_scale = bulk_center_scale if bulk else edge_center_scale
    top = n if bulk else n - 1
    positions, centers, scales = [], [], []
    for k in spec.indices:
        if not 1 <= k <= top:
            what = "eigenvalue index" if bulk else "edge offset"
            raise ShapeError(f"{what} {k} out of range 1..{top}")
        cs = center_scale(k, n, beta)
        positions.append(k - 1 if bulk else n - k - 1)
        centers.append(cs.center)
        scales.append(cs.scale)
    return positions, np.array(centers), np.array(scales)


def normalize(spectrum, spec: IndexSpec, beta):
    """X_i = (x - center_i) / scale_i for the eigenvalue x that coordinate i
    reads, with the positions, centers and scales of coordinates()."""
    values = spectrum.values if isinstance(spectrum, SpectrumSample) else np.asarray(spectrum)
    trial = spectrum.trial if isinstance(spectrum, SpectrumSample) else 0
    positions, centers, scales = coordinates(spec, values.size, beta)
    return FluctuationVector(x=(values[positions] - centers) / scales, trial=trial)


def normalize_bulk(spectrum, spec: IndexSpec, beta):
    """normalize() for a bulk IndexSpec: X_i = (x_{k_i} - center_i) / scale_i."""
    if spec.regime != "bulk":
        raise DomainError("normalize_bulk requires a bulk IndexSpec")
    return normalize(spectrum, spec, beta)


def normalize_edge(spectrum, spec: IndexSpec, beta):
    """normalize() for an edge IndexSpec: X_i = (x_{n-k_i} - center_i) / scale_i,
    offset k_i counted from the top of the spectrum."""
    if spec.regime != "edge":
        raise DomainError("normalize_edge requires an edge IndexSpec")
    return normalize(spectrum, spec, beta)


def predicted_cov(spec: IndexSpec):
    """Limit covariance: unit diagonal and, for i < j,
    Lambda_ij = 1 - max{theta_k : i <= k < j} in the bulk and
    Lambda_ij = 1 - max{theta_k : i <= k < j} / gamma at the edge."""
    m = spec.m
    if m > 1 and not spec.thetas:
        raise ShapeError("gap exponents required for m > 1")
    divisor = 1.0 if spec.regime == "bulk" else spec.gamma
    lam = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            lam[i, j] = lam[j, i] = 1.0 - max(spec.thetas[i:j]) / divisor
    return lam


def predicted_cov_bulk(spec: IndexSpec):
    """predicted_cov() for a bulk IndexSpec."""
    if spec.regime != "bulk":
        raise DomainError("predicted_cov_bulk requires a bulk IndexSpec")
    return predicted_cov(spec)


def predicted_cov_edge(spec: IndexSpec):
    """predicted_cov() for an edge IndexSpec."""
    if spec.regime != "edge":
        raise DomainError("predicted_cov_edge requires an edge IndexSpec")
    return predicted_cov(spec)
