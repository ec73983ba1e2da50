"""Normalization of sampled eigenvalues into fluctuation coordinates and the
predicted limiting covariance of several jointly-normalized eigenvalues.

Index conventions (all 1-based, matching x_1 < x_2 < ... < x_n):

  bulk: indices are the k_i themselves, ascending, with gap exponents
        theta_i tied to k_{i+1} - k_i ~ n^theta_i.
  edge: indices are offsets k_i from the top, ascending, so coordinate i
        normalizes eigenvalue number n - k_i; gaps carry exponents theta_i
        and the leading offset grows like n^gamma.

For finite n the exponents are defined as theta_i = log(k_{i+1} - k_i) / log n
(the asymptotic ~ relation has no finite-n content); they may also be declared
explicitly (errors' finite and rank rules).  Indices pass its integer rule (>= 1) and ascend;
the centre functions bound them above, by n in the bulk and n - 1 at the edge.
"""

from dataclasses import dataclass
from math import log

import numpy as np

from .errors import DomainError, ShapeError, finite, integer, one_of, rank, strictly_increasing
from .semicircle import bulk_center_scale, edge_center_scale


@dataclass(frozen=True)
class IndexSpec:
    """Which eigenvalues to normalize jointly, and the declared growth
    exponents that drive the predicted covariance."""

    regime: str  # "bulk" or "edge"
    indices: tuple
    thetas: tuple = ()
    gamma: float = 0.0  # edge only: the bulk refuses any other value

    def __post_init__(self):
        one_of(self.regime, "regime", ("bulk", "edge"))
        idx = _checked_indices(self.indices)
        object.__setattr__(self, "indices", idx)
        th = tuple(rank(finite(self.thetas, "gap exponents"), "gap exponents", 1).tolist())
        object.__setattr__(self, "thetas", th)
        object.__setattr__(self, "gamma", float(rank(finite(self.gamma, "gamma"), "gamma", 0)))
        if th and len(th) != len(idx) - 1:
            raise ShapeError(f"{len(idx)} indices need {len(idx) - 1} gap exponents, got {len(th)}")
        if self.regime == "bulk":
            if self.gamma != 0.0:
                raise DomainError(f"bulk regime needs gamma = 0, got {self.gamma}")
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


def _checked_indices(indices):
    """indices, a nonempty vector, as an ascending tuple of ints >= 1: the one index check
    of IndexSpec and thetas_from_indices, on Python ints (numpy has none above 2**64)."""
    idx = rank(np.asarray(indices, dtype=object), "eigenvalue indices", 1).tolist()
    integer(len(idx), "number of eigenvalue indices", least=1)
    idx = tuple(integer(k, "eigenvalue index", least=1) for k in idx)
    if any(a >= b for a, b in zip(idx, idx[1:])):
        raise ShapeError("indices must be strictly increasing")
    return idx


def thetas_from_indices(indices, n):
    """Finite-n gap exponents theta_i = log(k_{i+1} - k_i) / log n."""
    idx = _checked_indices(indices)
    # exponents are relative to log n, which needs n >= 2
    n = integer(n, "n", least=2)
    return tuple(log(b - a) / log(n) for a, b in zip(idx, idx[1:]))


def bulk_index_spec(indices, n):
    """IndexSpec for bulk indices with exponents inferred from the gaps."""
    idx = _checked_indices(indices)
    thetas = thetas_from_indices(idx, n) if len(idx) > 1 else ()
    integer(idx[-1], "k", most=integer(n, "n", least=1))  # bulk_center_scale's bound
    return IndexSpec(regime="bulk", indices=idx, thetas=thetas)


def edge_index_spec(indices, n):
    """IndexSpec for edge offsets with gamma and exponents inferred."""
    idx = _checked_indices(indices)
    thetas = thetas_from_indices(idx, n)  # checks n >= 2, for gamma too
    integer(idx[-1], "k", most=n - 1)  # edge_center_scale's bound; past it gamma is >= 1
    return IndexSpec(regime="edge", indices=idx, thetas=thetas, gamma=log(idx[0]) / log(n))


def coordinates(spec: IndexSpec, n, beta):
    """(positions, centers, scales): for each coordinate, the 0-based
    position it reads in an ascending spectrum of size n (k - 1 in the bulk,
    n - k - 1 at the edge) and the center and scale it is normalized by
    (bulk_center_scale or edge_center_scale).  The one place that maps
    indices to eigenvalues; normalize() and stats.run_mc both read it."""
    bulk = spec.regime == "bulk"
    center_scale = bulk_center_scale if bulk else edge_center_scale
    positions, centers, scales = [], [], []
    for k in spec.indices:
        cs = center_scale(k, n, beta)
        positions.append(k - 1 if bulk else n - k - 1)
        centers.append(cs.center)
        scales.append(cs.scale)
    return positions, np.array(centers), np.array(scales)


def normalize(spectrum, spec: IndexSpec, beta):
    """The coordinates X_i = (x - center_i) / scale_i, as an array, for the
    eigenvalue x that coordinate i reads (x_{k_i} in the bulk, x_{n-k_i} at
    the edge), with the positions, centers and scales of coordinates().
    The spectrum (a SpectrumSample or an array) may come from outside the
    package: it must be real and finite (else InvalidDataError) and strictly
    increasing (else ShapeError), as must each coordinate (InvalidDataError)."""
    values = strictly_increasing(finite(spectrum, "spectrum"), "spectrum")
    positions, centers, scales = coordinates(spec, values.size, beta)
    return finite((values[positions] - centers) / scales, "fluctuation coordinates")


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

