"""Periodic 1D grid functions: storage, initial profiles, norms and moments.

A Field1D holds N samples u_j at x_j = x0 + j*dx on a periodic grid.
The first sample (index 0) is the seam sample that asymmetric sweeps
treat specially; a modified norm corrects for it with the weight the
sweep's PairUpdate.boundary_weight gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFieldError, ParameterError, SizeError


@dataclass
class Field1D:
    """Grid function u_j on a uniform periodic 1D grid.

    values are stored 0-based; sample 0 sits at x0 and sample N wraps
    back onto sample 0.
    """

    values: np.ndarray
    dx: float
    x0: float = 0.0

    def __post_init__(self):
        self.values = np.array(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 3:
            raise SizeError("a field needs at least 3 samples")
        if not (math.isfinite(self.dx) and self.dx > 0):
            raise ParameterError(f"dx must be positive and finite, got {self.dx}")
        if not math.isfinite(self.x0):
            raise ParameterError("x0 must be finite")
        if not np.all(np.isfinite(self.values)):
            raise ParameterError("all samples must be finite")

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def x(self) -> np.ndarray:
        """Sample coordinates x_j = x0 + j*dx."""
        return self.x0 + self.dx * np.arange(self.values.size)

    def copy(self) -> "Field1D":
        return Field1D(self.values, self.dx, self.x0)  # __post_init__ copies


def gaussian_profile(n: int, x0: float, dx: float, center: float, sigma: float) -> Field1D:
    """Gaussian pulse exp(-(x - center)^2 / (2 sigma^2))."""
    if not (sigma > 0):
        raise ParameterError(f"sigma must be positive, got {sigma}")
    if not (dx > 0):
        raise ParameterError(f"dx must be positive, got {dx}")
    try:
        sigma_squared = sigma ** 2
    except OverflowError:
        raise ParameterError(f"sigma = {sigma}: sigma^2 overflows") from None
    x = x0 + dx * np.arange(n)
    return Field1D(np.exp(-((x - center) ** 2) / (2.0 * sigma_squared)), dx, x0)


def sextic_profile(n: int, x0: float, dx: float, center: float) -> Field1D:
    """Steep but smooth pulse exp(-((x - center)/2)^6)."""
    if not (dx > 0):
        raise ParameterError(f"dx must be positive, got {dx}")
    x = x0 + dx * np.arange(n)
    return Field1D(np.exp(-(((x - center) / 2.0) ** 6)), dx, x0)


def norm(f: Field1D) -> float:
    """Plain sum of samples (the quantity diffusion sweeps conserve)."""
    return float(np.sum(f.values))


def abs_moment(f: Field1D) -> float:
    """<|x|> = sum |x_j| u_j / sum u_j."""
    total = np.sum(f.values)
    if total == 0.0:
        raise DegenerateFieldError("abs_moment of a zero-norm field")
    return float(np.sum(np.abs(f.x) * f.values) / total)


def abs_weighted_mean(f: Field1D) -> float:
    """<<x>> = sum x_j |u_j| / sum |u_j| (mean with respect to |u|)."""
    weights = np.abs(f.values)
    total = np.sum(weights)
    if total == 0.0:
        raise DegenerateFieldError("abs_weighted_mean of an all-zero field")
    return float(np.sum(f.x * weights) / total)


def modified_norm(f: Field1D, weight: float) -> float:
    """sum(u) + (weight - 1) u_0 for a PairUpdate.boundary_weight; norm(f) when u_0 = 0."""
    return norm(f) + (weight - 1.0) * float(f.values[0])
