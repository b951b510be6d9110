"""Ground-truth references: exact circulant evolution and order fitting.

The semi-discretised periodic system is a circulant ODE, so its exact
flow is a per-Fourier-mode multiplier exp(dt*lambda_k).  That flow is
the correct comparison target for every scheme here.  The transforms
are numpy.fft's O(N log N) FFTs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .composition import Scheme, StepParams, apply_scheme, nominal_order
from .errors import BoundaryKindError, ParameterError
from .grid import BoundaryKind, Field1D

FLOOR_RELATIVE = 1e-13


@dataclass(frozen=True)
class CirculantSpectrum:
    """Eigenvalues lambda_k of the periodic space-discretised generator."""

    n: int
    eigenvalues: np.ndarray

    @classmethod
    def build(cls, n: int, dx: float, diffusivity: float = 0.0,
              velocity: float = 0.0) -> "CirculantSpectrum":
        k = np.arange(n)
        diffusive = -(4.0 * diffusivity / dx ** 2) * np.sin(math.pi * k / n) ** 2
        advective = -1j * (velocity / dx) * np.sin(2.0 * math.pi * k / n)
        return cls(n, diffusive + advective)


def diffusion_generator(n: int, dx: float, diffusivity: float) -> np.ndarray:
    """Dense circulant second-difference generator (test scale)."""
    a = np.zeros((n, n))
    scale = diffusivity / dx ** 2
    for j in range(n):
        a[j, j] = -2.0 * scale
        a[j, (j + 1) % n] = scale
        a[j, (j - 1) % n] = scale
    return a


def advection_generator(n: int, dx: float, velocity: float) -> np.ndarray:
    """Dense circulant centred-difference generator (test scale)."""
    b = np.zeros((n, n))
    scale = velocity / (2.0 * dx)
    for j in range(n):
        b[j, (j + 1) % n] = -scale
        b[j, (j - 1) % n] = scale
    return b


def exact_evolve(f: Field1D, diffusivity: float, velocity: float, dt: float) -> Field1D:
    """Exact flow of the semi-discretised equations over one interval dt."""
    if f.boundary is not BoundaryKind.PERIODIC:
        raise BoundaryKindError("the circulant oracle needs a periodic field")
    spectrum = CirculantSpectrum.build(f.n, f.dx, diffusivity, velocity)
    modes = np.fft.fft(f.values) * np.exp(dt * spectrum.eigenvalues)
    values = np.fft.ifft(modes).real
    return Field1D(values, f.dx, f.x0, f.boundary)


# ---------------------------------------------------------------------------
# order estimation

@dataclass(frozen=True)
class OrderEstimate:
    order: float
    pairwise: Tuple[float, ...]


def observed_order(errors: Sequence[Tuple[float, float]]) -> OrderEstimate:
    """Least-squares slope of log(err) against log(dt).

    dt must decrease strictly; non-positive errors (possible after a
    plateau was subtracted) are dropped with a warning.
    """
    if len(errors) < 2:
        raise ParameterError("need at least two (dt, err) points")
    dts = np.array([d for d, _ in errors], dtype=float)
    errs = np.array([e for _, e in errors], dtype=float)
    if np.any(np.diff(dts) >= 0.0):
        raise ParameterError("dt values must be strictly decreasing")
    keep = errs > 0.0
    if not np.all(keep):
        warnings.warn(f"dropping {int(np.sum(~keep))} non-positive error value(s)",
                      RuntimeWarning, stacklevel=2)
    dts, errs = dts[keep], errs[keep]
    if dts.size < 2:
        raise ParameterError("fewer than two positive error values remain")
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    pairwise = tuple(
        float(math.log(errs[i] / errs[i + 1]) / math.log(dts[i] / dts[i + 1]))
        for i in range(dts.size - 1))
    return OrderEstimate(float(slope), pairwise)


@dataclass(frozen=True)
class PowerLawFit:
    """Fit of observable(dt) = plateau + b * dt^order."""

    plateau: float
    order: float
    pairwise: Tuple[float, ...]


def fit_power_law(dts: Sequence[float], values: Sequence[float],
                  max_iterations: int = 40) -> PowerLawFit:
    """Fit plateau and order of a converging observable sequence.

    The plateau is pinned from the two smallest-dt points by Richardson
    extrapolation at the current order estimate and the two are iterated
    to consistency.  Residuals at the rounding floor are excluded.
    """
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if dts.size != values.size or dts.size < 3:
        raise ParameterError("need at least three (dt, value) points")
    if np.any(np.diff(dts) >= 0.0):
        raise ParameterError("dt values must be strictly decreasing")
    floor = max(np.max(np.abs(values)), 1.0) * FLOOR_RELATIVE

    # initial slope from differences against the smallest-dt value
    diffs = np.abs(values[:-1] - values[-1])
    usable = (diffs > floor) & (dts[:-1] >= 4.0 * dts[-1])
    if np.sum(usable) < 2:
        usable = diffs > floor
    if np.sum(usable) < 2:
        raise ParameterError("values are already converged; no order to fit")
    order = float(np.polyfit(np.log(dts[:-1][usable]), np.log(diffs[usable]), 1)[0])

    plateau = values[-1]
    for _ in range(max_iterations):
        ratio = (dts[-2] / dts[-1]) ** order
        plateau_new = (ratio * values[-1] - values[-2]) / (ratio - 1.0)
        residuals = np.abs(values - plateau_new)
        keep = residuals > floor
        if np.sum(keep) < 2:
            plateau = plateau_new
            break
        order_new = float(np.polyfit(np.log(dts[keep]), np.log(residuals[keep]), 1)[0])
        converged = abs(order_new - order) < 1e-8 * max(1.0, abs(order))
        plateau, order = plateau_new, order_new
        if converged:
            break
    residuals = values - plateau
    with np.errstate(divide="ignore", invalid="ignore"):
        pairwise = tuple(
            float(math.log(abs(residuals[i] / residuals[i + 1]))
                  / math.log(dts[i] / dts[i + 1]))
            if residuals[i] != 0.0 and residuals[i + 1] != 0.0 else math.nan
            for i in range(dts.size - 1))
    return PowerLawFit(float(plateau), float(order), pairwise)


def richardson_reference(f: Field1D, scheme: Scheme, diffusivity: float, velocity: float,
                         dt: float, levels: int) -> Field1D:
    """Step-halving extrapolation of the scheme's own output (test reference).

    Level m runs 2^m steps of size dt/2^m; the table eliminates error
    terms dt^p, dt^(p+q), ... with (p, q) the scheme's nominal orders.
    levels = 0 returns the plain one-step output.
    """
    if levels < 0:
        raise ParameterError("levels must be >= 0")
    p, q = nominal_order(scheme)
    rows = []
    for m in range(levels + 1):
        steps = 2 ** m
        params = StepParams.from_physics(dt / steps, f.dx, diffusivity, velocity)
        g = f.copy()
        for _ in range(steps):
            apply_scheme(g, scheme, params)
        row = [g.values]
        for i in range(1, m + 1):
            weight = 2.0 ** (p + (i - 1) * q)
            row.append((weight * row[i - 1] - rows[m - 1][i - 1]) / (weight - 1.0))
        rows.append(row)
    return Field1D(rows[-1][-1], f.dx, f.x0, f.boundary)
