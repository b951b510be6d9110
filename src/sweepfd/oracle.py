"""Ground truth: the exact circulant flow, and the power-law fit of a converging observable.

The semi-discretised periodic system is a circulant ODE, so its exact
flow multiplies Fourier mode k by spectral.exact_factor at the lattice
angle theta_k = 2*pi*k/N, the same exact factor the amplification
tables compare each scheme with.  That flow is the correct comparison
target for every scheme here.  The transforms are numpy.fft's
O(N log N) FFTs.  fit_power_law reads the plateau and order off an
observable measured at decreasing dt (`sweepfd converge`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .composition import Equation, StepParams
from .errors import ParameterError
from .grid import Field1D
from .spectral import exact_factor

FLOOR_RELATIVE = 1e-13
FIT_ITERATIONS = 40


def exact_evolve(f: Field1D, diffusivity: float, velocity: float, dt: float) -> Field1D:
    """Exact flow of the semi-discretised equations over one interval dt."""
    params = StepParams.from_physics(dt, f.dx, diffusivity, velocity)
    theta = 2.0 * math.pi * np.arange(f.n) / f.n
    modes = np.fft.fft(f.values) * exact_factor(Equation.ADV_DIFF, params, theta)
    return Field1D(np.fft.ifft(modes).real, f.dx, f.x0)


@dataclass(frozen=True)
class PowerLawFit:
    """Fit of observable(dt) = plateau + b * dt^order."""

    plateau: float
    order: float


@np.errstate(all="ignore")   # an overflow or a zero divisor ends in a check that raises
def fit_power_law(dts: Sequence[float], values: Sequence[float]) -> PowerLawFit:
    """Fit plateau and order of a converging observable sequence.

    The plateau is pinned from the two smallest-dt points by Richardson
    extrapolation at the current order estimate and the two are iterated
    to consistency.  Residuals at the rounding floor are excluded.  The dts
    must be finite, positive and strictly decreasing, and the values finite.
    A fit with no finite plateau or order (a Richardson ratio of 1, an
    overflow) or whose log dts are too close to fit a slope is a
    ParameterError.
    """
    dts = np.asarray(dts, dtype=float)
    values = np.asarray(values, dtype=float)
    if dts.size != values.size or dts.size < 3:
        raise ParameterError("need at least three (dt, value) points")
    if not np.all(np.isfinite(dts) & (dts > 0.0)):
        raise ParameterError("dt values must be finite and positive")
    if not np.all(np.isfinite(values)):
        raise ParameterError("values must be finite")
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
    order = _slope(np.log(dts[:-1][usable]), np.log(diffs[usable]))

    plateau = values[-1]
    for _ in range(FIT_ITERATIONS):
        ratio = (dts[-2] / dts[-1]) ** order
        plateau_new = (ratio * values[-1] - values[-2]) / (ratio - 1.0)
        residuals = np.abs(values - plateau_new)
        keep = residuals > floor
        if np.sum(keep) < 2:
            plateau = plateau_new
            break
        order_new = _slope(np.log(dts[keep]), np.log(residuals[keep]))
        converged = abs(order_new - order) < 1e-8 * max(1.0, abs(order))
        plateau, order = plateau_new, order_new
        if converged:
            break
    if not (math.isfinite(plateau) and math.isfinite(order)):
        raise ParameterError("the fit has no finite plateau and order")
    return PowerLawFit(float(plateau), float(order))


def _slope(x: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of y against x, for finite y and x that determine one."""
    if not np.all(np.isfinite(y)):
        raise ParameterError("the fit has no finite plateau and order")
    # full=True returns polyfit's rank in place of its RankWarning, with the same slope
    (slope, _), _, rank, _, _ = np.polyfit(x, y, 1, full=True)
    if rank < 2:
        raise ParameterError("dt values lie too close together to fit an order")
    return float(slope)
