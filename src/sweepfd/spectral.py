"""Per-mode amplification factors and phase angles.

Every scheme here has a closed rational amplification factor g(theta)
obtained by inserting a Fourier mode into its one-sided recurrence; the
exact reference is the amplification factor of the semi-discretised
equation, not the continuum one.  numeric_amplification cross-checks
the closed forms against the actual sweep engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Sequence, Union

import numpy as np

from . import coefficients as coef
from .composition import (
    Comparator,
    Equation,
    Program,
    Steppable,
    StepParams,
    apply_scheme,
    compile_scheme,
)
from .errors import ParameterError
from .grid import Field1D
from .sweep import PairUpdate, SweepDirection

PHASE_RESOLUTION = math.pi / 1024.0

Thetas = Union[float, np.ndarray]


@dataclass(frozen=True)
class AmplificationSample:
    """One per-mode factor g at theta = k*dx, with derived views of g."""

    theta: float
    g: complex

    @property
    def magnitude(self) -> float:
        return abs(self.g)

    @property
    def exponent(self) -> complex:
        """h with g = exp(-h) (principal branch)."""
        if self.g == 0:
            return complex(math.inf, 0.0)
        return -cmath.log(self.g)

    @property
    def phase(self) -> float:
        """-arg(g), the principal-branch phase advance."""
        return -cmath.phase(self.g)


# ---------------------------------------------------------------------------
# closed forms

def exact_factor(equation: Equation, params: StepParams, theta: Thetas):
    """Semi-discrete exact factor: damping exp(-4r sin^2(theta/2)), phase exp(-i eta sin theta)."""
    h = 4.0 * params.r * np.sin(0.5 * np.asarray(theta)) ** 2 \
        + 1j * params.eta * np.sin(theta)
    if equation is Equation.DIFFUSION:
        h = h.real
    elif equation is Equation.ADVECTION:
        h = 1j * h.imag
    return np.exp(-h)


def sweep_factor(update: PairUpdate, direction: SweepDirection, theta: Thetas):
    """Interior per-mode factor of one sweep.

    Ascending: (gamma + lam e^{i theta}) / (1 - beta e^{-i theta});
    descending mirrors the exponents.  Boundary corrections decay
    geometrically into the interior and do not enter this form.
    """
    z = np.exp(1j * np.asarray(theta, dtype=float))
    gamma = update.gamma
    if direction.is_ascending:
        return (gamma + update.lam * z) / (1.0 - update.beta / z)
    return (gamma + update.beta / z) / (1.0 - update.lam * z)


def diffusion_t2_factor(variant: coef.DiffusionVariant, r: float, theta: Thetas):
    """Rational symmetric-step factor, defined for either sign of r.

    Stepping with r < 0 is rejected, but the closed form itself obeys
    g2(-r) g2(r) = 1, which is what makes the exponent odd in r.
    """
    asc, desc = SweepDirection.ASCENDING, SweepDirection.DESCENDING
    return sweep_factor(coef.pair_update(variant, r, 0.0, asc, half=True), asc, theta) \
        * sweep_factor(coef.pair_update(variant, r, 0.0, desc, half=True), desc, theta)


def comparator_factor(comparator: Comparator, params: StepParams, theta: Thetas):
    s2 = np.sin(0.5 * np.asarray(theta)) ** 2
    if comparator is Comparator.EULER:
        return (1.0 - 4.0 * params.r * s2) + 0j
    if comparator is Comparator.CRANK_NICOLSON:
        return (1.0 - 2.0 * params.r * s2) / (1.0 + 2.0 * params.r * s2) + 0j
    return 1.0 - 1j * params.eta * np.sin(theta) - 2.0 * params.eta ** 2 * s2


def scheme_factor(scheme: Steppable, params: StepParams, theta: Thetas):
    """Closed-form factor of any named scheme or spec, read off its sweep program.

    Op factors multiply within a stage, stage products multiply, each
    term's product is raised to its power, the terms add with their
    weights (a single term unweighted) and the sum is raised to substeps.
    """
    def op_factor(op):
        head, arg = op
        if isinstance(head, Comparator):
            return comparator_factor(head, arg, theta)
        return sweep_factor(head, arg, theta)

    program = compile_scheme(scheme, params)
    terms = []
    for weight, power, stages in program.terms:
        product = reduce(mul, (reduce(mul, map(op_factor, stage)) for stage in stages))
        terms.append((weight, product ** power))
    g = terms[0][1] if len(terms) == 1 else sum(weight * term for weight, term in terms)
    return g ** program.substeps


def exact_amplification(equation: Equation, params: StepParams, theta: float) -> AmplificationSample:
    return AmplificationSample(float(theta), complex(exact_factor(equation, params, theta)))


def scheme_amplification(scheme: Steppable, params: StepParams, theta: float) -> AmplificationSample:
    return AmplificationSample(float(theta), complex(scheme_factor(scheme, params, theta)))


# ---------------------------------------------------------------------------
# phase angles

def exact_phase(eta: float, theta: Thetas):
    return eta * np.sin(theta)


def phase_curve(scheme: Steppable, params: StepParams, thetas: Sequence[float]) -> np.ndarray:
    """Unwrapped phase angle -arg g at each requested theta >= 0.

    The branch is tracked by continuity from theta = 0 on a grid at
    least as fine as PHASE_RESOLUTION, so multiples of 2 pi are resolved
    even when arg(g) wraps.
    """
    if scheme.equation is not Equation.ADVECTION:
        raise ParameterError("phase angles are defined for advection schemes")
    req = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(req < 0.0):
        raise ParameterError("phase tracking starts at theta = 0; thetas must be >= 0")
    tmax = float(req.max(initial=0.0))
    n_fine = max(2, int(math.ceil(tmax / PHASE_RESOLUTION)) + 1)
    grid = np.union1d(np.linspace(0.0, tmax, n_fine), req)
    g = scheme_factor(scheme, params, grid)
    unwrapped = -np.unwrap(np.angle(g))
    idx = np.searchsorted(grid, req)
    return unwrapped[idx]


def phase_angle(scheme: Steppable, params: StepParams, theta: float) -> float:
    return float(phase_curve(scheme, params, [theta])[0])


# ---------------------------------------------------------------------------
# numeric cross-check and small-theta limits

def _readout_index(program: Program, n: int) -> int:
    """Interior sample where the sweep transients have decayed most.

    A step of one sweep leaves its transient at the seam it starts from,
    so the readout sits at the far end; any other program reads mid-grid.
    """
    ops = [op for _, _, stages in program.terms for stage in stages for op in stage]
    if program.substeps == 1 and len(ops) == 1 and not isinstance(ops[0][0], Comparator):
        return n - 2 if ops[0][1].is_ascending else 2
    return n // 2


def numeric_amplification(scheme: Steppable, params: StepParams, theta: float,
                          n: int) -> AmplificationSample:
    """Apply the actual stepper to the mode e^{i theta j} and read the factor.

    theta must be a lattice mode 2 pi m / n.  The readout is taken at an
    interior sample; its distance to the sweep seams bounds the residual
    boundary transient, so accuracy improves geometrically with n.
    """
    mode_index = theta * n / (2.0 * math.pi)
    if abs(mode_index - round(mode_index)) > 1e-9:
        raise ParameterError(f"theta = {theta} is not a lattice mode of an {n}-point grid")
    j = np.arange(n)
    re = Field1D(np.cos(theta * j), dx=1.0)
    im = Field1D(np.sin(theta * j), dx=1.0)
    apply_scheme(re, scheme, params)
    apply_scheme(im, scheme, params)
    idx = _readout_index(compile_scheme(scheme, params), n)
    g = (re.values[idx] + 1j * im.values[idx]) / cmath.exp(1j * theta * idx)
    return AmplificationSample(float(theta), complex(g))


def richardson_limit(fn: Callable[[float], float],
                     thetas: Sequence[float] = (1e-2, 5e-3, 2.5e-3)) -> float:
    """theta -> 0 limit of fn assuming an even error series in theta.

    thetas must halve from one entry to the next; three points remove
    the theta^2 and theta^4 terms.
    """
    for a, b in zip(thetas, thetas[1:]):
        if abs(b - 0.5 * a) > 1e-12 * abs(a):
            raise ParameterError("extrapolation nodes must halve successively")
    vals = [float(fn(t)) for t in thetas]
    level = 1
    while len(vals) > 1:
        weight = 4.0 ** level
        vals = [(weight * vals[i + 1] - vals[i]) / (weight - 1.0)
                for i in range(len(vals) - 1)]
        level += 1
    return vals[0]
