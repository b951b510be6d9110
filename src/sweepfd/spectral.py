"""Per-mode amplification factors and phase angles.

Every scheme here has a closed rational amplification factor g(theta):
each op of its compiled program gives its own (a sweep's comes from
inserting a Fourier mode into its one-sided recurrence), and
scheme_factor combines them along the program.  The exact reference is
exact_exponent, the per-mode exponent h of the semi-discretised equation
(not the continuum one), whose factor is exp(-h) and whose phase is
h.imag.  numeric_amplification cross-checks the closed forms against the
actual sweep engine.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Sequence, Union

import numpy as np

from .composition import (
    Comparator,
    Equation,
    Program,
    Scheme,
    StepParams,
    apply_scheme,
    compile_scheme,
)
from .errors import ParameterError
from .grid import Field1D

PHASE_RESOLUTION = math.pi / 1024.0

Thetas = Union[float, np.ndarray]


@dataclass(frozen=True)
class AmplificationSample:
    """One per-mode factor g at theta = k*dx."""

    theta: float
    g: complex


# ---------------------------------------------------------------------------
# closed forms

def exact_exponent(equation: Equation, params: StepParams, theta: Thetas):
    """Semi-discrete exact exponent h = 4r sin^2(theta/2) + i eta sin(theta), whose factor is
    exp(-h); diffusion keeps its real part, advection its imaginary part.

    r sin^2(theta/2) is formed before the factor 4, so theta = 0 gives h = 0 even where 4r
    overflows; scaling by 4 is exact otherwise, so the bits are those of (4r) sin^2.
    """
    h = 4.0 * (params.r * np.sin(0.5 * np.asarray(theta)) ** 2) \
        + 1j * params.eta * np.sin(theta)
    if equation is Equation.DIFFUSION:
        return h.real
    if equation is Equation.ADVECTION:
        return 1j * h.imag
    return h


def exact_factor(equation: Equation, params: StepParams, theta: Thetas):
    """Semi-discrete exact factor exp(-exact_exponent)."""
    return np.exp(-exact_exponent(equation, params, theta))


def scheme_factor(scheme: Scheme, params: StepParams, theta: Thetas):
    """Closed-form factor of a scheme, read off its sweep program.

    Each op's head gives its factor (PairUpdate.factor, Comparator.factor),
    once per distinct op, from theta and the mode z = e^{i theta} computed
    once; op factors multiply within a stage, stage products multiply, each
    term's product is raised to its power, the terms add with their
    weights (a single term unweighted) and the sum is raised to substeps.
    """
    program = compile_scheme(scheme, params)
    z = np.exp(1j * np.asarray(theta, dtype=float))
    ops = dict.fromkeys(op for _, _, stages in program.terms for stage in stages for op in stage)
    factors = {(head, arg): head.factor(arg, theta, z) for head, arg in ops}
    terms = []
    for weight, power, stages in program.terms:
        product = reduce(mul, (reduce(mul, (factors[op] for op in stage)) for stage in stages))
        terms.append((weight, product ** power))
    g = terms[0][1] if len(terms) == 1 else sum(weight * term for weight, term in terms)
    return g ** program.substeps


# ---------------------------------------------------------------------------
# phase angles

def phase_curve(scheme: Scheme, params: StepParams, thetas: Sequence[float]) -> np.ndarray:
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


# ---------------------------------------------------------------------------
# numeric cross-check

def _readout_index(program: Program, n: int) -> int:
    """Interior sample where the sweep transients have decayed most.

    A step of one sweep leaves its transient at the seam it starts from,
    so the readout sits at the far end; any other program reads mid-grid.
    """
    ops = [op for _, _, stages in program.terms for stage in stages for op in stage]
    if program.substeps == 1 and len(ops) == 1 and not isinstance(ops[0][0], Comparator):
        return n - 2 if ops[0][1].is_ascending else 2
    return n // 2


def numeric_amplification(scheme: Scheme, params: StepParams, theta: float,
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
