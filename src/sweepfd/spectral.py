"""Per-mode amplification factors and phase angles.

Every scheme here has a closed rational amplification factor g(theta):
each op of its compiled program gives its own (a sweep's comes from
inserting a Fourier mode into its one-sided recurrence), and
scheme_factor combines them along the scheme's layout.  The exact
reference is exact_exponent, the per-mode exponent h of the
semi-discretised equation (not the continuum one), whose factor is
exp(-h) and whose phase is h.imag.  numeric_amplification cross-checks
the closed forms against the actual sweep engine.

scheme_factor takes a scheme's distinct ops from compile_scheme, stage
by stage, and evaluates each through its own closed form, at a float
theta or an array alike; a sweep's rational factor is written once, in
PairUpdate.mode_factor, and lam z and beta/z are formed once per distinct
update.  phase_curve tracks the branch on the requested thetas themselves
when they are its tracking grid.  numeric_amplification reads where to
sample from the layout's sweeps and, for a lone sweep, its stage.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Sequence, Union

import numpy as np

from .composition import BaseStep, Equation, Scheme, StepParams, apply_scheme, compile_scheme
from .errors import ParameterError
from .grid import Field1D
from .sweep import PairUpdate

PHASE_RESOLUTION = math.pi / 1024.0
PHASE_MAX_THETA = 64.0 * math.pi   # a tracking grid of at most 65,537 points

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
    """Closed-form factor of a scheme, read off its compiled row ops.

    Each distinct op of the scheme's layout gives its factor at theta, a
    float or an array of any shape (which g keeps): a sweep's from the mode
    z = e^{i theta} computed once, with lam z and beta/z formed once per
    distinct update.  Op factors multiply within a stage, stage products
    multiply, each term's product is raised to its power, the terms add
    with their weights (a single term unweighted) and the sum is raised to
    substeps.
    """
    layout = scheme.layout
    ops = compile_scheme(scheme, params)
    z = np.exp(1j * np.asarray(theta, dtype=float))
    # A T2 stage's two sweeps mostly share one update, so its modes are formed
    # once.  Updates equal by == may differ in the sign of a zero; either one's
    # modes give the same bits, since lam z and beta/z each enter a sum with a
    # nonzero term or +0.0, and gamma is never -0.0.
    modes = {}
    factors = []
    for head, arg in ops:
        if isinstance(head, PairUpdate):
            if head not in modes:
                modes[head] = (head.lam * z, head.beta / z)
            factors.append(head.mode_factor(arg, *modes[head]))
        else:
            factors.append(head.factor(arg, theta))
    stages = [reduce(mul, (factors[r] for r in rows)) for rows in layout.stage_rows]
    terms = []
    for weight, power, ids in layout.terms:
        product = reduce(mul, (stages[i] for i in ids))
        terms.append((weight, product if power == 1 else product ** power))
    g = terms[0][1] if len(terms) == 1 else sum(weight * term for weight, term in terms)
    return g if scheme.substeps == 1 else g ** scheme.substeps


# ---------------------------------------------------------------------------
# phase angles

def phase_curve(scheme: Scheme, params: StepParams, thetas: Sequence[float]) -> np.ndarray:
    """Unwrapped phase angle -arg g at each requested theta >= 0.

    The branch is tracked by continuity from theta = 0 on the grid
    linspace(0, max theta, n) with n the fewest points at least as fine as
    PHASE_RESOLUTION, so multiples of 2 pi are resolved even when arg(g)
    wraps.  When the request is that grid bit for bit (e.g. 1025 points on
    [0, pi]) the phase is tracked on the request itself; otherwise on the
    union of the grid and the request, read off at the request.  Thetas
    beyond PHASE_MAX_THETA are rejected before the grid is built.
    """
    if scheme.equation is not Equation.ADVECTION:
        raise ParameterError("phase angles are defined for advection schemes")
    req = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(req < 0.0):
        raise ParameterError("phase tracking starts at theta = 0; thetas must be >= 0")
    tmax = float(req.max(initial=0.0))
    if not tmax <= PHASE_MAX_THETA:   # a nan fails too
        raise ParameterError(f"phase tracking needs finite thetas <= {PHASE_MAX_THETA}, "
                             f"got theta = {req[~(req <= PHASE_MAX_THETA)].flat[0]}")
    n_fine = max(2, int(math.ceil(tmax / PHASE_RESOLUTION)) + 1)
    grid = np.linspace(0.0, tmax, n_fine)
    if req.shape == grid.shape and req.tobytes() == grid.tobytes():
        g = scheme_factor(scheme, params, np.ascontiguousarray(req))
        return -np.unwrap(np.angle(g))
    grid = np.union1d(grid, req)
    unwrapped = -np.unwrap(np.angle(scheme_factor(scheme, params, grid)))
    return unwrapped[np.searchsorted(grid, req)]


# ---------------------------------------------------------------------------
# numeric cross-check

def numeric_amplification(scheme: Scheme, params: StepParams, theta: float,
                          n: int) -> AmplificationSample:
    """Apply the actual stepper to the mode e^{i theta j} and read the factor.

    theta must be a lattice mode 2 pi m / n.  The readout is taken at an
    interior sample; its distance to the sweep seams bounds the residual
    boundary transient, so accuracy improves geometrically with n.  A step
    of one sweep leaves its transient at the seam it starts from and reads
    at the far end; any other step reads mid-grid.
    """
    if not hasattr(type(n), "__index__"):   # what operator.index takes: ints, numpy integers
        raise ParameterError(f"n must be an integer, got {n!r}")
    mode_index = theta * n / (2.0 * math.pi)
    if not math.isfinite(mode_index) or abs(mode_index - round(mode_index)) > 1e-9:
        raise ParameterError(f"theta = {theta} is not a lattice mode of an {n}-point grid")
    j = np.arange(n)
    re = Field1D(np.cos(theta * j), dx=1.0)
    im = Field1D(np.sin(theta * j), dx=1.0)
    apply_scheme(re, scheme, params)
    apply_scheme(im, scheme, params)
    layout = scheme.layout
    one_sweep = layout.sweeps == 1   # then the layout's only stage is that sweep
    idx = (n - 2 if layout.stages[0].base is BaseStep.SWEEP_1A else 2) if one_sweep else n // 2
    g = (re.values[idx] + 1j * im.values[idx]) / cmath.exp(1j * theta * idx)
    return AmplificationSample(float(theta), complex(g))
