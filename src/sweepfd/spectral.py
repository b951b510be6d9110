"""Per-mode amplification factors and phase angles.

Every scheme here has a closed rational amplification factor g(theta):
each op of its compiled program gives its own (a sweep's comes from
inserting a Fourier mode into its one-sided recurrence), and
scheme_factor combines them along the program.  The exact reference is
exact_exponent, the per-mode exponent h of the semi-discretised equation
(not the continuum one), whose factor is exp(-h) and whose phase is
h.imag.  numeric_amplification cross-checks the closed forms against the
actual sweep engine.

scheme_factor finds a scheme's distinct ops in its compiled program
through a layout cached per scheme.  At an array of thetas, a program with
several sweeps per direction takes every ascending factor in one broadcast
expression and every descending factor in another, from lam z and beta/z
formed once per distinct update, with the bits of evaluating op by op.  A
scalar theta is evaluated op by op.  phase_curve tracks the branch on the
requested thetas themselves when they are its tracking grid.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import mul
from typing import Sequence, Union

import numpy as np

from .composition import (
    PROGRAM_CACHE_SIZE,
    Comparator,
    Equation,
    Program,
    Scheme,
    Stage,
    StepParams,
    apply_scheme,
    compile_scheme,
)
from .errors import ParameterError
from .grid import Field1D
from .sweep import SweepDirection

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


class _Layout:
    """Where scheme_factor finds a scheme's distinct ops in its compiled programs.

    Equal stages compile to equal ops, so there is one row per distinct
    (stage, op index) pair: the n_asc ascending sweeps, then the n_desc
    descending sweeps, then the comparators.  positions holds each row's
    (term, stage, op) position in a program, and terms the scheme's terms
    with each op replaced by its row.  Distinct stages may still compile to
    equal ops (every advection stage at eta = 0); their rows then give equal
    bits, since equal PairUpdates differ at most in the sign of a zero, and
    lam z and beta/z each enter a sum with a nonzero term or +0.0, while
    gamma = alpha^2 - beta lam is never -0.0.
    """

    def __init__(self, scheme: Scheme):
        self.substeps = scheme.substeps
        groups = ({}, {}, {})   # (stage, op index) -> (index in group, position)
        terms = []
        for t, (weight, power, stages) in enumerate(scheme.terms):
            term = []
            for s, stage in enumerate(stages):
                kinds = stage.base.directions if isinstance(stage, Stage) else (None,)
                ids = []
                for k, direction in enumerate(kinds):
                    g = 2 if direction is None else int(direction is SweepDirection.DESCENDING)
                    row, _ = groups[g].setdefault((stage, k), (len(groups[g]), (t, s, k)))
                    ids.append((g, row))
                term.append(ids)
            terms.append((float(weight), power, term))
        self.n_asc, self.n_desc = len(groups[0]), len(groups[1])
        # a program of one sweep per direction is cheaper op by op
        self.broadcast = max(self.n_asc, self.n_desc) > 1
        start = (0, self.n_asc, self.n_asc + self.n_desc)
        self.terms = tuple((weight, power, tuple(tuple(start[g] + i for g, i in ids)
                                                 for ids in term))
                           for weight, power, term in terms)
        self.positions = tuple(position for group in groups for _, position in group.values())

    def factors(self, ops, z: np.ndarray) -> np.ndarray:
        """The factor of each row's sweep (a program of sweeps only) at the array z.

        The table holds lam, beta and gamma of the ascending rows' updates,
        and of the descending rows' unless those are the same in the same
        order (a T2 stage's two sweeps mostly share one update).  lam z and
        beta/z are formed once for the table; then every ascending factor
        (gamma + lam z)/(1 - beta/z) is one broadcast expression and every
        descending factor (gamma + beta/z)/(1 - lam z) another, with the bits
        of PairUpdate.factor.
        """
        na = self.n_asc
        asc = [x for head, _ in ops[:na] for x in (head.lam, head.beta, head.gamma)]
        desc = [x for head, _ in ops[na:] for x in (head.lam, head.beta, head.gamma)]
        shared = asc == desc
        lam, beta, gamma = np.array(asc if shared else asc + desc, dtype=float).reshape(
            (-1, 3) + (1,) * z.ndim).swapaxes(0, 1)
        lz = lam * z
        bz = beta / z
        d = slice(0 if shared else na, None)
        out = np.empty((len(ops),) + z.shape, dtype=complex)
        np.divide(gamma[:na] + lz[:na], 1.0 - bz[:na], out=out[:na])
        np.divide(gamma[d] + bz[d], 1.0 - lz[d], out=out[na:])
        return out


@lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def _layout(scheme: Scheme) -> _Layout:
    return _Layout(scheme)


def scheme_factor(scheme: Scheme, params: StepParams, theta: Thetas):
    """Closed-form factor of a scheme, read off its sweep program.

    Each distinct op's head gives its factor from theta and the mode
    z = e^{i theta} computed once: at an array of thetas of any shape
    (which g keeps), a program with several sweeps per direction takes all
    of them at once (_Layout.factors), any other op by op.  Op factors
    multiply within a stage, stage products multiply, each term's product
    is raised to its power, the terms add with their weights (a single term
    unweighted) and the sum is raised to substeps.
    """
    program = compile_scheme(scheme, params)
    layout = _layout(scheme)
    ops = [program.terms[t][2][s][k] for t, s, k in layout.positions]
    z = np.exp(1j * np.asarray(theta, dtype=float))
    if z.ndim and layout.broadcast:
        factors = layout.factors(ops, z)
    else:   # numpy's scalar complex arithmetic does not round like its array loops
        factors = [head.factor(arg, theta, z) for head, arg in ops]
    terms = []
    for weight, power, stages in layout.terms:
        product = reduce(mul, (reduce(mul, (factors[i] for i in stage)) for stage in stages))
        terms.append((weight, product if power == 1 else product ** power))
    g = terms[0][1] if len(terms) == 1 else sum(weight * term for weight, term in terms)
    return g if layout.substeps == 1 else g ** layout.substeps


# ---------------------------------------------------------------------------
# phase angles

def phase_curve(scheme: Scheme, params: StepParams, thetas: Sequence[float]) -> np.ndarray:
    """Unwrapped phase angle -arg g at each requested theta >= 0.

    The branch is tracked by continuity from theta = 0 on the grid
    linspace(0, max theta, n) with n the fewest points at least as fine as
    PHASE_RESOLUTION, so multiples of 2 pi are resolved even when arg(g)
    wraps.  When the request is that grid bit for bit (e.g. 1025 points on
    [0, pi]) the phase is tracked on the request itself; otherwise on the
    union of the grid and the request, read off at the request.
    """
    if scheme.equation is not Equation.ADVECTION:
        raise ParameterError("phase angles are defined for advection schemes")
    req = np.atleast_1d(np.asarray(thetas, dtype=float))
    if np.any(req < 0.0):
        raise ParameterError("phase tracking starts at theta = 0; thetas must be >= 0")
    tmax = float(req.max(initial=0.0))
    if not math.isfinite(tmax):
        raise ParameterError(f"phase tracking needs finite thetas, got theta = "
                             f"{req[~np.isfinite(req)].flat[0]}")
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
