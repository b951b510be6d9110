"""Time-marching schemes built from pair sweeps.

A Scheme is its plan of sweeps: substeps x a weighted sum of terms, each a
product of stages.  A stage is a symmetric T2 double sweep or a single
1A/1B sweep of one coefficient variant at a fraction of the step, or a
reference Comparator (Euler, Crank-Nicolson, Lax-Wendroff).  Higher order
comes from a single product T2(a_1 dt) ... T2(a_m dt) (advection only; a
diffusion substep with a_i < 0 is unstable) or from a multi-product
expansion sum_k c_k T2^k(dt/k), whose weights are exact rationals.

Scheme.layout lays the plan out once per scheme: distinct stages, terms
of stage indices, each stage's op rows, each term's rows in run order and
the sweeps per step.  compile_scheme resolves each distinct stage at given
step parameters into its ops, stage by stage, one (head, arg) pair per
row: a (PairUpdate, SweepDirection) sweep or a (Comparator, StepParams)
step; the layout keeps the last step's ops.  Each head answers for its op,
how it steps and its amplification factor, so stepping, the closed-form
factor and the numeric readout read the layout and index its row ops.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import math
import numbers
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple, Union

import numpy as np

from . import coefficients as coef
from .errors import (
    InvalidCoefficientError,
    ParameterError,
    SpatialAmplificationError,
    StabilityError,
)
from .grid import Field1D
from .sweep import PairUpdate, SweepDirection, sweep

PLAN_SUM_TOL = 1e-12


class Equation(Enum):
    DIFFUSION = "diffusion"
    ADVECTION = "advection"
    ADV_DIFF = "advdiff"


class BaseStep(Enum):
    SWEEP_1A = "1a"   # single ascending sweep at full parameters
    SWEEP_1B = "1b"   # single descending sweep at full parameters
    T2 = "t2"         # ascending then descending half-sweep

    @property
    def directions(self) -> Tuple[SweepDirection, ...]:
        """The directions of the step's sweeps, in run order."""
        return _DIRECTIONS[self]


_DIRECTIONS = {BaseStep.SWEEP_1A: (SweepDirection.ASCENDING,),
               BaseStep.SWEEP_1B: (SweepDirection.DESCENDING,),
               BaseStep.T2: (SweepDirection.ASCENDING, SweepDirection.DESCENDING)}

# the variant families a scheme's sweep stages may draw on, per equation
_FAMILIES = {Equation.DIFFUSION: ({coef.DiffusionVariant},),
             Equation.ADVECTION: ({coef.AdvectionVariant},),
             Equation.ADV_DIFF: ({coef.AdvDiffVariant},
                                 {coef.DiffusionVariant, coef.AdvectionVariant})}


@dataclass(frozen=True)
class StepParams:
    """Dimensionless step: r = dt*D/dx^2 and eta = v*dt/dx."""

    r: float = 0.0
    eta: float = 0.0

    @classmethod
    def from_physics(cls, dt: float, dx: float, diffusivity: float = 0.0,
                     velocity: float = 0.0) -> "StepParams":
        if dx * dx == 0.0:   # r = dt*D/dx^2 would divide by zero
            raise ParameterError(f"dx = {dx} is too small: dx^2 underflows to 0")
        try:
            r, eta = dt * diffusivity / (dx * dx), velocity * dt / dx
        except OverflowError:   # an int with no float value, such as 10**400 (too long to print)
            raise ParameterError("dt, dx, diffusivity and velocity give no finite step: one is "
                                 "beyond the float range") from None
        if not (math.isfinite(r) and math.isfinite(eta)):
            raise ParameterError(f"r = {r}, eta = {eta}: dt = {dt}, dx = {dx}, diffusivity = "
                                 f"{diffusivity} and velocity = {velocity} give no finite step")
        return cls(r, eta)

    def scaled(self, factor: float) -> "StepParams":
        return StepParams(self.r * factor, self.eta * factor)


Op = Tuple[Union[PairUpdate, "Comparator"], Union[SweepDirection, StepParams]]
Terms = Tuple[Tuple[Union[Fraction, int], int, Tuple[Union["Stage", "Comparator"], ...]], ...]


class Comparator(Enum):
    """A reference stepper of the figures: one op that steps and amplifies itself."""

    EULER = "euler"                    # forward-time central-space diffusion, stable for r <= 1/2
    CRANK_NICOLSON = "crank-nicolson"  # implicit, stepped mode by mode as a circulant
    LAX_WENDROFF = "lax-wendroff"

    def ops(self, params: StepParams) -> Tuple[Op, ...]:
        return ((self, params),)

    def step(self, f: Field1D, params: StepParams) -> None:
        """Advance f in place by one step.  The grid is periodic, so Crank-Nicolson's matrix is
        diagonal in Fourier modes: its step scales mode k by its factor at theta = 2*pi*k/N."""
        v = f.values
        if self is Comparator.EULER:
            v[:] = v + params.r * (np.roll(v, -1) - 2.0 * v + np.roll(v, 1))
        elif self is Comparator.LAX_WENDROFF:
            eta_squared = _eta_squared(params)
            vp, vm = np.roll(v, -1), np.roll(v, 1)
            v[:] = v - 0.5 * params.eta * (vp - vm) + 0.5 * eta_squared * (vp - 2.0 * v + vm)
        else:   # numpy.fft is loaded here, on the first step, not on import
            g = self.factor(params, 2.0 * math.pi * np.arange(v.size // 2 + 1) / v.size).real
            v[:] = np.fft.irfft(np.fft.rfft(v) * g, n=v.size)

    def factor(self, params: StepParams, theta):
        """Per-mode amplification factor of one step at theta (a float or an array)."""
        s2 = np.sin(0.5 * np.asarray(theta)) ** 2
        if self is Comparator.EULER:
            return (1.0 - 4.0 * params.r * s2) + 0j
        if self is Comparator.CRANK_NICOLSON:
            return (1.0 - 2.0 * params.r * s2) / (1.0 + 2.0 * params.r * s2) + 0j
        return 1.0 - 1j * params.eta * np.sin(theta) - 2.0 * _eta_squared(params) * s2


def _eta_squared(params: StepParams) -> float:
    """params.eta ** 2; a square beyond the float range is no usable step."""
    try:
        return params.eta ** 2
    except OverflowError:
        raise ParameterError(f"Lax-Wendroff at eta = {params.eta}: eta^2 overflows") from None


# ---------------------------------------------------------------------------
# schemes

class Stage(NamedTuple):
    """A base step of variant at fraction x the step."""

    variant: coef.Variant
    base: BaseStep = BaseStep.T2
    fraction: float = 1.0

    def ops(self, params: StepParams) -> Tuple[Op, ...]:
        """The stage's sweeps at fraction x params, in run order."""
        p = params.scaled(self.fraction)
        half = self.base is BaseStep.T2
        return tuple((coef.pair_update(self.variant, p.r, p.eta, d, half=half), d)
                     for d in self.base.directions)


@dataclass(frozen=True)
class Scheme:
    """A named time stepper: substeps x sum_t weight_t (stage_1 ... stage_m)^power_t.

    The stages of a term run in order.  The weights are exact rationals
    summing to 1; in every term each variant advances one whole step
    (power x the sum of its stage fractions is 1); a 1A/1B sweep or a
    comparator is the scheme's only stage.
    """

    name: str
    equation: Equation
    terms: Terms
    substeps: int = 1

    def __post_init__(self):
        stages = [s for _, _, term in self.terms for s in term]
        sweeps = [s for s in stages if isinstance(s, Stage)]
        for n in (self.substeps, *(power for _, power, _ in self.terms)):
            if not isinstance(n, numbers.Integral) or n < 1:
                raise ParameterError("substeps and term powers must be integers >= 1, "
                                     f"got {_shown(n)}")
        if not stages or not all(term for _, _, term in self.terms) or any(
                not isinstance(s, (Stage, Comparator)) for s in stages):
            raise ParameterError("every term needs stages, each a Stage or a Comparator")
        for x in (self.substeps, *(n for term in self.terms for n in term[:2]),
                  *(s.fraction for s in sweeps)):
            if not _finite(x):
                raise ParameterError("substeps, term weights and powers and stage fractions "
                                     f"must be finite, got {_shown(x)}")
        if sum(Fraction(weight) for weight, _, _ in self.terms) != 1:
            raise InvalidCoefficientError("term weights must sum to 1")
        if len(stages) > 1 and (len(sweeps) < len(stages)
                                or any(s.base is not BaseStep.T2 for s in sweeps)):
            raise ParameterError("a single sweep or a comparator must stand alone; "
                                 "composition plans require the symmetric T2 base")
        for _, power, term in self.terms:
            steps = [(s.variant, s.fraction) if isinstance(s, Stage) else (s, 1.0) for s in term]
            if any(abs(power * math.fsum(a for v, a in steps if v is key) - 1.0) > PLAN_SUM_TOL
                   for key, _ in steps):
                raise InvalidCoefficientError(
                    "each variant must advance one whole step in every term")
        families = {type(s.variant) for s in sweeps}
        if sweeps and families not in _FAMILIES[self.equation]:
            names = " + ".join(sorted(f.__name__ for f in families))
            raise ParameterError(f"{self.equation.value} schemes take no {names} stages")
        if any(s.fraction < 0.0 and isinstance(s.variant, coef.DiffusionVariant) for s in sweeps):
            raise StabilityError("diffusion substeps with negative coefficients are unstable")

    @functools.cached_property
    def layout(self) -> "Layout":
        return Layout(self)


def _finite(x) -> bool:
    """Whether x is a real number with a finite float value: 10**400 has none."""
    try:
        return math.isfinite(x)
    except (TypeError, OverflowError):
        return False


def _shown(x) -> str:
    """str(x), or the digit count of a number whose integer str() refuses (over 4300 digits)."""
    try:
        return str(x)
    except ValueError:
        parts = (x.numerator,) if x.denominator == 1 else (x.numerator, x.denominator)
        return " over ".join(f"{'-' if n < 0 else ''}{_digits(abs(n))} digits" for n in parts)


def _digits(n: int) -> int:
    """The decimal digits of n > 0, without str(n)."""
    estimate = int((n.bit_length() - 1) * math.log10(2)) + 1   # exact or one short
    return estimate + (n >= 10 ** estimate)


class Layout:
    """A scheme's plan of sweeps, read by compiling, stepping, closed forms and the readout.

    stages holds the scheme's distinct stages in first-seen order, told
    apart by repr: Stage(v, T2, 0.0) == Stage(v, T2, -0.0), but their ops
    differ in the sign of a zero.  terms holds each term as (float weight,
    power, stage indices).  A row is one op of one distinct stage, and the
    rows run stage by stage: stage_rows holds each stage's rows, its ops in
    run order.  runs holds each term's rows power times, in run order;
    sweeps counts one step's sweeps.  Only program depends on step
    parameters: compile_scheme's last params, their exact step and the op
    of each row there, which readers index by row.
    """

    def __init__(self, scheme: Scheme):
        first = {}   # repr(stage) -> (stage index, stage) of its first occurrence
        self.terms = tuple((float(weight), power, tuple(
            first.setdefault(repr(stage), (len(first), stage))[0] for stage in stages))
            for weight, power, stages in scheme.terms)
        self.stages = tuple(stage for _, stage in first.values())
        sweeps = [len(s.base.directions) if isinstance(s, Stage) else 0 for s in self.stages]
        rows = iter(range(sum(sweeps) or 1))   # a comparator stands alone: one op, no sweep
        self.stage_rows = tuple(tuple(next(rows) for _ in range(n or 1)) for n in sweeps)
        self.runs = tuple(tuple(r for i in stages * power for r in self.stage_rows[i])
                          for _, power, stages in self.terms)
        self.sweeps = scheme.substeps * sum(power * sum(sweeps[i] for i in stages)
                                            for _, power, stages in self.terms)
        self.program = (None, None, ())


# ---------------------------------------------------------------------------
# sweep programs

def compile_scheme(scheme: Scheme, params: StepParams) -> Tuple[Op, ...]:
    """The sweep program of one step of scheme at params: each distinct stage's ops in turn.

    Every coefficient is resolved here, once per distinct stage of the
    scheme's layout, so construction errors are raised before a field is
    touched.  The ops stay in layout.program while calls ask for the same
    exact step, (r, eta) with the sign of each zero (== ignores it, the ops
    keep it); another step compiles anew.  r < 0 is rejected for every
    scheme that diffuses, and an r or eta that is not a finite real number
    for every scheme; an advection-diffusion program with negative step
    fractions warns at r > 0 on each compile, so whenever its step changes,
    and raises if any sweep's recurrence coefficient b has |b| >= 1, which
    amplifies along it.
    """
    layout = scheme.layout
    last, exact, ops = layout.program
    if params is last:
        return ops
    try:
        step = (params.r, params.eta, math.copysign(1.0, params.r), math.copysign(1.0, params.eta))
    except (TypeError, OverflowError):   # not a real number, or beyond the float range
        raise ParameterError(f"r and eta must be finite, got r = {_shown(params.r)}, "
                             f"eta = {_shown(params.eta)}") from None
    if exact == step:
        return ops
    if params.r < 0.0 and scheme.equation is not Equation.ADVECTION:
        raise StabilityError(f"{scheme.equation.value} steps require r >= 0, got r = {params.r}")
    if not (math.isfinite(params.r) and math.isfinite(params.eta)):
        raise ParameterError(f"r and eta must be finite, got r = {params.r}, eta = {params.eta}")
    if params.r > 0.0 and any(isinstance(s, Stage) and s.fraction < 0.0
                              and isinstance(s.variant, coef.AdvDiffVariant)
                              for s in layout.stages):
        warnings.warn(f"negative substeps diffuse backwards: {scheme.name} at r = {params.r} "
                      "is stable only for small r", RuntimeWarning, stacklevel=2)
    sub = params if scheme.substeps == 1 else params.scaled(1.0 / scheme.substeps)
    ops = tuple(op for stage in layout.stages for op in stage.ops(sub))
    for head, arg in ops:
        if isinstance(head, PairUpdate) and abs(head.recurrence(arg)) >= 1.0:
            raise SpatialAmplificationError(
                f"{scheme.name} at r = {params.r}, eta = {params.eta}: one of its {arg.value} "
                f"sweeps has recurrence coefficient |b| = {abs(head.recurrence(arg))} >= 1 "
                "and amplifies along it")
    layout.program = (params, step, ops)   # replaced whole: a thread reads one slot or the other
    return ops


def apply_scheme(f: Field1D, scheme: Scheme, params: StepParams) -> None:
    """Advance f in place by one step of scheme, running its compiled ops.

    Each term runs the ops of its layout rows in run order.  A single term
    runs in place.  Several terms check once that f is finite on entry,
    then run each term but the last in one of at most two scratch buffers
    made for this call: the term's first sweep reads f and its last stores
    acc + w*term, where acc is the buffer of the term before (0.0 for the
    first term), so that buffer becomes the new acc.  The last term runs in
    place on f, and its last sweep leaves acc + w_last*f.  Summation starts
    from 0.0, so a -0.0 sample turns +0.0 and the bits equal summing term
    copies into zeros.  Every term's first sweep reads f, so substeps need
    no refill.  Several terms hold only T2 sweeps (Scheme allows no other
    multi-stage plan), so each term has a first and a last sweep.
    """
    ops = compile_scheme(scheme, params)
    layout = scheme.layout
    if len(layout.runs) == 1:
        for _ in range(scheme.substeps):
            _run(f, ops, layout.runs[0])
        return
    v = f.values
    if not np.isfinite(v).all():
        raise ParameterError("all samples must be finite")
    scratch = [copy.copy(f) for _ in layout.runs[1:3]]   # no copy of the samples, no scan
    for buf in scratch:
        buf.values = np.empty_like(v)
    bufs = [scratch[k % 2] for k in range(len(layout.runs) - 1)] + [f]
    plan = [(buf, None if buf is f else v, weight, ops[run[0]], run[1:-1], ops[run[-1]])
            for buf, (weight, _, _), run in zip(bufs, layout.terms, layout.runs)]
    for _ in range(scheme.substeps):
        acc = None
        for buf, source, weight, first, middle, final in plan:
            sweep(buf, *first, source=source)
            _run(buf, ops, middle)
            sweep(buf, *final, weight=weight, offset=acc)
            acc = buf.values


def _run(f: Field1D, ops, rows) -> None:
    """Run the ops of rows on f in place, in order."""
    for r in rows:
        head, arg = ops[r]
        if isinstance(head, PairUpdate):
            sweep(f, head, arg)   # by name, so a sweep costs no extra frame
        else:
            head.step(f, arg)


# ---------------------------------------------------------------------------
# composition weights and plan builders

def jump_fractions(m: int) -> Tuple[float, ...]:
    """Fourth-order jump (a,)*m + (-c a,) + (a,)*m: c = (2m)^(1/3), a = 1/(2m - c).

    Then sum a = 1 and sum a^3 = 0.  m = 1 is Yoshida's triple jump (Phys.
    Lett. A 150, 262, 1990), m = 2 Suzuki's five-stage fractal.
    """
    if not isinstance(m, numbers.Integral) or m < 1:
        raise ParameterError(f"jump fractions need an integer m >= 1, got {m!r}")
    c = (2.0 * m) ** (1.0 / 3.0)
    a = 1.0 / (2.0 * m - c)
    return (a,) * m + (-c * a,) + (a,) * m


def mpe_weights(order: int) -> Tuple[Tuple[Fraction, int], ...]:
    """Multi-product weights ((c_k, k), ...), k = 1 .. order/2, of an even order.

    c_k = prod_{j != k} k^2 / (k^2 - j^2) solves sum_k c_k k^(-2m) = 0 for
    m = 1 .. order/2 - 1 (Chin & Geiser 2011, arXiv:1005.2201).
    """
    if not isinstance(order, numbers.Integral) or order < 2 or order % 2:
        raise ParameterError(f"multi-product orders are even integers >= 2, got {order!r}")
    ks = range(1, order // 2 + 1)
    return tuple((math.prod((Fraction(k * k, k * k - j * j) for j in ks if j != k),
                            start=Fraction(1)), k) for k in ks)


def product(variant: coef.Variant, fractions: Sequence[float]) -> Terms:
    """Single product T2(a_1 dt) ... T2(a_m dt): one term, its stages run right to left."""
    return ((1, 1, tuple(Stage(variant, BaseStep.T2, a) for a in reversed(fractions))),)


def expansion(variant: coef.Variant, weights: Sequence[Tuple[Fraction, int]]) -> Terms:
    """Multi-product expansion sum_k c_k T2^k(dt/k) of weights ((c_k, k), ...)."""
    for _, k in weights:
        if not isinstance(k, numbers.Integral) or k < 1:
            raise ParameterError(f"multi-product step counts are integers >= 1, got {k!r}")
    return tuple((c, k, (Stage(variant, BaseStep.T2, 1.0 / k),)) for c, k in weights)


FOREST_RUTH = jump_fractions(1)
SUZUKI4 = jump_fractions(2)

# Yoshida's sixth-order solution A has no closed form
_Y6_A1 = -1.17767998417887
_Y6_A2 = 0.235573213359357
_Y6_A3 = 0.784513610477560
_Y6_A0 = 1.0 - 2.0 * (_Y6_A1 + _Y6_A2 + _Y6_A3)
YOSHIDA6 = (_Y6_A3, _Y6_A2, _Y6_A1, _Y6_A0, _Y6_A1, _Y6_A2, _Y6_A3)

MPE_T4 = mpe_weights(4)
MPE_T6 = mpe_weights(6)
MPE_T8 = mpe_weights(8)


# ---------------------------------------------------------------------------
# preset catalogue

def _one(*stages: Union[Stage, Comparator]) -> Terms:
    return ((1, 1, stages),)


_DV, _AV, _XV = coef.DiffusionVariant, coef.AdvectionVariant, coef.AdvDiffVariant
_1A, _1B = BaseStep.SWEEP_1A, BaseStep.SWEEP_1B

_PRESETS = {equation: {name: Scheme(name, equation, terms) for name, terms in table.items()}
            for equation, table in (
    (Equation.DIFFUSION, {
        "euler": _one(Comparator.EULER),
        "cn": _one(Comparator.CRANK_NICOLSON),
        "d1a": _one(Stage(_DV.EXPONENTIAL, _1A)),
        "d1b": _one(Stage(_DV.EXPONENTIAL, _1B)),
        "d1as": _one(Stage(_DV.SAULYEV_MATCHED, _1A)),
        "d1bs": _one(Stage(_DV.SAULYEV_MATCHED, _1B)),
        "d2": _one(Stage(_DV.EXPONENTIAL)),
        "d2s": _one(Stage(_DV.SAULYEV_MATCHED)),
        "t4": expansion(_DV.SAULYEV_MATCHED, MPE_T4),
        "t6": expansion(_DV.SAULYEV_MATCHED, MPE_T6),
        "t8": expansion(_DV.SAULYEV_MATCHED, MPE_T8),
    }),
    (Equation.ADVECTION, {
        "lw": _one(Comparator.LAX_WENDROFF),
        "a1a": _one(Stage(_AV.TRIG, _1A)),
        "a1b": _one(Stage(_AV.TRIG, _1B)),
        "a1as": _one(Stage(_AV.SAULYEV, _1A)),
        "a1bs": _one(Stage(_AV.SAULYEV, _1B)),
        "rw1a": _one(Stage(_AV.ROBERTS_WEISS, _1A)),
        "rw1b": _one(Stage(_AV.ROBERTS_WEISS, _1B)),
        "a2": _one(Stage(_AV.TRIG)),
        "a2s": _one(Stage(_AV.SAULYEV)),
        "a2c": _one(Stage(_AV.MATCHED_CN)),
        "rw2": _one(Stage(_AV.ROBERTS_WEISS)),
        "fr": product(_AV.MATCHED_CN, FOREST_RUTH),
        "s4": product(_AV.MATCHED_CN, SUZUKI4),
        "y6": product(_AV.MATCHED_CN, YOSHIDA6),
    }),
    (Equation.ADV_DIFF, {
        "rw1a": _one(Stage(_XV.GENERALIZED_RW, _1A)),
        "rw1b": _one(Stage(_XV.GENERALIZED_RW, _1B)),
        "rw2": _one(Stage(_XV.GENERALIZED_RW)),
        "ad2c": _one(Stage(_XV.MATCHED_AD2C)),
        "split1a": _one(Stage(_XV.SPLIT_DERIVED, _1A)),
        "split1b": _one(Stage(_XV.SPLIT_DERIVED, _1B)),
        "t4": expansion(_XV.MATCHED_AD2C, MPE_T4),
        "fr": product(_XV.MATCHED_AD2C, FOREST_RUTH),
        # diffusion first: with constant coefficients the two generators
        # commute, so the order is a pure reproducibility convention
        "a_d": _one(Stage(_DV.SAULYEV_MATCHED), Stage(_AV.MATCHED_CN)),
    }),
)}

_SUBSTEP_RE = re.compile(r"^([1-9]\d*)x(.+)$")


def preset_names(equation: Equation) -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS[equation]))


def resolve_preset(name: str, equation: Equation) -> Scheme:
    """Look up a named scheme; 'Nxname' runs name N times at dt/N."""
    substeps = 1
    key = name.strip().lower()
    m = _SUBSTEP_RE.match(key)
    if m:
        try:
            substeps = int(m.group(1))
        except ValueError:   # more digits than int() converts: far beyond the float range
            raise ParameterError(
                f"substeps must be finite, got {len(m.group(1))} digits") from None
        key = m.group(2)
    table = _PRESETS[equation]
    if key not in table:
        raise KeyError(
            f"unknown {equation.value} scheme '{name}'; "
            f"available: {', '.join(preset_names(equation))}")
    scheme = table[key]
    if substeps > 1:
        scheme = dataclasses.replace(scheme, name=name.strip().lower(), substeps=substeps)
    return scheme
