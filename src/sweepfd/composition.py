"""Time-marching schemes built from pair sweeps.

The symmetric second-order step runs one ascending and one descending
half-sweep.  Higher order comes either from a single product of such
steps with chosen step fractions a_i (advection only; a diffusion
substep with a_i < 0 is unstable) or from a multi-product expansion
sum_k c_k T2^k(dt/k), which trades exact structure preservation for
positive substeps.  Euler and Lax-Wendroff are kept as explicit
reference steppers for figure reproduction only.

compile_scheme turns a scheme and its step parameters into one Program,
a weighted sum of products of sweeps; stepping, the closed-form
amplification factor and the numeric readout all interpret it.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import coefficients as coef
from .errors import InvalidCoefficientError, ParameterError, StabilityError
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


_FAMILIES = {Equation.DIFFUSION: coef.DiffusionVariant,
             Equation.ADVECTION: coef.AdvectionVariant,
             Equation.ADV_DIFF: coef.AdvDiffVariant}


@dataclass(frozen=True)
class StepParams:
    """Dimensionless step: r = dt*D/dx^2 and eta = v*dt/dx."""

    r: float = 0.0
    eta: float = 0.0

    @classmethod
    def from_physics(cls, dt: float, dx: float, diffusivity: float = 0.0,
                     velocity: float = 0.0) -> "StepParams":
        return cls(dt * diffusivity / (dx * dx), velocity * dt / dx)

    def scaled(self, factor: float) -> "StepParams":
        return StepParams(self.r * factor, self.eta * factor)


@dataclass(frozen=True)
class SingleProduct:
    """Composition T2(a_1 dt) ... T2(a_m dt), applied right to left."""

    coefficients: Tuple[float, ...]

    def __post_init__(self):
        if not self.coefficients:
            raise ParameterError("a single-product plan needs at least one coefficient")
        object.__setattr__(self, "coefficients", tuple(float(a) for a in self.coefficients))
        if abs(math.fsum(self.coefficients) - 1.0) > PLAN_SUM_TOL:
            raise InvalidCoefficientError("single-product coefficients must sum to 1")


@dataclass(frozen=True)
class MultiProduct:
    """Expansion sum_k c_k T2^k(dt/k); c_k kept as exact rationals."""

    terms: Tuple[Tuple[Fraction, int], ...]

    def __post_init__(self):
        if not self.terms:
            raise ParameterError("a multi-product plan needs at least one term")
        terms = tuple((Fraction(c), int(k)) for c, k in self.terms)
        if any(k < 1 for _, k in terms):
            raise ParameterError("multi-product powers k must be >= 1")
        if sum(c for c, _ in terms) != 1:
            raise InvalidCoefficientError("multi-product weights must sum to 1")
        object.__setattr__(self, "terms", tuple(sorted(terms, key=lambda t: t[1])))


Plan = Optional[Union[SingleProduct, MultiProduct]]


@dataclass(frozen=True)
class SchemeSpec:
    """Equation family + coefficient variant + base step + composition plan."""

    equation: Equation
    variant: coef.Variant
    base: BaseStep
    plan: Plan = None

    def __post_init__(self):
        family = _FAMILIES[self.equation]
        if not isinstance(self.variant, family):
            raise ParameterError(
                f"{self.equation.value} schemes take a {family.__name__}, got {self.variant}")
        if self.plan is not None and self.base is not BaseStep.T2:
            raise ParameterError("composition plans require the symmetric T2 base")
        if self.equation is Equation.DIFFUSION and _has_negative_fraction(self):
            raise StabilityError("diffusion substeps with negative coefficients are unstable")


def _has_negative_fraction(spec: SchemeSpec) -> bool:
    return isinstance(spec.plan, SingleProduct) and min(spec.plan.coefficients) < 0.0


# ---------------------------------------------------------------------------
# explicit reference steppers (figure comparators)

def euler_step(f: Field1D, params: StepParams) -> None:
    """Forward-time central-space diffusion step; stable only for r <= 1/2."""
    v = f.values
    v[:] = v + params.r * (np.roll(v, -1) - 2.0 * v + np.roll(v, 1))


def lax_wendroff_step(f: Field1D, params: StepParams) -> None:
    v = f.values
    vp, vm = np.roll(v, -1), np.roll(v, 1)
    v[:] = v - 0.5 * params.eta * (vp - vm) + 0.5 * params.eta ** 2 * (vp - 2.0 * v + vm)


class Comparator(Enum):
    EULER = "euler"
    CRANK_NICOLSON = "crank-nicolson"
    LAX_WENDROFF = "lax-wendroff"


# ---------------------------------------------------------------------------
# named schemes

@dataclass(frozen=True)
class Scheme:
    """A runnable, named time stepper (exactly one of spec/comparator/sequential)."""

    name: str
    equation: Equation
    spec: Optional[SchemeSpec] = None
    comparator: Optional[Comparator] = None
    sequential: Optional[Tuple[SchemeSpec, SchemeSpec]] = None  # (diffusion, advection)
    substeps: int = 1

    def __post_init__(self):
        slots = [self.spec, self.comparator, self.sequential]
        if sum(s is not None for s in slots) != 1:
            raise ParameterError("a scheme needs exactly one of spec/comparator/sequential")
        if self.substeps < 1:
            raise ParameterError("substeps must be >= 1")
        if any(isinstance(s.plan, MultiProduct) for s in self.sequential or ()):
            raise ParameterError("a sequential scheme cannot hold a multi-product spec")


# ---------------------------------------------------------------------------
# sweep programs

Steppable = Union[Scheme, SchemeSpec]
Op = Tuple[Union[PairUpdate, Comparator], Union[SweepDirection, StepParams]]
Stage = Tuple[Op, ...]
Term = Tuple[float, int, Tuple[Stage, ...]]   # (weight, power, stages)

PROGRAM_CACHE_SIZE = 256


@dataclass(frozen=True)
class Program:
    """One step compiled to sweeps: substeps x sum_t weight_t (stage_1 ... stage_m)^power_t.

    Stages, and the ops inside a stage, run in order.  A sweep op is
    (PairUpdate, SweepDirection), a comparator op (Comparator, StepParams).
    A program with one term has weight 1 and runs in place.
    """

    substeps: int
    terms: Tuple[Term, ...]


def _t2_stage(spec: SchemeSpec, params: StepParams) -> Stage:
    """Symmetric step: ascending half-sweep first, then descending."""
    return tuple((coef.pair_update(spec.variant, params.r, params.eta, d, half=True), d)
                 for d in (SweepDirection.ASCENDING, SweepDirection.DESCENDING))


@functools.lru_cache(maxsize=PROGRAM_CACHE_SIZE)
def compile_scheme(scheme: Steppable, params: StepParams) -> Program:
    """The sweep program of one step of scheme (a named scheme or a bare spec) at params.

    Every coefficient is resolved here, so construction errors are raised
    before a field is touched; stepping, closed-form factors and the
    numeric readout all interpret the returned program.  r < 0 is
    rejected for every scheme that diffuses; an advection-diffusion
    program with negative step fractions warns once when compiled at r > 0.
    """
    if isinstance(scheme, SchemeSpec):
        scheme = Scheme("spec", scheme.equation, scheme)
    if params.r < 0.0 and scheme.equation is not Equation.ADVECTION:
        raise StabilityError(f"{scheme.equation.value} steps require r >= 0, got r = {params.r}")
    sub = params if scheme.substeps == 1 else params.scaled(1.0 / scheme.substeps)
    if scheme.comparator is not None:
        return Program(scheme.substeps, ((1.0, 1, (((scheme.comparator, sub),),)),))
    specs = scheme.sequential or (scheme.spec,)
    if params.r > 0.0 and any(s.equation is Equation.ADV_DIFF and _has_negative_fraction(s)
                              for s in specs):
        warnings.warn(f"negative substeps diffuse backwards: {scheme.name} at r = {params.r} "
                      "is stable only for small r", RuntimeWarning, stacklevel=2)
    spec = scheme.spec
    if spec is not None and isinstance(spec.plan, MultiProduct):   # sum_k c_k T2^k(dt/k)
        terms = tuple((float(c), k, (_t2_stage(spec, sub.scaled(1.0 / k)),))
                      for c, k in spec.plan.terms)
        return Program(scheme.substeps, terms)
    stages = []
    # a sequential scheme runs diffusion first: with constant coefficients the
    # two generators commute, so the order is a pure reproducibility convention
    for spec in specs:
        if isinstance(spec.plan, SingleProduct):   # T2(a_1 dt) ... T2(a_m dt), right to left
            stages += [_t2_stage(spec, sub.scaled(a))
                       for a in reversed(spec.plan.coefficients)]
        elif spec.base is BaseStep.T2:
            stages.append(_t2_stage(spec, sub))
        else:
            d = (SweepDirection.ASCENDING if spec.base is BaseStep.SWEEP_1A
                 else SweepDirection.DESCENDING)
            stages.append(((coef.pair_update(spec.variant, sub.r, sub.eta, d), d),))
    return Program(scheme.substeps, ((1.0, 1, tuple(stages)),))


def apply_scheme(f: Field1D, scheme: Steppable, params: StepParams) -> None:
    """Advance f in place by one step of scheme, running its compiled sweep program."""
    program = compile_scheme(scheme, params)
    weighted = len(program.terms) > 1
    for _ in range(program.substeps):
        acc = np.zeros_like(f.values) if weighted else None
        for weight, power, stages in program.terms:
            term = f.copy() if weighted else f
            for stage in stages * power:
                for head, arg in stage:
                    if isinstance(head, PairUpdate):
                        sweep(term, head, arg)
                    elif head is Comparator.EULER:
                        euler_step(term, arg)
                    elif head is Comparator.LAX_WENDROFF:
                        lax_wendroff_step(term, arg)
                    else:
                        raise ParameterError("the implicit comparator has no explicit stepper")
            if weighted:
                np.add(acc, np.multiply(weight, term.values, out=term.values), out=acc)
        if weighted:
            f.values[:] = acc


def nominal_order(scheme: Scheme) -> Tuple[int, int]:
    """(leading order p, error-series stride q) used by extrapolation."""
    if scheme.comparator is Comparator.EULER:
        return 1, 1
    if scheme.comparator is not None:
        return 2, 1
    if scheme.sequential is not None:
        orders = [_spec_order(s) for s in scheme.sequential]
        return min(p for p, _ in orders), min(q for _, q in orders)
    return _spec_order(scheme.spec)


def _spec_order(spec: SchemeSpec) -> Tuple[int, int]:
    if spec.plan is None:
        return (2, 2) if spec.base is BaseStep.T2 else (1, 1)
    if isinstance(spec.plan, MultiProduct):
        return 2 * len(spec.plan.terms), 2
    report = validate_order_conditions(spec.plan.coefficients, 6)
    if report.satisfies(6):
        return 6, 2
    if report.satisfies(4):
        return 4, 2
    return 2, 2


# ---------------------------------------------------------------------------
# composition coefficient tables

_CBRT2 = 2.0 ** (1.0 / 3.0)
_FR_A1 = 1.0 / (2.0 - _CBRT2)
FOREST_RUTH = (_FR_A1, -_CBRT2 * _FR_A1, _FR_A1)

_CBRT4 = 4.0 ** (1.0 / 3.0)
_S4_A1 = 1.0 / (4.0 - _CBRT4)
SUZUKI4 = (_S4_A1, _S4_A1, -_CBRT4 * _S4_A1, _S4_A1, _S4_A1)

_Y6_A1 = -1.17767998417887
_Y6_A2 = 0.235573213359357
_Y6_A3 = 0.784513610477560
_Y6_A0 = 1.0 - 2.0 * (_Y6_A1 + _Y6_A2 + _Y6_A3)
YOSHIDA6 = (_Y6_A3, _Y6_A2, _Y6_A1, _Y6_A0, _Y6_A1, _Y6_A2, _Y6_A3)

MPE_T4 = ((Fraction(-1, 3), 1), (Fraction(4, 3), 2))
MPE_T6 = ((Fraction(1, 24), 1), (Fraction(-16, 15), 2), (Fraction(81, 40), 3))
MPE_T8 = ((Fraction(-1, 360), 1), (Fraction(16, 45), 2),
          (Fraction(-729, 280), 3), (Fraction(1024, 315), 4))


@dataclass(frozen=True)
class OrderConditionReport:
    """Power sums of the step fractions and the orders they certify."""

    sum_error: float     # sum a_i - 1
    cubic_sum: float     # sum a_i^3
    quintic_sum: float   # sum a_i^5
    target_order: int
    tolerance: float

    def satisfies(self, order: int) -> bool:
        ok = abs(self.sum_error) <= self.tolerance
        if order >= 4:
            ok = ok and abs(self.cubic_sum) <= self.tolerance
        if order >= 6:
            ok = ok and abs(self.quintic_sum) <= self.tolerance
        return ok

    @property
    def passed(self) -> bool:
        return self.satisfies(self.target_order)


def validate_order_conditions(a: Sequence[float], target_order: int,
                              tolerance: float = 1e-12) -> OrderConditionReport:
    """Check sum a = 1, sum a^3 = 0, sum a^5 = 0 up to the target order."""
    if not len(a):
        raise ParameterError("empty coefficient list")
    arr = [float(x) for x in a]
    return OrderConditionReport(
        sum_error=math.fsum(arr) - 1.0,
        cubic_sum=math.fsum(x ** 3 for x in arr),
        quintic_sum=math.fsum(x ** 5 for x in arr),
        target_order=target_order,
        tolerance=tolerance,
    )


# ---------------------------------------------------------------------------
# preset catalogue

_diff = functools.partial(SchemeSpec, Equation.DIFFUSION)
_adv = functools.partial(SchemeSpec, Equation.ADVECTION)
_ad = functools.partial(SchemeSpec, Equation.ADV_DIFF)
_DV = coef.DiffusionVariant
_AV = coef.AdvectionVariant
_XV = coef.AdvDiffVariant

_PRESETS = {
    Equation.DIFFUSION: {
        "euler": Scheme("euler", Equation.DIFFUSION, comparator=Comparator.EULER),
        "cn": Scheme("cn", Equation.DIFFUSION, comparator=Comparator.CRANK_NICOLSON),
        "d1a": Scheme("d1a", Equation.DIFFUSION, _diff(_DV.EXPONENTIAL, BaseStep.SWEEP_1A)),
        "d1b": Scheme("d1b", Equation.DIFFUSION, _diff(_DV.EXPONENTIAL, BaseStep.SWEEP_1B)),
        "d1as": Scheme("d1as", Equation.DIFFUSION, _diff(_DV.SAULYEV_MATCHED, BaseStep.SWEEP_1A)),
        "d1bs": Scheme("d1bs", Equation.DIFFUSION, _diff(_DV.SAULYEV_MATCHED, BaseStep.SWEEP_1B)),
        "d2": Scheme("d2", Equation.DIFFUSION, _diff(_DV.EXPONENTIAL, BaseStep.T2)),
        "d2s": Scheme("d2s", Equation.DIFFUSION, _diff(_DV.SAULYEV_MATCHED, BaseStep.T2)),
        "t4": Scheme("t4", Equation.DIFFUSION,
                     _diff(_DV.SAULYEV_MATCHED, BaseStep.T2, MultiProduct(MPE_T4))),
        "t6": Scheme("t6", Equation.DIFFUSION,
                     _diff(_DV.SAULYEV_MATCHED, BaseStep.T2, MultiProduct(MPE_T6))),
        "t8": Scheme("t8", Equation.DIFFUSION,
                     _diff(_DV.SAULYEV_MATCHED, BaseStep.T2, MultiProduct(MPE_T8))),
    },
    Equation.ADVECTION: {
        "lw": Scheme("lw", Equation.ADVECTION, comparator=Comparator.LAX_WENDROFF),
        "a1a": Scheme("a1a", Equation.ADVECTION, _adv(_AV.TRIG, BaseStep.SWEEP_1A)),
        "a1b": Scheme("a1b", Equation.ADVECTION, _adv(_AV.TRIG, BaseStep.SWEEP_1B)),
        "a1as": Scheme("a1as", Equation.ADVECTION, _adv(_AV.SAULYEV, BaseStep.SWEEP_1A)),
        "a1bs": Scheme("a1bs", Equation.ADVECTION, _adv(_AV.SAULYEV, BaseStep.SWEEP_1B)),
        "rw1a": Scheme("rw1a", Equation.ADVECTION, _adv(_AV.ROBERTS_WEISS, BaseStep.SWEEP_1A)),
        "rw1b": Scheme("rw1b", Equation.ADVECTION, _adv(_AV.ROBERTS_WEISS, BaseStep.SWEEP_1B)),
        "a2": Scheme("a2", Equation.ADVECTION, _adv(_AV.TRIG, BaseStep.T2)),
        "a2s": Scheme("a2s", Equation.ADVECTION, _adv(_AV.SAULYEV, BaseStep.T2)),
        "a2c": Scheme("a2c", Equation.ADVECTION, _adv(_AV.MATCHED_CN, BaseStep.T2)),
        "rw2": Scheme("rw2", Equation.ADVECTION, _adv(_AV.ROBERTS_WEISS, BaseStep.T2)),
        "fr": Scheme("fr", Equation.ADVECTION,
                     _adv(_AV.MATCHED_CN, BaseStep.T2, SingleProduct(FOREST_RUTH))),
        "s4": Scheme("s4", Equation.ADVECTION,
                     _adv(_AV.MATCHED_CN, BaseStep.T2, SingleProduct(SUZUKI4))),
        "y6": Scheme("y6", Equation.ADVECTION,
                     _adv(_AV.MATCHED_CN, BaseStep.T2, SingleProduct(YOSHIDA6))),
    },
    Equation.ADV_DIFF: {
        "rw1a": Scheme("rw1a", Equation.ADV_DIFF, _ad(_XV.GENERALIZED_RW, BaseStep.SWEEP_1A)),
        "rw1b": Scheme("rw1b", Equation.ADV_DIFF, _ad(_XV.GENERALIZED_RW, BaseStep.SWEEP_1B)),
        "rw2": Scheme("rw2", Equation.ADV_DIFF, _ad(_XV.GENERALIZED_RW, BaseStep.T2)),
        "ad2c": Scheme("ad2c", Equation.ADV_DIFF, _ad(_XV.MATCHED_AD2C, BaseStep.T2)),
        "split1a": Scheme("split1a", Equation.ADV_DIFF, _ad(_XV.SPLIT_DERIVED, BaseStep.SWEEP_1A)),
        "split1b": Scheme("split1b", Equation.ADV_DIFF, _ad(_XV.SPLIT_DERIVED, BaseStep.SWEEP_1B)),
        "t4": Scheme("t4", Equation.ADV_DIFF,
                     _ad(_XV.MATCHED_AD2C, BaseStep.T2, MultiProduct(MPE_T4))),
        "fr": Scheme("fr", Equation.ADV_DIFF,
                     _ad(_XV.MATCHED_AD2C, BaseStep.T2, SingleProduct(FOREST_RUTH))),
        "a_d": Scheme("a_d", Equation.ADV_DIFF,
                      sequential=(_diff(_DV.SAULYEV_MATCHED, BaseStep.T2),
                                  _adv(_AV.MATCHED_CN, BaseStep.T2))),
    },
}

_SUBSTEP_RE = re.compile(r"^([1-9]\d*)x(.+)$")


def preset_names(equation: Equation) -> Tuple[str, ...]:
    return tuple(sorted(_PRESETS[equation]))


def resolve_preset(name: str, equation: Equation) -> Scheme:
    """Look up a named scheme; 'Nxname' runs name N times at dt/N."""
    substeps = 1
    key = name.strip().lower()
    m = _SUBSTEP_RE.match(key)
    if m:
        substeps = int(m.group(1))
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
