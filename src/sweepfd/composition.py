"""Time-marching schemes built from pair sweeps.

The symmetric second-order step runs one ascending and one descending
half-sweep.  Higher order comes either from a single product of such
steps with chosen step fractions a_i (advection only; a diffusion
substep with a_i < 0 is unstable) or from a multi-product expansion
sum_k c_k T2^k(dt/k), which trades exact structure preservation for
positive substeps.  Euler and Lax-Wendroff are kept as explicit
reference steppers for figure reproduction only.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from . import coefficients as coef
from .errors import BoundaryKindError, InvalidCoefficientError, ParameterError, StabilityError
from .grid import BoundaryKind, Field1D
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


Variant = Union[coef.DiffusionVariant, coef.AdvectionVariant, coef.AdvDiffVariant, None]


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
    variant: Variant
    base: BaseStep
    plan: Plan = None

    def __post_init__(self):
        if self.plan is not None and self.base is not BaseStep.T2:
            raise ParameterError("composition plans require the symmetric T2 base")
        if isinstance(self.plan, SingleProduct):
            negatives = [a for a in self.plan.coefficients if a < 0.0]
            if negatives and self.equation is Equation.DIFFUSION:
                raise StabilityError(
                    "diffusion substeps with negative coefficients are unstable")
            if negatives and self.equation is Equation.ADV_DIFF:
                warnings.warn(
                    "negative substeps diffuse backwards; stable only for small r",
                    RuntimeWarning, stacklevel=2)


# ---------------------------------------------------------------------------
# pair-update resolution

def full_update(equation: Equation, variant: Variant, params: StepParams,
                direction: SweepDirection) -> PairUpdate:
    """Coefficients for a single full-parameter sweep (first-order schemes)."""
    if equation is Equation.DIFFUSION:
        return coef.diffusion_coeffs(coef.DiffusionParams(params.r, variant), half=False)
    if equation is Equation.ADVECTION:
        return coef.advection_coeffs(coef.AdvectionParams(params.eta, variant), direction)
    p = coef.AdvDiffParams(params.r, params.eta, variant)
    if variant is coef.AdvDiffVariant.SPLIT_DERIVED:
        return coef.advdiff_coeffs_split(p)
    if variant is coef.AdvDiffVariant.GENERALIZED_RW:
        return coef.advdiff_coeffs_rw(p, direction)
    return coef.advdiff_coeffs_ad2c(p, half=False)


def half_update(equation: Equation, variant: Variant, params: StepParams,
                direction: SweepDirection, signed: bool = False) -> PairUpdate:
    """Coefficients for one half-sweep of the symmetric step at (r, eta).

    The matched-CN and AD2C coefficient formulas already describe a half
    sweep of the full step, so they are evaluated at the full parameters;
    every other variant is evaluated at half parameters.  signed=True
    admits r < 0 for the advection-diffusion variants, needed inside
    warned negative-coefficient compositions; diffusion never does.
    """
    if equation is Equation.DIFFUSION:
        return coef.diffusion_coeffs(coef.DiffusionParams(params.r, variant), half=True)
    if equation is Equation.ADVECTION:
        divisor = 1 if variant is coef.AdvectionVariant.MATCHED_CN else 2
        return coef.advection_coeffs(coef.AdvectionParams(params.eta, variant),
                                     direction, half_divisor=divisor)
    if not signed:
        if variant is coef.AdvDiffVariant.MATCHED_AD2C:
            return coef.advdiff_coeffs_ad2c(
                coef.AdvDiffParams(params.r, params.eta, variant), half=False)
        return full_update(equation, variant, params.scaled(0.5), direction)
    if variant is coef.AdvDiffVariant.MATCHED_AD2C:
        return coef._ad2c_update(params.r, params.eta)
    if variant is coef.AdvDiffVariant.GENERALIZED_RW:
        return coef._rw_update(0.5 * params.r, 0.5 * params.eta, direction)
    return coef._split_update(0.5 * params.r, 0.5 * params.eta)


# ---------------------------------------------------------------------------
# steppers

def step_t2(f: Field1D, spec: SchemeSpec, params: StepParams,
            signed: bool = False) -> None:
    """Symmetric step: ascending half-sweep first, then descending."""
    asc = half_update(spec.equation, spec.variant, params, SweepDirection.ASCENDING, signed)
    desc = half_update(spec.equation, spec.variant, params, SweepDirection.DESCENDING, signed)
    sweep(f, asc, SweepDirection.ASCENDING)
    sweep(f, desc, SweepDirection.DESCENDING)


def step_single_product(f: Field1D, spec: SchemeSpec, params: StepParams) -> None:
    if not isinstance(spec.plan, SingleProduct):
        raise ParameterError("spec does not carry a single-product plan")
    signed = spec.equation is Equation.ADV_DIFF
    for a in reversed(spec.plan.coefficients):
        step_t2(f, spec, params.scaled(a), signed=signed)


def step_multi_product(f: Field1D, spec: SchemeSpec, params: StepParams) -> None:
    if not isinstance(spec.plan, MultiProduct):
        raise ParameterError("spec does not carry a multi-product plan")
    acc = np.zeros_like(f.values)
    for c, k in spec.plan.terms:
        term = f.copy()
        sub = params.scaled(1.0 / k)
        for _ in range(k):
            step_t2(term, spec, sub)
        np.add(acc, np.multiply(float(c), term.values, out=term.values), out=acc)
    f.values[:] = acc


def apply_spec(f: Field1D, spec: SchemeSpec, params: StepParams) -> None:
    """One full step of the scheme described by spec."""
    if isinstance(spec.plan, SingleProduct):
        step_single_product(f, spec, params)
    elif isinstance(spec.plan, MultiProduct):
        step_multi_product(f, spec, params)
    elif spec.base is BaseStep.T2:
        step_t2(f, spec, params)
    elif spec.base is BaseStep.SWEEP_1A:
        sweep(f, full_update(spec.equation, spec.variant, params, SweepDirection.ASCENDING),
              SweepDirection.ASCENDING)
    else:
        sweep(f, full_update(spec.equation, spec.variant, params, SweepDirection.DESCENDING),
              SweepDirection.DESCENDING)


def step_ad_sequential(f: Field1D, adv_spec: SchemeSpec, diff_spec: SchemeSpec,
                       params: StepParams) -> None:
    """Advance advection and diffusion with separate schemes, diffusion first.

    With constant coefficients the two generators commute, so the order
    is a pure reproducibility convention.
    """
    apply_spec(f, diff_spec, params)
    apply_spec(f, adv_spec, params)


# ---------------------------------------------------------------------------
# explicit reference steppers (figure comparators)

def euler_step(f: Field1D, params: StepParams) -> None:
    """Forward-time central-space diffusion step; stable only for r <= 1/2."""
    if f.boundary is not BoundaryKind.PERIODIC:
        raise BoundaryKindError("reference steppers assume a periodic field")
    v = f.values
    v[:] = v + params.r * (np.roll(v, -1) - 2.0 * v + np.roll(v, 1))


def lax_wendroff_step(f: Field1D, params: StepParams) -> None:
    if f.boundary is not BoundaryKind.PERIODIC:
        raise BoundaryKindError("reference steppers assume a periodic field")
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


def apply_scheme(f: Field1D, scheme: Scheme, params: StepParams) -> None:
    sub = params if scheme.substeps == 1 else params.scaled(1.0 / scheme.substeps)
    for _ in range(scheme.substeps):
        if scheme.comparator is Comparator.EULER:
            euler_step(f, sub)
        elif scheme.comparator is Comparator.LAX_WENDROFF:
            lax_wendroff_step(f, sub)
        elif scheme.comparator is Comparator.CRANK_NICOLSON:
            raise ParameterError("the implicit comparator has no explicit stepper")
        elif scheme.sequential is not None:
            diff_spec, adv_spec = scheme.sequential
            step_ad_sequential(f, adv_spec, diff_spec, sub)
        else:
            apply_spec(f, scheme.spec, sub)


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

def _diff(variant, base, plan=None):
    return SchemeSpec(Equation.DIFFUSION, variant, base, plan)


def _adv(variant, base, plan=None):
    return SchemeSpec(Equation.ADVECTION, variant, base, plan)


def _ad(variant, base, plan=None):
    return SchemeSpec(Equation.ADV_DIFF, variant, base, plan)


_DV = coef.DiffusionVariant
_AV = coef.AdvectionVariant
_XV = coef.AdvDiffVariant

_PRESETS = {
    Equation.DIFFUSION: {
        "euler": lambda: Scheme("euler", Equation.DIFFUSION, comparator=Comparator.EULER),
        "cn": lambda: Scheme("cn", Equation.DIFFUSION, comparator=Comparator.CRANK_NICOLSON),
        "d1a": lambda: Scheme("d1a", Equation.DIFFUSION, _diff(_DV.EXPONENTIAL, BaseStep.SWEEP_1A)),
        "d1b": lambda: Scheme("d1b", Equation.DIFFUSION, _diff(_DV.EXPONENTIAL, BaseStep.SWEEP_1B)),
        "d1as": lambda: Scheme("d1as", Equation.DIFFUSION, _diff(_DV.SAULYEV_MATCHED, BaseStep.SWEEP_1A)),
        "d1bs": lambda: Scheme("d1bs", Equation.DIFFUSION, _diff(_DV.SAULYEV_MATCHED, BaseStep.SWEEP_1B)),
        "d2": lambda: Scheme("d2", Equation.DIFFUSION, _diff(_DV.EXPONENTIAL, BaseStep.T2)),
        "d2s": lambda: Scheme("d2s", Equation.DIFFUSION, _diff(_DV.SAULYEV_MATCHED, BaseStep.T2)),
        "t4": lambda: Scheme("t4", Equation.DIFFUSION,
                             _diff(_DV.SAULYEV_MATCHED, BaseStep.T2, MultiProduct(MPE_T4))),
        "t6": lambda: Scheme("t6", Equation.DIFFUSION,
                             _diff(_DV.SAULYEV_MATCHED, BaseStep.T2, MultiProduct(MPE_T6))),
        "t8": lambda: Scheme("t8", Equation.DIFFUSION,
                             _diff(_DV.SAULYEV_MATCHED, BaseStep.T2, MultiProduct(MPE_T8))),
    },
    Equation.ADVECTION: {
        "lw": lambda: Scheme("lw", Equation.ADVECTION, comparator=Comparator.LAX_WENDROFF),
        "a1a": lambda: Scheme("a1a", Equation.ADVECTION, _adv(_AV.TRIG, BaseStep.SWEEP_1A)),
        "a1b": lambda: Scheme("a1b", Equation.ADVECTION, _adv(_AV.TRIG, BaseStep.SWEEP_1B)),
        "a1as": lambda: Scheme("a1as", Equation.ADVECTION, _adv(_AV.SAULYEV, BaseStep.SWEEP_1A)),
        "a1bs": lambda: Scheme("a1bs", Equation.ADVECTION, _adv(_AV.SAULYEV, BaseStep.SWEEP_1B)),
        "rw1a": lambda: Scheme("rw1a", Equation.ADVECTION, _adv(_AV.ROBERTS_WEISS, BaseStep.SWEEP_1A)),
        "rw1b": lambda: Scheme("rw1b", Equation.ADVECTION, _adv(_AV.ROBERTS_WEISS, BaseStep.SWEEP_1B)),
        "a2": lambda: Scheme("a2", Equation.ADVECTION, _adv(_AV.TRIG, BaseStep.T2)),
        "a2s": lambda: Scheme("a2s", Equation.ADVECTION, _adv(_AV.SAULYEV, BaseStep.T2)),
        "a2c": lambda: Scheme("a2c", Equation.ADVECTION, _adv(_AV.MATCHED_CN, BaseStep.T2)),
        "rw2": lambda: Scheme("rw2", Equation.ADVECTION, _adv(_AV.ROBERTS_WEISS, BaseStep.T2)),
        "fr": lambda: Scheme("fr", Equation.ADVECTION,
                             _adv(_AV.MATCHED_CN, BaseStep.T2, SingleProduct(FOREST_RUTH))),
        "s4": lambda: Scheme("s4", Equation.ADVECTION,
                             _adv(_AV.MATCHED_CN, BaseStep.T2, SingleProduct(SUZUKI4))),
        "y6": lambda: Scheme("y6", Equation.ADVECTION,
                             _adv(_AV.MATCHED_CN, BaseStep.T2, SingleProduct(YOSHIDA6))),
    },
    Equation.ADV_DIFF: {
        "rw1a": lambda: Scheme("rw1a", Equation.ADV_DIFF, _ad(_XV.GENERALIZED_RW, BaseStep.SWEEP_1A)),
        "rw1b": lambda: Scheme("rw1b", Equation.ADV_DIFF, _ad(_XV.GENERALIZED_RW, BaseStep.SWEEP_1B)),
        "rw2": lambda: Scheme("rw2", Equation.ADV_DIFF, _ad(_XV.GENERALIZED_RW, BaseStep.T2)),
        "ad2c": lambda: Scheme("ad2c", Equation.ADV_DIFF, _ad(_XV.MATCHED_AD2C, BaseStep.T2)),
        "split1a": lambda: Scheme("split1a", Equation.ADV_DIFF, _ad(_XV.SPLIT_DERIVED, BaseStep.SWEEP_1A)),
        "split1b": lambda: Scheme("split1b", Equation.ADV_DIFF, _ad(_XV.SPLIT_DERIVED, BaseStep.SWEEP_1B)),
        "t4": lambda: Scheme("t4", Equation.ADV_DIFF,
                             _ad(_XV.MATCHED_AD2C, BaseStep.T2, MultiProduct(MPE_T4))),
        "fr": lambda: Scheme("fr", Equation.ADV_DIFF,
                             _ad(_XV.MATCHED_AD2C, BaseStep.T2, SingleProduct(FOREST_RUTH))),
        "a_d": lambda: Scheme("a_d", Equation.ADV_DIFF,
                              sequential=(_diff(_DV.SAULYEV_MATCHED, BaseStep.T2),
                                          _adv(_AV.MATCHED_CN, BaseStep.T2))),
    },
}

_SUBSTEP_RE = re.compile(r"^(\d+)x(.+)$")


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
    scheme = table[key]()
    if substeps > 1:
        scheme = Scheme(name.strip().lower(), scheme.equation, scheme.spec,
                        scheme.comparator, scheme.sequential, substeps)
    return scheme
