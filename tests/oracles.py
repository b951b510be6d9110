"""Independent references the tests compare the library against.

None of these is part of sweepfd: the lfilter sweep that the C kernel
must match bit for bit and its loop written out in Python floats, dense
generator and sweep matrices, the classic
fixed-end one-sided sweep, the stage-by-stage compiler of a Program
nested by term that compile_scheme must match op for op, the
copy-per-term stepper that every step must match bit for bit, the op-by-op
closed-form factor and the union-grid phase curve that scheme_factor and
phase_curve must match bit for bit (the stepper and the factor compile
stage by stage, so they share no code with compile_scheme or the layout),
single-theta amplification and phase samples, the theta -> 0 Richardson
limit, the symmetric diffusion step's closed form at either sign of r, the
composition power sums, and the row-wise CSV writer the command line's
streaming writer must match byte for byte.  Test modules import them with
`from oracles import ...`; pytest puts tests/ on sys.path, and this module
holds no tests of its own.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import reduce
from operator import mul
from typing import Callable, Optional, Sequence, Tuple

import numpy as np

from sweepfd import coefficients as coef
from sweepfd.composition import Equation, Op, Scheme, Stage, StepParams
from sweepfd.errors import (
    ParameterError,
    SizeError,
    SpatialAmplificationError,
    StabilityError,
)
from sweepfd.grid import Field1D
from sweepfd.spectral import (
    PHASE_RESOLUTION,
    AmplificationSample,
    Thetas,
    exact_factor,
    phase_curve,
    scheme_factor,
)
from sweepfd.sweep import PairUpdate, SweepDirection, sweep

MATRIX_ORACLE_MAX = 64


# ---------------------------------------------------------------------------
# sweep oracles

def saulyev_sweep_fixed(v: np.ndarray, gamma: float, beta: float, lam: float,
                        direction: SweepDirection) -> None:
    """Classic one-sided sweep of the float array v in place, end samples held fixed.

    Ascending: u_j' = beta u'_{j-1} + gamma u_j + lam u_{j+1}, left to right.
    Descending: u_j' = beta u_{j-1} + gamma u_j + lam u'_{j+1}, right to left.
    This form cannot be started on a periodic grid; use sweep() there.
    """
    from scipy.signal import lfilter

    n = v.size
    if direction.is_ascending:
        rhs = gamma * v[1:n - 1] + lam * v[2:]
        v[1:n - 1] = lfilter([1.0], [1.0, -beta], rhs, zi=np.array([beta * v[0]]))[0]
    else:
        rhs = gamma * v[1:n - 1] + beta * v[:n - 2]
        v[n - 2:0:-1] = lfilter([1.0], [1.0, -lam], rhs[::-1],
                                zi=np.array([lam * v[n - 1]]))[0]


def reference_sweep(f: Field1D, u: PairUpdate, direction: SweepDirection, *,
                    source: Optional[np.ndarray] = None, weight: Optional[float] = None,
                    offset: Optional[np.ndarray] = None) -> None:
    """sweep() built from lfilter and N-sized temporaries (the bit-identity oracle).

    The starred chain (first touches) runs through lfilter, whose order-1
    direct-form-II-transposed form the C kernel must reproduce bit for bit;
    each second touch is a*star_j + l*u_{j+1} (ascending) or
    b*u_{j-1} + a*star_j (descending).  The keywords are sweep()'s: the
    sweep of a copy of source (default f.values) is stored in f.values, or
    with a weight w, numpy's offset + w*swept (0.0 + w*swept without an
    offset).
    """
    from scipy.signal import lfilter

    v = np.array(f.values if source is None else source)
    n = v.size
    a, b, l = u.alpha, u.beta, u.lam
    star = np.empty(n)
    out = np.empty(n)
    if direction.is_ascending:
        star[0] = a * v[0] + l * v[1]
        star[1] = b * v[0] + a * v[1]
        star[2:] = lfilter([a], [1.0, -b], v[2:], zi=np.array([b * star[1]]))[0]
        out[1:n - 1] = a * star[1:n - 1] + l * v[2:]
        out[n - 1] = a * star[n - 1] + l * star[0]
        out[0] = b * star[n - 1] + a * star[0]
    else:
        star[0] = b * v[n - 1] + a * v[0]
        star[n - 1] = a * v[n - 1] + l * v[0]
        star[n - 2:0:-1] = lfilter([a], [1.0, -l], v[n - 2:0:-1],
                                   zi=np.array([l * star[n - 1]]))[0]
        out[2:] = b * v[1:n - 1] + a * star[2:]
        out[1] = b * star[0] + a * star[1]
        out[0] = a * star[0] + l * star[1]
    if weight is not None:
        out = np.add(0.0 if offset is None else offset, np.multiply(weight, out))
    f.values[:] = out


def scalar_sweep(f: Field1D, u: PairUpdate, direction: SweepDirection) -> None:
    """reference_sweep in place, with lfilter's loop written out in Python floats.

    This checks the oracle itself: its lfilter call's coefficients, initial
    state and slices.  Each first touch y_k of the starred chain takes
    lfilter's order-1 direct-form-II-transposed form, y_k = z + a*x_k and
    then z = x_k*0 - y_k*(-c), c the recurrence coefficient (beta ascending,
    lam descending), from z = c*y of the pair before the chain.  On a field
    with no nan on entry the two agree bit for bit.
    """
    v = f.values.tolist()
    n = len(v)
    a, b, l = u.alpha, u.beta, u.lam
    star = [0.0] * n
    out = [0.0] * n
    if direction.is_ascending:
        star[0] = a * v[0] + l * v[1]
        star[1] = b * v[0] + a * v[1]
        chain, c, z = range(2, n), b, b * star[1]
    else:
        star[0] = b * v[n - 1] + a * v[0]
        star[n - 1] = a * v[n - 1] + l * v[0]
        chain, c, z = range(n - 2, 0, -1), l, l * star[n - 1]
    for k in chain:
        star[k] = z + a * v[k]
        z = v[k] * 0.0 - star[k] * -c
    if direction.is_ascending:
        for j in range(1, n - 1):
            out[j] = a * star[j] + l * v[j + 1]
        out[n - 1] = a * star[n - 1] + l * star[0]
        out[0] = b * star[n - 1] + a * star[0]
    else:
        for j in range(2, n):
            out[j] = b * v[j - 1] + a * star[j]
        out[1] = b * star[0] + a * star[1]
        out[0] = a * star[0] + l * star[1]
    f.values[:] = out


def sweep_as_matrix(u: PairUpdate, direction: SweepDirection, n: int) -> np.ndarray:
    """Dense product of the N embedded 2x2 factors in sweep order (test oracle)."""
    if not 3 <= n <= MATRIX_ORACLE_MAX:
        raise SizeError(f"matrix oracle supports 3 <= N <= {MATRIX_ORACLE_MAX}, got {n}")
    order = range(n) if direction.is_ascending else range(n - 1, -1, -1)
    m = np.eye(n)
    for j in order:
        k = (j + 1) % n
        factor = np.eye(n)
        factor[j, j] = u.alpha
        factor[j, k] = u.lam
        factor[k, j] = u.beta
        factor[k, k] = u.alpha
        m = factor @ m
    return m


# ---------------------------------------------------------------------------
# compiling and stepping oracles

@dataclass(frozen=True)
class Program:
    """A scheme's plan with each stage of each term resolved to its ops."""

    substeps: int
    terms: Tuple[Tuple[float, int, Tuple[Tuple[Op, ...], ...]], ...]


def compile_scheme_by_stages(scheme: Scheme, params: StepParams) -> Program:
    """A Program of scheme at params, resolving every stage of every term in turn, uncached.

    Repeated stages are resolved again each time they occur, and the |b|
    guard runs over every op of the program.  compile_scheme resolves each
    distinct stage once; its row ops, nested through the layout's terms and
    stage rows, must give an equal Program (repr included), and it must
    give the same error and the same warnings.
    """
    if params.r < 0.0 and scheme.equation is not Equation.ADVECTION:
        raise StabilityError(f"{scheme.equation.value} steps require r >= 0, got r = {params.r}")
    if not (math.isfinite(params.r) and math.isfinite(params.eta)):
        raise ParameterError(f"r and eta must be finite, got r = {params.r}, eta = {params.eta}")
    if params.r > 0.0 and any(isinstance(s, Stage) and s.fraction < 0.0
                              and isinstance(s.variant, coef.AdvDiffVariant)
                              for _, _, stages in scheme.terms for s in stages):
        warnings.warn(f"negative substeps diffuse backwards: {scheme.name} at r = {params.r} "
                      "is stable only for small r", RuntimeWarning, stacklevel=2)
    sub = params if scheme.substeps == 1 else params.scaled(1.0 / scheme.substeps)
    program = Program(scheme.substeps, tuple(
        (float(weight), power, tuple(stage.ops(sub) for stage in stages))
        for weight, power, stages in scheme.terms))
    for head, arg in (op for _, _, stages in program.terms for stage in stages for op in stage):
        if isinstance(head, PairUpdate) and abs(head.recurrence(arg)) >= 1.0:
            raise SpatialAmplificationError(
                f"{scheme.name} at r = {params.r}, eta = {params.eta}: one of its {arg.value} "
                f"sweeps has recurrence coefficient |b| = {abs(head.recurrence(arg))} >= 1 "
                "and amplifies along it")
    return program


def apply_scheme_by_copies(f: Field1D, scheme: Scheme, params: StepParams) -> None:
    """One step of scheme, each term of each substep run in a fresh copy of f.

    The weighted terms are summed into a zeroed accumulator that is then
    copied back into f; a single term runs in place.  apply_scheme reuses
    its buffers and runs the last term in place, and must give these bits.
    """
    program = compile_scheme_by_stages(scheme, params)
    weighted = len(program.terms) > 1
    for _ in range(program.substeps):
        acc = np.zeros_like(f.values) if weighted else None
        for weight, power, stages in program.terms:
            term = f.copy() if weighted else f
            for stage in stages * power:
                for head, arg in stage:
                    if isinstance(head, PairUpdate):
                        sweep(term, head, arg)
                    else:
                        head.step(term, arg)
            if weighted:
                np.add(acc, np.multiply(weight, term.values, out=term.values), out=acc)
        if weighted:
            f.values[:] = acc


# ---------------------------------------------------------------------------
# circulant generators

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


# ---------------------------------------------------------------------------
# amplification factors and phase angles

def diffusion_t2_factor(variant: coef.DiffusionVariant, r: float, theta: Thetas):
    """Rational symmetric-step factor, defined for either sign of r.

    Stepping with r < 0 is rejected, but the closed form itself obeys
    g2(-r) g2(r) = 1, which is what makes the exponent odd in r.
    """
    asc, desc = SweepDirection.ASCENDING, SweepDirection.DESCENDING
    return coef.pair_update(variant, r, 0.0, asc, half=True).factor(asc, theta) \
        * coef.pair_update(variant, r, 0.0, desc, half=True).factor(desc, theta)


def scheme_factor_by_ops(scheme: Scheme, params: StepParams, theta: Thetas):
    """scheme_factor evaluated op by op, with no modes shared between ops.

    Each distinct op's PairUpdate.factor or Comparator.factor at theta; op
    factors multiply within a stage, stage products multiply, each term's
    product is raised to its power (1 included), the terms add with their
    weights and the sum is raised to substeps (1 included).  scheme_factor
    must give these bits at every theta shape.
    """
    program = compile_scheme_by_stages(scheme, params)
    ops = dict.fromkeys(op for _, _, stages in program.terms for stage in stages for op in stage)
    factors = {(head, arg): head.factor(arg, theta) for head, arg in ops}
    terms = []
    for weight, power, stages in program.terms:
        product = reduce(mul, (reduce(mul, (factors[op] for op in stage)) for stage in stages))
        terms.append((weight, product ** power))
    g = terms[0][1] if len(terms) == 1 else sum(weight * term for weight, term in terms)
    return g ** program.substeps


def phase_curve_on_union(scheme: Scheme, params: StepParams,
                         thetas: Sequence[float]) -> np.ndarray:
    """phase_curve tracked on the union of its tracking grid and the request.

    The grid is linspace(0, max theta, n) with n the fewest points at least
    as fine as PHASE_RESOLUTION; the factors come from scheme_factor_by_ops.
    phase_curve must give these bits, on its tracking grid or off it.
    """
    req = np.atleast_1d(np.asarray(thetas, dtype=float))
    tmax = float(req.max(initial=0.0))
    n_fine = max(2, int(math.ceil(tmax / PHASE_RESOLUTION)) + 1)
    grid = np.union1d(np.linspace(0.0, tmax, n_fine), req)
    unwrapped = -np.unwrap(np.angle(scheme_factor_by_ops(scheme, params, grid)))
    return unwrapped[np.searchsorted(grid, req)]


def exact_amplification(equation: Equation, params: StepParams, theta: float) -> AmplificationSample:
    return AmplificationSample(float(theta), complex(exact_factor(equation, params, theta)))


def scheme_amplification(scheme: Scheme, params: StepParams, theta: float) -> AmplificationSample:
    return AmplificationSample(float(theta), complex(scheme_factor(scheme, params, theta)))


def phase_angle(scheme: Scheme, params: StepParams, theta: float) -> float:
    return float(phase_curve(scheme, params, [theta])[0])


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


# ---------------------------------------------------------------------------
# composition order conditions

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
# command line output

def write_csv_by_rows(out: str, header: Sequence[str], names: Sequence[str],
                      rows: Sequence[Sequence[float]], footer: Sequence[str] = ()) -> None:
    """The CSV of sweepfd.cli.write_csv, written row by row and value by value."""
    def fmt(x: float) -> str:
        return f"{x + 0.0:.17g}"  # +0.0 folds -0.0 into 0.0

    with open(out, "w") as stream:
        for line in header:
            stream.write(line + "\n")
        stream.write(",".join(names) + "\n")
        for row in rows:
            stream.write(",".join(fmt(v) for v in row) + "\n")
        for line in footer:
            stream.write(line + "\n")
