"""Experiment command line: amplification tables, runs, convergence, norms, phase.

Each subcommand writes one CSV (stdout or --out) whose '#' header echoes
every parameter, so reruns are byte-identical and each experiment recipe
in the README is a single command.  Each command reads one namespace:
the parsed options, checked and resolved by _resolve_setup.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import stat
import sys
import warnings
from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from . import composition, grid, oracle, spectral
from .composition import Comparator, Equation, Scheme, StepParams
from .errors import (
    DegenerateFieldError,
    KernelUnavailable,
    NonFiniteResultError,
    NumericsError,
    ParameterError,
)
from .grid import Field1D

USAGE_EXIT = 2
FAILURE_EXIT = 1   # a numerical failure, no sweep kernel, or a CSV that could not be written
# ceiling on steps x N x nx of one NxNAME scheme's run (N = 1 for a plain NAME):
# hours of CPU time at any nx; a request beyond it (e.g. --dt 1e-300 --tfinal 1)
# would never finish
MAX_SAMPLE_STEPS = 10**10
# ceiling on --nx, so each N-sized float64 array takes at most 80 MB: a grid
# the allocator cannot hold must be a usage error, not a traceback. run keeps
# one such array per CSV column; write_csv adds one block of rows. It is also
# the ceiling on the steps of norms, which keeps one float64 per step and scheme
MAX_NX = 10**7
# ceiling on --ntheta, so the factor columns of many schemes fit in memory
MAX_NTHETA = 10**5
# rows per block of write_csv: all it holds beside the columns it is given
CSV_BLOCK_ROWS = 1024


class UsageError(Exception):
    pass


class WriteError(Exception):
    """The CSV could not be written; no message when stdout's reader has gone."""


def fmt(x: float) -> str:
    return f"{x + 0.0:.17g}"  # +0.0 folds -0.0 into 0.0


def write_csv(out: Optional[str], header: Sequence[str], names: Sequence[str],
              columns: Sequence[Sequence[float]], footer: Sequence[str] = ()) -> None:
    """Write the header lines, the column names, the table and the footer lines.

    columns is the table, column by column.  Its rows are written
    CSV_BLOCK_ROWS at a time, each value as fmt formats it.  out=None is
    stdout; an out that cannot be opened is a usage error.  Callers pass
    numbers already computed and checked, so a failed run opens no file.
    A write that fails (a full disk, a file-size limit, a closed pipe) is a
    WriteError; it removes a partial regular file, never a device or a FIFO.
    """
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    try:
        target = contextlib.nullcontext(sys.stdout) if out is None else open(out, "w")
    except OSError as exc:
        raise UsageError(f"--out {out!r} cannot be opened for writing: {exc.strerror}") from None
    try:
        with target as stream:
            stream.write("".join(text + "\n" for text in [*header, ",".join(names)]))
            for start in range(0, len(columns[0]), CSV_BLOCK_ROWS):
                block = np.column_stack([c[start:start + CSV_BLOCK_ROWS] for c in columns]) + 0.0
                stream.write("".join(line % tuple(row) for row in block.tolist()))
            stream.write("".join(text + "\n" for text in footer))
            stream.flush()   # stdout stays open: its write errors must surface here
    except OSError as exc:
        if out is not None:
            with contextlib.suppress(OSError):
                if stat.S_ISREG(os.lstat(out).st_mode):
                    os.remove(out)
            raise WriteError(f"--out {out!r} could not be written: {exc.strerror}") from None
        # the interpreter flushes stdout again at exit; point it at devnull so that
        # flush cannot print its own error
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if isinstance(exc, BrokenPipeError):   # the reader has gone, as after `| head`
            raise WriteError() from None
        raise WriteError(f"stdout could not be written: {exc.strerror}") from None


# ---------------------------------------------------------------------------
# argument handling

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sweepfd",
        description="symplectic finite-difference experiments (CSV output)")
    sub = parser.add_subparsers(dest="command", required=True)

    # each cmd_* is looked up here, on every main() call, so a rebound module
    # attribute (a tracer's wrapper) is the function that runs
    def common(p: argparse.ArgumentParser, cmd: Callable) -> None:
        p.set_defaults(cmd=cmd)
        p.add_argument("--equation", choices=[e.value for e in Equation],
                       default="diffusion")
        p.add_argument("--scheme", default="d2s",
                       help="comma-separated preset names; NxNAME substeps NAME N times")
        p.add_argument("--nx", type=int, default=120)
        p.add_argument("--xmin", type=float, default=-6.0)
        p.add_argument("--xmax", type=float, default=6.0)
        p.add_argument("--dcoef", type=float, default=0.5)
        p.add_argument("--vel", type=float, default=1.0)
        p.add_argument("--dt", type=float, default=0.1)
        p.add_argument("--steps", type=int, default=None)
        p.add_argument("--tfinal", type=float, default=None)
        p.add_argument("--profile", choices=["gaussian", "sextic"], default="gaussian")
        p.add_argument("--center", type=float, default=0.0)
        p.add_argument("--sigma", type=float, default=0.5)
        p.add_argument("--out", default=None)

    p_amp = sub.add_parser("ampfactor", help="amplification factor tables g(theta)")
    common(p_amp, cmd_ampfactor)
    p_amp.add_argument("--ntheta", type=int, default=257)

    p_run = sub.add_parser("run", help="evolve a profile and dump initial/final samples")
    common(p_run, cmd_run)
    p_run.add_argument("--checkpoints", default=None,
                       help="comma-separated times at which to record extra columns")

    p_conv = sub.add_parser("converge", help="observable vs dt with fitted order footer")
    common(p_conv, cmd_converge)
    p_conv.add_argument("--dts", required=True, help="comma-separated dt values, decreasing")
    p_conv.add_argument("--observable", choices=["abs-moment", "abs-weighted-mean"],
                        default="abs-moment")

    p_norm = sub.add_parser("norms", help="relative norm error per step")
    common(p_norm, cmd_norms)

    p_phase = sub.add_parser("phase", help="phase-angle error vs theta")
    common(p_phase, cmd_phase)
    p_phase.add_argument("--ntheta", type=int, default=1025)
    p_phase.set_defaults(equation="advection", dt=0.07)  # eta = 0.7 on the default grid

    return parser


def _numbers(text: str, option: str) -> List[float]:
    """The finite numbers of a comma-separated list option."""
    try:
        values = [float(t) for t in text.split(",")]
    except ValueError:
        raise UsageError(f"{option} takes comma-separated numbers, got '{text}'") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{option} values must be finite, got '{text}'")
    return values


def _finite(values, scheme: Scheme, where):
    """values, checked before they are written: a non-finite one is a numerical failure.

    values is a number, reached at step where, or an array at the thetas where.
    """
    if isinstance(values, np.ndarray):
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise NonFiniteResultError(f"{scheme.name} produced a non-finite value "
                                       f"({values[bad[0]]}) at theta={fmt(where[bad[0]])}")
    elif not math.isfinite(values):
        raise NonFiniteResultError(
            f"{scheme.name} produced a non-finite value ({values}) at step {where}")
    return values


def _step_count(t: float, dt: float) -> int:
    """round(t/dt); a ratio too large to count is a usage error."""
    ratio = t / dt
    if not math.isfinite(ratio):
        raise UsageError(f"t={t} takes no finite number of steps of dt={dt}")
    return round(ratio)


def _step_params(dt: float, dx: float, dcoef: float, vel: float) -> StepParams:
    """StepParams of the physics; an r or eta with no finite value is a usage error."""
    try:
        return StepParams.from_physics(dt, dx, dcoef, vel)
    except ParameterError as exc:
        raise UsageError(exc.args[0]) from exc


def _bounded(steps: int, nx: int, substeps: int) -> int:
    """steps, unless steps x substeps x nx exceeds MAX_SAMPLE_STEPS, which is a usage error."""
    if steps * substeps * nx > MAX_SAMPLE_STEPS:
        raise UsageError(f"the run exceeds {MAX_SAMPLE_STEPS:.0e} sample-steps (steps x N x nx "
                         f"for an NxNAME scheme); at nx={nx} and N={substeps} it may take at "
                         f"most {MAX_SAMPLE_STEPS // (substeps * nx)} steps")
    return steps


def _resolve_setup(args: argparse.Namespace) -> argparse.Namespace:
    """A new namespace of the checked options: equation is the Equation, dcoef and vel are
    zeroed where it cannot use them, and schemes, dx, params and steps are added."""
    for name, value in vars(args).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise UsageError(f"--{name} must be finite, got {value}")
    equation = Equation(args.equation)
    names = [s for s in args.scheme.split(",") if s.strip()]
    if not names:
        raise UsageError("no scheme given")
    schemes = []
    stepping = args.command in ("run", "norms", "converge")   # ampfactor and phase take no steps
    for name in names:
        try:
            scheme = composition.resolve_preset(name, equation)
        except (KeyError, ParameterError) as exc:
            raise UsageError(exc.args[0]) from exc
        if stepping and Comparator.CRANK_NICOLSON in scheme.layout.stages:
            raise UsageError(f"{args.command} cannot step {scheme.name}: the implicit comparator "
                             "has no explicit stepper (ampfactor takes its factor)")
        schemes.append(scheme)
    if args.nx < 3:
        raise UsageError("--nx must be at least 3")
    if args.nx > MAX_NX:
        raise UsageError(f"--nx may be at most {MAX_NX:.0e}, got {args.nx}")
    if not 2 <= getattr(args, "ntheta", 2) <= MAX_NTHETA:   # ampfactor and phase only
        raise UsageError(f"--ntheta must lie in [2, {MAX_NTHETA:.0e}], got {args.ntheta}")
    if args.xmax <= args.xmin:
        raise UsageError("--xmax must exceed --xmin")
    dx = (args.xmax - args.xmin) / args.nx
    if not math.isfinite(dx):
        raise UsageError(f"--xmax - --xmin = {args.xmax - args.xmin} over --nx={args.nx} "
                         "gives no finite dx")
    if args.dt <= 0:
        raise UsageError("--dt must be positive")
    if args.tfinal is not None and args.tfinal <= 0:
        raise UsageError("--tfinal must be positive")
    # sigma * |sigma| is the signed square of the width the profile divides by
    if args.profile == "gaussian" and not 0 < args.sigma * abs(args.sigma) < math.inf:
        raise UsageError(f"--sigma must be positive, with a square that neither overflows nor "
                         f"underflows to 0, for the gaussian profile, got {args.sigma}")
    steps = args.steps
    if steps is None and args.tfinal is not None:
        steps = max(1, _step_count(args.tfinal, args.dt))
        if abs(steps * args.dt - args.tfinal) > 1e-9 * max(1.0, args.tfinal):
            warnings.warn(
                f"dt={args.dt} does not divide tfinal={args.tfinal}; running {steps} steps "
                f"(t={steps * args.dt})", RuntimeWarning)
    if steps is None:
        steps = 10
    if steps < 0:
        raise UsageError("--steps must be >= 0")
    _bounded(steps, args.nx, max(s.substeps for s in schemes) if stepping else 1)
    if args.command == "norms" and steps > MAX_NX:
        raise UsageError(f"norms writes one row per step, so it may take at most {MAX_NX:.0e} "
                         f"steps, got {steps}")
    # physics the equation cannot use is zeroed so the r/eta echo is honest
    dcoef = 0.0 if equation is Equation.ADVECTION else args.dcoef
    vel = 0.0 if equation is Equation.DIFFUSION else args.vel
    return argparse.Namespace(**{
        **vars(args), "equation": equation, "schemes": schemes, "dx": dx, "dcoef": dcoef,
        "vel": vel, "params": _step_params(args.dt, dx, dcoef, vel), "steps": steps})


def _field(setup: argparse.Namespace) -> Field1D:
    if setup.profile == "gaussian":
        return grid.gaussian_profile(setup.nx, setup.xmin, setup.dx, setup.center, setup.sigma)
    return grid.sextic_profile(setup.nx, setup.xmin, setup.dx, setup.center)


def _header(setup: argparse.Namespace, command: str) -> List[str]:
    p = setup.params
    return [
        f"# sweepfd {command}",
        f"# equation={setup.equation.value} schemes={','.join(s.name for s in setup.schemes)}",
        f"# nx={setup.nx} xmin={fmt(setup.xmin)} xmax={fmt(setup.xmax)} dx={fmt(setup.dx)}",
        f"# dcoef={fmt(setup.dcoef)} vel={fmt(setup.vel)} dt={fmt(setup.dt)} steps={setup.steps}",
        f"# r={fmt(p.r)} eta={fmt(p.eta)}",
        f"# profile={setup.profile} center={fmt(setup.center)} sigma={fmt(setup.sigma)}",
        "# deterministic: no randomness anywhere; reruns are byte-identical",
    ]


# ---------------------------------------------------------------------------
# subcommands

def _evolve(initial: Field1D, scheme: Scheme, params: StepParams, stops: Iterable[int]):
    """Step one copy of initial with scheme, yielding (step, field) at each stop.

    stops ascend; a repeated stop yields the same field again.  The field is
    stepped in place after each yield, so a caller keeps its values by copying.
    """
    f = initial.copy()
    done = 0
    for stop in stops:
        for _ in range(stop - done):
            composition.apply_scheme(f, scheme, params)
        done = stop
        yield stop, f


def _curves(setup: argparse.Namespace, curve: Callable):
    """thetas = linspace(0, pi, ntheta), the exact exponent h there and each scheme's
    curve(scheme, thetas, h), checked."""
    thetas = np.linspace(0.0, np.pi, setup.ntheta)
    with np.errstate(all="ignore"):   # overflow surfaces as a non-finite curve value
        h = spectral.exact_exponent(setup.equation, setup.params, thetas)
        return thetas, h, [_finite(curve(s, thetas, h), s, thetas) for s in setup.schemes]


def cmd_ampfactor(setup: argparse.Namespace) -> None:
    thetas, h, factors = _curves(setup, lambda s, t, h: spectral.scheme_factor(s, setup.params, t))
    names, columns = ["theta"], [thetas]
    for name, g in zip(["exact"] + [s.name for s in setup.schemes], [np.exp(-h)] + factors):
        names += [f"{name}_re", f"{name}_im", f"{name}_abs", f"{name}_phase"]
        columns += [g.real, g.imag, np.abs(g), -np.angle(g)]
    write_csv(setup.out, _header(setup, "ampfactor"), names, columns)


def cmd_run(setup: argparse.Namespace) -> None:
    times = sorted(_numbers(setup.checkpoints, "--checkpoints")) if setup.checkpoints else []
    marks = sorted({_step_count(t, setup.dt) for t in times})
    if any(m < 1 or m > setup.steps for m in marks):   # u_initial is the step-0 column
        raise UsageError("checkpoints must lie inside the run")
    initial = _field(setup)   # never stepped: each scheme steps its own copy
    names, columns = ["x", "u_initial"], [initial.x, initial.values]
    norm_notes = [f"# norm initial={fmt(grid.norm(initial))}"]
    labels = [(f"t{m * setup.dt:g}", f"t={fmt(m * setup.dt)}: ") for m in marks] + \
        [("final", "final=")]
    for scheme in setup.schemes:
        stops = _evolve(initial, scheme, setup.params, marks + [setup.steps])
        for (step, f), (suffix, note) in zip(stops, labels):
            names.append(f"{scheme.name}_{suffix}")
            # the final field is stepped no further, so its column needs no copy
            columns.append(f.values if suffix == "final" else f.values.copy())
            norm = _finite(grid.norm(f), scheme, step)
            norm_notes.append(f"# norm {scheme.name} {note}{fmt(norm)}")
    write_csv(setup.out, _header(setup, "run") + norm_notes, names, columns)


def cmd_converge(setup: argparse.Namespace) -> None:
    dts_in = _numbers(setup.dts, "--dts")
    if len(dts_in) < 2 or any(b >= a for a, b in zip(dts_in, dts_in[1:])):
        raise UsageError("--dts needs at least two strictly decreasing values")
    total_time = setup.steps * setup.dt
    if total_time == 0.0:
        raise UsageError("converge needs a positive run time; --steps is 0")
    measure = grid.abs_moment if setup.observable == "abs-moment" else grid.abs_weighted_mean
    dts_used = []
    substeps = max(s.substeps for s in setup.schemes)
    for i, dt in enumerate(dts_in):
        steps = _bounded(max(1, _step_count(total_time, dt)), setup.nx, substeps)
        if dts_used and steps == dts_used[-1][1]:   # dts_in decreases, so steps never fall
            raise UsageError(f"--dts values {dts_in[i - 1]!r} and {dt!r} both take {steps} "
                             f"steps over t={total_time!r}")
        dt_used = total_time / steps
        if abs(dt_used - dt) > 1e-12 * dt:
            warnings.warn(f"dt={dt} does not divide t={total_time}; using dt={dt_used}",
                          RuntimeWarning)
        dts_used.append((dt_used, steps))
    initial = _field(setup)
    dts = [dt for dt, _ in dts_used]
    values = [[] for _ in setup.schemes]   # one column per --scheme entry, repeats included
    for dt_used, steps in dts_used:
        params = _step_params(dt_used, setup.dx, setup.dcoef, setup.vel)
        for scheme, column in zip(setup.schemes, values):
            for step, f in _evolve(initial, scheme, params, [steps]):
                column.append(_finite(measure(f), scheme, step))
    footer = []
    for scheme, column in zip(setup.schemes, values):
        try:
            fit = oracle.fit_power_law(dts, column)
        except NumericsError as exc:
            footer.append(f"# fit scheme={scheme.name} unavailable ({exc})")
        else:
            footer.append(f"# fit scheme={scheme.name} plateau={fmt(fit.plateau)} "
                          f"order={fmt(fit.order)}")
    header = _header(setup, "converge") + [
        f"# tfinal={fmt(total_time)} observable={setup.observable}"]
    write_csv(setup.out, header, ["dt"] + [s.name for s in setup.schemes], [dts] + values,
              footer)


def cmd_norms(setup: argparse.Namespace) -> None:
    initial = _field(setup)
    reference = grid.norm(initial)
    if reference == 0.0:
        raise DegenerateFieldError("relative norm errors of a zero-norm initial profile")
    traces = []
    for scheme in setup.schemes:
        stops = _evolve(initial, scheme, setup.params, range(1, setup.steps + 1))
        traces.append(np.fromiter(
            (_finite((grid.norm(f) - reference) / reference, scheme, step) for step, f in stops),
            float, count=setup.steps))
    times = np.arange(1, setup.steps + 1) * setup.dt
    write_csv(setup.out, _header(setup, "norms"), ["t"] + [s.name for s in setup.schemes],
              [times] + traces)


def cmd_phase(setup: argparse.Namespace) -> None:
    if setup.equation is not Equation.ADVECTION:
        raise UsageError("phase errors are defined for --equation advection")
    thetas, _, curves = _curves(
        setup, lambda s, t, h: spectral.phase_curve(s, setup.params, t) - h.imag)
    write_csv(setup.out, _header(setup, "phase"), ["theta"] + [s.name for s in setup.schemes],
              [thetas] + curves)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.cmd(_resolve_setup(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except NumericsError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except KernelUnavailable as exc:
        print(f"kernel error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    except WriteError as exc:
        if str(exc):
            print(f"write error: {exc}", file=sys.stderr)
        return FAILURE_EXIT
    return 0


if __name__ == "__main__":
    sys.exit(main())
