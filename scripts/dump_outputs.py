"""Dump what every preset compiles to and computes, one text file per scheme.

    PYTHONPATH=src python scripts/dump_outputs.py OUTDIR

For every preset, plain and as `2x`/`3x`, the file opens with a `layout:`
line, the `stage_rows`, `runs` and `sweeps` of `Scheme.layout`.  Then at
each (r, eta) of POINTS it records the `program:` line, the repr of the
tuple that `compile_scheme` returns, each distinct stage's ops in turn, one
per layout row (the stage rows index each stage's ops and the runs each
term's ops in run order, so the line reads back into its terms); the bytes
of `scheme_factor` on 33 thetas in [0, pi] and at the scalar theta of one
lattice mode; for advection presets the bytes of `phase_curve` on its
1025-point tracking grid of [0, pi] and on the 33 thetas (off that grid);
the field bytes after 3 steps of `apply_scheme`;
`numeric_amplification` at the lattice mode; the type and message of any
error these raise, and every warning.  `oracle.txt` records the bytes of
`exact_evolve` on a Gaussian at each N of ORACLE_NS and each (D, v, dt) of
ORACLE_POINTS, so a change to the exact flow shows up in the same diff.
Only the public API is used, so the script runs on any checkout that has
`Scheme.layout`: run it on two and `diff -r` the directories to check that
a change leaves every scheme's numbers bit-identical.
"""

import argparse
import math
import warnings
from pathlib import Path

import numpy as np

import sweepfd as sf

# (r, eta); the signed zeros come last, +0.0 first: == cannot tell the two steps
# apart, but their programs differ in the sign of a zero
POINTS = ((0.05, 0.4), (0.5, 0.8), (5.0, 2.5), (-0.1, -1.2), (1e9, 0.5), (0.0, 0.0),
          (-0.0, -0.0))
PREFIXES = ("", "2x", "3x")
THETAS = np.linspace(0.0, math.pi, 33)
PHASE_GRID = np.linspace(0.0, math.pi, 1025)   # phase_curve's tracking grid of [0, pi]
N = 48
STEPS = 3
MODE = 5
THETA_MODE = 2.0 * math.pi * MODE / N   # the lattice mode numeric_amplification reads
ORACLE_NS = (3, 17, 64, 800)
# (D, v, dt): diffusion, advection-diffusion, and advection at eta = v dt N / 12 >= 100
ORACLE_POINTS = ((0.5, 0.0, 0.2), (0.05, 0.7, 0.3), (0.0, 1.0, 400.0))


def record(lines, label, fn):
    """Append label: fn() (or its error) and the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            lines.append(f"{label}: {fn()}")
        except Exception as exc:   # the error is part of the output
            lines.append(f"{label}: {type(exc).__name__}: {exc}")
    lines += [f"{label} warning: {w.category.__name__}: {w.message}" for w in caught]


def stepped(scheme, params):
    f = sf.gaussian_profile(N, -6.0, 12.0 / N, 0.0, 1.0)
    for _ in range(STEPS):
        sf.apply_scheme(f, scheme, params)
    return f.values.tobytes().hex()


def dump(scheme, lines):
    layout = scheme.layout
    lines.append(f"layout: stage_rows {layout.stage_rows} runs {layout.runs} "
                 f"sweeps {layout.sweeps}")
    for r, eta in POINTS:
        params = sf.StepParams(r, eta)
        lines.append(f"== {params}")
        record(lines, "program", lambda: repr(sf.compile_scheme(scheme, params)))
        record(lines, "factor", lambda: np.asarray(
            sf.scheme_factor(scheme, params, THETAS), dtype=complex).tobytes().hex())
        record(lines, "factor at the mode", lambda: np.asarray(
            sf.scheme_factor(scheme, params, THETA_MODE), dtype=complex).tobytes().hex())
        if scheme.equation is sf.Equation.ADVECTION:
            record(lines, "phase on its grid", lambda: np.asarray(
                sf.phase_curve(scheme, params, PHASE_GRID)).tobytes().hex())
            record(lines, "phase", lambda: np.asarray(
                sf.phase_curve(scheme, params, THETAS)).tobytes().hex())
        record(lines, "field", lambda: stepped(scheme, params))
        record(lines, "numeric", lambda: repr(
            sf.numeric_amplification(scheme, params, THETA_MODE, N)))


def dump_oracle(lines):
    for n in ORACLE_NS:
        f = sf.gaussian_profile(n, -6.0, 12.0 / n, 0.0, 1.0)
        for d, v, dt in ORACLE_POINTS:
            record(lines, f"exact_evolve n={n} D={d} v={v} dt={dt}",
                   lambda: sf.exact_evolve(f, d, v, dt).values.tobytes().hex())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    for equation in sf.Equation:
        for name in sf.preset_names(equation):
            for prefix in PREFIXES:
                lines = []
                dump(sf.resolve_preset(prefix + name, equation), lines)
                path = args.outdir / f"{equation.value}-{prefix}{name}.txt"
                path.write_text("\n".join(lines) + "\n")
    lines = []
    dump_oracle(lines)
    (args.outdir / "oracle.txt").write_text("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
