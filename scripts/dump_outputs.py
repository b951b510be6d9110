"""Dump what every preset compiles to and computes, one text file per scheme.

    PYTHONPATH=src python scripts/dump_outputs.py OUTDIR

For every preset, plain and as `2x`/`3x`, at each (r, eta) of POINTS the
file records the compiled `Program` repr, the bytes of `scheme_factor` on
33 thetas in [0, pi], the field bytes after 3 steps of `apply_scheme`,
`numeric_amplification` at one lattice mode, the type and message of any
error these raise, and every warning.  Only the public API is used, so the
script runs on any checkout: run it on two and `diff -r` the directories
to check that a change leaves every scheme's numbers bit-identical.
"""

import argparse
import math
import warnings
from pathlib import Path

import numpy as np

import sweepfd as sf

POINTS = ((0.05, 0.4), (0.5, 0.8), (5.0, 2.5), (-0.1, -1.2), (1e9, 0.5))   # (r, eta)
PREFIXES = ("", "2x", "3x")
THETAS = np.linspace(0.0, math.pi, 33)
N = 48
STEPS = 3
MODE = 5   # numeric_amplification reads the lattice mode theta = 2 pi MODE / N


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
    for r, eta in POINTS:
        params = sf.StepParams(r, eta)
        lines.append(f"== {params}")
        record(lines, "program", lambda: repr(sf.compile_scheme(scheme, params)))
        record(lines, "factor", lambda: np.asarray(
            sf.scheme_factor(scheme, params, THETAS), dtype=complex).tobytes().hex())
        record(lines, "field", lambda: stepped(scheme, params))
        record(lines, "numeric", lambda: repr(
            sf.numeric_amplification(scheme, params, 2.0 * math.pi * MODE / N, N)))


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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
