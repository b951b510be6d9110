"""Sequential-sweep finite differences for 1D transport equations.

Unconditionally stable explicit solvers for the diffusion, advection
and advection-diffusion equations on periodic grids, built from
exponentially-split 2x2 pair updates, plus their closed-form spectral
analysis, the exact circulant flow and a convergence-order fit.  Every
Field1D is periodic.  A Scheme is its plan of sweeps, weighted terms of
Stage products; everything that compiles, steps or analyses it reads its
one Layout and its compiled Program.
"""

from .coefficients import (
    AdvDiffVariant,
    AdvectionVariant,
    DiffusionVariant,
    diffusion_gamma,
    matched_cn_s,
    pair_update,
)
from .composition import (
    FOREST_RUTH,
    MPE_T4,
    MPE_T6,
    MPE_T8,
    SUZUKI4,
    YOSHIDA6,
    BaseStep,
    Comparator,
    Equation,
    Layout,
    Program,
    Scheme,
    Stage,
    StepParams,
    apply_scheme,
    compile_scheme,
    expansion,
    jump_fractions,
    mpe_weights,
    preset_names,
    product,
    resolve_preset,
)
from .grid import (
    Field1D,
    abs_moment,
    abs_weighted_mean,
    gaussian_profile,
    modified_norm,
    norm,
    sextic_profile,
)
from .oracle import exact_evolve, fit_power_law
from .spectral import (
    AmplificationSample,
    exact_exponent,
    numeric_amplification,
    phase_curve,
    scheme_factor,
)
from .sweep import PairUpdate, SweepDirection, sweep

__version__ = "0.1.0"
