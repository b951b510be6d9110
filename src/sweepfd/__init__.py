"""Sequential-sweep finite differences for 1D transport equations.

Unconditionally stable explicit solvers for the diffusion, advection
and advection-diffusion equations on periodic grids, built from
exponentially-split 2x2 pair updates, plus the spectral analysis and
circulant oracles used to verify them.  Every Field1D is periodic;
saulyev_sweep_fixed, the classic one-sided sweep with fixed ends, is a
test oracle that sweeps a plain array.
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
    MultiProduct,
    Program,
    Scheme,
    SchemeSpec,
    SingleProduct,
    StepParams,
    apply_scheme,
    compile_scheme,
    euler_step,
    lax_wendroff_step,
    preset_names,
    resolve_preset,
    validate_order_conditions,
)
from .grid import (
    Field1D,
    ModifiedNormTag,
    abs_moment,
    abs_weighted_mean,
    gaussian_profile,
    modified_norm,
    norm,
    sextic_profile,
)
from .oracle import (
    CirculantSpectrum,
    exact_evolve,
    fit_power_law,
    observed_order,
    richardson_reference,
)
from .spectral import (
    AmplificationSample,
    exact_amplification,
    exact_phase,
    numeric_amplification,
    phase_angle,
    phase_curve,
    scheme_amplification,
    scheme_factor,
)
from .sweep import PairUpdate, SweepDirection, saulyev_sweep_fixed, sweep, sweep_as_matrix

__version__ = "0.1.0"
