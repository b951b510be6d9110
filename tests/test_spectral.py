"""Closed-form amplification factors, phases and the numeric cross-check."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from sweepfd import (
    AdvectionVariant,
    BaseStep,
    Comparator,
    DiffusionVariant,
    Equation,
    Field1D,
    PairUpdate,
    Scheme,
    Stage,
    StepParams,
    compile_scheme,
    exact_exponent,
    numeric_amplification,
    phase_curve,
    preset_names,
    resolve_preset,
    scheme_factor,
)
from sweepfd.errors import NumericsError, ParameterError, SizeError
from sweepfd.spectral import PHASE_MAX_THETA, exact_factor

from oracles import (
    diffusion_t2_factor,
    exact_amplification,
    phase_angle,
    phase_curve_on_union,
    richardson_limit,
    scheme_amplification,
    scheme_factor_by_ops,
)


def preset(name, equation):
    return resolve_preset(name, equation)


class TestExactAmplification:
    def test_constant_mode(self):
        for eq in Equation:
            s = exact_amplification(eq, StepParams(r=1.0, eta=0.5), 0.0)
            assert s.g == 1.0

    def test_diffusion_value(self):
        s = exact_amplification(Equation.DIFFUSION, StepParams(r=2.0), math.pi)
        assert s.g == pytest.approx(math.exp(-8.0), rel=1e-14)

    def test_advection_is_pure_phase(self):
        s = exact_amplification(Equation.ADVECTION, StepParams(eta=0.7), math.pi / 2)
        assert s.g == pytest.approx(cmath.exp(-0.7j), rel=1e-14)
        assert abs(s.g) == pytest.approx(1.0, abs=1e-15)

    def test_diffusion_at_overflowing_four_r(self):
        # h = 4 (r sin^2(theta/2)): theta = 0 gives h = 0 rather than inf * 0
        theta = np.array([0.0, 2.0, math.pi])
        with np.errstate(over="ignore"):
            h = exact_exponent(Equation.DIFFUSION, StepParams(r=1e308), theta)
            g = exact_factor(Equation.DIFFUSION, StepParams(r=1e308), theta)
        assert h.tolist() == [0.0, math.inf, math.inf]
        assert g.tolist() == [1.0, 0.0, 0.0]

    def test_advdiff_combines_both(self):
        p = StepParams(r=0.3, eta=0.5)
        s = exact_amplification(Equation.ADV_DIFF, p, 1.1)
        expected = cmath.exp(-4 * 0.3 * math.sin(0.55) ** 2 - 0.5j * math.sin(1.1))
        assert s.g == pytest.approx(expected, rel=1e-14)


class TestSchemeAmplification:
    def test_theta_zero_is_one_for_all_presets(self):
        p = StepParams(r=0.7, eta=0.5)
        for eq, names in ((Equation.DIFFUSION, ("d1a", "d2", "d2s", "t4", "t6", "t8")),
                          (Equation.ADVECTION, ("a1a", "a2", "a2c", "rw2", "fr", "s4", "y6")),
                          (Equation.ADV_DIFF, ("rw1a", "ad2c", "t4", "a_d"))):
            for name in names:
                g = scheme_amplification(preset(name, eq), p, 0.0).g
                assert g == pytest.approx(1.0, abs=1e-13), name

    def test_d2s_rational_value(self):
        # g2 = (1 - 2r(1-r/2)sin^2)/(1 + 2r(1+r/2)sin^2) at r=2, theta=pi -> 1/9
        g = scheme_amplification(preset("d2s", Equation.DIFFUSION), StepParams(r=2.0), math.pi).g
        assert g == pytest.approx(1.0 / 9.0, rel=1e-12)

    def test_d2s_matches_closed_rational_form(self):
        r = 1.3
        for theta in (0.4, 1.1, 2.8):
            g = scheme_amplification(preset("d2s", Equation.DIFFUSION),
                                     StepParams(r=r), theta).g
            s2 = math.sin(theta / 2) ** 2
            closed = (1 - 2 * r * (1 - r / 2) * s2) / (1 + 2 * r * (1 + r / 2) * s2)
            assert g == pytest.approx(closed, rel=1e-12)

    def test_diffusion_1a_form(self):
        r = 0.8
        u = StepParams(r=r)
        g = scheme_amplification(preset("d1a", Equation.DIFFUSION), u, 1.0).g
        gamma = math.exp(-2 * r)
        beta = 0.5 * (1 - gamma)
        z = cmath.exp(1j)
        assert g == pytest.approx((gamma + beta * z) / (1 - beta / z), rel=1e-13)

    def test_advection_1a_form_has_no_alpha(self):
        eta = 0.9
        g = scheme_amplification(preset("a1a", Equation.ADVECTION), StepParams(eta=eta), 1.3).g
        s = math.sin(eta / 2)
        z = cmath.exp(1.3j)
        assert g == pytest.approx((1 - s * z) / (1 - s / z), rel=1e-13)

    def test_a2c_is_crank_nicolson_in_eta(self):
        eta = 0.7
        for theta in (0.3, 1.2, 2.9):
            g = scheme_amplification(preset("a2c", Equation.ADVECTION),
                                     StepParams(eta=eta), theta).g
            cn = (1 - 0.5j * eta * math.sin(theta)) / (1 + 0.5j * eta * math.sin(theta))
            assert g == pytest.approx(cn, rel=1e-12)

    def test_unitarity_of_advection_presets(self):
        thetas = np.linspace(0.0, math.pi, 257)
        for name in ("a1a", "a1b", "a2", "a2s", "a2c", "rw2", "fr", "s4", "y6"):
            g = scheme_factor(preset(name, Equation.ADVECTION), StepParams(eta=0.7), thetas)
            assert np.max(np.abs(np.abs(g) - 1.0)) <= 1e-12, name

    def test_unconditional_stability_sample(self):
        thetas = np.linspace(0.0, math.pi, 257)
        for name in ("d1a", "d1b", "d2", "d2s"):
            for r in (0.5, 2.0, 100.0):
                g = scheme_factor(preset(name, Equation.DIFFUSION), StepParams(r=r), thetas)
                assert np.max(np.abs(g)) <= 1.0 + 1e-13, (name, r)


COMPARATORS = {"euler": ("euler", Equation.DIFFUSION), "crank-nicolson": ("cn", Equation.DIFFUSION),
               "lax-wendroff": ("lw", Equation.ADVECTION)}


def comparator(name):
    return preset(*COMPARATORS[name])


class TestComparators:
    def test_theta_zero(self):
        p = StepParams(r=1.0, eta=0.8)
        for name in ("euler", "crank-nicolson", "lax-wendroff"):
            assert scheme_amplification(comparator(name), p, 0.0).g \
                == pytest.approx(1.0, abs=1e-15)

    def test_euler_at_cfl_boundary(self):
        g = scheme_amplification(comparator("euler"), StepParams(r=0.5), math.pi).g
        assert g == pytest.approx(-1.0, rel=1e-15)

    def test_crank_nicolson_value(self):
        g = scheme_amplification(comparator("crank-nicolson"), StepParams(r=2.0), math.pi).g
        assert g == pytest.approx(-3.0 / 5.0, rel=1e-14)

    def test_lax_wendroff_at_overflowing_eta_rejected(self):
        # eta ** 2 used to raise OverflowError from both the factor and the step
        lw, params = Comparator.LAX_WENDROFF, StepParams(eta=1e300)
        with pytest.raises(ParameterError, match="eta"):
            lw.factor(params, np.array([0.0, 1.0]))
        with pytest.raises(ParameterError, match="eta"):
            lw.step(Field1D(np.ones(4), dx=1.0), params)

    def test_lax_wendroff_exact_transport_limit(self):
        for theta in (0.3, 1.5, 2.8):
            g = scheme_amplification(comparator("lax-wendroff"), StepParams(eta=1.0), theta).g
            assert abs(g) == pytest.approx(1.0, abs=1e-14)


class TestPhase:
    def test_zero_at_origin(self):
        assert phase_angle(preset("a2c", Equation.ADVECTION), StepParams(eta=0.7), 0.0) == 0.0

    def test_exact_exponent_formula(self):
        p = StepParams(r=0.3, eta=0.7)
        damping, phase = 4 * 0.3 * math.sin(0.2) ** 2, 0.7 * math.sin(0.4)
        for equation, h in ((Equation.DIFFUSION, damping), (Equation.ADVECTION, 1j * phase),
                            (Equation.ADV_DIFF, damping + 1j * phase)):
            assert exact_exponent(equation, p, 0.4) == pytest.approx(h, rel=1e-15)

    def test_matches_arctan_closed_form(self):
        # one-sided sweep phase: 2 atan(s sin / (1 - s cos))
        eta, theta = 0.7, 0.9
        s = math.sin(eta / 2)
        expected = 2.0 * math.atan(s * math.sin(theta) / (1.0 - s * math.cos(theta)))
        got = phase_angle(preset("a1a", Equation.ADVECTION), StepParams(eta=eta), theta)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unwrapping_beyond_branch_cut(self):
        # a single symmetric step has |phase| < pi, but seven substeps wrap;
        # the unwrapped curve must equal 7x the per-substep phase exactly
        thetas = np.linspace(0.0, math.pi, 129)
        wrapped = phase_curve(preset("7xa2c", Equation.ADVECTION),
                              StepParams(eta=8.0), thetas)
        single = phase_curve(preset("a2c", Equation.ADVECTION),
                             StepParams(eta=8.0 / 7.0), thetas)
        assert wrapped.max() > math.pi  # raw arg() could never exceed pi
        assert np.max(np.abs(wrapped - 7.0 * single)) <= 1e-10

    def test_a2c_slope_equals_eta(self):
        eta = 0.7
        scheme = preset("a2c", Equation.ADVECTION)
        slope = richardson_limit(
            lambda t: phase_angle(scheme, StepParams(eta=eta), t) / t)
        assert slope == pytest.approx(eta, abs=1e-6)

    def test_a2_slope_misses_eta(self):
        eta = 0.7
        scheme = preset("a2", Equation.ADVECTION)
        slope = richardson_limit(
            lambda t: phase_angle(scheme, StepParams(eta=eta), t) / t)
        assert abs(slope - eta) > 1e-3

    def test_fr_composition_kills_cubic_error(self):
        eta = 0.7
        fr = preset("fr", Equation.ADVECTION)
        a2c = preset("a2c", Equation.ADVECTION)

        def cubic_coefficient(scheme):
            return richardson_limit(
                lambda t: (phase_angle(scheme, StepParams(eta=eta), t)
                           - exact_exponent(Equation.ADVECTION, StepParams(eta=eta), t).imag)
                          / t ** 3)

        assert abs(cubic_coefficient(a2c)) == pytest.approx(eta ** 3 / 12.0, rel=1e-3)
        assert abs(cubic_coefficient(fr)) < 1e-6 * eta

    def test_compositions_beat_substepped_baselines(self):
        # at matched cost (5 and 7 double sweeps) the compositions win by
        # orders of magnitude in the small-theta region
        p = StepParams(eta=0.7)
        theta = 0.2
        for name, baseline in (("s4", "5xa2c"), ("y6", "7xa2c")):
            exact = exact_exponent(Equation.ADVECTION, p, theta).imag
            err = abs(phase_angle(preset(name, Equation.ADVECTION), p, theta) - exact)
            base = abs(phase_angle(preset(baseline, Equation.ADVECTION), p, theta) - exact)
            assert err < base / 100.0, (name, err, base)

    def test_non_advection_scheme_rejected(self):
        with pytest.raises(ParameterError):
            phase_angle(preset("d2s", Equation.DIFFUSION), StepParams(r=0.5), 0.3)

    def test_negative_theta_rejected(self):
        # the branch is tracked from theta = 0 upward
        with pytest.raises(ParameterError, match="thetas must be >= 0"):
            phase_curve(preset("a2c", Equation.ADVECTION), StepParams(eta=0.7), [0.5, -0.1])

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_theta_rejected(self, bad):
        # the tracking grid reaches max theta: a nan or an infinity has none
        with pytest.raises(ParameterError, match=f"theta = {bad}"):
            phase_curve(preset("a2c", Equation.ADVECTION), StepParams(eta=0.7), [0.5, bad])

    @pytest.mark.parametrize("beyond", ["1e10", "just above the ceiling"])
    def test_theta_beyond_the_grid_ceiling_rejected(self, beyond):
        # 1e10 asked numpy for a 3.3e12-point tracking grid and raised its bare
        # _ArrayMemoryError (23.7 TiB); a theta near 1e6 would take gigabytes
        theta = 1e10 if beyond == "1e10" else math.nextafter(PHASE_MAX_THETA, math.inf)
        with pytest.raises(ParameterError,
                           match=f"thetas <= {PHASE_MAX_THETA}, got theta = {theta}"):
            phase_curve(preset("a2c", Equation.ADVECTION), StepParams(eta=0.4), [0.5, theta])

    def test_the_grid_ceiling_itself_is_tracked(self):
        # the ceiling admits every theta the CLI, the dump and the tests ask for (up to 2 pi)
        assert PHASE_MAX_THETA >= 2.0 * math.pi
        scheme, params = preset("a2c", Equation.ADVECTION), StepParams(eta=0.4)
        phase = phase_curve(scheme, params, [0.5, PHASE_MAX_THETA])
        assert np.array_equal(phase, phase_curve_on_union(scheme, params, [0.5, PHASE_MAX_THETA]))


class TestExponentMatching:
    def test_d2s_leading_exponent_is_r(self):
        for r in (0.25, 1.0, 3.0):
            limit = richardson_limit(
                lambda t: -cmath.log(scheme_factor(
                    preset("d2s", Equation.DIFFUSION), StepParams(r=r), t)).real / t ** 2)
            assert limit == pytest.approx(r, abs=1e-6 * max(1.0, r))

    def test_d2_leading_exponent(self):
        r = 0.8
        gamma_half = math.exp(-r)  # half-step damping of the exponential variant
        expected = 2.0 * (1.0 - gamma_half) / (1.0 + gamma_half)
        limit = richardson_limit(
            lambda t: -cmath.log(scheme_factor(
                preset("d2", Equation.DIFFUSION), StepParams(r=r), t)).real / t ** 2)
        assert limit == pytest.approx(expected, abs=1e-6)

    @pytest.mark.parametrize("variant", list(DiffusionVariant))
    def test_reversal_identity_on_rational_forms(self, variant):
        for r in (0.3, 1.7):
            for theta in (0.2, 1.0, 2.5):
                forward = diffusion_t2_factor(variant, r, theta)
                backward = diffusion_t2_factor(variant, -r, theta)
                assert complex(backward * forward) == pytest.approx(1.0, abs=1e-12)

    def test_t4_local_error_scales_as_r_to_fifth(self):
        # multi-product fourth order: per-step amplification error drops
        # by about 2^5 when r halves
        t4 = preset("t4", Equation.DIFFUSION)
        theta, r = 0.8, 0.2
        exact = lambda rr: math.exp(-4.0 * rr * math.sin(theta / 2) ** 2)
        coarse = abs(complex(scheme_factor(t4, StepParams(r=r), theta)) - exact(r))
        fine = abs(complex(scheme_factor(t4, StepParams(r=r / 2), theta)) - exact(r / 2))
        assert 32 * 0.7 <= coarse / fine <= 32 * 1.3

    def test_d2s_exponent_error_is_odd_in_r(self):
        h0 = lambda t: 4.0 * math.sin(t / 2) ** 2
        for r in (0.4, 1.1):
            for theta in (0.5, 1.8):
                h_fwd = -cmath.log(diffusion_t2_factor(
                    DiffusionVariant.SAULYEV_MATCHED, r, theta)).real
                h_bwd = -cmath.log(diffusion_t2_factor(
                    DiffusionVariant.SAULYEV_MATCHED, -r, theta)).real
                err_sum = (h_fwd - r * h0(theta)) + (h_bwd + r * h0(theta))
                assert abs(err_sum) <= 1e-12


class TestNumericAmplification:
    def test_identity_step(self):
        s = numeric_amplification(preset("d2s", Equation.DIFFUSION), StepParams(r=0.0),
                                  2 * math.pi * 5 / 64, 64)
        assert s.g == pytest.approx(1.0, abs=1e-13)

    def test_d2s_reference_value(self):
        # transient decay needs N >= 128 at r = 2 (half-sweep beta = 1/2)
        s = numeric_amplification(preset("d2s", Equation.DIFFUSION), StepParams(r=2.0),
                                  math.pi, 256)
        assert s.g == pytest.approx(1.0 / 9.0, abs=1e-12)

    def test_d2s_matches_rational_form_on_small_grid(self):
        # at moderate r the transient is tiny even for N = 64
        r = 0.5
        scheme = preset("d2s", Equation.DIFFUSION)
        for m in (5, 16, 32):
            theta = 2 * math.pi * m / 64
            s2 = math.sin(theta / 2) ** 2
            closed = (1 - 2 * r * (1 - r / 2) * s2) / (1 + 2 * r * (1 + r / 2) * s2)
            got = numeric_amplification(scheme, StepParams(r=r), theta, 64).g
            assert got == pytest.approx(closed, abs=1e-12)

    def test_a2c_unitary_across_modes(self):
        scheme = preset("a2c", Equation.ADVECTION)
        for m in range(1, 32, 5):
            theta = 2 * math.pi * m / 64
            s = numeric_amplification(scheme, StepParams(eta=0.7), theta, 64)
            assert abs(abs(s.g) - 1.0) <= 1e-12

    @pytest.mark.parametrize("eq,name,params", [
        (Equation.DIFFUSION, "d1a", StepParams(r=0.5)),
        (Equation.DIFFUSION, "d1b", StepParams(r=0.5)),
        (Equation.DIFFUSION, "t4", StepParams(r=1.0)),
        (Equation.ADVECTION, "rw1a", StepParams(eta=0.8)),
        (Equation.ADVECTION, "y6", StepParams(eta=0.8)),
        (Equation.ADV_DIFF, "ad2c", StepParams(r=0.5, eta=0.6)),
        (Equation.ADV_DIFF, "a_d", StepParams(r=0.5, eta=0.6)),
    ])
    def test_matches_analytic(self, eq, name, params):
        scheme = preset(name, eq)
        theta = 2 * math.pi * 21 / 256
        num = numeric_amplification(scheme, params, theta, 256)
        ana = scheme_amplification(scheme, params, theta)
        assert num.g == pytest.approx(ana.g, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:negative substeps:RuntimeWarning")
    @pytest.mark.parametrize("eq,name", [(eq, prefix + name) for eq in Equation
                                         for name in preset_names(eq) for prefix in ("", "2x")])
    def test_every_preset_matches_closed_form(self, eq, name):
        # the parameters and lattice modes of acceptance criterion 5
        params = {Equation.DIFFUSION: StepParams(r=0.5), Equation.ADVECTION: StepParams(eta=0.8),
                  Equation.ADV_DIFF: StepParams(r=0.5, eta=0.6)}[eq]
        scheme = preset(name, eq)
        for m in (3, 21):
            theta = 2 * math.pi * m / 256
            closed = scheme_factor(scheme, params, theta)
            num = numeric_amplification(scheme, params, theta, 256)
            assert abs(num.g - closed) <= 1e-12

    def test_one_sweep_stage_run_twice_reads_mid_grid(self):
        # two sweeps per step: the far-end readout of a one-sweep step was off by 6e-3
        scheme = Scheme("d1a^2", Equation.DIFFUSION, (
            (1, 2, (Stage(DiffusionVariant.EXPONENTIAL, BaseStep.SWEEP_1A, 0.5),)),))
        for m in (3, 21):
            theta = 2 * math.pi * m / 256
            num = numeric_amplification(scheme, StepParams(r=2.0), theta, 256)
            assert abs(num.g - scheme_factor(scheme, StepParams(r=2.0), theta)) <= 1e-12

    def test_non_lattice_mode_rejected(self):
        with pytest.raises(ParameterError):
            numeric_amplification(preset("d2s", Equation.DIFFUSION), StepParams(r=1.0),
                                  0.1, 64)

    @pytest.mark.parametrize("n", [8.0, 64.0, 8.5])
    def test_non_integer_sample_count_rejected(self, n):
        # n = 8.0 stepped two 8-sample fields and then raised IndexError on the readout
        with pytest.raises(ParameterError, match="n must be an integer"):
            numeric_amplification(preset("d2s", Equation.DIFFUSION), StepParams(r=1.0), 0.0, n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_fewer_than_three_samples_left_to_the_field(self, n):
        with pytest.raises(SizeError):
            numeric_amplification(preset("d2s", Equation.DIFFUSION), StepParams(r=1.0), 0.0, n)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, 1e308])
    def test_non_finite_mode_index_rejected(self, theta):
        # nan and +-inf used to escape from round() as ValueError / OverflowError;
        # 1e308 is finite, but theta * n overflows
        with pytest.raises(ParameterError, match="not a lattice mode"):
            numeric_amplification(preset("d2s", Equation.DIFFUSION), StepParams(r=1.0),
                                  theta, 64)


EVERY_SCHEME = [(eq, prefix + name) for eq in Equation for name in preset_names(eq)
                for prefix in ("", "2x")]


class TestClosedFormProperty:
    @pytest.mark.filterwarnings("ignore:negative substeps:RuntimeWarning")
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.sampled_from(EVERY_SCHEME), st.floats(0.0, 1.0), st.floats(-0.9, 0.9),
           st.integers(1, 127))
    def test_every_compiled_preset_matches_closed_form(self, case, r, eta, m):
        # wherever a program compiles, its sweeps step the mode as its closed
        # form says: the tolerance of the criterion-5 points above
        eq, name = case
        params = StepParams(r=0.0 if eq is Equation.ADVECTION else r,
                            eta=0.0 if eq is Equation.DIFFUSION else eta)
        scheme = preset(name, eq)
        try:
            program = compile_scheme(scheme, params)
        except NumericsError:
            reject()
        theta = 2 * math.pi * m / 256
        closed = scheme_factor(scheme, params, theta)
        # the readout sits n/2 samples from the sweep seams, where a seam
        # transient has decayed like b^(n/2), b the largest |recurrence
        # coefficient|: read the same mode on enough samples for it to fall
        # below 1e-14
        b = max((abs(head.recurrence(arg)) for head, arg in program
                 if isinstance(head, PairUpdate)), default=0.0)
        n = 256
        while b < 1.0 and b ** (n // 2) > 1e-14 and n < 2 ** 16:
            n *= 2
        num = numeric_amplification(scheme, params, theta, n)
        assert abs(num.g - closed) <= 1e-12


def theta_arrays():
    """A scalar, the 257- or 1025-point linspace on [0, pi] (the latter is
    phase_curve's tracking grid), an unsorted array with repeats, or a 2-D array."""
    angle = st.floats(0.0, 2.0 * math.pi)
    shapes = [
        angle,
        st.just(np.linspace(0.0, math.pi, 257)),
        st.just(np.linspace(0.0, math.pi, 1025)),
        st.lists(angle, min_size=1, max_size=40).flatmap(
            lambda xs: st.permutations(xs + xs[: len(xs) // 2])).map(np.array),
        st.tuples(st.integers(1, 5), st.integers(1, 7)).flatmap(
            lambda shape: st.lists(angle, min_size=shape[0] * shape[1],
                                   max_size=shape[0] * shape[1]).map(
                lambda xs: np.reshape(xs, shape))),
    ]
    return st.sampled_from(shapes).flatmap(lambda shape: shape)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# a product whose Roberts-Weiss stage has one update per direction and whose
# Crank-Nicolson stage shares one, so one stage's descending sweep forms its own
# modes and the other's reads its ascending sweep's
MIXED_PRODUCT = Scheme("rw-a2c", Equation.ADVECTION,
                       ((1, 1, (Stage(AdvectionVariant.ROBERTS_WEISS),
                                Stage(AdvectionVariant.MATCHED_CN))),))


class TestTablesMatchOpByOp:
    """scheme_factor's per-scheme layout and modes shared per update, and
    phase_curve's tracking on the request, reproduce the op-by-op factor and
    the union-grid phase curve of tests/oracles.py bit for bit: values,
    signed zeros, shapes."""

    @pytest.mark.filterwarnings("ignore:negative substeps:RuntimeWarning")
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.sampled_from([preset(prefix + name, eq) for eq in Equation
                            for name in preset_names(eq) for prefix in ("", "2x", "3x")]
                           + [MIXED_PRODUCT]),
           st.one_of(st.floats(0.0, 20.0), st.floats(20.0, 1e10)), st.floats(-20.0, 20.0),
           theta_arrays())
    # at eta = 0 the stages of a product compile to equal updates that differ in
    # the signs of their zeros, e.g. (1, 0.0, -0.0) and (1, -0.0, 0.0)
    @example(preset("y6", Equation.ADVECTION), 0.0, 0.0, np.linspace(0.0, math.pi, 257))
    @example(preset("s4", Equation.ADVECTION), 0.0, -0.0, np.linspace(0.0, math.pi, 1025))
    @example(preset("y6", Equation.ADVECTION), 0.0, -0.0, 0.7)
    def test_factor_and_phase_match_the_references(self, scheme, r, eta, theta):
        eq = scheme.equation
        params = StepParams(r=0.0 if eq is Equation.ADVECTION else r,
                            eta=0.0 if eq is Equation.DIFFUSION else eta)
        try:
            compile_scheme(scheme, params)
        except NumericsError:
            reject()
        with np.errstate(all="ignore"):
            assert same_bits(scheme_factor(scheme, params, theta),
                             scheme_factor_by_ops(scheme, params, theta))
            if eq is Equation.ADVECTION:
                assert same_bits(phase_curve(scheme, params, theta),
                                 phase_curve_on_union(scheme, params, theta))


# the whole half period of the modes, sampled finely enough that a bump of |g|
# narrower than a thousandth of it shows
DOMAIN_THETAS = np.linspace(0.0, math.pi, 2049)
# per unit of max(1, r): how far |g| of the constant mode (theta = 0) may exceed
# 1.  Its exact value is 1, but the rounded coefficients lose digits in 1 - b
# like r (see PairUpdate.boundary_weight); a dense scan saw up to
# 16 eps max(1, r) (diffusion 2xt8; 14 for advection-diffusion), and d1as
# already reaches 1 + 1.9e-13 at r = 1743
MEAN_MODE_ROUNDING = 32 * np.finfo(float).eps


def presets_but(equation, excluded):
    """Every preset name of equation but excluded, each also in its 2x form."""
    return [prefix + name for name in preset_names(equation) if name not in excluded
            for prefix in ("", "2x")]


def factor_where_it_compiles(scheme, params):
    """scheme_factor on DOMAIN_THETAS, or None where compile_scheme rejects params.

    A rejected draw must raise a NumericsError from scheme_factor too, never
    return a factor.
    """
    try:
        compile_scheme(scheme, params)
    except NumericsError:
        with pytest.raises(NumericsError):
            scheme_factor(scheme, params, DOMAIN_THETAS)
        return None
    return scheme_factor(scheme, params, DOMAIN_THETAS)


def assert_stable(g, r):
    """max|g| <= 1 + 1e-13 over theta > 0, and the constant mode within its rounding."""
    assert np.max(np.abs(g[1:])) <= 1.0 + 1e-13
    assert abs(g[0]) <= 1.0 + MEAN_MODE_ROUNDING * max(1.0, r)


class TestStabilityDomain:
    """The paper's headline claims over each preset's whole parameter domain.

    The diffusion sweeps are unconditionally stable and the advection sweeps
    unitary.  Left out: the comparators the claims do not cover (euler, lw)
    and the advection-diffusion presets with a bounded region (t4 and fr,
    pinned in TestAdvDiffRegions).  A dense scan of these domains saw every
    |g| at theta > 0 below 1, and ||g| - 1| up to 1.9e-14 for advection.
    """

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.sampled_from(presets_but(Equation.DIFFUSION, {"euler"})), st.floats(-3.0, 6.0))
    def test_diffusion_presets_are_unconditionally_stable(self, name, log_r):
        r = 10.0 ** log_r
        assert_stable(scheme_factor(preset(name, Equation.DIFFUSION), StepParams(r=r),
                                    DOMAIN_THETAS), r)

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.sampled_from(presets_but(Equation.ADVECTION, {"lw"})), st.floats(-20.0, 20.0))
    def test_advection_presets_are_unitary_where_they_compile(self, name, eta):
        g = factor_where_it_compiles(preset(name, Equation.ADVECTION), StepParams(eta=eta))
        if g is not None:
            assert np.max(np.abs(np.abs(g) - 1.0)) <= 1e-12

    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(st.sampled_from(presets_but(Equation.ADV_DIFF, {"t4", "fr"})),
           st.floats(-3.0, 3.0), st.floats(-10.0, 10.0))
    def test_advdiff_presets_are_stable_where_they_compile(self, name, log_r, eta):
        r = 10.0 ** log_r
        g = factor_where_it_compiles(preset(name, Equation.ADV_DIFF), StepParams(r=r, eta=eta))
        if g is not None:
            assert_stable(g, r)


@pytest.mark.filterwarnings("ignore:negative substeps:RuntimeWarning")
class TestAdvDiffRegions:
    """The advection-diffusion t4 and fr are stable only in part of their domain.

    t4 is a weighted sum of factors with negative weights, and fr takes a
    negative substep, which diffuses backwards.  Neither need keep |g| <= 1,
    so these regions come from the methods, not from a coding slip.
    """

    @pytest.mark.parametrize("sign", [1.0, -1.0])   # g(-eta) is the conjugate of g(eta)
    @pytest.mark.parametrize("r, inside, outside", [(1e-3, 1.2, 1.3), (0.1, 3.2, 3.4),
                                                    (1.0, 6.5, 6.7)])
    def test_t4_region_boundary(self, r, inside, outside, sign):
        # points on either side of the eta where t4's max|g| first exceeds 1
        scheme = preset("t4", Equation.ADV_DIFF)
        g_in = scheme_factor(scheme, StepParams(r=r, eta=sign * inside), DOMAIN_THETAS)
        g_out = scheme_factor(scheme, StepParams(r=r, eta=sign * outside), DOMAIN_THETAS)
        assert np.max(np.abs(g_in)) <= 1.0 + 1e-13
        assert np.max(np.abs(g_out)) >= 1.0 + 1e-4

    def test_fr_grows_next_to_its_guard(self):
        # compile_scheme rejects fr once a sweep's |b| reaches 1; in a thin band
        # just inside that guard (r about 0.56-0.75) it accepts, with only the
        # negative-substep warning, steps that grow: here max|g| is 14.7 at
        # theta = pi, and 60 steps on a ring of 8192 samples reach max|u| = 6e26
        scheme = preset("fr", Equation.ADV_DIFF)
        assert np.max(np.abs(scheme_factor(scheme, StepParams(r=0.5, eta=0.65),
                                           DOMAIN_THETAS))) <= 1.0 + 1e-13
        assert np.max(np.abs(scheme_factor(scheme, StepParams(r=0.6, eta=0.65),
                                           DOMAIN_THETAS))) >= 1.0 + 1e-4


class TestRichardsonLimit:
    def test_polynomial_is_exact(self):
        assert richardson_limit(lambda t: 3.0 + 2.0 * t * t + t ** 4) \
            == pytest.approx(3.0, abs=1e-12)

    def test_requires_halving_nodes(self):
        with pytest.raises(ParameterError):
            richardson_limit(lambda t: t, thetas=(1e-2, 3e-3))
