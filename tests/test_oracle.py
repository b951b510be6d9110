"""The exact semi-discrete factor, the circulant exact evolution and order fitting."""

import importlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from scipy.linalg import expm

from sweepfd import (
    Equation,
    Field1D,
    StepParams,
    exact_evolve,
    fit_power_law,
    gaussian_profile,
)
from sweepfd.errors import ParameterError
from sweepfd.oracle import FLOOR_RELATIVE
from sweepfd.spectral import exact_factor

from oracles import advection_generator, diffusion_generator


@st.composite
def fit_points(draw):
    """(dts, values) of one fit: finite, strictly decreasing positive dts and finite values."""
    n = draw(st.integers(3, 8))
    dts = draw(st.lists(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
                        min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                           min_size=n, max_size=n))
    return sorted(dts, reverse=True), values


def _lattice(n):
    """The angles theta_k = 2 pi k / n of the n lattice modes exp(i theta_k j)."""
    return 2.0 * math.pi * np.arange(n) / n


class TestSpectrum:
    """exact_factor on lattice modes is the exact flow of the dense generators."""

    @pytest.mark.parametrize("n", [8, 16, 64])
    def test_generators_reproduce_eigenvalues(self, n):
        dx, D, v, dt = 0.3, 0.7, 1.3, 0.1
        g = exact_factor(Equation.ADV_DIFF, StepParams.from_physics(dt, dx, D, v), _lattice(n))
        flow = expm(dt * (diffusion_generator(n, dx, D) + advection_generator(n, dx, v)))
        j = np.arange(n)
        for k in (0, 1, n // 3, n // 2, n - 1):
            mode = np.exp(2j * math.pi * k * j / n)
            assert np.max(np.abs(flow @ mode - g[k] * mode)) <= 1e-12 * n

    def test_diffusion_eigenvalues_real_nonpositive(self):
        # real eigenvalues <= 0: the factor exp(dt*lambda) is real and in (0, 1]
        g = exact_factor(Equation.ADV_DIFF, StepParams.from_physics(0.01, 0.1, 0.5, 0.0),
                         _lattice(32))
        assert np.all(g.imag == 0.0)
        assert np.all((g.real > 0.0) & (g.real <= 1.0))

    def test_advection_eigenvalues_imaginary(self):
        # imaginary eigenvalues: the factor has |g| = 1 to rounding
        g = exact_factor(Equation.ADV_DIFF, StepParams.from_physics(0.05, 0.1, 0.0, 1.0),
                         _lattice(32))
        assert np.max(np.abs(np.abs(g) - 1.0)) <= 2.0 * np.finfo(float).eps


class TestExactEvolve:
    def test_zero_time_is_identity(self):
        f = gaussian_profile(64, -6.0, 12.0 / 64, 0.0, 0.8)
        out = exact_evolve(f, 0.5, 1.0, 0.0)
        assert np.max(np.abs(out.values - f.values)) <= 1e-12

    def test_single_mode_damping(self):
        n, dx, D, dt = 64, 0.25, 0.5, 0.2
        theta = 2 * math.pi * 5 / n
        f = Field1D(np.cos(theta * np.arange(n)), dx=dx)
        out = exact_evolve(f, D, 0.0, dt)
        r = dt * D / dx ** 2
        factor = math.exp(-4 * r * math.sin(theta / 2) ** 2)
        assert np.max(np.abs(out.values - factor * f.values)) <= 1e-12

    def test_advection_mode_phases(self):
        # integer-cell displacement: each mode picks up phase eta*sin(theta),
        # so compare per-mode factors rather than shifted fields
        n, dx, v = 32, 0.5, 1.0
        dt = 3 * dx / v  # would shift by 3 cells if dispersion were absent
        j = np.arange(n)
        for m in (1, 4, 7):
            theta = 2 * math.pi * m / n
            re = Field1D(np.cos(theta * j), dx=dx)
            out = exact_evolve(re, 0.0, v, dt)
            eta = v * dt / dx
            expected = np.cos(theta * j - eta * math.sin(theta))
            assert np.max(np.abs(out.values - expected)) <= 1e-11

    def test_semigroup_property(self):
        f = gaussian_profile(48, 0.0, 0.25, 6.0, 0.9)
        one = exact_evolve(exact_evolve(f, 0.4, 0.8, 0.3), 0.4, 0.8, 0.7)
        two = exact_evolve(f, 0.4, 0.8, 1.0)
        assert np.max(np.abs(one.values - two.values)) <= 1e-12

    def test_commuting_split(self):
        f = gaussian_profile(48, 0.0, 0.25, 6.0, 0.9)
        joint = exact_evolve(f, 0.4, 0.8, 0.9)
        split = exact_evolve(exact_evolve(f, 0.4, 0.0, 0.9), 0.0, 0.8, 0.9)
        assert np.max(np.abs(joint.values - split.values)) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 17, 64, 120, 255, 256, 257])
    def test_matches_direct_fourier_sum(self, n):
        rng = np.random.default_rng(n)
        f = Field1D(rng.normal(size=n), dx=0.2)
        dt, D, v = 0.3, 0.05, 0.7
        a = diffusion_generator(n, f.dx, D) + advection_generator(n, f.dx, v)
        expected = expm(dt * a) @ f.values
        out = exact_evolve(f, D, v, dt)
        assert np.max(np.abs(out.values - expected)) <= 1e-12

    @pytest.mark.parametrize("diffusivity", [0.5, 0.0])
    def test_spacing_whose_square_underflows_rejected(self, diffusivity):
        # Field1D takes dx = 1e-200, but dx^2 underflows to 0: a bare ZeroDivisionError
        with pytest.raises(ParameterError, match="dx"):
            exact_evolve(Field1D(np.ones(8), dx=1e-200), diffusivity, 0.0, 0.1)


class TestFitPowerLaw:
    def test_recovers_plateau_and_order(self):
        dts = np.array([0.2 / 2 ** i for i in range(6)])
        values = 5.0 - 1.3 * dts ** 2
        fit = fit_power_law(dts, values)
        assert fit.plateau == pytest.approx(5.0, abs=1e-10)
        assert fit.order == pytest.approx(2.0, abs=1e-6)

    def test_fractional_order(self):
        dts = np.array([0.4 / 1.7 ** i for i in range(8)])
        values = 2.0 + 0.9 * dts ** 1.5
        fit = fit_power_law(dts, values)
        assert fit.plateau == pytest.approx(2.0, abs=1e-8)
        assert fit.order == pytest.approx(1.5, abs=1e-4)

    def test_pure_power_without_plateau(self):
        dts = np.array([0.2 / 2 ** i for i in range(5)])
        values = 4.0 * dts ** 3
        fit = fit_power_law(dts, values)
        assert fit.order == pytest.approx(3.0, abs=1e-3)
        assert abs(fit.plateau) <= 1e-8

    def test_keeps_the_first_plateau_when_one_residual_clears_the_floor(self):
        # only one residual about the first Richardson plateau exceeds the rounding
        # floor, too few to refit the order: the fit stops with that plateau
        dts = (0.4, 0.2, 0.025, 0.0125)
        values = (5.0000000000016, 5.0000000000004, 5.000000000001, 5.000000000001)
        fit = fit_power_law(dts, values)
        diffs = np.abs(np.subtract(values[:2], values[-1]))
        assert fit.order == float(np.polyfit(np.log(dts[:2]), np.log(diffs), 1)[0])
        ratio = (dts[-2] / dts[-1]) ** fit.order
        assert fit.plateau == (ratio * values[-1] - values[-2]) / (ratio - 1.0)
        floor = max(values) * FLOOR_RELATIVE
        assert np.sum(np.abs(np.subtract(values, fit.plateau)) > floor) == 1

    def test_converged_data_rejected(self):
        with pytest.raises(ParameterError):
            fit_power_law([0.4, 0.2, 0.1], [1.0, 1.0, 1.0])

    def test_requires_three_matching_points(self):
        with pytest.raises(ParameterError, match="at least three"):
            fit_power_law([0.2, 0.1], [1.0, 2.0])
        with pytest.raises(ParameterError, match="at least three"):
            fit_power_law([0.4, 0.2, 0.1], [1.0, 2.0])

    def test_requires_strictly_decreasing_dt(self):
        with pytest.raises(ParameterError, match="strictly decreasing"):
            fit_power_law([0.1, 0.2, 0.4], [1.0, 2.0, 3.0])
        with pytest.raises(ParameterError, match="strictly decreasing"):
            fit_power_law([0.4, 0.2, 0.2], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("dts", [[0.4, 0.2, 0.1, 0.0], [0.4, 0.2, 0.1, -0.1],
                                     [math.inf, 0.2, 0.1, 0.05], [0.4, math.nan, 0.1, 0.05],
                                     [-0.1, -0.2, -0.4, -0.8]])
    def test_dt_must_be_finite_and_positive(self, dts, capfd):
        # a zero dt fitted plateau=nan; an infinite or negative one raised numpy's
        # LinAlgError after LAPACK printed "** On entry to DLASCL" on stderr
        with pytest.raises(ParameterError, match="^dt values must be finite and positive$"):
            fit_power_law(dts, [1.0, 1.05, 1.1, 1.2])
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("values", [[1.0, math.nan, 1.1, 1.2], [1.0, 1.05, 1.1, math.inf],
                                        [-math.inf, 1.05, 1.1, 1.2]])
    def test_values_must_be_finite(self, values, capfd):
        # a nan value used to be reported as "values are already converged"
        with pytest.raises(ParameterError, match="^values must be finite$"):
            fit_power_law([0.4, 0.2, 0.1, 0.05], values)
        assert capfd.readouterr().err == ""

    @pytest.mark.parametrize("values", [[1.0, -1.0, 1.0, -1.0], [1e308, 1e308, -1e308, 1e300]])
    def test_fit_with_no_finite_plateau_rejected(self, values, capfd):
        # the initial slope is order 0, so the Richardson ratio is 1: the plateau's
        # division by zero (or its overflow) fitted plateau=nan order=nan with a
        # RuntimeWarning on stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError):
                fit_power_law([0.4, 0.2, 0.1, 0.05], values)
        assert capfd.readouterr().err == ""

    def test_dts_too_close_to_fit_an_order_rejected(self, capfd):
        # adjacent floats near 1e300 share one log: polyfit warned of its rank and
        # the fit came back nan
        dts = [1e300]
        for _ in range(3):
            dts.insert(0, np.nextafter(dts[0], math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="too close together"):
                fit_power_law(dts, [4.0, 3.0, 2.0, 1.0])
        assert capfd.readouterr().err == ""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(points=fit_points())
    def test_fit_is_finite_or_rejected_without_a_warning(self, points, capfd):
        capfd.readouterr()   # capfd spans every example: start from an empty capture
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # a warning fails the example
            try:
                fit = fit_power_law(*points)
            except ParameterError:
                pass
            else:
                assert math.isfinite(fit.plateau) and math.isfinite(fit.order), points
        assert capfd.readouterr().err == "", points


class TestLibrarySurface:
    def test_test_oracles_stay_out_of_the_library(self):
        import sweepfd
        from sweepfd import composition, grid, oracle, spectral
        sweep = importlib.import_module("sweepfd.sweep")   # `sweepfd.sweep` is the function

        gone = {
            sweepfd: ("CirculantSpectrum", "observed_order", "OrderEstimate",
                      "richardson_reference", "nominal_order", "sweep_as_matrix", "saulyev_sweep_fixed",
                      "diffusion_generator", "advection_generator",
                      "exact_amplification", "scheme_amplification",
                      "phase_angle", "richardson_limit", "diffusion_t2_factor",
                      "OrderConditionReport", "validate_order_conditions",
                      "ModifiedNormTag", "euler_step", "lax_wendroff_step",
                      "sweep_factor", "comparator_factor", "exact_phase"),
            oracle: ("CirculantSpectrum", "observed_order", "OrderEstimate",
                     "richardson_reference", "diffusion_generator", "advection_generator"),
            composition: ("nominal_order", "_spec_order", "OrderConditionReport",
                          "validate_order_conditions", "euler_step", "lax_wendroff_step"),
            grid: ("ModifiedNormTag",),
            sweep: ("sweep_as_matrix", "MATRIX_ORACLE_MAX", "saulyev_sweep_fixed"),
            spectral: ("exact_amplification", "scheme_amplification", "phase_angle",
                       "richardson_limit", "diffusion_t2_factor", "sweep_factor",
                       "comparator_factor", "exact_phase"),
        }
        present = [f"{module.__name__}.{name}"
                   for module, names in gone.items() for name in names
                   if hasattr(module, name)]
        assert present == []
