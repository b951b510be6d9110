"""Grid functions: profiles, norms, moments, modified norms."""

import math

import numpy as np
import pytest

from sweepfd import (
    AdvectionVariant,
    Equation,
    Field1D,
    PairUpdate,
    StepParams,
    SweepDirection,
    abs_moment,
    abs_weighted_mean,
    apply_scheme,
    gaussian_profile,
    modified_norm,
    norm,
    pair_update,
    resolve_preset,
    sextic_profile,
)
from sweepfd.errors import (
    DegenerateFieldError,
    NumericsError,
    ParameterError,
    SingularCoefficientError,
    SizeError,
)

ASC = SweepDirection.ASCENDING
DESC = SweepDirection.DESCENDING


class TestField1D:
    def test_rejects_tiny_fields(self):
        with pytest.raises(SizeError):
            Field1D(np.zeros(2), dx=0.1)

    def test_rejects_bad_spacing(self):
        with pytest.raises(ParameterError):
            Field1D(np.zeros(5), dx=0.0)
        with pytest.raises(ParameterError):
            Field1D(np.zeros(5), dx=math.nan)

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_origin(self, x0):
        with pytest.raises(ParameterError, match="x0 must be finite"):
            Field1D(np.zeros(5), dx=0.1, x0=x0)

    def test_rejects_non_finite_samples(self):
        with pytest.raises(ParameterError):
            Field1D([0.0, math.inf, 0.0], dx=0.1)

    def test_copy_does_not_alias(self):
        f = Field1D([1.0, 2.0, 3.0], dx=0.1, x0=-1.0)
        g = f.copy()
        assert g.values is not f.values
        assert not np.shares_memory(g.values, f.values)
        g.values[0] = 9.0
        assert f.values[0] == 1.0
        assert (g.dx, g.x0) == (f.dx, f.x0)

    def test_copy_rejects_samples_made_non_finite_after_construction(self):
        f = Field1D(np.ones(5), dx=0.1)
        f.values[2] = math.nan
        with pytest.raises(ParameterError):
            f.copy()

    def test_t4_step_on_non_finite_field_raises(self):
        f = Field1D(np.ones(16), dx=0.1)
        f.values[3] = math.nan
        with pytest.raises(NumericsError):
            apply_scheme(f, resolve_preset("t4", Equation.DIFFUSION), StepParams(r=0.5))

    def test_coordinates(self):
        f = Field1D(np.zeros(4), dx=0.5, x0=-1.0)
        assert np.allclose(f.x, [-1.0, -0.5, 0.0, 0.5])

    def test_copy_is_independent(self):
        f = Field1D(np.ones(5), dx=1.0)
        g = f.copy()
        g.values[0] = 7.0
        assert f.values[0] == 1.0


class TestGaussianProfile:
    def test_peak_at_center(self):
        f = gaussian_profile(3, x0=0.0, dx=1.0, center=1.0, sigma=0.3)
        assert f.values[1] == 1.0

    def test_flat_limit(self):
        f = gaussian_profile(9, x0=-4.0, dx=1.0, center=0.0, sigma=1e8)
        assert np.all(f.values > 1.0 - 1e-12)

    def test_integral_matches_analytic(self):
        # interior support: the lattice sum times dx equals the full integral
        f = gaussian_profile(120, x0=-6.0, dx=0.1, center=0.0, sigma=0.5)
        assert norm(f) * 0.1 == pytest.approx(0.5 * math.sqrt(2.0 * math.pi), abs=1e-6)

    def test_rejects_bad_sigma(self):
        with pytest.raises(ParameterError):
            gaussian_profile(8, 0.0, 0.1, 0.0, sigma=0.0)

    def test_rejects_sigma_whose_square_overflows(self):
        # sigma ** 2 used to raise OverflowError
        with pytest.raises(ParameterError, match="sigma"):
            gaussian_profile(8, 0.0, 0.1, 0.0, sigma=1e300)


class TestSexticProfile:
    def test_peak(self):
        f = sextic_profile(5, x0=-2.0, dx=1.0, center=0.0)
        assert f.values[2] == 1.0

    def test_half_width_values(self):
        f = sextic_profile(5, x0=-2.0, dx=1.0, center=0.0)
        assert f.values[0] == pytest.approx(math.exp(-1.0), rel=1e-15)
        assert f.values[4] == pytest.approx(math.exp(-1.0), rel=1e-15)

    def test_two_half_widths_out(self):
        f = sextic_profile(9, x0=-4.0, dx=1.0, center=0.0)
        assert f.values[0] == pytest.approx(math.exp(-64.0), rel=1e-12)


# every spacing Field1D rejects: not positive, or not finite
BAD_SPACINGS = [0.0, -1.0, math.nan, math.inf]


class TestProfileSpacing:
    """Each profile rejects the spacings Field1D rejects before it builds an
    array, so no numpy warning comes first (dx = inf reached x0 + dx*arange(n))."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("dx", BAD_SPACINGS)
    @pytest.mark.parametrize("profile", [
        lambda dx: gaussian_profile(8, 0.0, dx, 0.0, 1.0),
        lambda dx: sextic_profile(8, 0.0, dx, 0.0)], ids=["gaussian", "sextic"])
    def test_rejects_what_field1d_rejects(self, profile, dx):
        with pytest.raises(ParameterError, match="dx must be positive and finite"):
            Field1D(np.zeros(8), dx=dx)
        with pytest.raises(ParameterError, match="dx must be positive and finite"):
            profile(dx)


class TestNorm:
    def test_zero_field(self):
        assert norm(Field1D(np.zeros(6), dx=1.0)) == 0.0

    def test_field_of_ones(self):
        assert norm(Field1D(np.ones(10), dx=1.0)) == 10.0

    @pytest.mark.parametrize("n", [1000, 10 ** 6])
    def test_matches_compensated_summation(self, n):
        rng = np.random.default_rng(7)
        values = rng.normal(scale=1e3, size=n)
        f = Field1D(values, dx=1.0)
        compensated = math.fsum(values)
        assert norm(f) == pytest.approx(compensated, rel=1e-13, abs=1e-13 * np.abs(values).sum())

    def test_gaussian_matches_compensated(self):
        f = gaussian_profile(120, x0=-6.0, dx=0.1, center=0.0, sigma=0.5)
        assert norm(f) == pytest.approx(math.fsum(f.values), rel=1e-13)


class TestAbsMoment:
    def test_symmetric_pair(self):
        f = Field1D(np.zeros(5), dx=1.0, x0=-2.0)
        f.values[1] = 1.0  # x = -1
        f.values[3] = 1.0  # x = +1
        assert abs_moment(f) == pytest.approx(1.0, rel=1e-15)

    def test_single_spike(self):
        f = Field1D(np.zeros(7), dx=1.0, x0=-3.0)
        f.values[0] = 2.5  # x = -3
        assert abs_moment(f) == pytest.approx(3.0, rel=1e-15)

    def test_gaussian_half_normal_mean(self):
        # oracle: fine-grid quadrature of the same functional
        sigma = 0.5
        f = gaussian_profile(1200, x0=-6.0, dx=0.01, center=0.0, sigma=sigma)
        expect = sigma * math.sqrt(2.0 / math.pi)
        assert abs_moment(f) == pytest.approx(expect, abs=5e-5)

    def test_zero_norm_rejected(self):
        f = Field1D([1.0, -1.0, 1.0, -1.0], dx=1.0)
        with pytest.raises(DegenerateFieldError):
            abs_moment(f)


class TestAbsWeightedMean:
    def test_nonnegative_field_equals_plain_mean(self):
        rng = np.random.default_rng(3)
        f = Field1D(rng.random(17), dx=0.3, x0=-2.0)
        plain = float(np.sum(f.x * f.values) / np.sum(f.values))
        assert abs_weighted_mean(f) == pytest.approx(plain, rel=1e-14)

    def test_spike(self):
        f = Field1D(np.zeros(11), dx=1.0, x0=-5.0)
        f.values[10] = -2.0  # x = +5; sign must not matter
        assert abs_weighted_mean(f) == pytest.approx(5.0, rel=1e-15)

    def test_signed_pair(self):
        f = Field1D([1.0, -1.0, 0.0], dx=1.0, x0=0.0)
        assert abs_weighted_mean(f) == pytest.approx(0.5, rel=1e-15)

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateFieldError):
            abs_weighted_mean(Field1D(np.zeros(4), dx=1.0))


class TestModifiedNorm:
    def test_reduces_to_norm_when_first_sample_zero(self):
        f = Field1D([0.0, 2.0, 3.0, 4.0], dx=1.0)
        weight = PairUpdate(math.sqrt(1.0 - 0.4 * 0.4), 0.4, -0.4).boundary_weight(ASC)
        assert modified_norm(f, weight) == norm(f)

    def test_roberts_weiss_value(self):
        f = Field1D([1.0, 1.0, 1.0, 1.0, 1.0], dx=1.0)
        weight = pair_update(AdvectionVariant.ROBERTS_WEISS, 0.0, 0.8, ASC).boundary_weight(ASC)
        assert modified_norm(f, weight) == pytest.approx(5.0 + math.sqrt(1.8) - 1.0, rel=1e-15)

    def test_advection_weight_formula(self):
        s = 0.3
        c = math.sqrt(1.0 - s * s)
        u = PairUpdate(c, s, -s)
        assert u.boundary_weight(ASC) == pytest.approx(c / (1.0 - s), rel=1e-15)
        assert u.boundary_weight(DESC) == pytest.approx(c / (1.0 + s), rel=1e-15)

    def test_singular_coefficients_rejected(self):
        with pytest.raises(SingularCoefficientError):
            PairUpdate(0.5, 1.0, 0.2).boundary_weight(ASC)

    def test_permutation_independence_of_sums(self):
        rng = np.random.default_rng(11)
        values = rng.normal(size=257)
        f = Field1D(values, dx=1.0)
        g = Field1D(values[::-1].copy(), dx=1.0)
        assert norm(f) == pytest.approx(norm(g), rel=1e-13)
