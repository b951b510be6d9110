"""Coefficient constructors for every scheme variant."""

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from sweepfd import (
    AdvDiffVariant,
    AdvectionVariant,
    BaseStep,
    DiffusionVariant,
    Equation,
    Scheme,
    Stage,
    StepParams,
    SweepDirection,
    compile_scheme,
    diffusion_gamma,
    matched_cn_s,
    pair_update,
)
from sweepfd.coefficients import sinhc
from sweepfd.errors import (
    InvalidCoefficientError,
    ParameterError,
    SpatialAmplificationError,
    StabilityError,
)

ASC = SweepDirection.ASCENDING
DESC = SweepDirection.DESCENDING


class TestDiffusionCoeffs:
    def test_zero_step_is_identity(self):
        for variant in DiffusionVariant:
            u = pair_update(variant, 0.0, 0.0, ASC)
            assert (u.alpha, u.beta, u.gamma) == (1.0, 0.0, 1.0)

    def test_exponential_at_half(self):
        u = pair_update(DiffusionVariant.EXPONENTIAL, 0.5, 0.0, ASC)
        assert u.gamma == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert u.alpha == pytest.approx(0.6839397205857212, abs=1e-12)
        assert u.beta == pytest.approx(0.3160602794142788, abs=1e-12)
        assert u.lam == u.beta

    def test_saulyev_matched_at_half(self):
        u = pair_update(DiffusionVariant.SAULYEV_MATCHED, 0.5, 0.0, ASC)
        assert u.gamma == pytest.approx(1 / 3, rel=1e-15)
        assert u.beta == pytest.approx(1 / 3, rel=1e-15)

    def test_half_flag_halves_r(self):
        full = pair_update(DiffusionVariant.SAULYEV_MATCHED, 1.0, 0.0, ASC, half=True)
        direct = pair_update(DiffusionVariant.SAULYEV_MATCHED, 0.5, 0.0, ASC)
        assert full == direct

    def test_negative_r_rejected(self):
        with pytest.raises(StabilityError):
            compile_scheme(Scheme("d1a", Equation.DIFFUSION, (
                (1, 1, (Stage(DiffusionVariant.EXPONENTIAL, BaseStep.SWEEP_1A),)),)),
                StepParams(r=-0.1))

    def test_monotone_damping(self):
        rs = np.linspace(0.0, 20.0, 81)
        exp_gammas = [diffusion_gamma(DiffusionVariant.EXPONENTIAL, r) for r in rs]
        assert all(0.0 < g <= 1.0 for g in exp_gammas)
        assert all(b < a for a, b in zip(exp_gammas, exp_gammas[1:]))
        saul_gammas = [diffusion_gamma(DiffusionVariant.SAULYEV_MATCHED, r) for r in rs]
        assert all(-1.0 < g <= 1.0 for g in saul_gammas)
        assert diffusion_gamma(DiffusionVariant.SAULYEV_MATCHED, 1e9) == pytest.approx(-1.0, abs=1e-8)


class TestAdvectionCoeffs:
    @pytest.mark.parametrize("variant", list(AdvectionVariant))
    def test_zero_eta_is_identity(self, variant):
        u = pair_update(variant, 0.0, 0.0, ASC)
        assert (u.alpha, u.beta, u.lam) == (1.0, 0.0, 0.0)

    def test_variant_formulas(self):
        eta = 0.8
        trig = pair_update(AdvectionVariant.TRIG, 0.0, eta, ASC)
        assert trig.beta == pytest.approx(math.sin(0.4), rel=1e-15)
        saul = pair_update(AdvectionVariant.SAULYEV, 0.0, eta, ASC)
        assert saul.beta == pytest.approx(0.4, rel=1e-15)
        rw = pair_update(AdvectionVariant.ROBERTS_WEISS, 0.0, eta, ASC)
        assert rw.beta == pytest.approx(0.8 / 2.8, rel=1e-12)

    def test_structure(self):
        for variant in AdvectionVariant:
            u = pair_update(variant, 0.0, 0.9, ASC)
            assert u.lam == -u.beta
            assert u.alpha ** 2 + u.beta ** 2 == pytest.approx(1.0, abs=1e-14)
            assert u.gamma == pytest.approx(1.0, abs=1e-14)

    def test_half_divisor(self):
        half = pair_update(AdvectionVariant.TRIG, 0.0, 0.8, ASC, half=True)
        assert half.beta == pytest.approx(math.sin(0.2), rel=1e-15)

    def test_matched_cn_at_two(self):
        u = pair_update(AdvectionVariant.MATCHED_CN, 0.0, 2.0, ASC)
        assert u.beta == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-12)

    def test_roberts_weiss_direction_dependence(self):
        eta = 0.5
        asc = pair_update(AdvectionVariant.ROBERTS_WEISS, 0.0, eta, ASC)
        desc = pair_update(AdvectionVariant.ROBERTS_WEISS, 0.0, eta, DESC)
        assert asc.beta == pytest.approx(eta / 2.5, rel=1e-15)
        assert desc.beta == pytest.approx(eta / 1.5, rel=1e-15)

    def test_spatial_amplification_rejected(self):
        with pytest.raises(SpatialAmplificationError):
            pair_update(AdvectionVariant.SAULYEV, 0.0, 2.0, ASC)
        with pytest.raises(SpatialAmplificationError):
            # s = 1 exactly: pathological
            pair_update(AdvectionVariant.SAULYEV, 0.0, 2.0 - 1e-18, ASC)
        with pytest.raises(SpatialAmplificationError):
            pair_update(AdvectionVariant.ROBERTS_WEISS, 0.0, 1.0, DESC)
        with pytest.raises(SpatialAmplificationError):
            pair_update(AdvectionVariant.ROBERTS_WEISS, 0.0, 1.5, DESC)

    def test_trig_always_constructible(self):
        # |s| = |sin| < 1 except at odd multiples of pi
        u = pair_update(AdvectionVariant.TRIG, 0.0, 8.0, ASC)
        assert abs(u.beta) < 1.0


class TestMatchedCnS:
    def test_small_eta_limit(self):
        assert matched_cn_s(0.0) == 0.0
        for eta in (1e-6, 1e-5, 1e-4):
            assert matched_cn_s(eta) / eta == pytest.approx(0.25, abs=1e-9)

    def test_series_matches_closed_form_at_switch(self):
        eta = 1e-4
        closed = eta / (2.0 * (math.sqrt(1.0 + 0.25 * eta * eta) + 1.0))
        assert matched_cn_s(eta) == pytest.approx(closed, abs=1e-12)

    def test_continuity_across_switch(self):
        # branch jump must be far below the local slope times the eta gap
        below = matched_cn_s(1e-4 * (1 - 1e-12))
        above = matched_cn_s(1e-4 * (1 + 1e-12))
        assert abs(above - below) <= 1e-15

    def test_defining_identity(self):
        for eta in (0.3, 1.0, 4.0, 25.0):
            s = matched_cn_s(eta)
            assert 2.0 * s / (1.0 - s * s) == pytest.approx(0.5 * eta, rel=1e-12)

    def test_odd_in_eta(self):
        assert matched_cn_s(-0.7) == pytest.approx(-matched_cn_s(0.7), rel=1e-15)


class TestSplitDerived:
    def test_reduces_to_exponential_diffusion(self):
        u = pair_update(AdvDiffVariant.SPLIT_DERIVED, 0.6, 0.0, ASC)
        ref = pair_update(DiffusionVariant.EXPONENTIAL, 0.6, 0.0, ASC)
        assert u.alpha == pytest.approx(ref.alpha, rel=1e-14)
        assert u.beta == pytest.approx(ref.beta, rel=1e-14)
        assert u.lam == pytest.approx(ref.lam, rel=1e-14)

    def test_reference_point(self):
        # r = 0.5, eta = 0.6: psi = 0.4, alpha = e^-0.5 cosh(0.4),
        # beta/lam = e^-0.5 (0.5 +- 0.3) sinh(0.4)/0.4
        u = pair_update(AdvDiffVariant.SPLIT_DERIVED, 0.5, 0.6, ASC)
        damp = math.exp(-0.5)
        shc = math.sinh(0.4) / 0.4
        assert u.alpha == pytest.approx(damp * math.cosh(0.4), rel=1e-14)
        assert u.alpha == pytest.approx(0.6557035388882795, rel=1e-12)
        assert u.beta == pytest.approx(damp * 0.8 * shc, rel=1e-14)
        assert u.beta == pytest.approx(0.49826775829536046, rel=1e-12)
        assert u.lam == pytest.approx(damp * 0.2 * shc, rel=1e-14)
        assert u.lam == pytest.approx(0.12456693957384012, rel=1e-12)
        assert u.gamma == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_norm_condition_violated(self):
        u = pair_update(AdvDiffVariant.SPLIT_DERIVED, 0.5, 0.6, ASC)
        assert abs(u.beta + u.gamma + u.lam - 1.0) > 1e-3

    @pytest.mark.parametrize("r", [0.0, 0.1, 1.0, 5.0])
    @pytest.mark.parametrize("frac", [0.0, 0.5, 1.0, 2.0])
    def test_determinant_identity_both_branches(self, r, frac):
        # frac > 1 exercises the oscillatory branch psi^2 < 0
        eta = 2.0 * r * frac
        u = pair_update(AdvDiffVariant.SPLIT_DERIVED, r, eta, ASC)
        assert u.gamma == pytest.approx(math.exp(-2.0 * r), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("r", [2e3, 1e9])
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_large_r_builds_without_overflow(self, r, direction):
        # e^-r cosh(psi) used to overflow in math.cosh above r of about 710
        u = pair_update(AdvDiffVariant.SPLIT_DERIVED, r, 1.0, direction)
        assert u.alpha == pytest.approx(0.5, rel=1e-4)
        assert u.beta == pytest.approx(0.5, rel=1e-3)
        assert u.lam == pytest.approx(0.5, rel=1e-3)
        assert u.beta > u.lam

    @pytest.mark.parametrize("r", [2.0, 5.0, 40.0, 630.0, 2e3])
    @pytest.mark.parametrize("frac", [0.0, 0.3, 0.6])
    def test_overflow_free_form_matches_exact_values(self, r, frac):
        # against (e^{psi-r} +- e^{-psi-r})/2 in 50-digit decimals at psi >= 1; the
        # cosh/sinh form missed these by up to 5.5e-14 (r = 630, frac = 0.3)
        eta = 2.0 * r * frac
        with localcontext() as ctx:
            ctx.prec = 50
            big_r, half_eta = Decimal(r), Decimal(0.5 * eta)
            psi = (big_r * big_r - half_eta * half_eta).sqrt()
            grow, decay = (psi - big_r).exp(), (-psi - big_r).exp()
            shc = (grow - decay) / (2 * psi)
            exact = ((grow + decay) / 2, (big_r + half_eta) * shc, (big_r - half_eta) * shc)
        u = pair_update(AdvDiffVariant.SPLIT_DERIVED, r, eta, ASC)
        for value, reference in zip((u.alpha, u.beta, u.lam), exact):
            assert value == pytest.approx(float(reference), rel=4e-15)

    def test_negative_r_keeps_the_cosh_sinh_form(self):
        # r < 0 runs inside advection-diffusion compositions' negative fractions;
        # psi + r vanishes there, so the overflow-free form is for r > 0 only
        u = pair_update(AdvDiffVariant.SPLIT_DERIVED, -2.0, 0.0, ASC)
        assert u.alpha == math.exp(2.0) * math.cosh(2.0)
        assert u.beta == u.lam == math.exp(2.0) * -2.0 * (math.sinh(2.0) / 2.0)

    def test_sinhc_branches_are_smooth(self):
        assert sinhc(0.0) == 1.0
        # series-to-exact handoff at |psi^2| = 1e-8 must be seamless
        assert sinhc(1e-8 * (1 - 1e-9)) == pytest.approx(sinhc(1e-8 * (1 + 1e-9)), abs=1e-14)
        assert sinhc(-1e-8 * (1 - 1e-9)) == pytest.approx(sinhc(-1e-8 * (1 + 1e-9)), abs=1e-14)
        assert sinhc(0.16) == pytest.approx(math.sinh(0.4) / 0.4, rel=1e-14)
        assert sinhc(-0.16) == pytest.approx(math.sin(0.4) / 0.4, rel=1e-14)


class TestRationalPole:
    """gamma = (1 - x)/(1 + x) at x = -1, which negative-fraction stages can reach exactly."""

    # half-sweeps at r = -2, eta = 0: Saul'yev and generalized RW halve r to x = -1
    # (w = 1 at eta = 0); AD2C keeps r and takes x = w r / 2
    @pytest.mark.parametrize("variant", [DiffusionVariant.SAULYEV_MATCHED,
                                         AdvDiffVariant.GENERALIZED_RW,
                                         AdvDiffVariant.MATCHED_AD2C])
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_pole_raises_spatial_amplification(self, variant, direction):
        with pytest.raises(SpatialAmplificationError, match="pole"):
            pair_update(variant, -2.0, 0.0, direction, half=True)

    def test_diffusion_gamma_pole(self):
        with pytest.raises(SpatialAmplificationError, match="pole"):
            diffusion_gamma(DiffusionVariant.SAULYEV_MATCHED, -1.0)

    def test_negative_r_away_from_the_pole_keeps_its_closed_form(self):
        assert diffusion_gamma(DiffusionVariant.SAULYEV_MATCHED, -0.5) == 3.0
        assert diffusion_gamma(DiffusionVariant.SAULYEV_MATCHED, -3.0) == -2.0
        u = pair_update(AdvDiffVariant.MATCHED_AD2C, -1.0, 0.0, ASC)
        assert (u.alpha, u.beta, u.lam) == (2.0, -1.0, -1.0)


def rw_alpha_exact(r, eta, direction):
    """Generalized RW alpha = sqrt(1 +- eta) |1 - b| with 1 - b in exact rationals."""
    r, eta = Fraction(r), Fraction(eta)
    sign = 1 if direction.is_ascending else -1
    w = 2 / (2 + sign * eta * (3 + sign * eta))
    gamma = (1 - w * r) / (1 + w * r)
    one_minus_b = (1 + gamma) / (2 + sign * eta)    # 1 - beta asc, 1 - lam desc
    return math.sqrt(float(1 + sign * eta)) * float(abs(one_minus_b))


def ad2c_alpha_exact(r, eta):
    """AD2C alpha = |1 + gamma| sqrt(1 - s^2)/2 in exact rationals, s the library's."""
    s, r = Fraction(matched_cn_s(eta)), Fraction(r)
    w = (1 - s * s) ** 2 / (1 + 3 * s * s)
    one_plus_gamma = 2 / (1 + w * r / 2)
    return float(one_plus_gamma) * math.sqrt(float(1 - s * s)) / 2


class TestGeneralizedRW:
    def test_identity_at_origin(self):
        u = pair_update(AdvDiffVariant.GENERALIZED_RW, 0.0, 0.0, ASC)
        assert (u.alpha, u.beta, u.lam) == (1.0, 0.0, 0.0)

    def test_eta_zero_recovers_saulyev_diffusion(self):
        u = pair_update(AdvDiffVariant.GENERALIZED_RW, 0.7, 0.0, ASC)
        ref = pair_update(DiffusionVariant.SAULYEV_MATCHED, 0.7, 0.0, ASC)
        assert u.gamma == pytest.approx(ref.gamma, rel=1e-14)
        assert u.beta == pytest.approx(ref.beta, rel=1e-14)

    @pytest.mark.parametrize("r", [0.066, 0.66])
    @pytest.mark.parametrize("eta", [0.0, 0.2, 0.66, 0.9])
    def test_boundary_weight_identities(self, r, eta):
        asc = pair_update(AdvDiffVariant.GENERALIZED_RW, r, eta, ASC)
        assert asc.alpha / (1.0 - asc.beta) == pytest.approx(math.sqrt(1.0 + eta), abs=1e-12)
        desc = pair_update(AdvDiffVariant.GENERALIZED_RW, r, eta, DESC)
        assert desc.alpha / (1.0 - desc.lam) == pytest.approx(math.sqrt(1.0 - eta), abs=1e-12)

    def test_norm_condition_holds(self):
        u = pair_update(AdvDiffVariant.GENERALIZED_RW, 0.4, 0.6, ASC)
        assert u.beta + u.gamma + u.lam == pytest.approx(1.0, abs=1e-14)

    def test_descending_window_rejected(self):
        with pytest.raises(ParameterError):
            pair_update(AdvDiffVariant.GENERALIZED_RW, 0.1, 1.5, DESC)

    @pytest.mark.parametrize("r,eta,direction", [
        (100.0, math.nextafter(1.0, 0.0), DESC),
        (1.0, -math.nextafter(1.0, 0.0), ASC),
        (1e17, 0.3, ASC),
        (1e17, 0.3, DESC),
    ])
    def test_recurrence_coefficient_rounding_to_one_rejected(self, r, eta, direction):
        # each used to build an update whose recurrence coefficient (beta
        # ascending, lam descending) is exactly 1, e.g. PairUpdate(0.0, 1.0, 1.0),
        # the degenerate update that eta = +-1 is rejected for
        with pytest.raises(ParameterError, match="rounds to 1"):
            pair_update(AdvDiffVariant.GENERALIZED_RW, r, eta, direction)

    def test_recurrence_coefficient_near_one_accepted(self):
        u = pair_update(AdvDiffVariant.GENERALIZED_RW, 1e8, 0.5, ASC)
        assert 0.0 < 1.0 - u.beta < 1e-7

    @pytest.mark.parametrize("r,eta,direction", [
        (1e8, 0.9, DESC), (1e9, 0.5, DESC), (1e9, -0.5, ASC), (1e5, 0.9, DESC), (1e7, 0.5, ASC)])
    def test_alpha_free_of_cancellation_at_large_r(self, r, eta, direction):
        # sqrt(gamma + beta*lam) lost the discriminant (1 +- eta)(1 - b)^2 to
        # cancellation: the first three raised InvalidCoefficientError, and
        # alpha was off by 4e-4 at r = 1e5 and 0.2% at 1e7
        u = pair_update(AdvDiffVariant.GENERALIZED_RW, r, eta, direction)
        sign, b = (1.0, u.beta) if direction.is_ascending else (-1.0, u.lam)
        assert u.alpha == math.sqrt(1.0 + sign * eta) * abs(1.0 - b)
        # b ~ 1 carries a few ulps of absolute rounding, and so does alpha
        assert u.alpha == pytest.approx(rw_alpha_exact(r, eta, direction), abs=1e-15)

    def test_alpha_undefined_beyond_the_window_rejected(self):
        # 1 - eta < 0 descending: no real alpha exists
        with pytest.raises(InvalidCoefficientError):
            pair_update(AdvDiffVariant.GENERALIZED_RW, 5.0, 2.5, DESC)

    def test_negative_r_rejected(self):
        with pytest.raises(StabilityError):
            compile_scheme(Scheme("rw1a", Equation.ADV_DIFF, (
                (1, 1, (Stage(AdvDiffVariant.GENERALIZED_RW, BaseStep.SWEEP_1A),)),)),
                StepParams(r=-0.1, eta=0.5))


class TestAd2c:
    def test_r_zero_recovers_matched_cn(self):
        u = pair_update(AdvDiffVariant.MATCHED_AD2C, 0.0, 0.7, ASC)
        ref = pair_update(AdvectionVariant.MATCHED_CN, 0.0, 0.7, ASC)
        assert u.gamma == pytest.approx(1.0, abs=1e-14)
        assert u.beta == pytest.approx(ref.beta, rel=1e-14)
        assert u.lam == pytest.approx(-ref.beta, rel=1e-14)

    def test_eta_zero_recovers_saulyev_half_step(self):
        u = pair_update(AdvDiffVariant.MATCHED_AD2C, 0.8, 0.0, ASC)
        ref = pair_update(DiffusionVariant.SAULYEV_MATCHED, 0.8, 0.0, ASC, half=True)
        assert u.gamma == pytest.approx(ref.gamma, rel=1e-14)
        assert u.beta == pytest.approx(ref.beta, rel=1e-14)

    def test_norm_condition_by_construction(self):
        u = pair_update(AdvDiffVariant.MATCHED_AD2C, 0.8, 0.7, ASC)
        assert u.beta + u.gamma + u.lam == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("r", [1e6, 1e8, 1e9, 1e10, 1e11, 1e12])
    @pytest.mark.parametrize("eta", [0.1, 0.5, -0.7])
    def test_alpha_free_of_cancellation_at_large_r(self, r, eta):
        # sqrt(gamma + beta*lam) lost (1 + gamma)^2 (1 - s^2)/4 to cancellation:
        # alpha was off by 2e-5 at r = 1e6, came out 0.0 at (1e11, 0.1) and
        # raised InvalidCoefficientError at (1e9, 0.5)
        u = pair_update(AdvDiffVariant.MATCHED_AD2C, r, eta, ASC)
        s = matched_cn_s(eta)
        gamma = 1.0 - u.beta - u.lam
        # gamma ~ -1 carries a few ulps of absolute rounding, and so does alpha
        assert u.alpha == pytest.approx(abs(1.0 + gamma) * math.sqrt(1.0 - s * s) / 2.0,
                                        abs=1e-15)
        assert u.alpha == pytest.approx(ad2c_alpha_exact(r, eta), abs=1e-15)


EVERY_VARIANT = [*DiffusionVariant, *AdvectionVariant, *AdvDiffVariant]


class TestPairUpdate:
    # matched CN and AD2C are written as half sweeps; every other formula is halved
    @pytest.mark.parametrize("variant", EVERY_VARIANT)
    @pytest.mark.parametrize("direction", [ASC, DESC])
    @pytest.mark.parametrize("r,eta", [(0.2, 0.3), (0.7, -0.5), (1.5, 0.8)])
    def test_half_sweep_of_symmetric_step(self, variant, direction, r, eta):
        half = pair_update(variant, r, eta, direction, half=True)
        if variant in (AdvectionVariant.MATCHED_CN, AdvDiffVariant.MATCHED_AD2C):
            assert half == pair_update(variant, r, eta, direction)
        else:
            assert half == pair_update(variant, r / 2, eta / 2, direction)

    @pytest.mark.parametrize("variant", EVERY_VARIANT)
    @pytest.mark.parametrize("r,eta", [(math.nan, 0.3), (0.2, math.inf), (-math.inf, 0.0)])
    def test_non_finite_parameters_rejected(self, variant, r, eta):
        with pytest.raises(ParameterError):
            pair_update(variant, r, eta, ASC)
