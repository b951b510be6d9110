"""Composed time steppers: plans, presets, order conditions."""

import contextlib
import dataclasses
import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import warnings
from fractions import Fraction
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from sweepfd import (
    FOREST_RUTH,
    MPE_T4,
    MPE_T6,
    MPE_T8,
    SUZUKI4,
    YOSHIDA6,
    AdvDiffVariant,
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
    SweepDirection,
    apply_scheme,
    compile_scheme,
    expansion,
    gaussian_profile,
    jump_fractions,
    mpe_weights,
    norm,
    preset_names,
    product,
    resolve_preset,
    scheme_factor,
)
from sweepfd.errors import (
    InvalidCoefficientError,
    NumericsError,
    ParameterError,
    SpatialAmplificationError,
    StabilityError,
)

from oracles import (
    Program,
    apply_scheme_by_copies,
    compile_scheme_by_stages,
    validate_order_conditions,
)


SM = DiffusionVariant.SAULYEV_MATCHED
MCN = AdvectionVariant.MATCHED_CN


def d2s_spec(terms=None):
    return Scheme("d2s", Equation.DIFFUSION, terms or product(SM, (1.0,)))


def a2c_spec(terms=None):
    return Scheme("a2c", Equation.ADVECTION, terms or product(MCN, (1.0,)))


class TestPlans:
    def test_single_product_must_sum_to_one(self):
        with pytest.raises(InvalidCoefficientError):
            a2c_spec(product(MCN, (0.5, 0.4)))

    def test_multi_product_weights_must_sum_to_one(self):
        with pytest.raises(InvalidCoefficientError):
            d2s_spec(expansion(SM, ((Fraction(1, 2), 1), (Fraction(1, 3), 2))))

    def test_multi_product_powers_positive(self):
        with pytest.raises(ParameterError):
            d2s_spec(((Fraction(1), 0, (Stage(SM),)),))

    def test_plan_requires_t2_base(self):
        with pytest.raises(ParameterError):
            a2c_spec(((1, 1, (Stage(MCN, BaseStep.SWEEP_1A, 0.5),
                              Stage(MCN, BaseStep.SWEEP_1A, 0.5))),))

    def test_diffusion_rejects_negative_fractions(self):
        with pytest.raises(StabilityError):
            d2s_spec(product(SM, FOREST_RUTH))

    def test_advdiff_negative_fractions_warn_but_build(self):
        spec = Scheme("spec", Equation.ADV_DIFF, product(AdvDiffVariant.MATCHED_AD2C, FOREST_RUTH))
        with pytest.warns(RuntimeWarning):   # the warning comes with each compile
            compile_scheme(dataclasses.replace(spec), StepParams(r=0.05, eta=0.4))

    @pytest.mark.parametrize("equation,variant", [
        (equation, variant)
        for equation, family in ((Equation.DIFFUSION, DiffusionVariant),
                                 (Equation.ADVECTION, AdvectionVariant),
                                 (Equation.ADV_DIFF, AdvDiffVariant))
        for other in (DiffusionVariant, AdvectionVariant, AdvDiffVariant) if other is not family
        for variant in other])
    def test_variant_from_another_family_rejected(self, equation, variant):
        # a foreign variant used to compile silently into another family's formula
        with pytest.raises(ParameterError):
            Scheme("spec", equation, product(variant, (1.0,)))

    @pytest.mark.parametrize("stages", [
        (Stage(MCN, BaseStep.SWEEP_1B), Stage(MCN)),
        (Comparator.LAX_WENDROFF, Stage(MCN)),
        (Comparator.LAX_WENDROFF, Comparator.LAX_WENDROFF),
    ])
    def test_single_sweeps_and_comparators_stand_alone(self, stages):
        with pytest.raises(ParameterError, match="stand alone"):
            Scheme("spec", Equation.ADVECTION, ((1, 1, stages),))

    def test_one_sided_sweep_in_one_of_two_terms_rejected(self):
        with pytest.raises(ParameterError, match="stand alone"):
            a2c_spec(((Fraction(1, 2), 1, (Stage(MCN, BaseStep.SWEEP_1A),)),
                      (Fraction(1, 2), 1, (Stage(MCN),))))

    @pytest.mark.parametrize("equation,terms", [
        # advection lags half a step behind diffusion
        (Equation.ADV_DIFF, ((1, 1, (Stage(SM), Stage(MCN, BaseStep.T2, 0.5))),)),
        # power 2 at the full step
        (Equation.DIFFUSION, ((1, 2, (Stage(SM),)),)),
        # the T4 weights with the second term left at dt instead of dt/2
        (Equation.DIFFUSION, ((Fraction(-1, 3), 1, (Stage(SM),)),
                              (Fraction(4, 3), 2, (Stage(SM),)))),
    ])
    def test_each_variant_advances_one_step_per_term(self, equation, terms):
        with pytest.raises(InvalidCoefficientError, match="one whole step"):
            Scheme("spec", equation, terms)

    def test_diffusion_and_advection_stages_only_for_advdiff(self):
        terms = ((1, 1, (Stage(SM), Stage(MCN))),)
        assert Scheme("a_d", Equation.ADV_DIFF, terms).terms == terms
        for equation in (Equation.DIFFUSION, Equation.ADVECTION):
            with pytest.raises(ParameterError, match="take no"):
                Scheme("a_d", equation, terms)

    def test_stage_must_be_stage_or_comparator(self):
        with pytest.raises(ParameterError, match="Stage or a Comparator"):
            a2c_spec(((1, 1, ((MCN, BaseStep.T2, 1.0, "extra"),)),))

    def test_equal_schemes_hash_equal(self):
        one, two = (resolve_preset("2xy6", Equation.ADVECTION) for _ in range(2))
        assert one is not two
        assert one == two and hash(one) == hash(two)
        assert one != resolve_preset("3xy6", Equation.ADVECTION)

    def test_scheme_unpickled_from_another_process_hashes_equal(self):
        # str hashes are salted per process: an unpickled scheme must hash from its fields
        script = ("import pickle, sys, sweepfd as sf\n"
                  "scheme = sf.resolve_preset('2xy6', sf.Equation.ADVECTION)\n"
                  "sys.stdout.buffer.write(pickle.dumps(scheme))\n")
        env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              timeout=60, check=True)
        scheme = pickle.loads(done.stdout)
        local = resolve_preset("2xy6", Equation.ADVECTION)
        assert scheme == local and hash(scheme) == hash(local)

    @pytest.mark.parametrize("terms,value", [
        (product(MCN, (math.nan, 1.0)), "nan"),
        (product(MCN, (math.inf, 1.0)), "inf"),
        (((math.nan, 1, (Stage(MCN),)),), "nan"),
        (((math.inf, 1, (Stage(MCN),)),), "inf"),
        (((Fraction(1, 2), 1, (Stage(MCN),)), (-math.inf, 1, (Stage(MCN),))), "-inf"),
    ])
    def test_weights_and_fractions_must_be_finite(self, terms, value):
        # a nan fraction passed the whole-step check and failed only when compiled, and a
        # nan or infinite weight escaped from Fraction as ValueError / OverflowError
        with pytest.raises(ParameterError, match=f"must be finite, got {value}$"):
            a2c_spec(terms)

    @pytest.mark.parametrize("power,substeps,value", [(2.0, 1, "2.0"), (2, 2.5, "2.5"),
                                                      (2, 2.0, "2.0")])
    def test_powers_and_substeps_must_be_integers(self, power, substeps, value):
        # power 2.0 failed in Scheme.layout with a TypeError; substeps 2.5 failed in
        # apply_scheme while scheme_factor returned g ** 2.5
        with pytest.raises(ParameterError, match=f"integers >= 1, got {value}$"):
            Scheme("d2s", Equation.DIFFUSION, ((1, power, (Stage(SM, BaseStep.T2, 0.5),)),),
                   substeps)

    @pytest.mark.parametrize("terms,substeps,value", [
        (((10 ** 400, 1, (Stage(MCN),)), (1 - 10 ** 400, 1, (Stage(MCN),))), 1, 10 ** 400),
        (((Fraction(10 ** 400, 3), 1, (Stage(MCN),)),
          (1 - Fraction(10 ** 400, 3), 1, (Stage(MCN),))), 1, Fraction(10 ** 400, 3)),
        (((1 + 0j, 1, (Stage(MCN),)),), 1, 1 + 0j),
        (product(MCN, (1 - 10 ** 400, 10 ** 400)), 1, 10 ** 400),   # run right to left
        (((1, 10 ** 400, (Stage(MCN, BaseStep.T2, 1e-300),)),), 1, 10 ** 400),
        (product(MCN, (1.0,)), 10 ** 400, 10 ** 400),
    ], ids=["int-weight", "fraction-weight", "complex-weight", "int-fraction", "int-power",
            "int-substeps"])
    def test_numbers_without_a_finite_float_value_rejected(self, terms, substeps, value):
        # each raised a bare OverflowError or TypeError from the finite check or the
        # whole-step check; 10**400 substeps built and then failed to compile
        with pytest.raises(ParameterError, match=f"must be finite, got {re.escape(str(value))}$"):
            Scheme("a2c", Equation.ADVECTION, terms, substeps)

    @pytest.mark.parametrize("terms,substeps,shown", [
        (product(MCN, (1.0,)), 10 ** 5000, "5001 digits"),
        (product(MCN, (1.0,)), -10 ** 5000, "-5001 digits"),
        (((1, 10 ** 5000, (Stage(MCN, BaseStep.T2, 1e-300),)),), 1, "5001 digits"),
        (((10 ** 5000, 1, (Stage(MCN),)), (1 - 10 ** 5000, 1, (Stage(MCN),))), 1, "5001 digits"),
        (((Fraction(10 ** 5000, 3), 1, (Stage(MCN),)),
          (1 - Fraction(10 ** 5000, 3), 1, (Stage(MCN),))), 1, "5001 digits over 1 digits"),
    ], ids=["substeps", "negative-substeps", "power", "int-weight", "fraction-weight"])
    def test_numbers_too_long_to_print_are_named_by_their_digits(self, terms, substeps, shown):
        # formatting the error raised ValueError: Exceeds the limit (4300 digits) for integer
        # string conversion, where resolve_preset already named the digit count
        with pytest.raises(ParameterError, match=f"got {shown}$"):
            Scheme("a2c", Equation.ADVECTION, terms, substeps)

    def test_mpe_presets_are_exact_rationals(self):
        assert MPE_T4 == ((Fraction(-1, 3), 1), (Fraction(4, 3), 2))
        assert MPE_T6 == ((Fraction(1, 24), 1), (Fraction(-16, 15), 2), (Fraction(81, 40), 3))
        assert MPE_T8 == ((Fraction(-1, 360), 1), (Fraction(16, 45), 2),
                          (Fraction(-729, 280), 3), (Fraction(1024, 315), 4))


class TestOrderConditions:
    def test_plain_t2_is_second_order_only(self):
        report = validate_order_conditions([1.0], 4)
        assert report.satisfies(2)
        assert not report.satisfies(4)
        assert not report.passed

    def test_forest_ruth(self):
        report = validate_order_conditions(FOREST_RUTH, 4)
        assert abs(report.sum_error) <= 1e-12
        assert abs(report.cubic_sum) <= 1e-12
        assert report.passed
        assert report.quintic_sum == pytest.approx(-5.29145, abs=1e-4)

    def test_suzuki(self):
        report = validate_order_conditions(SUZUKI4, 4)
        assert report.passed
        assert report.quintic_sum == pytest.approx(-0.074376, abs=1e-5)

    def test_yoshida_coefficient_values(self):
        a3, a2, a1, a0 = YOSHIDA6[0], YOSHIDA6[1], YOSHIDA6[2], YOSHIDA6[3]
        assert a1 == -1.17767998417887
        assert a2 == 0.235573213359357
        assert a3 == 0.784513610477560
        assert a0 == pytest.approx(1.0 - 2.0 * (a1 + a2 + a3), rel=1e-15)
        assert YOSHIDA6 == (a3, a2, a1, a0, a1, a2, a3)

    def test_forest_ruth_coefficient_values(self):
        a1, a0 = FOREST_RUTH[0], FOREST_RUTH[1]
        cbrt2 = 2.0 ** (1.0 / 3.0)
        assert a1 == pytest.approx(1.0 / (2.0 - cbrt2), rel=1e-15)
        assert a0 == pytest.approx(-cbrt2 * a1, rel=1e-15)
        assert 2.0 * a1 + a0 == pytest.approx(1.0, abs=1e-14)
        assert 2.0 * a1 ** 3 + a0 ** 3 == pytest.approx(0.0, abs=1e-12)

    def test_yoshida(self):
        report = validate_order_conditions(YOSHIDA6, 6, tolerance=1e-10)
        assert abs(report.sum_error) <= 1e-10
        assert abs(report.cubic_sum) <= 1e-10
        assert abs(report.quintic_sum) <= 1e-10
        assert report.passed

    def test_empty_list_rejected(self):
        with pytest.raises(ParameterError):
            validate_order_conditions([], 2)


class TestGeneratedWeights:
    def test_jump_presets_are_bit_identical_to_the_literal_tables(self):
        # the values the hand-typed tables held before the jumps were generated
        x1, x0 = float.fromhex("0x1.59e8b6eb96339p+0"), float.fromhex("-0x1.b3d16dd72c672p+0")
        assert FOREST_RUTH == (x1, x0, x1)
        s, s0 = float.fromhex("0x1.a87044d5670efp-2"), float.fromhex("-0x1.50e089aace1dep-1")
        assert SUZUKI4 == (s, s, s0, s, s)

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_jump_fractions_are_fourth_order(self, m):
        fractions = jump_fractions(m)
        assert len(fractions) == 2 * m + 1
        assert fractions == fractions[::-1]
        assert validate_order_conditions(fractions, 4).passed

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_mpe_weights_satisfy_order_conditions(self, n):
        weights = mpe_weights(2 * n)
        assert [k for _, k in weights] == list(range(1, n + 1))
        assert all(isinstance(c, Fraction) for c, _ in weights)
        assert sum(c for c, _ in weights) == 1
        for m in range(1, n):
            assert sum(c * Fraction(1, k ** (2 * m)) for c, k in weights) == 0

    @pytest.mark.parametrize("order", [0, 3, -2])
    def test_mpe_order_must_be_even_and_positive(self, order):
        with pytest.raises(ParameterError):
            mpe_weights(order)

    @pytest.mark.parametrize("order", [4.0, 2.5, "4", None])
    def test_mpe_order_must_be_an_integer(self, order):
        # 4.0 raised a bare TypeError from range()
        with pytest.raises(ParameterError, match="multi-product orders"):
            mpe_weights(order)

    @pytest.mark.parametrize("m", [0, -1, 1.5, 2.0, "2", None])
    def test_jump_count_must_be_a_positive_integer(self, m):
        # 0 raised ZeroDivisionError, -1 returned complex fractions, 1.5 a bare TypeError
        with pytest.raises(ParameterError, match="jump fractions"):
            jump_fractions(m)

    @pytest.mark.parametrize("k", [0, -1, 1.5, 2.0, None])
    def test_expansion_step_count_must_be_a_positive_integer(self, k):
        # 0 raised ZeroDivisionError, None a bare TypeError, and -1 built a stage of
        # fraction -1.0 that Scheme later rejected as a term power
        with pytest.raises(ParameterError, match="step count"):
            expansion(AdvectionVariant.MATCHED_CN, ((1, k),))

    def test_expansion_steps_each_term_at_dt_over_k(self):
        terms = expansion(SM, MPE_T6)
        assert [(c, k) for c, k, _ in terms] == list(MPE_T6)
        assert [stages for _, _, stages in terms] == [(Stage(SM, BaseStep.T2, 1.0 / k),)
                                                     for k in (1, 2, 3)]


class TestT2Step:
    def test_zero_parameters_identity(self):
        f = Field1D(np.linspace(1, 2, 16), dx=1.0)
        before = f.values.copy()
        apply_scheme(f, d2s_spec(), StepParams(r=0.0))
        assert np.allclose(f.values, before, atol=1e-15)

    def test_norm_conserved(self):
        f = gaussian_profile(50, -5.0, 0.2, 0.0, 0.7)
        before = norm(f)
        for _ in range(10):
            apply_scheme(f, d2s_spec(), StepParams(r=1.3))
        assert norm(f) == pytest.approx(before, rel=1e-13)

    def test_single_coefficient_plan_equals_t2(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=24)
        f1 = Field1D(values.copy(), dx=1.0)
        f2 = Field1D(values.copy(), dx=1.0)
        apply_scheme(f1, a2c_spec(), StepParams(eta=0.6))
        apply_scheme(f2, a2c_spec(product(MCN, (1.0,))), StepParams(eta=0.6))
        assert np.array_equal(f1.values, f2.values)

    def test_single_term_multi_product_equals_t2(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=24)
        f1 = Field1D(values.copy(), dx=1.0)
        f2 = Field1D(values.copy(), dx=1.0)
        apply_scheme(f1, d2s_spec(), StepParams(r=0.8))
        apply_scheme(f2, d2s_spec(expansion(SM, ((Fraction(1), 1),))), StepParams(r=0.8))
        assert np.allclose(f1.values, f2.values, atol=1e-15)


class TestMpeBehaviour:
    def test_t4_outputs_can_go_negative_and_are_not_clamped(self):
        # a sharp pulse at sizeable r: the fourth-order expansion undershoots
        f = Field1D(np.zeros(64), dx=1.0)
        f.values[32] = 1.0
        spec = d2s_spec(expansion(SM, MPE_T4))
        for _ in range(2):
            apply_scheme(f, spec, StepParams(r=2.0))
        assert f.values.min() < 0.0

    def test_mpe_norm_conserved(self):
        f = gaussian_profile(60, -6.0, 0.2, 0.0, 0.5)
        before = norm(f)
        apply_scheme(f, d2s_spec(expansion(SM, MPE_T6)), StepParams(r=2.0))
        assert norm(f) == pytest.approx(before, rel=1e-13)


# every weight positive: an all -0.0 field weights every term to -0.0, so only
# a sum started from 0.0 (as in a sum into zeros) ends in +0.0
POSITIVE_MIX = Scheme("mix", Equation.DIFFUSION, (
    (Fraction(1, 4), 1, (Stage(SM),)),
    (Fraction(1, 4), 2, (Stage(SM, BaseStep.T2, 0.5),)),
    (Fraction(1, 2), 1, (Stage(DiffusionVariant.EXPONENTIAL),))))

MULTI_TERM = [resolve_preset(prefix + name, equation) for equation, name in
              ((Equation.DIFFUSION, "t4"), (Equation.DIFFUSION, "t6"),
               (Equation.DIFFUSION, "t8"), (Equation.ADV_DIFF, "t4"))
              for prefix in ("", "2x", "3x")]

# every single-term preset, and a single-sweep stage run twice
SINGLE_TERM = [resolve_preset(prefix + name, equation) for equation in Equation
               for name in preset_names(equation) if len(resolve_preset(name, equation).terms) == 1
               for prefix in ("", "2x", "3x")] + [Scheme("d1a^2", Equation.DIFFUSION, (
                   (1, 2, (Stage(DiffusionVariant.EXPONENTIAL, BaseStep.SWEEP_1A, 0.5),)),))]


# The strategies below are built once, at import: building them again on every
# draw took most of the time of the properties that draw from them.

# each variant of a drawn product repeats these fractions, signed zeros among
# them, and a last fraction completes its whole step
REPEATED_FRACTIONS = st.lists(
    st.sampled_from([0.0, -0.0, 0.25, 0.5, -0.25, 1.0, FOREST_RUTH[1]]), max_size=4)
PRODUCT_VARIANTS = {equation: st.sampled_from(variants) for equation, variants in (
    (Equation.DIFFUSION, [(v,) for v in DiffusionVariant]),
    (Equation.ADVECTION, [(v,) for v in AdvectionVariant]),
    (Equation.ADV_DIFF, [(v,) for v in AdvDiffVariant] + [(SM, MCN)]))}
EQUATIONS = st.sampled_from(list(Equation))
ONE_OR_TWO = st.sampled_from([1, 2])


@st.composite
def repeated_stage_products(draw):
    equation = draw(EQUATIONS)
    power = draw(ONE_OR_TWO)
    stages = []
    for variant in draw(PRODUCT_VARIANTS[equation]):
        fractions = draw(REPEATED_FRACTIONS)
        fractions.append(1.0 / power - math.fsum(fractions))
        stages += [Stage(variant, BaseStep.T2, a) for a in fractions]
    terms = ((1, power, tuple(draw(st.permutations(stages)))),)
    try:
        return Scheme("user", equation, terms, draw(ONE_OR_TWO))
    except NumericsError:
        reject()   # a negative diffusion fraction


STEPPED_SCHEMES = st.one_of(
    st.sampled_from(MULTI_TERM + [POSITIVE_MIX, dataclasses.replace(POSITIVE_MIX, substeps=2)]),
    st.sampled_from(SINGLE_TERM), repeated_stage_products())
STEPPED_ETAS = st.floats(-3.0, 3.0)
STEPPED_RS = st.floats(0.0, 50.0)
FIELD_SIZES = st.integers(3, 60)
SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
# by length: a drawn field's samples, and a run of signed zeros in it
FIELDS = {n: hnp.arrays(np.float64, n, elements=st.one_of(st.floats(-1e3, 1e3), SIGNED_ZEROS))
          for n in range(3, 61)}
ZERO_RUNS = {n: hnp.arrays(np.float64, n, elements=SIGNED_ZEROS) for n in range(61)}
ZERO_RUN_ENDS = {n: st.integers(0, n) for n in range(3, 61)}


@st.composite
def stepping_cases(draw):
    scheme = draw(STEPPED_SCHEMES)
    eta = draw(STEPPED_ETAS) if scheme.equation is not Equation.DIFFUSION else 0.0
    params = StepParams(draw(STEPPED_RS), eta)
    n = draw(FIELD_SIZES)
    values = draw(FIELDS[n])
    # a run of signed zeros, often the whole field
    start, stop = (0, n) if draw(st.booleans()) else sorted(draw(ZERO_RUN_ENDS[n])
                                                            for _ in range(2))
    values[start:stop] = draw(ZERO_RUNS[stop - start])
    return scheme, params, values


class TestMultiTermStepping:
    @pytest.mark.filterwarnings("ignore:negative substeps:RuntimeWarning")
    @settings(derandomize=True, database=None, max_examples=450, deadline=None)
    @given(stepping_cases())
    def test_matches_copy_per_term_stepping_bit_for_bit(self, case):
        # every path of apply_scheme: several terms in scratch buffers, one term in
        # place, substeps, powers and signed-zero fractions
        scheme, params, values = case
        f, ref = Field1D(values, dx=1.0), Field1D(values, dx=1.0)
        storage = f.values
        try:
            compile_scheme(scheme, params)
        except NumericsError:
            reject()   # parameters the scheme cannot step, e.g. a sweep with |b| >= 1
        apply_scheme(f, scheme, params)
        apply_scheme_by_copies(ref, scheme, params)
        assert f.values is storage
        assert np.array_equal(f.values, ref.values)
        assert np.array_equal(np.signbit(f.values), np.signbit(ref.values))

    def test_all_negative_zero_field_sums_to_positive_zero(self):
        f = Field1D(np.full(8, -0.0), dx=1.0)
        apply_scheme(f, POSITIVE_MIX, StepParams(r=0.5))
        assert not np.any(np.signbit(f.values))

    @pytest.mark.parametrize("scheme", MULTI_TERM, ids=lambda s: f"{s.equation.value}-{s.name}")
    def test_non_finite_sample_on_entry_rejected(self, scheme):
        # Field1D rejects non-finite samples; a caller can still write one into values
        f = gaussian_profile(40, -5.0, 0.25, 0.0, 1.0)
        f.values[7] = np.inf
        before = f.values.copy()
        with pytest.raises(ParameterError, match="finite"):
            apply_scheme(f, scheme, StepParams(r=0.5, eta=0.3))
        assert np.array_equal(f.values, before)


class TestMultiTermScratch:
    @pytest.mark.parametrize("equation,name", [
        (Equation.DIFFUSION, "t4"), (Equation.DIFFUSION, "t6"), (Equation.DIFFUSION, "t8"),
        (Equation.DIFFUSION, "2xt4"), (Equation.ADV_DIFF, "t4")])
    def test_steps_without_copying_the_field(self, equation, name, monkeypatch):
        # each term's first sweep reads f into a scratch buffer, so f is never copied
        scheme, params = resolve_preset(name, equation), StepParams(r=0.5, eta=0.3)
        f = gaussian_profile(64, -5.0, 0.25, 0.0, 1.0)
        ref = f.copy()
        apply_scheme_by_copies(ref, scheme, params)

        def no_copy(self):
            raise AssertionError("a multi-term step copied its field")
        monkeypatch.setattr(Field1D, "copy", no_copy)
        apply_scheme(f, scheme, params)
        assert np.array_equal(f.values, ref.values)


class TestPresets:
    @pytest.mark.parametrize("equation,name", [
        (Equation.DIFFUSION, n) for n in
        ("euler", "d1a", "d1b", "d1as", "d1bs", "d2", "d2s", "t4", "t6", "t8")
    ] + [
        (Equation.ADVECTION, n) for n in
        ("lw", "a1a", "a1b", "rw1a", "rw1b", "a2", "a2s", "a2c", "rw2", "fr", "s4", "y6")
    ] + [
        (Equation.ADV_DIFF, n) for n in
        ("rw1a", "rw1b", "rw2", "ad2c", "t4", "a_d", "split1a", "split1b")
    ])
    def test_presets_resolve_and_step(self, equation, name):
        scheme = resolve_preset(name, equation)
        assert scheme.name == name
        f = gaussian_profile(40, 0.0, 0.25, 5.0, 0.8)
        apply_scheme(f, scheme, StepParams(r=0.05, eta=0.4))
        assert np.all(np.isfinite(f.values))

    def test_advdiff_fr_resolves_with_warning(self):
        scheme = resolve_preset("fr", Equation.ADV_DIFF)
        with pytest.warns(RuntimeWarning):   # the warning comes with each compile
            compile_scheme(dataclasses.replace(scheme), StepParams(r=0.05, eta=0.4))

    @pytest.mark.parametrize("equation,name,params", [
        (Equation.ADV_DIFF, "fr", StepParams(r=0.0, eta=0.4)),
        (Equation.ADVECTION, "y6", StepParams(r=0.7, eta=0.4)),   # advection ignores r
        (Equation.ADVECTION, "fr", StepParams(r=0.7, eta=0.4)),
    ])
    def test_negative_fractions_compile_silently_without_diffusion(self, equation, name, params):
        scheme = resolve_preset(name, equation)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile_scheme(dataclasses.replace(scheme), params)

    def test_import_and_every_preset_resolve_without_warning(self):
        script = ("import sweepfd as sf\n"
                  "for eq in sf.Equation:\n"
                  "    for name in sf.preset_names(eq):\n"
                  "        sf.resolve_preset(name, eq)\n"
                  "        sf.resolve_preset('2x' + name, eq)\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_unknown_preset_lists_alternatives(self):
        with pytest.raises(KeyError, match="available"):
            resolve_preset("nope", Equation.DIFFUSION)

    def test_substep_prefix(self):
        scheme = resolve_preset("12xeuler", Equation.DIFFUSION)
        assert scheme.substeps == 12
        f1 = gaussian_profile(50, -5.0, 0.2, 0.0, 0.5)
        f2 = f1.copy()
        apply_scheme(f1, scheme, StepParams(r=1.2))
        plain = resolve_preset("euler", Equation.DIFFUSION)
        for _ in range(12):
            apply_scheme(f2, plain, StepParams(r=0.1))
        assert np.allclose(f1.values, f2.values, atol=1e-15)

    def test_preset_names_inventory(self):
        assert "d2s" in preset_names(Equation.DIFFUSION)
        assert "a2c" in preset_names(Equation.ADVECTION)
        assert "ad2c" in preset_names(Equation.ADV_DIFF)

    @pytest.mark.parametrize("n", [64, 63])
    def test_crank_nicolson_steps_each_lattice_mode_by_its_factor(self, n):
        # cn used to raise ParameterError: the implicit comparator had no explicit stepper
        scheme, params = resolve_preset("cn", Equation.DIFFUSION), StepParams(r=2.0)
        j = np.arange(n)
        for m in (0, 1, 5, n // 2):
            theta = 2 * math.pi * m / n
            f = Field1D(np.cos(theta * j + 0.3), dx=1.0)
            apply_scheme(f, scheme, params)
            g = Comparator.CRANK_NICOLSON.factor(params, theta)
            assert np.allclose(f.values, g.real * np.cos(theta * j + 0.3), rtol=0.0, atol=1e-14)
        f = gaussian_profile(n, -4.0, 8.0 / n, 0.0, 1.0)
        total = f.values.sum()
        for _ in range(100):
            apply_scheme(f, scheme, params)
        assert abs(f.values.sum() - total) <= 1e-13 * total


def structural_sweeps(scheme):
    """Sweeps per step from the scheme's terms: 2 per T2 stage, 1 per single
    sweep, 0 per comparator, each term's stages counted power times."""
    per_stage = {BaseStep.T2: 2, BaseStep.SWEEP_1A: 1, BaseStep.SWEEP_1B: 1}
    return scheme.substeps * sum(
        power * sum(per_stage[s.base] for s in stages if isinstance(s, Stage))
        for _, power, stages in scheme.terms)


EVERY_PRESET = [(eq, prefix + name) for eq in Equation for name in preset_names(eq)
                for prefix in ("", "2x")]


@pytest.mark.filterwarnings("ignore:negative substeps:RuntimeWarning")
class TestCompiledPrograms:
    PARAMS = StepParams(r=0.05, eta=0.4)

    @pytest.mark.parametrize("equation,name", EVERY_PRESET)
    def test_sweep_op_count_matches_plan(self, equation, name):
        scheme = resolve_preset(name, equation)
        ops = compile_scheme(scheme, self.PARAMS)
        sweeps = sum(isinstance(ops[r][0], PairUpdate) for run in scheme.layout.runs for r in run)
        assert scheme.substeps * sweeps == structural_sweeps(scheme) == scheme.layout.sweeps

    @pytest.mark.parametrize("equation,name", EVERY_PRESET + [
        (equation, "3x" + name) for equation in Equation for name in preset_names(equation)])
    def test_one_op_per_layout_row_in_stage_order(self, equation, name):
        # compile_scheme's documented output: each distinct stage's ops, stage after stage
        scheme = resolve_preset(name, equation)
        layout, ops = scheme.layout, compile_scheme(scheme, self.PARAMS)
        sub = self.PARAMS.scaled(1 / scheme.substeps)
        assert isinstance(ops, tuple)
        assert [r for rows in layout.stage_rows for r in rows] == list(range(len(ops)))
        assert len(layout.stage_rows) == len(layout.stages)
        for stage, rows in zip(layout.stages, layout.stage_rows):
            assert repr(tuple(ops[r] for r in rows)) == repr(stage.ops(sub))
        assert all(arg == sub for head, arg in ops if isinstance(head, Comparator))

    @pytest.mark.parametrize("equation,name", EVERY_PRESET)
    def test_sweep_count_matches_benchmark_prediction(self, equation, name):
        # the benchmark's traced runs fail unless the counted sweeps equal its
        # own hand-written table, which knows nothing of scheme.terms
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            from workloads import predicted_sweeps
        finally:
            sys.path.pop(0)
        scheme = resolve_preset(name, equation)
        assert scheme.layout.sweeps == structural_sweeps(scheme) == \
            predicted_sweeps(equation.value, name)

    @pytest.mark.parametrize("equation,name", [
        (equation, name) for equation in (Equation.DIFFUSION, Equation.ADV_DIFF)
        for name in preset_names(equation)])
    def test_negative_r_rejected_for_every_diffusive_preset(self, equation, name):
        # r < 0 diffuses backwards; advdiff fr used to step it because its
        # negative-fraction stages admit r < 0 internally
        with pytest.raises(StabilityError):
            compile_scheme(resolve_preset(name, equation), StepParams(r=-0.05, eta=0.4))

    @pytest.mark.parametrize("name,params", [("fr", StepParams(r=0.86, eta=1.0)),
                                             ("2xfr", StepParams(r=1.72, eta=2.0))])
    def test_recurrence_coefficient_beyond_one_rejected(self, name, params):
        # advdiff fr's negative-fraction stages run at r < 0, where a sweep's
        # recurrence coefficient reaches |b| = 1.24 and amplifies along the sweep:
        # the CLI run at these parameters used to exit 0 with a norm of 6e72
        with pytest.raises(SpatialAmplificationError, match=r"\|b\| = .* >= 1"):
            compile_scheme(resolve_preset(name, Equation.ADV_DIFF), params)

    @pytest.mark.parametrize("equation,name", EVERY_PRESET)
    def test_non_finite_step_rejected_by_every_scheme(self, equation, name):
        # euler and lw used to compile, step nan or inf into the field and give a nan
        # factor; every sweep scheme already refused
        scheme = resolve_preset(name, equation)
        for params in (StepParams(r=math.nan), StepParams(r=math.inf), StepParams(eta=math.nan),
                       StepParams(eta=math.inf), StepParams(eta=-math.inf)):
            with pytest.raises(ParameterError, match="^r and eta must be finite"):
                compile_scheme(scheme, params)
        unstable = StabilityError if equation is not Equation.ADVECTION else ParameterError
        with pytest.raises(unstable):
            compile_scheme(scheme, StepParams(r=-math.inf))

    @pytest.mark.parametrize("params", [
        StepParams(10 ** 400, 0.0), StepParams(0.0, 10 ** 400), StepParams(0.0, -10 ** 400),
        StepParams(Fraction(10 ** 400, 3), 0.0), StepParams(1j, 0.0), StepParams(0.0, 1 + 0j),
        StepParams(10 ** 5000, 0.0)],
        ids=["int-r", "int-eta", "negative-int-eta", "fraction-r", "complex-r", "complex-eta",
             "5001-digit-r"])
    @pytest.mark.parametrize("equation,name", [(Equation.DIFFUSION, "d2s"),
                                               (Equation.ADVECTION, "a2c"),
                                               (Equation.DIFFUSION, "euler")])
    def test_step_without_a_finite_float_value_rejected(self, equation, name, params):
        # each raised a bare OverflowError or TypeError from the exact-step key (a direct call;
        # the CLI passes finite floats only)
        with pytest.raises(ParameterError, match="^r and eta must be finite"):
            compile_scheme(resolve_preset(name, equation), params)

    @pytest.mark.parametrize("equation,name,params", [
        (Equation.DIFFUSION, "euler", StepParams(r=math.nan)),
        (Equation.DIFFUSION, "euler", StepParams(r=math.inf)),
        (Equation.ADVECTION, "lw", StepParams(eta=math.nan)),
        (Equation.ADVECTION, "lw", StepParams(eta=math.inf))])
    def test_comparator_at_non_finite_step_leaves_field_untouched(self, equation, name, params):
        scheme = resolve_preset(name, equation)
        f = gaussian_profile(40, 0.0, 0.25, 5.0, 0.8)
        before = f.values.copy()
        with pytest.raises(ParameterError, match="r and eta must be finite"):
            apply_scheme(f, scheme, params)
        assert np.array_equal(f.values, before)
        with pytest.raises(ParameterError, match="r and eta must be finite"):
            scheme_factor(scheme, params, 0.3)

    def test_program_is_memoised(self):
        scheme = resolve_preset("y6", Equation.ADVECTION)
        assert compile_scheme(scheme, StepParams(eta=0.8)) is compile_scheme(
            resolve_preset("y6", Equation.ADVECTION), StepParams(eta=0.8))

    def test_coefficient_error_leaves_field_untouched(self):
        # at eta = 1.4 the outer Forest-Ruth stages are valid Roberts-Weiss steps, but
        # the middle one (a = -1.70) needs an ascending sweep at a/2 eta <= -1: the
        # program fails to compile before the first stage has run
        spec = Scheme("rwfr", Equation.ADVECTION, product(AdvectionVariant.ROBERTS_WEISS,
                                                          FOREST_RUTH))
        f = gaussian_profile(40, 0.0, 0.25, 5.0, 0.8)
        before = f.values.copy()
        with pytest.raises(SpatialAmplificationError, match="eta > -1"):
            apply_scheme(f, spec, StepParams(eta=1.4))
        assert np.array_equal(f.values, before)


def nested(scheme, ops):
    """compile_scheme's row ops nested like the reference's Program: each
    term's stages through layout.terms, each stage's ops through stage_rows."""
    layout = scheme.layout
    return Program(scheme.substeps, tuple(
        (weight, power, tuple(tuple(ops[r] for r in layout.stage_rows[i]) for i in stages))
        for weight, power, stages in layout.terms))


def compiled(compile, scheme, params):
    """The repr of compile(scheme, params) or the type and message of its
    error, and the category and message of each warning it gives."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:   # a fresh scheme: compile_scheme warns only when it compiles
            result = repr(compile(dataclasses.replace(scheme), params))
        except NumericsError as exc:
            result = (type(exc), str(exc))
    return result, [(w.category, str(w.message)) for w in caught]


class TestCompileMatchesStageByStage:
    """compile_scheme resolves each distinct stage of the layout once and
    gives one op per row; the reference resolves every stage of every term
    into a Program nested by term."""

    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([resolve_preset(prefix + name, eq) for eq in Equation
                                      for name in preset_names(eq)
                                      for prefix in ("", "2x", "3x")]),
                     repeated_stage_products()),
           st.one_of(st.floats(-1.0, 20.0), st.sampled_from([0.0, -0.0])),
           st.one_of(st.floats(-20.0, 20.0), st.sampled_from([0.0, -0.0])))
    # equal stages but for the sign of a zero fraction compile to ops with
    # (alpha, beta, lam) = (1.0, 0.0, -0.0) and (1.0, -0.0, 0.0)
    @example(Scheme("user", Equation.ADVECTION, product(MCN, (0.0, 1.0, -0.0, 0.0))), 0.0, 0.8)
    @example(Scheme("user", Equation.ADVECTION, ((1, 2, tuple(
        Stage(AdvectionVariant.TRIG, BaseStep.T2, a) for a in (-0.0, 0.5, 0.0))),), 2), 0.3, -1.3)
    def test_program_error_and_warnings_match_the_reference(self, scheme, r, eta):
        params = StepParams(r, eta)
        assert compiled(lambda s, p: nested(s, compile_scheme(s, p)), scheme, params) == \
            compiled(compile_scheme_by_stages, scheme, params)


def zeros_flipped(scheme):
    """scheme with the sign of each zero stage fraction flipped: == scheme and of
    equal hash, but its ops differ in the signs of zeros."""
    return dataclasses.replace(scheme, terms=tuple(
        (weight, power, tuple(s._replace(fraction=-s.fraction)
                              if isinstance(s, Stage) and s.fraction == 0.0 else s
                              for s in stages))
        for weight, power, stages in scheme.terms))


@st.composite
def signed_zero_steps(draw):
    """Two steps that differ only in the signs of their zeros, so they compare equal."""
    r, eta = draw(st.sampled_from([0.0, 0.05, 0.5])), draw(st.sampled_from([0.0, 0.4, -1.3]))

    def signed(x):
        return draw(st.sampled_from([0.0, -0.0])) if x == 0.0 else x
    seen, params = (StepParams(signed(r), signed(eta)) for _ in range(2))
    assume(repr(seen) != repr(params))
    return seen, params


HISTORY_THETAS = np.linspace(0.0, math.pi, 9)
FRESH_NAMES = (f"fresh{i}" for i in itertools.count())


def outputs(scheme, params, values):
    """compile_scheme's repr, scheme_factor's bytes and the bytes of one step of
    apply_scheme from values, or the type and message of the first error."""
    try:
        program = repr(compile_scheme(scheme, params))
        g = np.asarray(scheme_factor(scheme, params, HISTORY_THETAS)).tobytes()
        f = Field1D(values, dx=1.0)
        apply_scheme(f, scheme, params)
        return program, g, f.values.tobytes()
    except NumericsError as exc:
        return type(exc), str(exc).replace(scheme.name, "<name>")


class TestCompileHistory:
    """A scheme's program, factor and step do not depend on what the process
    compiled before, even where == ignores the sign of a zero."""

    @pytest.mark.filterwarnings("ignore:negative substeps:RuntimeWarning")
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.one_of(st.sampled_from([resolve_preset(prefix + name, eq) for eq in Equation
                                      for name in preset_names(eq)
                                      for prefix in ("", "2x", "3x")]),
                     repeated_stage_products()),
           signed_zero_steps(),
           hnp.arrays(np.float64, 8, elements=st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5])))
    def test_outputs_match_a_fresh_compile(self, scheme, steps, values):
        seen, params = steps
        # a name no scheme had before: nothing the process compiled equals it
        fresh = outputs(dataclasses.replace(scheme, name=next(FRESH_NAMES)), params, values)
        same = dataclasses.replace(scheme)
        with contextlib.suppress(NumericsError):   # an equal step of the same scheme first
            compile_scheme(same, seen)
        assert outputs(same, params, values) == fresh
        with contextlib.suppress(NumericsError):   # an equal scheme at the same step first
            compile_scheme(zeros_flipped(scheme), params)
        assert outputs(dataclasses.replace(scheme), params, values) == fresh

    def test_a_changed_step_recompiles_and_a_repeated_one_does_not(self):
        scheme = resolve_preset("y6", Equation.ADVECTION)
        plus, minus = StepParams(0.0, 0.0), StepParams(0.0, -0.0)
        first = compile_scheme(scheme, plus)
        assert compile_scheme(scheme, StepParams(0.0, 0.0)) is first
        assert repr(compile_scheme(scheme, minus)) != repr(first)
        assert repr(compile_scheme(scheme, plus)) == repr(first)

    def test_threads_stepping_one_scheme_each_get_their_own_step(self):
        # more threads than cores switch every microsecond, each asking one scheme
        # for its own step, so the one slot is replaced under the others' reads
        scheme = resolve_preset("y6", Equation.ADVECTION)
        steps = [StepParams(0.0, 0.0), StepParams(0.0, -0.0), StepParams(0.0, 0.8)]
        expected = [repr(compile_scheme(dataclasses.replace(scheme), p)) for p in steps]
        errors = []

        def ask(k):
            for i in range(400):
                j = (i + k) % len(steps)
                if repr(compile_scheme(scheme, steps[j])) != expected[j]:
                    errors.append(steps[j])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,))
                       for k in range(min(2 * (os.cpu_count() or 1), 32))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []


class TestLargeStepDiffusion:
    def test_profile_tracks_exact_solution_at_r_five(self):
        # deliberately huge step (r = 5) on a Gaussian: the symmetric
        # Saul'yev-matched scheme stays in plotting agreement with the
        # exact semi-discrete evolution; the asymmetric and original-
        # coefficient variants err progressively more
        from sweepfd import exact_evolve
        initial = gaussian_profile(120, -6.0, 0.1, 0.0, 0.5)
        exact = exact_evolve(initial, 0.5, 0.0, 1.0)
        params = StepParams.from_physics(0.1, 0.1, 0.5, 0.0)
        deviations = {}
        for name in ("d2s", "d2", "d1a"):
            f = initial.copy()
            for _ in range(10):
                apply_scheme(f, resolve_preset(name, Equation.DIFFUSION), params)
            deviations[name] = float(np.max(np.abs(f.values - exact.values)))
        assert deviations["d2s"] <= 0.05
        assert deviations["d2s"] < deviations["d2"] < deviations["d1a"]


class TestSequentialScheme:
    def test_pure_diffusion_when_velocity_zero(self):
        scheme = resolve_preset("a_d", Equation.ADV_DIFF)
        f1 = gaussian_profile(60, 0.0, 0.2, 6.0, 0.7)
        f2 = f1.copy()
        apply_scheme(f1, scheme, StepParams(r=0.5, eta=0.0))
        apply_scheme(f2, resolve_preset("d2s", Equation.DIFFUSION), StepParams(r=0.5))
        assert np.allclose(f1.values, f2.values, atol=1e-15)

    def test_pure_advection_when_diffusivity_zero(self):
        scheme = resolve_preset("a_d", Equation.ADV_DIFF)
        f1 = gaussian_profile(60, 0.0, 0.2, 6.0, 0.7)
        f2 = f1.copy()
        apply_scheme(f1, scheme, StepParams(r=0.0, eta=0.5))
        apply_scheme(f2, resolve_preset("a2c", Equation.ADVECTION), StepParams(eta=0.5))
        assert np.allclose(f1.values, f2.values, atol=1e-15)


class TestStepParams:
    def test_from_physics(self):
        p = StepParams.from_physics(dt=0.1, dx=0.1, diffusivity=0.5, velocity=1.0)
        assert p.r == pytest.approx(5.0, rel=1e-15)
        assert p.eta == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("dx", [0.0, 1e-200, -1e-170])
    @pytest.mark.parametrize("diffusivity", [0.5, 0.0])
    def test_vanishing_dx_squared_rejected(self, dx, diffusivity):
        # r = dt*D/dx^2 divided by zero: a bare ZeroDivisionError
        with pytest.raises(ParameterError, match="dx"):
            StepParams.from_physics(0.1, dx, diffusivity, 1.0)

    @pytest.mark.parametrize("dt, dx, diffusivity, velocity", [
        (0.1, 1e-160, 0.5, 1.0),     # dx^2 = 1e-320 is subnormal, not 0: r = inf
        (1e300, 1e-10, 0.0, 1.0),    # eta = inf
        (0.1, 0.1, float("nan"), 0.0),
    ])
    def test_non_finite_step_rejected(self, dt, dx, diffusivity, velocity):
        # float division overflows to inf without raising, so the step came back non-finite
        with pytest.raises(ParameterError, match="no finite step"):
            StepParams.from_physics(dt, dx, diffusivity, velocity)

    @pytest.mark.parametrize("position", range(4), ids=["dt", "dx", "diffusivity", "velocity"])
    @pytest.mark.parametrize("big", [10**400, 10**5000], ids=["10**400", "10**5000"])
    def test_number_with_no_float_value_rejected(self, big, position):
        # an int too large for a float made r or eta raise a bare OverflowError
        physics = [0.1, 0.1, 0.5, 1.0]
        physics[position] = big
        with pytest.raises(ParameterError, match="no finite step"):
            StepParams.from_physics(*physics)

    def test_scaled(self):
        p = StepParams(r=1.0, eta=2.0).scaled(0.25)
        assert (p.r, p.eta) == (0.25, 0.5)
