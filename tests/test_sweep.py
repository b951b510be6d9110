"""Pair-sweep engine against its independent oracles."""

import functools
import importlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from sweepfd import (
    AdvDiffVariant,
    AdvectionVariant,
    DiffusionVariant,
    Equation,
    Field1D,
    PairUpdate,
    StepParams,
    SweepDirection,
    apply_scheme,
    modified_norm,
    norm,
    pair_update,
    resolve_preset,
    sweep,
)
from sweepfd.errors import InvalidCoefficientError, NumericsError, SizeError

from oracles import saulyev_sweep_fixed, sweep_as_matrix

sweep_module = importlib.import_module("sweepfd.sweep")  # `sweepfd.sweep` is the function

ASC = SweepDirection.ASCENDING
DESC = SweepDirection.DESCENDING


@functools.cache
def c_kernel():
    """The compiled sweep kernel, built once per test session (None without a compiler)."""
    return sweep_module._build_kernel()


@pytest.fixture(scope="class")
def kernel(request):
    """Run the sweeps of a test on the C kernel or on the lfilter fallback."""
    handle = None
    if request.param == "c":
        handle = c_kernel()
        if handle is None:
            pytest.skip("the C sweep kernel cannot be built here")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep_module, "_kernel", handle)
        yield request.param


def both_kernels(test):
    """Run test under each kernel; as the outermost mark, the kernel id ends the test id."""
    test = pytest.mark.usefixtures("kernel")(test)
    return pytest.mark.parametrize("kernel", ["c", "lfilter"], indirect=True)(test)


def random_update(rng) -> PairUpdate:
    return PairUpdate(*(rng.uniform(-0.9, 0.9, size=3)))


def diffusion_update(rng) -> PairUpdate:
    gamma = rng.uniform(-0.9, 1.0)
    return PairUpdate(0.5 * (1 + gamma), 0.5 * (1 - gamma), 0.5 * (1 - gamma))


def advection_update(rng) -> PairUpdate:
    s = rng.uniform(-0.95, 0.95)
    return PairUpdate(math.sqrt(1 - s * s), s, -s)


def assert_same_bits(x, y, case=None):
    assert np.array_equal(x, y, equal_nan=True), case
    assert np.array_equal(np.signbit(x), np.signbit(y)), case


# the keyword forms of a multi-term step's sweeps besides the in-place sweep
TERM_FORMS = ("source", "weight", "weight offset", "source weight offset")
SPECIAL_WEIGHTS = (1.0, -1.0, 0.0, -0.0, 5e-324, 1e300, -1e300)


def term_keywords(form, values, rng):
    """(start, keywords) of form for a sweep of values; start is None unless form reads a source.

    The offset holds signed zeros and finite samples up to 1e300, so a weighted sum
    can overflow but meets no nan on entry.
    """
    n = values.size
    start, keywords = None, {}
    if "source" in form:
        start, keywords["source"] = rng.normal(size=n), values
    if "weight" in form:
        keywords["weight"] = float(rng.choice(SPECIAL_WEIGHTS) if rng.random() < 0.3
                                   else rng.uniform(-2.0, 2.0))
    if "offset" in form:
        offset = rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 301))
        zeros = rng.random(n) < rng.random()
        offset[zeros] = rng.choice([0.0, -0.0], size=zeros.sum())
        keywords["offset"] = offset
    return start, keywords


class TestSweepBasics:
    def test_identity_update_leaves_field_unchanged(self):
        f = Field1D([1.0, 2.0, 3.0, 4.0], dx=1.0)
        before = f.values.copy()
        sweep(f, PairUpdate(1.0, 0.0, 0.0), ASC)
        assert np.array_equal(f.values, before)
        sweep(f, PairUpdate(1.0, 0.0, 0.0), DESC)
        assert np.array_equal(f.values, before)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(InvalidCoefficientError):
            PairUpdate(math.nan, 0.0, 0.0)

    def test_term_keywords_validated(self):
        f = Field1D(np.arange(6.0), dx=1.0)
        u = PairUpdate(0.6, 0.2, 0.2)
        other = np.ones(6)
        with pytest.raises(TypeError, match="weight"):
            sweep(f, u, ASC, offset=other)
        with pytest.raises(ValueError, match="shape"):
            sweep(f, u, ASC, source=np.ones(5))
        with pytest.raises(ValueError, match="shape"):
            sweep(f, u, ASC, weight=0.5, offset=np.ones(7))
        with pytest.raises(ValueError, match="overlap"):
            sweep(f, u, ASC, weight=0.5, offset=f.values)
        wide = np.arange(7.0)
        f.values = wide[1:]
        with pytest.raises(ValueError, match="overlap"):
            sweep(f, u, ASC, source=wide[:6])
        assert np.array_equal(wide, np.arange(7.0))

    def test_norm_conserved_by_diffusion_updates(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            f = Field1D(rng.normal(size=33), dx=0.1)
            total = norm(f)
            sweep(f, diffusion_update(rng), rng.choice([ASC, DESC]))
            assert abs(norm(f) - total) <= 1e-12 * np.abs(f.values).sum()


class TestMatrixOracle:
    """The sweep must equal the ordered product of embedded 2x2 factors."""

    def test_identity_matrix(self):
        m = sweep_as_matrix(PairUpdate(1.0, 0.0, 0.0), ASC, 5)
        assert np.array_equal(m, np.eye(5))

    def test_diffusion_columns_sum_to_one(self):
        rng = np.random.default_rng(1)
        m = sweep_as_matrix(diffusion_update(rng), ASC, 12)
        assert np.allclose(m.sum(axis=0), 1.0, atol=1e-13)

    def test_advection_matrix_is_orthogonal(self):
        rng = np.random.default_rng(2)
        for direction in (ASC, DESC):
            m = sweep_as_matrix(advection_update(rng), direction, 9)
            assert np.max(np.abs(m.T @ m - np.eye(9))) <= 1e-13

    @both_kernels
    @pytest.mark.parametrize("n", range(3, 17))
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_sweep_matches_matrix_product(self, n, direction):
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            u = random_update(rng)
            f = Field1D(rng.normal(size=n), dx=1.0)
            expected = sweep_as_matrix(u, direction, n) @ f.values
            sweep(f, u, direction)
            scale = max(np.max(np.abs(f.values)), 1.0)
            assert np.max(np.abs(f.values - expected)) <= 1e-13 * scale

    def test_size_limits(self):
        with pytest.raises(SizeError):
            sweep_as_matrix(PairUpdate(1.0, 0.0, 0.0), ASC, 2)
        with pytest.raises(SizeError):
            sweep_as_matrix(PairUpdate(1.0, 0.0, 0.0), ASC, 100)


def _reference_sweep(f: Field1D, u: PairUpdate, direction: SweepDirection) -> None:
    """Straightforward sweep built from N-sized temporaries (bit-identity oracle)."""
    v = f.values
    n = v.size
    a, b, l = u.alpha, u.beta, u.lam
    star = np.empty(n)
    out = np.empty(n)
    if direction.is_ascending:
        star[0] = a * v[0] + l * v[1]
        star[1] = b * v[0] + a * v[1]
        star[2:] = lfilter([a], [1.0, -b], v[2:], zi=np.array([b * star[1]]))[0]
        out[1:n - 1] = a * star[1:n - 1] + l * v[2:]
        out[n - 1] = a * star[n - 1] + l * star[0]
        out[0] = b * star[n - 1] + a * star[0]
    else:
        star[0] = b * v[n - 1] + a * v[0]
        star[n - 1] = a * v[n - 1] + l * v[0]
        star[n - 2:0:-1] = lfilter([a], [1.0, -l], v[n - 2:0:-1],
                                   zi=np.array([l * star[n - 1]]))[0]
        out[2:] = b * v[1:n - 1] + a * star[2:]
        out[1] = b * star[0] + a * star[1]
        out[0] = a * star[0] + l * star[1]
    v[:] = out


@both_kernels
class TestInPlaceKernel:
    """The in-place sweep must reproduce the pair arithmetic bit for bit."""

    @staticmethod
    def assert_bit_identical(u, direction, values):
        f, ref = Field1D(values, dx=1.0), Field1D(values, dx=1.0)
        storage = f.values
        with np.errstate(over="ignore", invalid="ignore"):
            sweep(f, u, direction)
            _reference_sweep(ref, u, direction)
        assert f.values is storage
        assert np.array_equal(f.values, ref.values, equal_nan=True)
        assert np.array_equal(np.signbit(f.values), np.signbit(ref.values))
        return f.values

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 64, 1000])
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_matches_reference_bit_for_bit(self, n, direction):
        rng = np.random.default_rng(7 * n + direction.is_ascending)
        for _ in range(20):
            values = rng.normal(size=n)
            values[rng.integers(0, n, 2)] = 0.0
            values[rng.integers(0, n, 1)] = -0.0
            self.assert_bit_identical(random_update(rng), direction, values)
            signed_zeros = rng.choice([0.0, -0.0], size=n)
            self.assert_bit_identical(random_update(rng), direction, signed_zeros)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 64, 1000])
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_overflow_to_inf_matches_reference(self, n, direction):
        rng = np.random.default_rng(11 * n + direction.is_ascending)
        for _ in range(5):
            u = PairUpdate(*(rng.choice([-1.0, 1.0], size=3) * rng.uniform(2.0, 40.0, size=3)))
            values = rng.normal(size=n) * 1e300
            values[rng.integers(0, n)] = 1e308
            swept = self.assert_bit_identical(u, direction, values)
            assert not np.all(np.isfinite(swept))


@both_kernels
class TestTermForms:
    """A sweep reading a source, or weighted, equals sweeping a copy and then numpy's sum."""

    @pytest.mark.parametrize("form", TERM_FORMS)
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_matches_sweep_of_a_copy_then_multiply_and_add(self, direction, form):
        rng = np.random.default_rng(29)
        for n in (3, 4, 5, 7, 64) * 4:
            values = rng.normal(size=n)
            values[rng.integers(0, n, 2)] = -0.0
            u = random_update(rng)
            start, keywords = term_keywords(form, values, rng)
            source = np.array(values)
            f = Field1D(values if start is None else start, dx=1.0)
            storage = f.values
            ref = Field1D(values, dx=1.0)
            with np.errstate(over="ignore"):
                sweep(f, u, direction, **keywords)
                _reference_sweep(ref, u, direction)
                expected = ref.values
                if "weight" in keywords:
                    expected = np.add(keywords.get("offset", 0.0),
                                      np.multiply(keywords["weight"], expected))
            assert f.values is storage
            assert_same_bits(f.values, expected)
            assert_same_bits(values, source)

    def test_weighted_sum_without_offset_starts_from_positive_zero(self):
        # the swept -0.0 samples stay -0.0 in place; 0.0 + w*(-0.0) is +0.0
        u = PairUpdate(0.6, 0.2, 0.2)
        for direction in (ASC, DESC):
            f, g = Field1D(np.full(9, -0.0), dx=1.0), Field1D(np.full(9, -0.0), dx=1.0)
            sweep(f, u, direction)
            sweep(g, u, direction, weight=1.0)
            assert np.all(np.signbit(f.values)) and not np.any(np.signbit(g.values))


class TestSaulyevFormEquivalence:
    """Interior samples of a periodic sweep obey the one-sided recurrence."""

    def test_ascending_interior_recurrence_and_boundary_lines(self):
        rng = np.random.default_rng(3)
        u = diffusion_update(rng)
        a, b, g = u.alpha, u.beta, u.gamma
        old = rng.normal(size=12)
        f = Field1D(old.copy(), dx=1.0)
        sweep(f, u, ASC)
        new = f.values
        n = old.size
        star0 = a * old[0] + b * old[1]
        # interior: u'_j = beta u'_{j-1} + gamma u_j + beta u_{j+1}
        for j in range(2, n - 1):
            residual = new[j] - (b * new[j - 1] + g * old[j] + b * old[j + 1])
            assert abs(residual) <= 1e-13
        # first interior line uses the starred boundary value
        assert new[1] == pytest.approx(b * star0 + g * old[1] + b * old[2], abs=1e-13)
        # last pair line
        assert new[n - 1] == pytest.approx(b * new[n - 2] + g * old[n - 1] + b * star0,
                                           abs=1e-13)
        # wrap line: u'_0 = (beta/alpha) u'_{N-1} + gamma u_0 + (gamma beta/alpha) u_1
        assert new[0] == pytest.approx((b / a) * new[n - 1] + g * old[0]
                                       + (g * b / a) * old[1], abs=1e-13)

    def test_descending_interior_recurrence(self):
        rng = np.random.default_rng(4)
        u = diffusion_update(rng)
        b, g = u.beta, u.gamma
        old = rng.normal(size=12)
        f = Field1D(old.copy(), dx=1.0)
        sweep(f, u, DESC)
        new = f.values
        # interior: u'_j = beta u_{j-1} + gamma u_j + beta u'_{j+1}
        for j in range(2, old.size - 1):
            residual = new[j] - (b * old[j - 1] + g * old[j] + b * new[j + 1])
            assert abs(residual) <= 1e-13

    def test_advdiff_interior_recurrence(self):
        # general (alpha, beta, lam): residual check restricted to the interior
        rng = np.random.default_rng(5)
        u = PairUpdate(0.81, 0.43, 0.12)
        old = rng.normal(size=15)
        f = Field1D(old.copy(), dx=1.0)
        sweep(f, u, ASC)
        new = f.values
        g = u.gamma
        for j in range(2, old.size - 1):
            residual = new[j] - (u.beta * new[j - 1] + g * old[j] + u.lam * old[j + 1])
            assert abs(residual) <= 1e-13


class TestModifiedNormInvariance:
    def test_advection_ascending(self):
        rng = np.random.default_rng(6)
        for s in (0.2, -0.4, 0.77):
            u = PairUpdate(math.sqrt(1 - s * s), s, -s)
            f = Field1D(rng.normal(size=41), dx=1.0)
            weight = u.boundary_weight(ASC)
            before = modified_norm(f, weight)
            sweep(f, u, ASC)
            assert modified_norm(f, weight) == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_advection_descending(self):
        rng = np.random.default_rng(7)
        s = 0.6
        u = PairUpdate(math.sqrt(1 - s * s), s, -s)
        f = Field1D(rng.normal(size=41), dx=1.0)
        weight = u.boundary_weight(DESC)
        before = modified_norm(f, weight)
        sweep(f, u, DESC)
        assert modified_norm(f, weight) == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_general_update_weight(self):
        # invariance needs beta + gamma + lam = 1; build such an update directly
        rng = np.random.default_rng(8)
        gamma, beta = 0.62, 0.31
        lam = 1.0 - gamma - beta
        u = PairUpdate(math.sqrt(gamma + beta * lam), beta, lam)
        f = Field1D(rng.normal(size=29), dx=1.0)
        weight = u.boundary_weight(ASC)
        before = modified_norm(f, weight)
        sweep(f, u, ASC)
        assert modified_norm(f, weight) == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestSaulyevFixed:
    def test_identity_coefficients(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        saulyev_sweep_fixed(v, gamma=1.0, beta=0.0, lam=0.0, direction=ASC)
        assert np.array_equal(v, [1.0, 2.0, 3.0, 4.0])

    def test_ends_held_fixed(self):
        rng = np.random.default_rng(9)
        v = rng.normal(size=20)
        left, right = v[0], v[-1]
        saulyev_sweep_fixed(v, gamma=1 / 3, beta=1 / 3, lam=1 / 3, direction=ASC)
        saulyev_sweep_fixed(v, gamma=1 / 3, beta=1 / 3, lam=1 / 3, direction=DESC)
        assert v[0] == left and v[-1] == right

    def test_saulyev_coefficients_at_half(self):
        # r = 0.5: gamma_S = (1-r)/(1+r) = 1/3 and beta_S = (1-gamma)/2 = 1/3
        u = pair_update(DiffusionVariant.SAULYEV_MATCHED, 0.5, 0.0, ASC)
        assert u.gamma == pytest.approx(1 / 3, rel=1e-15)
        assert u.beta == pytest.approx(1 / 3, rel=1e-15)

    def test_recurrence_definition_ascending(self):
        rng = np.random.default_rng(10)
        old = rng.normal(size=9)
        v = old.copy()
        g, b, l = 0.2, 0.5, 0.3
        saulyev_sweep_fixed(v, g, b, l, ASC)
        expected = old.copy()
        for j in range(1, 8):
            expected[j] = b * expected[j - 1] + g * old[j] + l * old[j + 1]
        assert np.allclose(v, expected, atol=1e-14)

    def test_recurrence_definition_descending(self):
        rng = np.random.default_rng(11)
        old = rng.normal(size=9)
        v = old.copy()
        g, b, l = 0.2, 0.5, 0.3
        saulyev_sweep_fixed(v, g, b, l, DESC)
        expected = old.copy()
        for j in range(7, 0, -1):
            expected[j] = b * old[j - 1] + g * old[j] + l * expected[j + 1]
        assert np.allclose(v, expected, atol=1e-14)

    def test_matches_periodic_engine_away_from_boundary(self):
        # a pulse far from the ends makes the two code paths agree inside
        n = 64
        x = np.arange(n, dtype=float)
        pulse = np.exp(-((x - 32.0) / 3.0) ** 2)
        pulse[:2] = 0.0
        pulse[-2:] = 0.0
        u = pair_update(DiffusionVariant.SAULYEV_MATCHED, 0.5, 0.0, ASC)
        periodic = Field1D(pulse.copy(), dx=1.0)
        fixed = pulse.copy()
        sweep(periodic, u, ASC)
        saulyev_sweep_fixed(fixed, u.gamma, u.beta, u.lam, ASC)
        inner = slice(4, n - 4)
        assert np.max(np.abs(periodic.values[inner] - fixed[inner])) <= 1e-12


@st.composite
def sweep_cases(draw):
    coeff = st.floats(-1.5, 1.5, allow_nan=False, allow_infinity=False)
    u = PairUpdate(draw(coeff), draw(coeff), draw(coeff))
    n = draw(st.integers(3, 64))
    values = draw(hnp.arrays(np.float64, n, elements=st.floats(-100.0, 100.0)))
    return u, draw(st.sampled_from([ASC, DESC])), values


@both_kernels
class TestSweepProperty:
    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(sweep_cases())
    def test_sweep_matches_matrix_product(self, case):
        u, direction, values = case
        n = values.size
        f = Field1D(values, dx=1.0)
        expected = sweep_as_matrix(u, direction, n) @ values
        sweep(f, u, direction)
        # rounding bound: every term of either evaluation order is bounded by the
        # same product taken over |alpha|, |beta|, |lam| and |u|, and each term
        # takes O(n) roundings (plus absolute subnormal ones)
        magnitude = sweep_as_matrix(PairUpdate(abs(u.alpha), abs(u.beta), abs(u.lam)),
                                    direction, n) @ np.abs(values)
        eps = np.finfo(float)
        tol = 8 * n * (eps.eps * magnitude + eps.smallest_subnormal)
        assert np.all(np.abs(f.values - expected) <= tol)


def built_update(variant, r, eta, direction):
    """pair_update's sweep at (r, eta); a draw where it does not build is rejected."""
    try:
        return pair_update(variant, r, eta, direction)
    except NumericsError:
        reject()


@st.composite
def conservation_cases(draw, variants, r, eta):
    """(update, direction, field): one buildable sweep of a random field."""
    variant = draw(st.sampled_from(variants))
    direction = draw(st.sampled_from([ASC, DESC]))
    u = built_update(variant, draw(r), draw(eta), direction)
    # a modified-norm weight has the denominator 1 - b, b the sweep's recurrence
    # coefficient (beta ascending, lam descending); below 1e-3 its rounding
    # outgrows the tolerance
    assume(1.0 - (u.beta if direction.is_ascending else u.lam) >= 1e-3)
    n = draw(st.integers(3, 300))
    values = draw(hnp.arrays(np.float64, n, elements=st.floats(-1.0, 1.0)))
    return u, direction, Field1D(values, dx=1.0)


class TestConservationProperty:
    """The sweep invariants over random fields and parameters, at the point tests' tolerance."""

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(conservation_cases(list(DiffusionVariant), st.floats(1e-3, 100.0), st.just(0.0)))
    def test_diffusion_sweep_conserves_norm(self, case):
        u, direction, f = case
        before = norm(f)
        sweep(f, u, direction)
        assert norm(f) == pytest.approx(before, rel=1e-12, abs=1e-12)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(conservation_cases(list(AdvectionVariant), st.just(0.0), st.floats(-10.0, 10.0)))
    def test_one_sided_advection_sweep_conserves_modified_norm(self, case):
        u, direction, f = case
        weight = u.boundary_weight(direction)
        before = modified_norm(f, weight)
        sweep(f, u, direction)
        assert modified_norm(f, weight) == pytest.approx(before, rel=1e-12, abs=1e-12)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(conservation_cases([AdvDiffVariant.GENERALIZED_RW], st.floats(0.0, 100.0),
                              st.floats(-10.0, 10.0)))
    def test_generalized_rw_sweep_conserves_modified_norm(self, case):
        u, direction, f = case
        weight = u.boundary_weight(direction)
        before = modified_norm(f, weight)
        sweep(f, u, direction)
        assert modified_norm(f, weight) == pytest.approx(before, rel=1e-12, abs=1e-12)


# the diffusion presets built from sweeps alone: t4/t6/t8 take negative weights
POSITIVE_PRESETS = ("d1a", "d1b", "d1as", "d1bs", "d2", "d2s")


class TestPositivity:
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.sampled_from(list(DiffusionVariant)), st.sampled_from([ASC, DESC]), st.booleans(),
           st.floats(-3.0, 4.0))
    def test_diffusion_updates_have_nonnegative_coefficients(self, variant, direction, half,
                                                             log_r):
        u = pair_update(variant, 10.0 ** log_r, 0.0, direction, half=half)
        assert min(u.alpha, u.beta, u.lam) >= 0.0

    @both_kernels
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.sampled_from(POSITIVE_PRESETS), st.floats(-3.0, 4.0), st.integers(1, 5),
           hnp.arrays(np.float64, st.integers(3, 300), elements=st.floats(0.0, 1e300)))
    def test_diffusion_sweep_presets_keep_a_field_nonnegative(self, name, log_r, steps,
                                                             values):
        # every touch is a nonnegative combination of nonnegative samples
        f = Field1D(values, dx=1.0)
        scheme = resolve_preset(name, Equation.DIFFUSION)
        for _ in range(steps):
            apply_scheme(f, scheme, StepParams(r=10.0 ** log_r))
        assert np.all(f.values >= 0.0)


def run_on(handle, u, direction, values, start=None, **keywords):
    """The swept values under one kernel handle (None: the lfilter fallback).

    f holds values, or start when a source is given; keywords go to sweep,
    and a source must come back untouched.
    """
    f = Field1D(np.zeros(values.size), dx=1.0)
    f.values = np.array(values if start is None else start)   # Field1D would reject infinities
    keywords = {key: np.array(x) if isinstance(x, np.ndarray) else x
                for key, x in keywords.items()}
    with pytest.MonkeyPatch.context() as mp, np.errstate(over="ignore", invalid="ignore"):
        mp.setattr(sweep_module, "_kernel", handle)
        sweep(f, u, direction, **keywords)
    if "source" in keywords:
        assert_same_bits(keywords["source"], values)
    return f.values


# the values on which the C chain z = b*y takes its literal fallback, or
# which probe it: signed zeros, infinities, subnormals and the edge of overflow
SPECIAL_SAMPLES = (0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                   1e308, -1e308)
SPECIAL_COEFFICIENTS = (0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300)


@st.composite
def kernel_cases(draw, max_n=2000):
    # coefficients and samples up to 1e300 overflow to inf/nan; no nan on entry
    coeff = st.one_of(st.floats(-2.0, 2.0), st.floats(-1e300, 1e300),
                      st.sampled_from(SPECIAL_COEFFICIENTS))
    u = PairUpdate(draw(coeff), draw(coeff), draw(coeff))
    n = draw(st.integers(3, max_n))
    values = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e300, 1e300)))
    noise = draw(st.sampled_from([0.0, 1e-300, 1.0, 1e300]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = values + noise * rng.normal(size=n)
    for j, x in draw(st.lists(st.tuples(st.integers(0, n - 1), st.sampled_from(SPECIAL_SAMPLES)),
                              max_size=8)):
        values[j] = x
    return u, draw(st.sampled_from([ASC, DESC])), values


def adversarial_cases(direction, count, seed):
    """Short seeded sweeps dense in special samples and coefficients, none of them nan."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 61))
        values = rng.normal(size=n) * 10.0 ** float(rng.integers(-3, 4))
        special = rng.random(n) < rng.random()
        values[special] = rng.choice(SPECIAL_SAMPLES, size=special.sum())
        coeffs = rng.uniform(-2.0, 2.0, size=3)
        special = rng.random(3) < 0.3
        coeffs[special] = rng.choice(SPECIAL_COEFFICIENTS, size=special.sum())
        yield PairUpdate(*map(float, coeffs)), direction, values


def mirror(n):
    """The ring index map of the mirrored ring (u_0, u_{N-1}, ..., u_1); it is its own inverse."""
    return (-np.arange(n)) % n


@both_kernels
class TestMirrorIdentity:
    """A sweep is the opposite sweep of the mirrored ring, with beta and lam exchanged.

    The C kernel runs every descending sweep as the ascending sweep of the
    mirror.  The lfilter fallback writes both directions out, so under it the
    identity is checked by code that does not rely on it.
    """

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(kernel_cases(max_n=300), st.sampled_from(("in place", "source", "weight",
                                                     "weight offset")),
           st.integers(0, 2**32 - 1))
    def test_sweep_is_opposite_sweep_of_mirrored_ring(self, case, form, seed):
        u, direction, values = case
        start, keywords = term_keywords(form, values, np.random.default_rng(seed))
        swept = run_on(sweep_module._kernel, u, direction, values, start, **keywords)
        m = mirror(values.size)
        opposite = DESC if direction.is_ascending else ASC
        mirrored = run_on(sweep_module._kernel, PairUpdate(u.alpha, u.lam, u.beta), opposite,
                          values[m], None if start is None else start[m],
                          **{key: x[m] if isinstance(x, np.ndarray) else x
                             for key, x in keywords.items()})
        assert_same_bits(swept, mirrored[m], (case, form, keywords))


class TestKernelChoice:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_c_kernel_matches_lfilter_bit_for_bit(self, case):
        handle = c_kernel()
        if handle is None:
            pytest.skip("the C sweep kernel cannot be built here")
        assert_same_bits(run_on(handle, *case), run_on(None, *case))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(kernel_cases(), st.sampled_from(TERM_FORMS), st.integers(0, 2**32 - 1))
    def test_c_term_forms_match_lfilter_bit_for_bit(self, case, form, seed):
        handle = c_kernel()
        if handle is None:
            pytest.skip("the C sweep kernel cannot be built here")
        start, keywords = term_keywords(form, case[2], np.random.default_rng(seed))
        c = run_on(handle, *case, start, **keywords)
        assert_same_bits(c, run_on(None, *case, start, **keywords))

    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_c_kernel_matches_lfilter_on_adversarial_sweeps(self, direction):
        handle = c_kernel()
        if handle is None:
            pytest.skip("the C sweep kernel cannot be built here")
        for case in adversarial_cases(direction, 1500, 17 + direction.is_ascending):
            assert_same_bits(run_on(handle, *case), run_on(None, *case), case)

    @pytest.mark.parametrize("form", TERM_FORMS)
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_c_term_forms_match_lfilter_on_adversarial_sweeps(self, direction, form):
        handle = c_kernel()
        if handle is None:
            pytest.skip("the C sweep kernel cannot be built here")
        rng = np.random.default_rng(19)
        for case in adversarial_cases(direction, 150, 23 + direction.is_ascending):
            start, keywords = term_keywords(form, case[2], rng)
            c = run_on(handle, *case, start, **keywords)
            assert_same_bits(c, run_on(None, *case, start, **keywords), (case, keywords))

    @pytest.mark.parametrize("setup", ["no compiler", "compiler fails", "cache is a file",
                                       "cache is shared"])
    def test_failed_build_falls_back_to_lfilter(self, setup, tmp_path, monkeypatch):
        # the cache cases keep the real PATH: only the cache stops the build
        cache = tmp_path / "cache"
        if setup == "no compiler":
            monkeypatch.setenv("PATH", "")
        elif setup == "compiler fails":
            cc = tmp_path / "cc"
            cc.write_text("#!/bin/sh\nexit 1\n")
            cc.chmod(0o755)
            monkeypatch.setenv("PATH", str(tmp_path))
        elif setup == "cache is a file":
            cache.write_text("")
        else:
            (cache / "sweepfd").mkdir(parents=True)
            (cache / "sweepfd").chmod(0o777)
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.setattr(sweep_module, "_kernel", sweep_module._UNBUILT)
        rng = np.random.default_rng(12)
        values = rng.normal(size=50)
        for direction in (ASC, DESC):
            u = random_update(rng)
            f, ref = Field1D(values, dx=1.0), Field1D(values, dx=1.0)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                sweep(f, u, direction)
            _reference_sweep(ref, u, direction)
            assert sweep_module._kernel is None
            assert np.array_equal(f.values, ref.values)
        if cache.is_dir():
            assert not list(cache.rglob("*.so"))

    @both_kernels
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_strided_values_match_reference(self, direction):
        # nothing stops a caller from rebinding values to a view the kernel cannot take
        rng = np.random.default_rng(13)
        u = random_update(rng)
        base = rng.normal(size=40)
        between = base[1::2].copy()
        f = Field1D(np.zeros(20), dx=1.0)
        f.values = base[::2]
        ref = Field1D(base[::2], dx=1.0)
        sweep(f, u, direction)
        _reference_sweep(ref, u, direction)
        assert np.array_equal(base[::2], ref.values)
        assert np.array_equal(base[1::2], between)

    def test_stepping_does_not_import_scipy(self):
        # scipy.signal costs about 1 s and 76 MB to import; only the lfilter fallback needs it
        step = c_kernel() is not None
        script = (
            "import sys\n"
            "import sweepfd as sf\n"
            "assert 'scipy' not in sys.modules, 'import sweepfd imported scipy'\n"
            f"if {step}:\n"
            "    f = sf.sextic_profile(100, -10.0, 0.2, 0.0)\n"
            "    scheme = sf.resolve_preset('a2c', sf.Equation.ADVECTION)\n"
            "    sf.apply_scheme(f, scheme, sf.StepParams.from_physics(0.02, f.dx, 0.0, 1.0))\n"
            "    assert 'scipy' not in sys.modules, 'an a2c step imported scipy'\n"
        )
        src = str(Path(sweep_module.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
