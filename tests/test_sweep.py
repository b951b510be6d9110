"""Pair-sweep engine against its independent oracles."""

import contextlib
import ctypes
import errno
import importlib
import itertools
import math
import os
import platform
import subprocess
import sys
import threading
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import assume, given, reject, settings
from hypothesis import strategies as st

from sweepfd import composition as composition_module
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
from sweepfd.errors import InvalidCoefficientError, KernelUnavailable, NumericsError, SizeError

from oracles import reference_sweep, saulyev_sweep_fixed, scalar_sweep, sweep_as_matrix

sweep_module = importlib.import_module("sweepfd.sweep")  # `sweepfd.sweep` is the function

ASC = SweepDirection.ASCENDING
DESC = SweepDirection.DESCENDING


def c_kernel():
    """The C kernel that sweep() runs, built on first use."""
    if sweep_module._kernel is None:
        sweep_module._kernel = sweep_module._build_kernel()
    return sweep_module._kernel


def both_sweepers(test):
    """Run test with `sweeper` sweep (id c) and its lfilter oracle reference_sweep (id lfilter).

    Under the oracle a test checks the reference that every bit-for-bit test of
    the kernel relies on.  As the outermost mark, the sweeper id ends the test id.
    """
    return pytest.mark.parametrize("sweeper", [sweep, reference_sweep], ids=["c", "lfilter"])(test)


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

    @pytest.mark.parametrize("name", ["alpha", "beta", "lam"])
    def test_coefficient_with_no_float_value_rejected(self, name):
        # math.isfinite(10**400) raised a bare OverflowError
        with pytest.raises(InvalidCoefficientError, match=f"^{name} must be finite$"):
            PairUpdate(**{"alpha": 1.0, "beta": 0.0, "lam": 0.0, name: 10**400})

    @pytest.mark.parametrize("direction", [ASC, DESC])
    @pytest.mark.parametrize("form", [f for f in TERM_FORMS if "weight" in f])
    @pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 10**400],
                             ids=["nan", "inf", "-inf", "10**400"])
    def test_non_finite_weight_rejected_before_a_write(self, weight, form, direction):
        # a nan or infinite weight was written into every sample, and 10**400 raised
        # ctypes.ArgumentError, which is no ValueError
        f = Field1D(np.arange(1.0, 7.0), dx=1.0)
        keywords = {"weight": weight}
        if "source" in form:
            keywords["source"] = np.full(6, 2.0)
        if "offset" in form:
            keywords["offset"] = np.ones(6)
        with pytest.raises(ValueError, match="^weight must be finite$"):
            sweep(f, PairUpdate(0.6, 0.2, 0.2), direction, **keywords)
        assert_same_bits(f.values, np.arange(1.0, 7.0))

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

    @both_sweepers
    @pytest.mark.parametrize("n", range(3, 17))
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_sweep_matches_matrix_product(self, n, direction, sweeper):
        rng = np.random.default_rng(100 + n)
        for _ in range(8):
            u = random_update(rng)
            f = Field1D(rng.normal(size=n), dx=1.0)
            expected = sweep_as_matrix(u, direction, n) @ f.values
            sweeper(f, u, direction)
            scale = max(np.max(np.abs(f.values)), 1.0)
            assert np.max(np.abs(f.values - expected)) <= 1e-13 * scale

    def test_size_limits(self):
        with pytest.raises(SizeError):
            sweep_as_matrix(PairUpdate(1.0, 0.0, 0.0), ASC, 2)
        with pytest.raises(SizeError):
            sweep_as_matrix(PairUpdate(1.0, 0.0, 0.0), ASC, 100)


@pytest.mark.parametrize("sweeper, reference", [(sweep, reference_sweep),
                                                (reference_sweep, scalar_sweep)],
                         ids=["c", "lfilter"])
class TestInPlaceKernel:
    """The in-place sweep must reproduce the pair arithmetic bit for bit.

    The C kernel is checked against the lfilter oracle (id c), and the oracle
    against the same arithmetic written out in Python floats (id lfilter).
    """

    @staticmethod
    def assert_bit_identical(sweeper, reference, u, direction, values):
        f, ref = Field1D(values, dx=1.0), Field1D(values, dx=1.0)
        storage = f.values
        with np.errstate(over="ignore", invalid="ignore"):
            sweeper(f, u, direction)
            reference(ref, u, direction)
        assert f.values is storage
        assert np.array_equal(f.values, ref.values, equal_nan=True)
        assert np.array_equal(np.signbit(f.values), np.signbit(ref.values))
        return f.values

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 64, 1000])
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_matches_reference_bit_for_bit(self, n, direction, sweeper, reference):
        rng = np.random.default_rng(7 * n + direction.is_ascending)
        for _ in range(20):
            values = rng.normal(size=n)
            values[rng.integers(0, n, 2)] = 0.0
            values[rng.integers(0, n, 1)] = -0.0
            self.assert_bit_identical(sweeper, reference, random_update(rng), direction, values)
            signed_zeros = rng.choice([0.0, -0.0], size=n)
            self.assert_bit_identical(sweeper, reference, random_update(rng), direction,
                                      signed_zeros)

    @pytest.mark.parametrize("n", [3, 4, 5, 7, 64, 1000])
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_overflow_to_inf_matches_reference(self, n, direction, sweeper, reference):
        rng = np.random.default_rng(11 * n + direction.is_ascending)
        for _ in range(5):
            u = PairUpdate(*(rng.choice([-1.0, 1.0], size=3) * rng.uniform(2.0, 40.0, size=3)))
            values = rng.normal(size=n) * 1e300
            values[rng.integers(0, n)] = 1e308
            swept = self.assert_bit_identical(sweeper, reference, u, direction, values)
            assert not np.all(np.isfinite(swept))


@both_sweepers
class TestTermForms:
    """A sweep reading a source, or weighted, equals sweeping a copy and then numpy's sum."""

    @pytest.mark.parametrize("form", TERM_FORMS)
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_matches_sweep_of_a_copy_then_multiply_and_add(self, direction, form, sweeper):
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
                sweeper(f, u, direction, **keywords)
                reference_sweep(ref, u, direction)
                expected = ref.values
                if "weight" in keywords:
                    expected = np.add(keywords.get("offset", 0.0),
                                      np.multiply(keywords["weight"], expected))
            assert f.values is storage
            assert_same_bits(f.values, expected)
            assert_same_bits(values, source)

    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_source_may_be_the_fields_own_samples(self, direction, sweeper):
        # source=f.values reads f itself: the in-place sweep, or its weighted sum
        rng = np.random.default_rng(31)
        for n in (3, 4, 5, 7, 64) * 2:
            values = rng.normal(size=n)
            values[rng.integers(0, n, 2)] = -0.0
            offset = rng.normal(size=n)
            offset[rng.integers(0, n, 2)] = -0.0
            u, weight = random_update(rng), float(rng.uniform(-2.0, 2.0))
            plain, same, weighted = (Field1D(values, dx=1.0) for _ in range(3))
            sweeper(plain, u, direction)
            sweeper(same, u, direction, source=same.values)
            sweeper(weighted, u, direction, source=weighted.values, weight=weight, offset=offset)
            assert_same_bits(same.values, plain.values)
            assert_same_bits(weighted.values, np.add(offset, np.multiply(weight, plain.values)))

    def test_weighted_sum_without_offset_starts_from_positive_zero(self, sweeper):
        # the swept -0.0 samples stay -0.0 in place; 0.0 + w*(-0.0) is +0.0
        u = PairUpdate(0.6, 0.2, 0.2)
        for direction in (ASC, DESC):
            f, g = Field1D(np.full(9, -0.0), dx=1.0), Field1D(np.full(9, -0.0), dx=1.0)
            sweeper(f, u, direction)
            sweeper(g, u, direction, weight=1.0)
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


@both_sweepers
class TestSweepProperty:
    @settings(derandomize=True, database=None, max_examples=120, deadline=None)
    @given(sweep_cases())
    def test_sweep_matches_matrix_product(self, sweeper, case):
        u, direction, values = case
        n = values.size
        f = Field1D(values, dx=1.0)
        expected = sweep_as_matrix(u, direction, n) @ values
        sweeper(f, u, direction)
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

    @both_sweepers
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(st.sampled_from(POSITIVE_PRESETS), st.floats(-3.0, 4.0), st.integers(1, 5),
           hnp.arrays(np.float64, st.integers(3, 300), elements=st.floats(0.0, 1e300)))
    def test_diffusion_sweep_presets_keep_a_field_nonnegative(self, sweeper, name, log_r, steps,
                                                             values):
        # every touch is a nonnegative combination of nonnegative samples
        f = Field1D(values, dx=1.0)
        scheme = resolve_preset(name, Equation.DIFFUSION)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(composition_module, "sweep", sweeper)   # apply_scheme's sweeps
            for _ in range(steps):
                apply_scheme(f, scheme, StepParams(r=10.0 ** log_r))
        assert np.all(f.values >= 0.0)


def run_on(sweeper, u, direction, values, start=None, **keywords):
    """The values swept by sweeper: sweep, or the lfilter oracle reference_sweep.

    f holds values, or start when a source is given; keywords go to sweeper,
    and a source must come back untouched.
    """
    f = Field1D(np.zeros(values.size), dx=1.0)
    f.values = np.array(values if start is None else start)   # Field1D would reject infinities
    keywords = {key: np.array(x) if isinstance(x, np.ndarray) else x
                for key, x in keywords.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        sweeper(f, u, direction, **keywords)
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


def overflow_cases(direction, count, seed):
    """Short seeded sweeps in which b*y overflows from finite samples, for a recurrence
    coefficient 1 < |b| < 2 and samples of magnitude 0.85e308 to 1.7e308 mixed with unit ones.

    The C chain takes lfilter's literal form wherever b*y is infinite; from a finite
    sample that form, +-0 - (-+inf), gives the same infinity.
    """
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(3, 61))
        values = rng.choice([-1.0, 1.0], size=n) * rng.uniform(0.5, 1.0, size=n) * 1.7e308
        small = rng.random(n) < rng.random()
        values[small] = rng.normal(size=small.sum())
        a, other = rng.uniform(-1.0, 1.0), rng.uniform(-2.0, 2.0)
        b = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        yield with_recurrence(float(a), float(b), float(other), direction), direction, values


def overflows_from_finite(u, direction, values):
    """Whether the starred chain meets a finite star y whose b*y overflows."""
    x = values if direction.is_ascending else values[mirror(values.size)]
    a, b = u.alpha, u.recurrence(direction)
    y = b * x[0] + a * x[1]
    for sample in x[2:]:
        if math.isfinite(y) and math.isinf(b * y):
            return True
        y = b * y + a * sample
    return math.isfinite(y) and math.isinf(b * y)


def mirror(n):
    """The ring index map of the mirrored ring (u_0, u_{N-1}, ..., u_1); it is its own inverse."""
    return (-np.arange(n)) % n


@both_sweepers
class TestMirrorIdentity:
    """A sweep is the opposite sweep of the mirrored ring, with beta and lam exchanged.

    The C kernel runs every descending sweep as the ascending sweep of the
    mirror.  The lfilter oracle writes both directions out, so under it the
    identity is checked by code that does not rely on it.
    """

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(kernel_cases(max_n=300), st.sampled_from(("in place", "source", "weight",
                                                     "weight offset")),
           st.integers(0, 2**32 - 1))
    def test_sweep_is_opposite_sweep_of_mirrored_ring(self, sweeper, case, form, seed):
        u, direction, values = case
        start, keywords = term_keywords(form, values, np.random.default_rng(seed))
        swept = run_on(sweeper, u, direction, values, start, **keywords)
        m = mirror(values.size)
        opposite = DESC if direction.is_ascending else ASC
        mirrored = run_on(sweeper, PairUpdate(u.alpha, u.lam, u.beta), opposite,
                          values[m], None if start is None else start[m],
                          **{key: x[m] if isinstance(x, np.ndarray) else x
                             for key, x in keywords.items()})
        assert_same_bits(swept, mirrored[m], (case, form, keywords))


class TestKernelChoice:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(kernel_cases())
    def test_c_kernel_matches_lfilter_bit_for_bit(self, case):
        assert_same_bits(run_on(sweep, *case), run_on(reference_sweep, *case))

    @settings(derandomize=True, database=None, max_examples=30, deadline=None)
    @given(kernel_cases(), st.sampled_from(TERM_FORMS), st.integers(0, 2**32 - 1))
    def test_c_term_forms_match_lfilter_bit_for_bit(self, case, form, seed):
        start, keywords = term_keywords(form, case[2], np.random.default_rng(seed))
        c = run_on(sweep, *case, start, **keywords)
        assert_same_bits(c, run_on(reference_sweep, *case, start, **keywords))

    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_c_kernel_matches_lfilter_on_adversarial_sweeps(self, direction):
        for case in itertools.chain(adversarial_cases(direction, 1500, 17 + direction.is_ascending),
                                    overflow_cases(direction, 300, 53 + direction.is_ascending)):
            assert_same_bits(run_on(sweep, *case), run_on(reference_sweep, *case), case)

    @pytest.mark.parametrize("form", TERM_FORMS)
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_c_term_forms_match_lfilter_on_adversarial_sweeps(self, direction, form):
        rng = np.random.default_rng(19)
        for case in itertools.chain(adversarial_cases(direction, 150, 23 + direction.is_ascending),
                                    overflow_cases(direction, 60, 59 + direction.is_ascending)):
            start, keywords = term_keywords(form, case[2], rng)
            c = run_on(sweep, *case, start, **keywords)
            assert_same_bits(c, run_on(reference_sweep, *case, start, **keywords),
                             (case, keywords))

    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_overflow_cases_overflow_b_y_from_finite_samples(self, direction):
        cases = list(overflow_cases(direction, 300, 53 + direction.is_ascending))
        with np.errstate(over="ignore", invalid="ignore"):
            assert sum(overflows_from_finite(*case) for case in cases) >= len(cases) // 3

    @pytest.mark.parametrize("setup", ["no compiler", "compiler fails", "cache is a file",
                                       "cache is shared"])
    def test_failed_build_raises_kernel_unavailable(self, setup, tmp_path, monkeypatch):
        # the cache cases keep the real PATH: only the cache stops the build
        cache = tmp_path / "cache"
        if setup == "no compiler":
            monkeypatch.setenv("PATH", "")
            cause = "no C compiler `cc` on PATH"
        elif setup == "compiler fails":
            cc = tmp_path / "cc"
            cc.write_text("#!/bin/sh\necho 'cc: error: this compiler never builds' >&2\nexit 1\n")
            cc.chmod(0o755)
            monkeypatch.setenv("PATH", str(tmp_path))
            cause = "could not build the C sweep kernel: cc: error: this compiler never builds"
        elif setup == "cache is a file":
            cache.write_text("")
            cause = f"{os.strerror(errno.ENOTDIR)}: '{cache / 'sweepfd'}'"
        else:
            (cache / "sweepfd").mkdir(parents=True)
            (cache / "sweepfd").chmod(0o777)
            cause = f"cache {cache / 'sweepfd'} must be owned by this user"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        monkeypatch.setattr(sweep_module, "_kernel", None)
        rng = np.random.default_rng(12)
        values = rng.normal(size=50)
        for direction in (ASC, DESC):
            f = Field1D(values, dx=1.0)
            with pytest.raises(KernelUnavailable) as raised:
                sweep(f, random_update(rng), direction)
            assert cause in str(raised.value)
            assert sweep_module._kernel is None
            assert np.array_equal(f.values, values)
        if cache.is_dir():
            assert not list(cache.rglob("*.so"))

    @pytest.mark.parametrize("name", ["f.values", "source", "offset"])
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_arrays_the_kernel_cannot_take_are_rejected(self, direction, name):
        # nothing stops a caller from rebinding values to an array the kernel cannot take, or
        # from passing one as a source or an offset; such a sweep writes no sample
        rng = np.random.default_rng(13)
        u = random_update(rng)
        base = rng.normal(size=40)
        before = base.copy()
        read_only = rng.normal(size=20)
        read_only.flags.writeable = False
        unfit = [base[::2], base[1::2], read_only, rng.normal(size=20).astype(np.float32)]
        g = Field1D(rng.normal(size=20), dx=1.0)
        kept = g.values.copy()
        if name == "f.values":
            unfit += [rng.normal(size=2), rng.normal(size=(4, 5))]
            calls = [(Field1D(np.zeros(20), dx=1.0), keywords)
                     for keywords in ({}, {"weight": 0.5}) for _ in unfit]
            for (f, _), x in zip(calls, unfit * 2):
                f.values = x
        else:
            calls = [(g, {"source": x} if name == "source" else {"weight": 0.5, "offset": x})
                     for x in unfit]
        expected = [f.values.copy() for f, _ in calls]
        for (f, keywords), values in zip(calls, expected):
            with pytest.raises(ValueError, match=f"^{name} must be a writeable C-contiguous"):
                sweep(f, u, direction, **keywords)
            assert_same_bits(f.values, values)
        assert np.array_equal(base, before)
        assert np.array_equal(g.values, kept)

    def test_stepping_does_not_import_scipy(self):
        # scipy.signal costs about 1 s and 76 MB to import, and only the tests' oracles use
        # it: with scipy made unimportable, each command runs on a small grid and exits 0
        commands = (
            ["run", "--nx", "64", "--steps", "2", "--scheme", "d2s,t4"],
            ["norms", "--nx", "64", "--steps", "3", "--scheme", "d2s,t4"],
            ["converge", "--nx", "64", "--scheme", "d2s,t4", "--dt", "0.1", "--tfinal", "0.4",
             "--dts", "0.1,0.05,0.025"],
            ["ampfactor", "--ntheta", "9"],
            ["phase", "--equation", "advection", "--scheme", "a2c,s4", "--ntheta", "9"],
        )
        script = (
            "import os, sys\n"
            "import sweepfd as sf\n"
            "assert 'scipy' not in sys.modules, 'import sweepfd imported scipy'\n"
            "sys.modules['scipy'] = None   # from here on, importing scipy raises ImportError\n"
            "f = sf.sextic_profile(100, -10.0, 0.2, 0.0)\n"
            "scheme = sf.resolve_preset('a2c', sf.Equation.ADVECTION)\n"
            "sf.apply_scheme(f, scheme, sf.StepParams.from_physics(0.02, f.dx, 0.0, 1.0))\n"
            "from sweepfd.cli import main\n"
            f"for argv in {commands!r}:\n"
            "    code = main(argv + ['--out', os.devnull])\n"
            "    assert code == 0, f'{argv} exited {code}'\n"
        )
        src = str(Path(sweep_module.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr

    def test_import_does_not_load_the_build_modules(self):
        # hashlib and subprocess cost about 10 ms of an import without bytecode, and only
        # building the kernel needs them; ampfactor and phase never sweep. numpy.fft is
        # loaded by a Crank-Nicolson step or the exact flow, never by an import
        script = (
            "import sys\n"
            "import sweepfd, sweepfd.cli\n"
            "loaded = sorted({'hashlib', 'subprocess', 'numpy.fft'} & set(sys.modules))\n"
            "assert not loaded, f'import sweepfd imported {loaded}'\n"
        )
        src = str(Path(sweep_module.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


# the sizes around the C kernel's split threshold of 2^17 samples
SPLIT_MIN = 2 ** 17
SPLIT_SIZES = (SPLIT_MIN, SPLIT_MIN + 1, 999_983)
# recurrence coefficients whose warm-up K = ceil(212 / -log2|b|) is at most n/8 at 2^17
SPLIT_COEFFICIENTS = st.one_of(st.floats(0.05, 0.99), st.floats(-0.99, -0.05),
                               st.sampled_from([c for c in SPECIAL_COEFFICIENTS if 0 < abs(c) < 1]))


def split_counts(handle):
    """(sweeps split, those of them whose helper half was redone) so far in the C kernel."""
    return tuple(ctypes.c_long.in_dll(handle, name).value
                 for name in ("sweep_splits", "sweep_fallbacks"))


LANE_FORMS = ("vector", "scalar")


@contextlib.contextmanager
def lanes_as(handle, form):
    """Run handle's split sweeps in one lane form: the AVX2 lanes ("vector") or "scalar" chains.

    The kernel chooses the form when it loads; the scalar one runs on any
    CPU, so a host with AVX2 tests both.
    """
    choice = ctypes.c_int.in_dll(handle, "sweep_vector")
    chosen = choice.value
    if form == "vector" and not chosen:
        pytest.skip("this CPU has no AVX2, so split sweeps run as scalar chains")
    choice.value = form == "vector"
    try:
        yield
    finally:
        choice.value = chosen


def splitting_kernel():
    """The C kernel, where it splits large sweeps: on Linux with a second allowed CPU."""
    handle = c_kernel()
    if not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) < 2:
        pytest.skip("a sweep splits only on Linux with a second allowed CPU")
    return handle


def with_recurrence(a, b, other, direction):
    """The update whose sweep in direction has recurrence coefficient b."""
    return PairUpdate(a, b, other) if direction.is_ascending else PairUpdate(a, other, b)


@st.composite
def split_cases(draw):
    """kernel_cases at the split sizes, with a recurrence coefficient that lets the sweep split.

    The special samples land anywhere or within 300 samples of an eighth of
    the array, near where two pieces of a split ascending or descending sweep
    meet: lanes of one thread at the odd eighths and at n/4 and 3n/4, the two
    threads at n/2.
    """
    coeff = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL_COEFFICIENTS))
    direction = draw(st.sampled_from([ASC, DESC]))
    u = with_recurrence(draw(coeff), draw(SPLIT_COEFFICIENTS), draw(coeff), direction)
    n = draw(st.sampled_from(SPLIT_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=n) * draw(st.sampled_from([1e-300, 1.0, 1e300]))
    where = st.one_of(st.integers(0, n - 1), st.integers(1, 7).flatmap(
        lambda eighth: st.integers(eighth * n // 8 - 300, eighth * n // 8 + 300)))
    for j, x in draw(st.lists(st.tuples(where, st.sampled_from(SPECIAL_SAMPLES)), max_size=8)):
        values[j] = x
    return u, direction, values


class TestSplitSweep:
    """Sweeps of 2^17 or more samples run on two threads in the C kernel, with the serial bits."""

    @pytest.mark.parametrize("lanes", LANE_FORMS)
    @settings(derandomize=True, database=None, max_examples=12, deadline=None)
    @given(split_cases(), st.sampled_from(("in place",) + TERM_FORMS), st.integers(0, 2**32 - 1))
    def test_split_sweep_matches_lfilter_bit_for_bit(self, lanes, case, form, seed):
        handle = splitting_kernel()
        start, keywords = term_keywords(form, case[2], np.random.default_rng(seed))
        splits, _ = split_counts(handle)
        with lanes_as(handle, lanes):
            swept = run_on(sweep, *case, start, **keywords)
        assert split_counts(handle)[0] == splits + 1
        assert_same_bits(swept, run_on(reference_sweep, *case, start, **keywords),
                         (case[:2], case[2].size, form))

    @pytest.mark.parametrize("band", [None, (2, 2), (4, 4), (6, 6), (2, 4), (1, 1), (3, 3),
                                      (5, 5), (7, 7), (1, 3), (5, 7)],
                             ids=["large until the middle", "band before n/4", "band before n/2",
                                  "band before 3n/4", "band over n/4 and n/2", "band before n/8",
                                  "band before 3n/8", "band before 5n/8", "band before 7n/8",
                                  "band over n/8 to 3n/8", "band over 5n/8 to 7n/8"])
    @pytest.mark.parametrize("form", ("in place",) + TERM_FORMS)
    @pytest.mark.parametrize("direction", [ASC, DESC])
    @pytest.mark.parametrize("lanes", LANE_FORMS)
    def test_helper_half_redone_when_its_start_differs(self, lanes, direction, form, band):
        # The C kernel cuts ring samples 2..n-1 into eight pieces near the eighths of n:
        # the caller's four lanes meet at n/8, n/4 and 3n/8, the helper's at 5n/8, 3n/4 and
        # 7n/8, and the threads at n/2. Each piece but the first starts from a state guessed
        # over the K = 212 samples before it (b = 0.5). band = (first, last) names piece
        # boundaries in eighths of n. None: 1e300 up to 1000 samples before the middle,
        # 1e-300 after, so at the middle the chain still holds about 1e300 * 2^-1000 = 0.09
        # of the large samples, which the guess never sees (pieces 4-7 are redone). A band:
        # unit noise, but 1000 samples of 1e300 and then 1e-300 from 3000 samples before its
        # first boundary to 1000 after its last. Over the 1e-300 samples the rounded chain
        # settles in a band of fixed points, the true state from above and the guess from
        # below, so they differ at each boundary inside; after the band the next guess
        # matches again.
        n = SPLIT_MIN
        handle = splitting_kernel()
        if band is None:
            ring = np.full(n, 1e-300)
            ring[:n // 2 - 1000] = 1e300
        else:
            lo, hi = band[0] * n // 8 - 3000, band[1] * n // 8 + 1000
            ring = np.random.default_rng(47).normal(size=n)
            ring[lo - 1000:lo] = 1e300
            ring[lo:hi] = 1e-300
        values = ring if direction.is_ascending else ring[mirror(n)]
        u = PairUpdate(0.5, 0.5, 0.5)
        start, keywords = term_keywords(form, values, np.random.default_rng(31))
        splits, fallbacks = split_counts(handle)
        with lanes_as(handle, lanes):
            swept = run_on(sweep, u, direction, values, start, **keywords)
        assert split_counts(handle) == (splits + 1, fallbacks + 1)
        assert_same_bits(swept, run_on(reference_sweep, u, direction, values, start, **keywords),
                         keywords)

    @pytest.mark.parametrize("n, b", [(SPLIT_MIN - 1, 0.5), (SPLIT_MIN, 0.995)],
                             ids=["below 2^17", "K above n/8"])
    @pytest.mark.parametrize("form", ("in place",) + TERM_FORMS)
    @pytest.mark.parametrize("direction", [ASC, DESC])
    def test_no_split_below_the_threshold_or_for_a_slow_chain(self, direction, form, n, b):
        # every storage form of a long serial chain, beyond kernel_cases' 2000 samples
        handle = c_kernel()
        case = (with_recurrence(0.6, b, 0.3, direction), direction,
                np.random.default_rng(37).normal(size=n))
        start, keywords = term_keywords(form, case[2], np.random.default_rng(41))
        counts = split_counts(handle)
        swept = run_on(sweep, *case, start, **keywords)
        assert split_counts(handle) == counts
        assert_same_bits(swept, run_on(reference_sweep, *case, start, **keywords), keywords)

    def test_vector_form_chosen_where_the_cpu_has_avx2(self):
        handle = c_kernel()
        avx2 = False
        if sys.platform.startswith("linux") and platform.machine() == "x86_64":
            flags = (line.split(":", 1)[1].split() for line in
                     Path("/proc/cpuinfo").read_text().splitlines() if line.startswith("flags"))
            avx2 = "avx2" in next(flags, ())
        assert ctypes.c_int.in_dll(handle, "sweep_vector").value == avx2

    def test_no_split_on_one_allowed_cpu(self):
        splitting_kernel()
        script = (
            "import ctypes, importlib, os\n"
            "import numpy as np\n"
            "import sweepfd as sf\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "rng = np.random.default_rng(41)\n"
            f"for n, b in (({SPLIT_MIN}, 0.5), ({SPLIT_MIN - 1}, 0.5), ({SPLIT_MIN}, 0.995)):\n"
            "    for d in sf.SweepDirection:\n"
            "        f = sf.Field1D(rng.normal(size=n), dx=1.0)\n"
            "        sf.sweep(f, sf.PairUpdate(0.6, b, b), d)\n"
            "kernel = importlib.import_module('sweepfd.sweep')._kernel\n"
            "print(ctypes.c_long.in_dll(kernel, 'sweep_splits').value)\n"
        )
        src = str(Path(sweep_module.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"]

    def test_two_threads_sweep_at_once(self):
        # each call owns its helper thread and save buffer, and ctypes releases the GIL
        # during it, so two sweeps overlap; each must keep its serial bits
        handle = splitting_kernel()
        rng = np.random.default_rng(43)
        rounds = 4
        cases = [(random_update(rng), direction, rng.normal(size=SPLIT_MIN))
                 for direction in (ASC, DESC) for _ in range(rounds)]
        expected = [run_on(reference_sweep, *case) for case in cases]
        fields = [Field1D(values, dx=1.0) for _, _, values in cases]
        interval = sys.getswitchinterval()
        splits, _ = split_counts(handle)
        sys.setswitchinterval(1e-5)
        try:
            for i in range(rounds):
                start = threading.Barrier(2)

                def run(j):
                    start.wait()
                    sweep(fields[j], *cases[j][:2])

                threads = [threading.Thread(target=run, args=(j,)) for j in (i, rounds + i)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=30)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert split_counts(handle)[0] == splits + 2 * rounds
        for f, want in zip(fields, expected):
            assert_same_bits(f.values, want)
