"""Pair-sweep engine against its independent oracles."""

import math

import numpy as np
import pytest
from scipy.signal import lfilter

from sweepfd import (
    BoundaryKind,
    DiffusionParams,
    DiffusionVariant,
    Field1D,
    ModifiedNormTag,
    PairUpdate,
    SweepDirection,
    diffusion_coeffs,
    modified_norm,
    norm,
    saulyev_sweep_fixed,
    sweep,
    sweep_as_matrix,
)
from sweepfd.errors import BoundaryKindError, InvalidCoefficientError, SizeError

ASC = SweepDirection.ASCENDING
DESC = SweepDirection.DESCENDING


def random_update(rng) -> PairUpdate:
    return PairUpdate(*(rng.uniform(-0.9, 0.9, size=3)))


def diffusion_update(rng) -> PairUpdate:
    gamma = rng.uniform(-0.9, 1.0)
    return PairUpdate(0.5 * (1 + gamma), 0.5 * (1 - gamma), 0.5 * (1 - gamma))


def advection_update(rng) -> PairUpdate:
    s = rng.uniform(-0.95, 0.95)
    return PairUpdate(math.sqrt(1 - s * s), s, -s)


class TestSweepBasics:
    def test_identity_update_leaves_field_unchanged(self):
        f = Field1D([1.0, 2.0, 3.0, 4.0], dx=1.0)
        before = f.values.copy()
        sweep(f, PairUpdate(1.0, 0.0, 0.0), ASC)
        assert np.array_equal(f.values, before)
        sweep(f, PairUpdate(1.0, 0.0, 0.0), DESC)
        assert np.array_equal(f.values, before)

    def test_requires_periodic(self):
        f = Field1D(np.ones(5), dx=1.0, boundary=BoundaryKind.FIXED_ENDS)
        with pytest.raises(BoundaryKindError):
            sweep(f, PairUpdate(1.0, 0.0, 0.0), ASC)

    def test_non_finite_coefficients_rejected(self):
        with pytest.raises(InvalidCoefficientError):
            PairUpdate(math.nan, 0.0, 0.0)

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
            tag = ModifiedNormTag.advection(s, ascending=True)
            before = modified_norm(f, tag)
            sweep(f, u, ASC)
            assert modified_norm(f, tag) == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_advection_descending(self):
        rng = np.random.default_rng(7)
        s = 0.6
        u = PairUpdate(math.sqrt(1 - s * s), s, -s)
        f = Field1D(rng.normal(size=41), dx=1.0)
        tag = ModifiedNormTag.advection(s, ascending=False)
        before = modified_norm(f, tag)
        sweep(f, u, DESC)
        assert modified_norm(f, tag) == pytest.approx(before, rel=1e-12, abs=1e-12)

    def test_general_update_weight(self):
        # invariance needs beta + gamma + lam = 1; build such an update directly
        rng = np.random.default_rng(8)
        gamma, beta = 0.62, 0.31
        lam = 1.0 - gamma - beta
        u = PairUpdate(math.sqrt(gamma + beta * lam), beta, lam)
        f = Field1D(rng.normal(size=29), dx=1.0)
        tag = ModifiedNormTag.advection_diffusion(u.alpha, u.beta, u.lam, ascending=True)
        before = modified_norm(f, tag)
        sweep(f, u, ASC)
        assert modified_norm(f, tag) == pytest.approx(before, rel=1e-12, abs=1e-12)


class TestSaulyevFixed:
    def test_identity_coefficients(self):
        f = Field1D([1.0, 2.0, 3.0, 4.0], dx=1.0, boundary=BoundaryKind.FIXED_ENDS)
        saulyev_sweep_fixed(f, gamma=1.0, beta=0.0, lam=0.0, direction=ASC)
        assert np.array_equal(f.values, [1.0, 2.0, 3.0, 4.0])

    def test_ends_held_fixed(self):
        rng = np.random.default_rng(9)
        f = Field1D(rng.normal(size=20), dx=1.0, boundary=BoundaryKind.FIXED_ENDS)
        left, right = f.values[0], f.values[-1]
        saulyev_sweep_fixed(f, gamma=1 / 3, beta=1 / 3, lam=1 / 3, direction=ASC)
        saulyev_sweep_fixed(f, gamma=1 / 3, beta=1 / 3, lam=1 / 3, direction=DESC)
        assert f.values[0] == left and f.values[-1] == right

    def test_saulyev_coefficients_at_half(self):
        # r = 0.5: gamma_S = (1-r)/(1+r) = 1/3 and beta_S = (1-gamma)/2 = 1/3
        u = diffusion_coeffs(DiffusionParams(0.5, DiffusionVariant.SAULYEV_MATCHED))
        assert u.gamma == pytest.approx(1 / 3, rel=1e-15)
        assert u.beta == pytest.approx(1 / 3, rel=1e-15)

    def test_periodic_field_rejected(self):
        f = Field1D(np.ones(6), dx=1.0)
        with pytest.raises(BoundaryKindError):
            saulyev_sweep_fixed(f, 1 / 3, 1 / 3, 1 / 3, ASC)

    def test_recurrence_definition_ascending(self):
        rng = np.random.default_rng(10)
        old = rng.normal(size=9)
        f = Field1D(old.copy(), dx=1.0, boundary=BoundaryKind.FIXED_ENDS)
        g, b, l = 0.2, 0.5, 0.3
        saulyev_sweep_fixed(f, g, b, l, ASC)
        expected = old.copy()
        for j in range(1, 8):
            expected[j] = b * expected[j - 1] + g * old[j] + l * old[j + 1]
        assert np.allclose(f.values, expected, atol=1e-14)

    def test_recurrence_definition_descending(self):
        rng = np.random.default_rng(11)
        old = rng.normal(size=9)
        f = Field1D(old.copy(), dx=1.0, boundary=BoundaryKind.FIXED_ENDS)
        g, b, l = 0.2, 0.5, 0.3
        saulyev_sweep_fixed(f, g, b, l, DESC)
        expected = old.copy()
        for j in range(7, 0, -1):
            expected[j] = b * old[j - 1] + g * old[j] + l * expected[j + 1]
        assert np.allclose(f.values, expected, atol=1e-14)

    def test_matches_periodic_engine_away_from_boundary(self):
        # a pulse far from the ends makes the two code paths agree inside
        n = 64
        x = np.arange(n, dtype=float)
        pulse = np.exp(-((x - 32.0) / 3.0) ** 2)
        pulse[:2] = 0.0
        pulse[-2:] = 0.0
        u = diffusion_coeffs(DiffusionParams(0.5, DiffusionVariant.SAULYEV_MATCHED))
        periodic = Field1D(pulse.copy(), dx=1.0)
        fixed = Field1D(pulse.copy(), dx=1.0, boundary=BoundaryKind.FIXED_ENDS)
        sweep(periodic, u, ASC)
        saulyev_sweep_fixed(fixed, u.gamma, u.beta, u.lam, ASC)
        inner = slice(4, n - 4)
        assert np.max(np.abs(periodic.values[inner] - fixed.values[inner])) <= 1e-12
