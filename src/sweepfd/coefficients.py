"""Pair-update coefficients for every scheme family.

Diffusion updates damp a neighbour pair with determinant gamma in (0,1]
(or Saul'yev's rational gamma in (-1,1]); advection updates rotate the
pair (determinant 1); advection-diffusion updates combine both.  All
constructors return a PairUpdate ready for the sweep engine and reject
parameters that are provably unstable or spatially amplifying.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import (
    InvalidCoefficientError,
    ParameterError,
    SpatialAmplificationError,
    StabilityError,
)
from .sweep import PairUpdate, SweepDirection


class DiffusionVariant(Enum):
    EXPONENTIAL = "exponential"          # gamma = exp(-2r)
    SAULYEV_MATCHED = "saulyev-matched"  # gamma = (1-r)/(1+r)


class AdvectionVariant(Enum):
    TRIG = "trig"                  # s = sin(eta/2)
    SAULYEV = "saulyev"            # s = eta/2
    ROBERTS_WEISS = "roberts-weiss"  # s = eta/(2+eta) asc, eta/(2-eta) desc
    MATCHED_CN = "matched-cn"      # s solving 2s/(1-s^2) = eta/2


class AdvDiffVariant(Enum):
    SPLIT_DERIVED = "split-derived"
    GENERALIZED_RW = "generalized-rw"
    MATCHED_AD2C = "matched-ad2c"


@dataclass(frozen=True)
class DiffusionParams:
    r: float
    variant: DiffusionVariant = DiffusionVariant.EXPONENTIAL


@dataclass(frozen=True)
class AdvectionParams:
    eta: float
    variant: AdvectionVariant = AdvectionVariant.TRIG


@dataclass(frozen=True)
class AdvDiffParams:
    r: float
    eta: float
    variant: AdvDiffVariant = AdvDiffVariant.MATCHED_AD2C


# ---------------------------------------------------------------------------
# diffusion

def diffusion_gamma(variant: DiffusionVariant, r: float) -> float:
    """Damping factor gamma(r); pure function, defined for either sign of r."""
    if variant is DiffusionVariant.EXPONENTIAL:
        return math.exp(-2.0 * r)
    return (1.0 - r) / (1.0 + r)


def pair_from_gamma(gamma: float) -> PairUpdate:
    """Norm-conserving diffusion update: alpha = (1+gamma)/2, beta = lam = (1-gamma)/2."""
    alpha = 0.5 * (1.0 + gamma)
    beta = 0.5 * (1.0 - gamma)
    return PairUpdate(alpha, beta, beta)


def diffusion_coeffs(p: DiffusionParams, half: bool = False) -> PairUpdate:
    """Full-sweep (half=False) or half-sweep (half=True, r -> r/2) update."""
    if not math.isfinite(p.r):
        raise ParameterError(f"r must be finite, got {p.r}")
    if p.r < 0.0:
        raise StabilityError("diffusion sweeps are unconditionally unstable for r < 0")
    r_eff = 0.5 * p.r if half else p.r
    return pair_from_gamma(diffusion_gamma(p.variant, r_eff))


# ---------------------------------------------------------------------------
# advection

def matched_cn_s(eta: float) -> float:
    """Coefficient s with 2s/(1-s^2) = eta/2, written cancellation-free.

    Equivalent to (2/eta)(sqrt(1 + eta^2/4) - 1); a short series takes over
    below |eta| = 1e-4 where even the stable quotient is all cancellation.
    """
    if abs(eta) < 1e-4:
        return 0.25 * eta * (1.0 - eta * eta / 16.0)
    return eta / (2.0 * (math.sqrt(1.0 + 0.25 * eta * eta) + 1.0))


def advection_s(variant: AdvectionVariant, eta: float, direction: SweepDirection) -> float:
    """Sweep coefficient s for one advection sweep at courant number eta."""
    if variant is AdvectionVariant.TRIG:
        return math.sin(0.5 * eta)
    if variant is AdvectionVariant.SAULYEV:
        return 0.5 * eta
    if variant is AdvectionVariant.ROBERTS_WEISS:
        if direction.is_ascending:
            if eta <= -1.0:
                raise SpatialAmplificationError(
                    f"ascending Roberts-Weiss sweep requires eta > -1, got {eta}")
            return eta / (2.0 + eta)
        if eta >= 1.0:
            raise SpatialAmplificationError(
                f"descending Roberts-Weiss sweep requires eta < 1, got {eta}")
        return eta / (2.0 - eta)
    return matched_cn_s(eta)


def advection_coeffs(p: AdvectionParams, direction: SweepDirection,
                     half_divisor: int = 1) -> PairUpdate:
    """Rotation-like update (alpha, s, -s) with alpha = sqrt(1 - s^2).

    half_divisor rescales eta for substeps (2 for the halves of a
    symmetric step); the matched-CN coefficient already describes a half
    sweep of the full step and is used with half_divisor = 1 there.
    """
    if not math.isfinite(p.eta):
        raise ParameterError(f"eta must be finite, got {p.eta}")
    eta_eff = p.eta / half_divisor
    s = advection_s(p.variant, eta_eff, direction)
    if abs(s) >= 1.0:
        detail = "; s = 1 is pathological" if p.variant is AdvectionVariant.SAULYEV else ""
        raise SpatialAmplificationError(
            f"|s| = {abs(s)} >= 1 amplifies along the sweep{detail}")
    return PairUpdate(math.sqrt(1.0 - s * s), s, -s)


# ---------------------------------------------------------------------------
# advection-diffusion

def sinhc(psi_squared: float) -> float:
    """sinh(psi)/psi as a function of psi^2, continued to sin for psi^2 < 0."""
    if abs(psi_squared) < 1e-8:
        return 1.0 + psi_squared / 6.0 + psi_squared * psi_squared / 120.0
    if psi_squared > 0.0:
        psi = math.sqrt(psi_squared)
        return math.sinh(psi) / psi
    psi = math.sqrt(-psi_squared)
    return math.sin(psi) / psi


def _cosh_from_square(psi_squared: float) -> float:
    if psi_squared >= 0.0:
        return math.cosh(math.sqrt(psi_squared))
    return math.cos(math.sqrt(-psi_squared))


def split_update(r: float, eta: float) -> PairUpdate:
    """Split-derived update at (r, eta), defined for either sign of r."""
    damp = math.exp(-r)
    half_eta = 0.5 * eta
    psi_squared = r * r - half_eta * half_eta
    shc = sinhc(psi_squared)
    return PairUpdate(damp * _cosh_from_square(psi_squared),
                      damp * (r + half_eta) * shc,
                      damp * (r - half_eta) * shc)


def advdiff_coeffs_split(p: AdvDiffParams) -> PairUpdate:
    """Exponential of the combined 2x2 generator (not norm-conserving).

    alpha = e^-r cosh(psi), beta/lam = e^-r (r +- eta/2) sinh(psi)/psi with
    psi^2 = r^2 - (eta/2)^2; determinant stays exactly e^-2r.
    """
    if p.r < 0.0:
        raise StabilityError("advection-diffusion updates require r >= 0")
    return split_update(p.r, p.eta)


def _alpha_from(gamma: float, beta: float, lam: float) -> float:
    disc = gamma + beta * lam
    if disc < 0.0:
        raise InvalidCoefficientError(
            f"gamma + beta*lam = {disc} < 0: no real alpha exists")
    return math.sqrt(disc)


def rw_update(r: float, eta: float, direction: SweepDirection) -> PairUpdate:
    """Generalized Roberts-Weiss update at (r, eta), defined for either sign of r."""
    if direction.is_ascending:
        denom = 2.0 + eta * (3.0 + eta)
        if denom <= 0.0:
            raise ParameterError(f"ascending weight undefined at eta = {eta}")
        w = 2.0 / denom
        gamma = (1.0 - w * r) / (1.0 + w * r)
        beta = (1.0 - gamma + eta) / (2.0 + eta)
    else:
        denom = 2.0 - eta * (3.0 - eta)
        if denom <= 0.0:
            raise ParameterError(f"descending weight undefined at eta = {eta}")
        w = 2.0 / denom
        gamma = (1.0 - w * r) / (1.0 + w * r)
        beta = (1.0 - gamma + gamma * eta) / (2.0 - eta)
    lam = 1.0 - gamma - beta
    return PairUpdate(_alpha_from(gamma, beta, lam), beta, lam)


def advdiff_coeffs_rw(p: AdvDiffParams, direction: SweepDirection) -> PairUpdate:
    """First-order norm-condition update matching the exact exponent to O(theta^2).

    The boundary weight alpha/(1-beta) (ascending) equals sqrt(1+eta)
    exactly, so the modified norm matches the pure-advection one.
    """
    if p.r < 0.0:
        raise StabilityError("advection-diffusion updates require r >= 0")
    return rw_update(p.r, p.eta, direction)


def ad2c_update(r: float, eta: float) -> PairUpdate:
    """Matched AD2C half-sweep update at (r, eta), defined for either sign of r."""
    s = matched_cn_s(eta)
    s_sq = s * s
    w = (1.0 - s_sq) ** 2 / (1.0 + 3.0 * s_sq)
    gamma = (1.0 - 0.5 * w * r) / (1.0 + 0.5 * w * r)
    beta = 0.5 * (1.0 - gamma) + 0.5 * (1.0 + gamma) * s
    lam = 0.5 * (1.0 - gamma) - 0.5 * (1.0 + gamma) * s
    return PairUpdate(_alpha_from(gamma, beta, lam), beta, lam)


def advdiff_coeffs_ad2c(p: AdvDiffParams, half: bool = False) -> PairUpdate:
    """Half-sweep update of the second-order combined scheme at (r, eta).

    Reduces to the matched-CN advection update at r = 0 and to the
    Saul'yev-matched half-sweep diffusion update at eta = 0.  half=True
    rescales both parameters by 2 for nested substeps.
    """
    if p.r < 0.0:
        raise StabilityError("advection-diffusion updates require r >= 0")
    r_eff, eta_eff = (0.5 * p.r, 0.5 * p.eta) if half else (p.r, p.eta)
    return ad2c_update(r_eff, eta_eff)
