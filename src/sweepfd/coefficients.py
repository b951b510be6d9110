"""Pair-update coefficients for every scheme family.

Diffusion updates damp a neighbour pair with determinant gamma in (0,1]
(or Saul'yev's rational gamma in (-1,1]); advection updates rotate the
pair (determinant 1); advection-diffusion updates combine both.
pair_update resolves any variant's update for either sign of r and
rejects coefficients its formula cannot build, such as |s| >= 1.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Union

from .errors import InvalidCoefficientError, ParameterError, SpatialAmplificationError
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


# ---------------------------------------------------------------------------
# diffusion

def diffusion_gamma(variant: DiffusionVariant, r: float) -> float:
    """Damping factor gamma(r); pure function, defined for either sign of r."""
    if variant is DiffusionVariant.EXPONENTIAL:
        return math.exp(-2.0 * r)
    return (1.0 - r) / (1.0 + r)


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


def _split_update(r: float, eta: float) -> PairUpdate:
    """Exponential of the combined 2x2 generator (not norm-conserving).

    alpha = e^-r cosh(psi), beta/lam = e^-r (r +- eta/2) sinh(psi)/psi with
    psi^2 = r^2 - (eta/2)^2; determinant stays exactly e^-2r.
    """
    damp = math.exp(-r)
    half_eta = 0.5 * eta
    psi_squared = r * r - half_eta * half_eta
    shc = sinhc(psi_squared)
    return PairUpdate(damp * _cosh_from_square(psi_squared),
                      damp * (r + half_eta) * shc,
                      damp * (r - half_eta) * shc)


def _alpha_from(gamma: float, beta: float, lam: float) -> float:
    disc = gamma + beta * lam
    if disc < 0.0:
        raise InvalidCoefficientError(
            f"gamma + beta*lam = {disc} < 0: no real alpha exists")
    return math.sqrt(disc)


def _rw_update(r: float, eta: float, direction: SweepDirection) -> PairUpdate:
    """First-order norm-condition update matching the exact exponent to O(theta^2).

    The boundary weight alpha/(1-beta) (ascending) equals sqrt(1+eta)
    exactly, so the modified norm matches the pure-advection one.
    """
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
    if (beta if direction.is_ascending else lam) == 1.0:   # the eta = +-1 update, up to rounding
        raise ParameterError(f"{direction.value} recurrence coefficient rounds to 1 at "
                             f"r = {r}, eta = {eta}")
    return PairUpdate(_alpha_from(gamma, beta, lam), beta, lam)


def _ad2c_update(r: float, eta: float) -> PairUpdate:
    """Half-sweep update of the second-order combined scheme at (r, eta).

    Reduces to the matched-CN advection update at r = 0 and to the
    Saul'yev-matched half-sweep diffusion update at eta = 0.
    """
    s = matched_cn_s(eta)
    s_sq = s * s
    w = (1.0 - s_sq) ** 2 / (1.0 + 3.0 * s_sq)
    gamma = (1.0 - 0.5 * w * r) / (1.0 + 0.5 * w * r)
    beta = 0.5 * (1.0 - gamma) + 0.5 * (1.0 + gamma) * s
    lam = 0.5 * (1.0 - gamma) - 0.5 * (1.0 + gamma) * s
    return PairUpdate(_alpha_from(gamma, beta, lam), beta, lam)


# ---------------------------------------------------------------------------
# the resolver

Variant = Union[DiffusionVariant, AdvectionVariant, AdvDiffVariant]


def pair_update(variant: Variant, r: float, eta: float, direction: SweepDirection,
                half: bool = False) -> PairUpdate:
    """Update of one sweep of variant at r = dt*D/dx^2, eta = v*dt/dx.

    half=True gives one half-sweep of the symmetric step: (r, eta) are
    halved unless the variant's formula already describes a half sweep
    (matched CN, matched AD2C).  Diffusion variants read only r and
    advection variants only eta.
    """
    if not (math.isfinite(r) and math.isfinite(eta)):
        raise ParameterError(f"r and eta must be finite, got r = {r}, eta = {eta}")
    if half and variant not in (AdvectionVariant.MATCHED_CN, AdvDiffVariant.MATCHED_AD2C):
        r, eta = 0.5 * r, 0.5 * eta
    if isinstance(variant, DiffusionVariant):   # norm-conserving: beta = lam = (1-gamma)/2
        gamma = diffusion_gamma(variant, r)
        return PairUpdate(0.5 * (1.0 + gamma), 0.5 * (1.0 - gamma), 0.5 * (1.0 - gamma))
    if isinstance(variant, AdvectionVariant):
        s = advection_s(variant, eta, direction)
        if abs(s) >= 1.0:
            detail = "; s = 1 is pathological" if variant is AdvectionVariant.SAULYEV else ""
            raise SpatialAmplificationError(
                f"|s| = {abs(s)} >= 1 amplifies along the sweep{detail}")
        return PairUpdate(math.sqrt(1.0 - s * s), s, -s)
    if variant is AdvDiffVariant.SPLIT_DERIVED:
        return _split_update(r, eta)
    if variant is AdvDiffVariant.GENERALIZED_RW:
        return _rw_update(r, eta, direction)
    return _ad2c_update(r, eta)
