"""Sequential pair-update engine.

One sweep applies a fixed 2x2 update to the neighbour pairs
(0,1), (1,2), ..., (N-1,0) in ascending or descending order.  Each
sample is touched exactly twice per sweep, so the sweep equals the
product of N embedded 2x2 factors applied to the field.  The classic
one-sided recurrences (already-updated left or right neighbour) are
derived forms of the same pass and are kept as cross-check oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.signal import lfilter

from .errors import InvalidCoefficientError, SizeError
from .grid import Field1D

MATRIX_ORACLE_MAX = 64


class SweepDirection(Enum):
    ASCENDING = "ascending"    # pairs (0,1), (1,2), ..., (N-1,0)
    DESCENDING = "descending"  # pairs (N-1,0), (N-2,N-1), ..., (0,1)

    @property
    def is_ascending(self) -> bool:
        return self is SweepDirection.ASCENDING


@dataclass(frozen=True)
class PairUpdate:
    """2x2 neighbour update: u_j' = alpha u_j + lam u_k, u_k' = beta u_j + alpha u_k."""

    alpha: float
    beta: float
    lam: float

    def __post_init__(self):
        for name in ("alpha", "beta", "lam"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidCoefficientError(f"{name} must be finite")

    @property
    def gamma(self) -> float:
        """Determinant alpha^2 - beta*lam of the update matrix."""
        return self.alpha * self.alpha - self.beta * self.lam


def sweep(f: Field1D, u: PairUpdate, direction: SweepDirection) -> None:
    """Apply one full pair sweep in place.

    The second touch of each sample is equivalent to the one-sided
    recurrence u_j' = beta u'_{j-1} + gamma u_j + lam u_{j+1} (ascending)
    away from the wrap pair, which is why the pass below can batch the
    first touches into a single linear recurrence (the starred chain).
    The second touches are then written in place into the recurrence
    output and into f.values, so lfilter's output is the only N-sized
    allocation; every sample still gets the pair arithmetic
    a*star_j + l*u_{j+1} (ascending) or b*u_{j-1} + a*star_j (descending)
    in that order, so the result is bit-identical to it.
    """
    v = f.values
    n = v.size
    a, b, l = u.alpha, u.beta, u.lam
    if direction.is_ascending:
        # first touches: star_0 = a u0 + l u1 from pair (0,1); star_1 = b u0 + a u1;
        # star_j = b star_{j-1} + a u_j afterwards, held in star[j - 2]
        s0 = a * v[0] + l * v[1]
        s1 = b * v[0] + a * v[1]
        star = lfilter([a], [1.0, -b], v[2:], zi=np.array([b * s1]))[0]
        v[0] = b * star[-1] + a * s0
        v[1] = a * s1 + l * v[2]
        # second touches of samples 2..N-2: a*star_j + l*u_{j+1}, summed into star
        np.multiply(a, star, out=star)
        np.multiply(l, v[3:], out=v[3:])
        np.add(star[:-1], v[3:], out=star[:-1])
        v[2:n - 1] = star[:-1]
        v[n - 1] = star[-1] + l * s0                 # wrap pair (N-1,0)
    else:
        # wrap pair (N-1,0) goes first; star_j for j = N-2..1 is held in star[N-2-j]
        s0 = b * v[n - 1] + a * v[0]
        sn = a * v[n - 1] + l * v[0]
        star = lfilter([a], [1.0, -l], v[n - 2:0:-1], zi=np.array([l * sn]))[0]
        s1 = star[-1]
        v[n - 1] = b * v[n - 2] + a * sn
        # second touches of samples 2..N-2: b*u_{j-1} + a*star_j, summed into star
        rest = star[-2::-1]                          # star_2..star_{N-2}
        np.multiply(a, star, out=star)
        np.multiply(b, v[1:n - 2], out=v[1:n - 2])
        np.add(v[1:n - 2], rest, out=rest)
        v[2:n - 1] = rest
        v[1] = b * s0 + a * s1                       # final pair (0,1)
        v[0] = a * s0 + l * s1


def saulyev_sweep_fixed(v: np.ndarray, gamma: float, beta: float, lam: float,
                        direction: SweepDirection) -> None:
    """Classic one-sided sweep of the float array v in place, end samples held fixed.

    Ascending: u_j' = beta u'_{j-1} + gamma u_j + lam u_{j+1}, left to right.
    Descending: u_j' = beta u_{j-1} + gamma u_j + lam u'_{j+1}, right to left.
    This form cannot be started on a periodic grid; use sweep() there.
    """
    n = v.size
    if direction.is_ascending:
        rhs = gamma * v[1:n - 1] + lam * v[2:]
        v[1:n - 1] = lfilter([1.0], [1.0, -beta], rhs, zi=np.array([beta * v[0]]))[0]
    else:
        rhs = gamma * v[1:n - 1] + beta * v[:n - 2]
        v[n - 2:0:-1] = lfilter([1.0], [1.0, -lam], rhs[::-1],
                                zi=np.array([lam * v[n - 1]]))[0]


def sweep_as_matrix(u: PairUpdate, direction: SweepDirection, n: int) -> np.ndarray:
    """Dense product of the N embedded 2x2 factors in sweep order (test oracle)."""
    if not 3 <= n <= MATRIX_ORACLE_MAX:
        raise SizeError(f"matrix oracle supports 3 <= N <= {MATRIX_ORACLE_MAX}, got {n}")
    order = range(n) if direction.is_ascending else range(n - 1, -1, -1)
    m = np.eye(n)
    for j in order:
        k = (j + 1) % n
        factor = np.eye(n)
        factor[j, j] = u.alpha
        factor[j, k] = u.lam
        factor[k, j] = u.beta
        factor[k, k] = u.alpha
        m = factor @ m
    return m
