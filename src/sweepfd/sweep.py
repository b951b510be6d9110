"""Sequential pair-update engine.

One sweep applies a fixed 2x2 update to the neighbour pairs
(0,1), (1,2), ..., (N-1,0) in ascending or descending order.  Each
sample is touched exactly twice per sweep, so the sweep equals the
product of N embedded 2x2 factors applied to the field, and its second
touches equal the classic one-sided recurrence (already-updated left or
right neighbour) away from the wrap pair.  A PairUpdate answers for its
sweep in either direction: the rational per-mode amplification factor
and the boundary weight of the modified norm the sweep conserves.

A sweep runs in a small C kernel (_sweep.c), compiled with the system C
compiler on the first sweep and cached per user under
$XDG_CACHE_HOME/sweepfd (default ~/.cache/sweepfd), keyed by the sha256
of the source and the compiler flags.  Without a compiler or a writable
private cache it runs the same recurrence through scipy.signal.lfilter;
both kernels give bit-identical results on fields with no nan on entry,
and scipy is imported only on that fallback.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import InvalidCoefficientError, SingularCoefficientError
from .grid import Field1D

_SOURCE = Path(__file__).with_name("_sweep.c")
# -ffp-contract=off: a fused multiply-add would change the bits
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_UNBUILT = object()
_kernel = _UNBUILT  # the loaded C library once built; None when sweeps use lfilter


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

    def recurrence(self, direction: SweepDirection) -> float:
        """Coefficient b of the sweep's one-sided recurrence: beta ascending, lam descending."""
        return self.beta if direction.is_ascending else self.lam

    def factor(self, direction: SweepDirection, theta):
        """Interior per-mode factor of one sweep at theta (a float or an array).

        Ascending: (gamma + lam e^{i theta}) / (1 - beta e^{-i theta});
        descending mirrors the exponents.  Boundary corrections decay
        geometrically into the interior and do not enter this form.
        """
        z = np.exp(1j * np.asarray(theta, dtype=float))
        gamma = self.gamma
        if direction.is_ascending:
            return (gamma + self.lam * z) / (1.0 - self.beta / z)
        return (gamma + self.beta / z) / (1.0 - self.lam * z)

    def boundary_weight(self, direction: SweepDirection) -> float:
        """Weight chi = alpha/(1 - b) of the seam sample in the conserved modified norm.

        b is the recurrence coefficient.  Where beta + gamma + lam = 1, a
        sweep conserves sum(u) + (chi - 1) u_0 rather than sum(u).  As b -> 1
        the quantity loses digits: over random fields its relative drift
        reached 5e-12 at 1 - b = 1e-4 and 7e-11 at 1e-6.
        """
        denom = 1.0 - self.recurrence(direction)
        if denom == 0.0:
            raise SingularCoefficientError("modified norm weight has a vanishing denominator")
        return self.alpha / denom


def _build_kernel():
    """Compile (once per source and flags) and load the C kernel; None if either fails."""
    if os.name != "posix":
        return None
    try:
        source = _SOURCE.read_bytes()
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        cache = Path(base) / "sweepfd"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = cache.stat()
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            return None  # a library another user can replace is never loaded
        key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
        lib = cache / f"_sweep-{key}.so"
        if not lib.exists():
            cc = shutil.which("cc")
            if cc is None:
                return None
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-o", tmp],
                               input=source, capture_output=True, check=True)
                os.replace(tmp, lib)  # atomic, so concurrent builders are safe
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
    except (OSError, subprocess.CalledProcessError):
        return None
    for fn in (kernel.sweep_asc, kernel.sweep_desc):
        fn.argtypes = (ctypes.c_void_p, ctypes.c_long,
                       ctypes.c_double, ctypes.c_double, ctypes.c_double)
        fn.restype = None
    return kernel


def sweep(f: Field1D, u: PairUpdate, direction: SweepDirection) -> None:
    """Apply one full pair sweep in place.

    The second touch of each sample is equivalent to the one-sided
    recurrence u_j' = beta u'_{j-1} + gamma u_j + lam u_{j+1} (ascending)
    away from the wrap pair, which is why the pass can batch the first
    touches into a single linear recurrence (the starred chain) and then
    write every second touch a*star_j + l*u_{j+1} (ascending) or
    b*u_{j-1} + a*star_j (descending) in that operand order.

    The pass runs in the compiled C kernel, built on the first call.  When
    it cannot be built, or f.values is not a writeable C-contiguous float64
    vector, the same arithmetic runs through scipy's lfilter instead.  The
    C chain carries z = b*y where lfilter computes 0.0*x - (-b)*y, and
    falls back to that literal form when b*y is zero or nan or x is not
    finite, so the two give bit-identical results on every field Field1D
    admits: signed zeros, infinities and nans born inside the sweep
    included.  A nan written into f.values beforehand may leave nans of
    different signs in the two kernels.
    """
    global _kernel
    if _kernel is _UNBUILT:
        _kernel = _build_kernel()
    v = f.values
    if (_kernel is not None and v.dtype == np.float64 and v.ndim == 1 and v.size >= 3
            and v.flags.c_contiguous and v.flags.writeable):
        run = _kernel.sweep_asc if direction.is_ascending else _kernel.sweep_desc
        # a c_char view of the buffer is the cheapest pointer ctypes builds
        run(ctypes.byref(ctypes.c_char.from_buffer(v)), v.size, u.alpha, u.beta, u.lam)
    else:
        _lfilter_sweep(v, u, direction)


def _lfilter_sweep(v: np.ndarray, u: PairUpdate, direction: SweepDirection) -> None:
    """The fallback kernel: the starred chain through lfilter, in place.

    The second touches are written in place into the recurrence output and
    into v, so lfilter's output is the only N-sized allocation.
    """
    from scipy.signal import lfilter

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
