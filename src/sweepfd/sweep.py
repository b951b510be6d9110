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
of the source and the compiler flags.  On Linux it runs a sweep of 2^17
samples or more on two threads, with the serial bits.  There is no
other sweep path: without a compiler or a private cache a sweep raises
KernelUnavailable.  The tests check the kernel bit for bit against a
reference sweep built on scipy.signal.lfilter; the runtime needs no scipy.
"""

from __future__ import annotations

import ctypes
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import InvalidCoefficientError, KernelUnavailable, SingularCoefficientError
from .grid import Field1D

_SOURCE = Path(__file__).with_name("_sweep.c")
# -ffp-contract=off: a fused multiply-add would change the bits
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread", "-lm")
_kernel = None  # the loaded C library once a build succeeds


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
            if not _finite(getattr(self, name)):
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

        Boundary corrections decay geometrically into the interior and do
        not enter this form; mode_factor gives it from z = e^{i theta}.
        """
        z = np.exp(1j * np.asarray(theta, dtype=float))
        return self.mode_factor(direction, self.lam * z, self.beta / z)

    def mode_factor(self, direction: SweepDirection, lam_z, beta_z):
        """The rational factor of one sweep from lam z and beta/z at the mode z = e^{i theta}.

        Ascending: (gamma + lam z) / (1 - beta/z); descending mirrors the
        exponents.  A caller that evaluates both sweeps of an update, or
        several updates equal by ==, forms lam z and beta/z once and passes
        them to each.
        """
        if direction.is_ascending:
            return (self.gamma + lam_z) / (1.0 - beta_z)
        return (self.gamma + beta_z) / (1.0 - lam_z)

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
    """Compile (once per source and flags) and load the C kernel, or raise KernelUnavailable."""
    import hashlib      # here, so that a command that never sweeps never loads them
    import subprocess

    if os.name != "posix":
        raise KernelUnavailable(f"the C sweep kernel needs a POSIX host, not {os.name!r}")
    try:
        source = _SOURCE.read_bytes()
        base = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
        cache = Path(base) / "sweepfd"
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        st = cache.stat()
        if st.st_uid != os.getuid() or st.st_mode & 0o022:
            # a library another user can replace is never loaded
            raise KernelUnavailable(f"the C sweep kernel cache {cache} must be owned by this "
                                    "user and writable by no one else")
        key = hashlib.sha256(source + " ".join(_CFLAGS).encode()).hexdigest()
        lib = cache / f"_sweep-{key}.so"
        if not lib.exists():
            cc = shutil.which("cc")
            if cc is None:
                raise KernelUnavailable("no C compiler `cc` on PATH to build the sweep kernel")
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                built = subprocess.run([cc, *_CFLAGS, "-x", "c", "-", "-o", tmp],
                                       input=source, capture_output=True)
                if built.returncode:
                    said = built.stderr.decode(errors="replace").strip().splitlines()
                    raise KernelUnavailable(f"{cc} could not build the C sweep kernel: "
                                            + (said or [f"exit {built.returncode}"])[0])
                os.replace(tmp, lib)  # atomic, so concurrent builders are safe
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        kernel = ctypes.CDLL(str(lib))
    except OSError as exc:
        raise KernelUnavailable(f"the C sweep kernel cannot be built or loaded: {exc}") from None
    coefficients = (ctypes.c_double,) * 3
    for fn in (kernel.sweep_asc, kernel.sweep_desc):
        fn.argtypes = (ctypes.c_void_p, ctypes.c_long, *coefficients)
        fn.restype = None
    for fn in (kernel.sweep_asc_term, kernel.sweep_desc_term):
        fn.argtypes = ((ctypes.c_void_p,) * 3 + (ctypes.c_long, *coefficients)
                       + (ctypes.c_double, ctypes.c_int))
        fn.restype = None
    return kernel


def sweep(f: Field1D, u: PairUpdate, direction: SweepDirection, *,
          source: Optional[np.ndarray] = None, weight: Optional[float] = None,
          offset: Optional[np.ndarray] = None) -> None:
    """Apply one full pair sweep to f.

    The second touch of each sample is equivalent to the one-sided
    recurrence u_j' = beta u'_{j-1} + gamma u_j + lam u_{j+1} (ascending)
    away from the wrap pair, which is why the pass can batch the first
    touches into a single linear recurrence (the starred chain) and then
    write every second touch a*star_j + l*u_{j+1} (ascending) or
    b*u_{j-1} + a*star_j (descending) in that operand order.

    By default the sweep runs in place.  The keywords fold a multi-term
    step's bookkeeping into its sweeps: the sweep reads source (default
    f.values; any other source is left untouched), and with a finite weight
    w stores offset_j + w*s_j in place of each swept sample s_j, or
    0.0 + w*s_j without an offset.  Those are the bits of sweeping a copy
    of source and then numpy's multiply and add.  source and offset are
    numpy arrays of f's shape; neither may overlap f.values, except that
    source may be f.values itself.  f.values, source and offset must each
    be a writeable C-contiguous float64 vector of at least 3 samples (a
    Field1D's own values always are); otherwise, or for a weight that is
    not finite, the sweep raises ValueError before it writes a sample.

    The pass runs in the compiled C kernel, built on the first call; while
    it cannot be built, every call raises KernelUnavailable.  On Linux, a
    sweep of 2^17 samples or more runs there on two threads when 0 < |b| < 1
    for the recurrence coefficient b, the warm-up K = ceil(4*53 / -log2|b|)
    is at most N/8 and the calling thread may run on a second CPU.  The
    chain is cut into eight pieces: the caller runs the first four, a helper
    thread the last four.  Each thread advances its four pieces together, as
    the four lanes of one AVX2 vector where the CPU has AVX2 (the kernel
    checks once, when it loads), or else as four scalar chains interleaved
    in one loop; both forms round every step as the serial chain does.  Each
    piece but the first starts from the chain state guessed over the K
    samples before it, and is kept only when that guess equals the true end
    state of the piece before it bit for bit; otherwise the caller redoes it
    from its saved inputs.  So the split never changes a bit, and the call
    stays one C call.  An in-place split holds about 7N/8 saved doubles
    while it runs.  The C chain carries z = b*y where lfilter, the tests'
    reference, computes 0.0*x - (-b)*y, and takes that literal form when b*y
    is a signed zero, an infinity or a nan, one compare on its bits.  A
    finite nonzero b*y implies a finite x, where the two forms agree, and
    where b*y overflowed from a finite x the literal form gives the same
    infinity.  So the kernel gives the reference's bits on every field
    Field1D admits: signed zeros, infinities and nans born inside the sweep
    included.  A nan written into f.values beforehand may leave a nan of the
    other sign.
    """
    global _kernel
    if _kernel is None:
        _kernel = _build_kernel()
    v = f.values
    if source is None and weight is None and offset is None:
        # _fits(v) written out: this path runs once per sweep of every one-term step
        if not (v.dtype == np.float64 and v.ndim == 1 and v.size >= 3
                and v.flags.c_contiguous and v.flags.writeable):
            raise ValueError(_UNFIT.format("f.values"))
        run = _kernel.sweep_asc if direction.is_ascending else _kernel.sweep_desc
        # a c_char view of the buffer is the cheapest pointer ctypes builds
        run(ctypes.byref(ctypes.c_char.from_buffer(v)), v.size, u.alpha, u.beta, u.lam)
        return
    if weight is None and offset is not None:
        raise TypeError("an offset needs a weight")
    if weight is not None and not _finite(weight):
        raise ValueError("weight must be finite")
    if source is v:
        source = None
    for name, x in (("source", source), ("offset", offset)):
        if x is not None and (x.shape != v.shape or np.may_share_memory(x, v)):
            raise ValueError(f"{name} must have the field's shape and not overlap its samples")
    for name, x in (("f.values", v), ("source", source), ("offset", offset)):
        if x is not None and not _fits(x):
            raise ValueError(_UNFIT.format(name))
    run = _kernel.sweep_asc_term if direction.is_ascending else _kernel.sweep_desc_term
    run(_pointer(v), None if source is None else _pointer(source),
        None if offset is None else _pointer(offset), v.size, u.alpha, u.beta, u.lam,
        0.0 if weight is None else weight, weight is not None)


def _finite(x) -> bool:
    """math.isfinite(x), and False for a number with no float value, such as 10**400."""
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


_UNFIT = "{} must be a writeable C-contiguous float64 vector of at least 3 samples"


def _fits(x: np.ndarray) -> bool:
    """Whether the C kernel takes x: a writeable C-contiguous float64 vector of >= 3 samples."""
    return (x.dtype == np.float64 and x.ndim == 1 and x.size >= 3
            and x.flags.c_contiguous and x.flags.writeable)


def _pointer(x: np.ndarray):
    return ctypes.byref(ctypes.c_char.from_buffer(x))
