"""The three closed-loop workloads and the op runner.

One caller issues the next op only after the previous one returns.  The
seed varies only the generated inputs: the profile centre, the
round-robin order of the schemes, and the (r, eta) points and lattice
modes of `analysis`.  A round is the workload's fixed work; `wall_s` is
the time of one round, from the trimmed mean latency of each of its ops.

Correctness references are computed here with numpy.fft, never with
sweepfd.oracle.  The field tolerances are twice the error the scheme
reaches at the seed commit, and that error does not depend on the seed
(the exact flow commutes with the translations and permutations the
seed applies), so a change that doubles a scheme's error is caught.
"""

import importlib
import math
import os
import random
import re
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# Sweeps per step from each preset's structure: 1 per single sweep, 2 per
# T2, 2m per m-fraction product, 2*sum(k) per multi-product; comparators 0.
SWEEPS = {
    "diffusion": {"euler": 0, "cn": 0, "d1a": 1, "d1b": 1, "d1as": 1, "d1bs": 1,
                  "d2": 2, "d2s": 2, "t4": 2 * (1 + 2), "t6": 2 * (1 + 2 + 3),
                  "t8": 2 * (1 + 2 + 3 + 4)},
    "advection": {"lw": 0, "a1a": 1, "a1b": 1, "a1as": 1, "a1bs": 1, "rw1a": 1, "rw1b": 1,
                  "a2": 2, "a2s": 2, "a2c": 2, "rw2": 2,
                  "fr": 2 * 3, "s4": 2 * 5, "y6": 2 * 7},
    "advdiff": {"rw1a": 1, "rw1b": 1, "split1a": 1, "split1b": 1, "rw2": 2, "ad2c": 2,
                "t4": 2 * (1 + 2), "fr": 2 * 3, "a_d": 2 + 2},
}

CONSERVATION_TOL = 1e-10   # relative drift of sum(u) or sum(u^2) per op


def predicted_sweeps(equation, name):
    m = re.match(r"^(\d+)x(.+)$", name)
    if m:
        return int(m.group(1)) * SWEEPS[equation][m.group(2)]
    return SWEEPS[equation][name]


def exact_flow(values, dx, diffusivity, velocity, t):
    """Exact flow of the periodic semi-discretised equation, via numpy.fft."""
    n = values.size
    k = np.arange(n)
    lam = (-(4.0 * diffusivity / dx ** 2) * np.sin(np.pi * k / n) ** 2
           - 1j * (velocity / dx) * np.sin(2.0 * np.pi * k / n))
    return np.fft.ifft(np.fft.fft(values) * np.exp(t * lam)).real


def trimmed_mean(values, share=0.1):
    """Mean after dropping the lowest and highest `share` of the values."""
    values = sorted(values)
    cut = int(share * len(values))
    return statistics.fmean(values[cut:len(values) - cut])


def relative_drift(value, reference):
    return abs(value - reference) / abs(reference)


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# op runner


class Runner:
    """Times ops one at a time, checks each output, counts failures."""

    def __init__(self):
        self.inject = "none"
        self.tracer = None
        self.failure_notes = []
        self.reset_stats()

    def reset_stats(self):
        self.latencies_ns = []
        self.round_ns = []
        self.attempted = 0
        self.failed = 0
        self.traced_predicted_sweeps = 0
        self.cli_bytes_traced = 0
        self._round = 0
        self._by_label = {}
        self._round_labels = {}

    def measure(self, workload, seconds=None, rounds=None):
        """Run whole rounds until `seconds` have passed, or `rounds` rounds.

        Returns the time of one round of fixed work in s, estimated as the
        sum over the round's ops of each op's trimmed mean latency in this
        call.  Trimming drops transient stalls; the mean, unlike a median,
        moves smoothly with the share of the run the shared machine spent
        in each of its speed states, which keeps runs comparable.
        """
        first = len(self.round_ns)
        self._by_label = {}
        self._labels_per_round = None
        deadline = perf_counter() + seconds if seconds is not None else None
        while True:
            self._round = 0
            self._round_labels = {}
            workload.run_round(self)
            self.round_ns.append(self._round)
            if self._labels_per_round is None:
                self._labels_per_round = self._round_labels
            done = len(self.round_ns) - first
            if (perf_counter() >= deadline) if deadline is not None else done >= rounds:
                break
        return sum(count * trimmed_mean(self._by_label[label])
                   for label, count in self._labels_per_round.items()) / 1e9

    def op(self, label, fn, check, sweeps=0):
        """Time fn() alone, then check its output with tracing paused."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            self.traced_predicted_sweeps += sweeps
            with tracer.span("op", label):
                start = perf_counter_ns()
                out, error = self._call(fn)
                elapsed = perf_counter_ns() - start
        else:
            start = perf_counter_ns()
            out, error = self._call(fn)
            elapsed = perf_counter_ns() - start
        self.latencies_ns.append(elapsed)
        self._round += elapsed
        self._by_label.setdefault(label, []).append(elapsed)
        self._round_labels[label] = self._round_labels.get(label, 0) + 1
        if error is None:
            self._maybe_inject(out)
            if tracer is not None:
                with tracer.paused():
                    error = self._check(check, out)
            else:
                error = self._check(check, out)
        if error is not None:
            self.fail(f"{label}: {error}")
        return out

    @staticmethod
    def _call(fn):
        try:
            return fn(), None
        except Exception as exc:  # a raising op is a failed op, not a crashed run
            return None, f"raised {type(exc).__name__}: {exc}"

    @staticmethod
    def _check(check, out):
        try:
            check(out)
        except CheckFailed as exc:
            return str(exc)
        except Exception as exc:
            return f"check raised {type(exc).__name__}: {exc}"
        return None

    def fail(self, note):
        self.failed += 1
        if len(self.failure_notes) < 20:
            self.failure_notes.append(note)

    def _maybe_inject(self, out):
        if self.inject == "none":
            return
        array = out if isinstance(out, np.ndarray) else getattr(out, "values", None)
        if not isinstance(array, np.ndarray):
            return
        if self.inject == "nan":
            array.flat[array.size // 2] = np.nan
        else:
            array *= 1.0 + 1e-6
        self.inject = "none"

    def add_cli_bytes(self, n):
        if self.tracer is not None:
            self.cli_bytes_traced += n

    def summary(self):
        lat_ms = sorted(ns / 1e6 for ns in self.latencies_ns)
        return {"attempted": self.attempted, "failed": self.failed,
                "op_samples": len(lat_ms), "rounds": len(self.round_ns),
                "op_p50_ms": statistics.median(lat_ms),
                "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
                "failure_notes": self.failure_notes}


# ---------------------------------------------------------------------------
# workloads


class Stepping:
    """Round-robin stepping of one field per scheme; fields reset every round."""

    equation = None
    tolerances = {}

    def __init__(self, sf, names, initial, params, cycles_per_round):
        self.sf = sf
        self.names = names
        self.schemes = [sf.resolve_preset(name, sf.Equation(self.equation)) for name in names]
        self.initial = initial
        self.params = params
        self.cycles = cycles_per_round
        self.fields = {name: initial.copy() for name in dict.fromkeys(names)}

    def prepare(self):
        v = self.initial.values
        self.sum0 = float(np.sum(v))
        self.l2_0 = float(np.dot(v, v))
        self.steps_per_round = {name: self.cycles * self.names.count(name) for name in self.fields}
        self.references = {}
        for name, steps in self.steps_per_round.items():
            if steps not in self.references:
                self.references[steps] = exact_flow(v, self.initial.dx, self.diffusivity,
                                                    self.velocity, steps * self.dt)
        self.amplitude = float(np.max(np.abs(v)))

    def warmup(self, runner):
        for name, scheme in zip(self.names, self.schemes):
            self._step(runner, name, scheme)

    def run_round(self, runner):
        for f in self.fields.values():
            np.copyto(f.values, self.initial.values)
        for _ in range(self.cycles):
            for name, scheme in zip(self.names, self.schemes):
                self._step(runner, name, scheme)
        for name, f in self.fields.items():
            reference = self.references[self.steps_per_round[name]]
            err = float(np.max(np.abs(f.values - reference)))
            limit = self.tolerances[name] * self.amplitude
            if not err <= limit:
                runner.fail(f"{name}: max error {err:.3e} against the exact flow exceeds {limit:.3e}")

    def _step(self, runner, name, scheme):
        f = self.fields[name]
        sf = self.sf

        def step():
            sf.apply_scheme(f, scheme, self.params)
            return f

        runner.op(name, step, self._check_field,
                  sweeps=predicted_sweeps(self.equation, name))

    def _check_field(self, f):
        v = f.values
        require(bool(np.all(np.isfinite(v))), "non-finite sample")
        drift = relative_drift(float(np.sum(v)), self.sum0)
        require(drift <= CONSERVATION_TOL, f"sum(u) drifted by {drift:.2e}")

    def close(self):
        pass


class Transport(Stepping):
    """transport-n800: a sextic pulse, N=800 on [-10, 10], v=1, eta=0.8."""

    equation = "advection"
    N, X0, DX, VEL, DT = 800, -10.0, 0.025, 1.0, 0.02
    diffusivity, velocity, dt = 0.0, VEL, DT
    SCHEMES = ("a2c", "rw1a", "rw2", "fr", "s4", "y6", "7xa2c")
    # 100 steps per scheme move the pulse by 2: it stays clear of x = +-10,
    # so u_0 ~ 0 and sum(u) is conserved along with sum(u^2).
    CYCLES = 100
    TRACE_ROUNDS = 20
    tolerances = {"a2c": 1.3e-3, "rw1a": 6.1e-3, "rw2": 3.2e-4, "fr": 1.2e-5,
                  "s4": 1.8e-7, "y6": 1.0e-8, "7xa2c": 2.6e-5}

    def __init__(self, sf, seed):
        rng = random.Random(seed)
        center = rng.uniform(-4.0, 3.5)
        names = list(self.SCHEMES)
        rng.shuffle(names)
        initial = sf.sextic_profile(self.N, self.X0, self.DX, center)
        params = sf.StepParams.from_physics(self.DT, self.DX, 0.0, self.VEL)
        super().__init__(sf, names, initial, params, self.CYCLES)

    def _check_field(self, f):
        super()._check_field(f)
        v = f.values
        drift = relative_drift(float(np.dot(v, v)), self.l2_0)
        require(drift <= CONSERVATION_TOL, f"sum(u^2) drifted by {drift:.2e}")


class Diffusion(Stepping):
    """diffusion-n1e6: the README Gaussian (sigma 0.5 on [-6, 6]) on N=1e6 at r=5."""

    equation = "diffusion"
    N, X0, SIGMA, D = 1_000_000, -6.0, 0.5, 0.5
    DX = 12.0 / N
    DT = 5.0 * DX * DX / D
    diffusivity, velocity, dt = D, 0.0, DT
    # d2s runs twice per cycle so that p50 lies inside the d2s latency mode
    # (20-60 % of ops) instead of on the d2s/t4 boundary at 50 %.
    CYCLE = ("d1a", "d2s", "d2s", "t4", "t6")
    CYCLES = 4
    TRACE_ROUNDS = 2
    # At 41667 samples per sigma the second-order schemes' truncation error
    # is below rounding, so they must match the exact flow to 1e-12; d1a
    # gets twice its first-order error.  The profile never drops below
    # 1e-43, so no sweep runs on subnormal numbers (which slow lfilter ~5x).
    tolerances = dict(dict.fromkeys(CYCLE, 1e-12), d1a=1.9e-8)

    def __init__(self, sf, seed):
        rng = random.Random(seed)
        center = rng.uniform(-1.0, 1.0)
        names = list(self.CYCLE)
        rng.shuffle(names)
        initial = sf.gaussian_profile(self.N, self.X0, self.DX, center, self.SIGMA)
        params = sf.StepParams.from_physics(self.DT, self.DX, self.D, 0.0)
        super().__init__(sf, names, initial, params, self.CYCLES)


class Analysis:
    """analysis: closed forms, phase curves, numeric factors, CLI recipes, oracle."""

    # 70 (r, eta) points per round put spectral and oracle each near half of
    # the op time at the seed commit (the design target is 1/3 to 2/3 each)
    POINTS = 70
    TRACE_ROUNDS = 1
    MODE_N = 256
    THETA_257 = np.linspace(0.0, np.pi, 257)     # theta_j = pi j / 256
    THETA_1025 = np.linspace(0.0, np.pi, 1025)   # theta_j = pi j / 1024
    ORACLE_SIZES = (800, 1600, 4000)
    ORACLE_D, ORACLE_V, ORACLE_T = 0.05, 1.0, 0.5
    FIT_DTS = (0.2, 0.1, 0.05, 0.025, 0.0125, 0.01)
    FIT_PLATEAU, FIT_B, FIT_ORDER = 5.0, 0.3, 2.0
    # the split-derived update is not norm-conserving: its g(0) is not 1
    NOT_CONSERVING = {("advdiff", "split1a"), ("advdiff", "split1b")}
    CLI_RECIPES = (
        ("amp.csv", ["ampfactor", "--equation", "diffusion", "--scheme", "d2,d2s,euler,cn",
                     "--dt", "0.04"]),
        ("phase.csv", ["phase", "--equation", "advection", "--scheme",
                       "a1a,a1b,a2,rw1a,rw1b,rw2,a2c,lw", "--nx", "800", "--xmin", "-10",
                       "--xmax", "10", "--dt", "0.0175"]),
        ("phase_high.csv", ["phase", "--equation", "advection", "--scheme",
                            "fr,s4,y6,3xa2c,5xa2c,7xa2c", "--nx", "800", "--xmin", "-10",
                            "--xmax", "10", "--dt", "0.0175"]),
    )

    def __init__(self, sf, seed):
        self.sf = sf
        importlib.import_module(sf.__name__ + ".cli")
        rng = random.Random(seed)
        self.points = []
        for _ in range(self.POINTS):
            r = rng.uniform(0.1, 5.0)
            eta = rng.uniform(0.1, 0.9)
            params = {"diffusion": sf.StepParams(r, 0.0), "advection": sf.StepParams(0.0, eta),
                      "advdiff": sf.StepParams(0.1 * r, eta)}
            self.points.append((params, rng.randint(1, self.MODE_N // 2 - 1)))
        self.schemes = [(eq.value, name, sf.resolve_preset(name, eq))
                        for eq in sf.Equation for name in sf.preset_names(eq)]
        self.oracle_fields = [sf.sextic_profile(n, -10.0, 20.0 / n, 0.0)
                              for n in self.ORACLE_SIZES]

    def prepare(self):
        self.oracle_refs = [exact_flow(f.values, f.dx, self.ORACLE_D, self.ORACLE_V, self.ORACLE_T)
                            for f in self.oracle_fields]
        self.fit_values = [self.FIT_PLATEAU + self.FIT_B * dt ** self.FIT_ORDER
                           for dt in self.FIT_DTS]
        tmp_root = ROOT / ".perfbench_tmp"
        tmp_root.mkdir(exist_ok=True)
        self.tmpdir = Path(tempfile.mkdtemp(dir=tmp_root))

    def close(self):
        shutil.rmtree(self.tmpdir, ignore_errors=True)
        try:
            self.tmpdir.parent.rmdir()
        except OSError:
            pass

    def warmup(self, runner):
        params, mode = self.points[0]
        for equation, name, scheme in self.schemes:
            self._spectral_ops(runner, equation, name, scheme, params[equation], mode)
        self._oracle_op(runner, 0)

    def run_round(self, runner):
        for params, mode in self.points:
            for equation, name, scheme in self.schemes:
                self._spectral_ops(runner, equation, name, scheme, params[equation], mode)
        for out_name, argv in self.CLI_RECIPES:
            self._cli_op(runner, out_name, argv)
        for i in range(len(self.ORACLE_SIZES)):
            self._oracle_op(runner, i)
        sf = self.sf
        runner.op("fit_power_law", lambda: sf.fit_power_law(self.FIT_DTS, self.fit_values),
                  self._check_fit)

    # -- spectral ----------------------------------------------------------

    def _spectral_ops(self, runner, equation, name, scheme, params, mode):
        sf = self.sf
        g = runner.op(f"scheme_factor:{equation}:{name}",
                      lambda: sf.scheme_factor(scheme, params, self.THETA_257),
                      lambda out: self._check_factor(equation, name, out))
        if g is None:
            return
        if equation == "advection":
            runner.op(f"phase_curve:{equation}:{name}",
                      lambda: sf.phase_curve(scheme, params, self.THETA_1025),
                      lambda out: self._check_phase(out, g))
        if name == "cn":
            return  # the implicit comparator has no explicit stepper
        theta = 2.0 * math.pi * mode / self.MODE_N
        runner.op(f"numeric_amplification:{equation}:{name}",
                  lambda: sf.numeric_amplification(scheme, params, theta, self.MODE_N),
                  lambda out: self._check_numeric(out, g[2 * mode]),
                  sweeps=2 * predicted_sweeps(equation, name))

    def _check_factor(self, equation, name, g):
        require(g.shape == self.THETA_257.shape, "wrong shape")
        require(bool(np.all(np.isfinite(g))), "non-finite factor")
        if (equation, name) not in self.NOT_CONSERVING:
            require(abs(g[0] - 1.0) <= 1e-12, f"g(0) = {g[0]} is not 1")

    def _check_phase(self, phase, g):
        require(bool(np.all(np.isfinite(phase))), "non-finite phase")
        coarse = phase[::4]                      # the 257-point grid
        usable = np.abs(g) > 1e-6
        unit = g[usable] / np.abs(g[usable])
        err = np.max(np.abs(np.exp(-1j * coarse[usable]) - unit))
        require(err <= 1e-9, f"phase differs from arg g by {err:.2e}")

    def _check_numeric(self, sample, closed):
        g = complex(sample.g)
        require(math.isfinite(g.real) and math.isfinite(g.imag), "non-finite factor")
        require(abs(g - closed) <= 1e-9, f"|numeric - closed form| = {abs(g - closed):.2e}")

    # -- oracle ------------------------------------------------------------

    def _oracle_op(self, runner, i):
        sf, f = self.sf, self.oracle_fields[i]
        reference = self.oracle_refs[i]

        def check(out):
            require(bool(np.all(np.isfinite(out.values))), "non-finite sample")
            err = float(np.max(np.abs(out.values - reference)))
            require(err <= 1e-10, f"exact_evolve differs from numpy.fft flow by {err:.2e}")

        runner.op(f"exact_evolve:{f.n}",
                  lambda: sf.exact_evolve(f, self.ORACLE_D, self.ORACLE_V, self.ORACLE_T), check)

    def _check_fit(self, fit):
        require(abs(fit.plateau - self.FIT_PLATEAU) <= 1e-9, f"plateau {fit.plateau}")
        require(abs(fit.order - self.FIT_ORDER) <= 1e-6, f"order {fit.order}")

    # -- cli ---------------------------------------------------------------

    def _cli_op(self, runner, out_name, argv):
        sf = self.sf
        path = self.tmpdir / out_name
        full = argv + ["--out", str(path)]

        def check(code):
            require(code == 0, f"exit code {code}")
            runner.add_cli_bytes(os.path.getsize(path))
            self._check_csv(path, argv)

        runner.op(f"cli:{argv[0]}:{out_name}", lambda: sf.cli.main(full), check)

    def _check_csv(self, path, argv):
        """Every CSV value is finite and equals the library's own factor or phase."""
        sf = self.sf
        lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
        columns = lines[0].split(",")
        table = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
        require(bool(np.all(np.isfinite(table))), "non-finite CSV value")
        col = {name: table[:, i] for i, name in enumerate(columns)}
        opts = dict(zip(argv[1::2], argv[2::2]))
        eq = sf.Equation(opts["--equation"])
        nx = int(opts.get("--nx", 120))
        dx = (float(opts.get("--xmax", 6.0)) - float(opts.get("--xmin", -6.0))) / nx
        dt = float(opts["--dt"])
        thetas = col["theta"]
        for name in opts["--scheme"].split(","):
            scheme = sf.resolve_preset(name, eq)
            if argv[0] == "ampfactor":
                params = sf.StepParams.from_physics(dt, dx, 0.5, 0.0)
                g = sf.scheme_factor(scheme, params, thetas)
                err = max(np.max(np.abs(col[f"{name}_re"] - g.real)),
                          np.max(np.abs(col[f"{name}_im"] - g.imag)))
            else:
                params = sf.StepParams.from_physics(dt, dx, 0.0, 1.0)
                expected = sf.phase_curve(scheme, params, thetas) - params.eta * np.sin(thetas)
                err = np.max(np.abs(col[name] - expected))
            require(err <= 1e-14, f"CSV column {name} differs from the library by {err:.2e}")


WORKLOADS = {"transport-n800": Transport, "diffusion-n1e6": Diffusion, "analysis": Analysis}
