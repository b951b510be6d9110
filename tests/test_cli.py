"""Command line drivers: CSV shape, determinism, exit codes."""

import contextlib
import errno
import math
import os
import resource
import signal
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sweepfd
import sweepfd.cli
from sweepfd import Equation, preset_names
from sweepfd.cli import CSV_BLOCK_ROWS, main, write_csv

from oracles import write_csv_by_rows

CHILD_ADDRESS_SPACE = 2 * 1024 ** 3   # bytes; caps the subprocess, never the test runner
CHILD_FILE_SIZE = 64 * 1024          # bytes; RLIMIT_FSIZE of a subprocess that must fail to write


def run_cli(args):
    return main(args)


def run_clean(args, capsys):
    """Run the CLI; no RuntimeWarning may be raised and no traceback printed."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(args)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return code, err


def child_env():
    """Environment of a child CLI process that imports this checkout's sweepfd."""
    src = str(Path(sweepfd.__file__).parents[1])
    # one BLAS thread: OpenBLAS reserves address space per thread at import
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_child(args, preexec_fn=None, stdout=subprocess.PIPE):
    """Run the CLI in a child process; its stderr is captured."""
    return subprocess.run([sys.executable, "-m", "sweepfd.cli"] + args, env=child_env(),
                          stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=60,
                          preexec_fn=preexec_fn)


def run_capped(args):
    """Run the CLI in a child process whose address space is CHILD_ADDRESS_SPACE."""
    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))

    return run_child(args, cap_address_space)


@contextlib.contextmanager
def time_limit(seconds):
    """Fail a call that would run for minutes after seconds, by SIGALRM."""
    def still_running(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, still_running)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def read_csv(path):
    header, columns, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return header, columns, np.array(rows)


class TestWriteCsv:
    HEADER, FOOTER = ["# sweepfd test", "# deterministic"], ["# fit scheme=x unavailable"]

    @pytest.mark.parametrize("length", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                        CSV_BLOCK_ROWS + 1])
    def test_matches_the_row_wise_writer(self, length, tmp_path):
        rng = np.random.default_rng(length)
        signed_zeros = np.where(np.arange(length) % 3 == 0, -0.0, 0.0)
        columns = [
            np.arange(length) * 0.1,
            rng.standard_normal(length) * 10.0 ** rng.integers(-320, 308, length),
            signed_zeros,
            list(-signed_zeros),   # a list column, as converge and norms pass
        ]
        names = ["t", "wide", "zeros", "negated"]
        new, ref = tmp_path / "new.csv", tmp_path / "ref.csv"
        write_csv(str(new), self.HEADER, names, columns, self.FOOTER)
        write_csv_by_rows(str(ref), self.HEADER, names,
                          [[float(v) for v in row] for row in zip(*columns)], self.FOOTER)
        assert new.read_bytes() == ref.read_bytes()

    def test_stdout_matches_the_file(self, tmp_path, capsys):
        columns = [np.linspace(0.0, 1.0, 5), -np.linspace(0.0, 1.0, 5)]
        write_csv(None, self.HEADER, ["a", "b"], columns, self.FOOTER)
        write_csv(str(tmp_path / "out.csv"), self.HEADER, ["a", "b"], columns, self.FOOTER)
        assert capsys.readouterr().out == (tmp_path / "out.csv").read_text()


class TestAmpfactor:
    def test_theta_zero_row_is_unity(self, tmp_path):
        out = tmp_path / "amp.csv"
        assert run_cli(["ampfactor", "--equation", "diffusion", "--scheme", "d2s",
                        "--dt", "0.02", "--ntheta", "2", "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert columns[0] == "theta"
        assert rows[0][0] == 0.0
        assert rows[0][columns.index("d2s_re")] == 1.0
        assert rows[0][columns.index("exact_re")] == 1.0

    def test_d2s_value_at_pi(self, tmp_path):
        # r = 2 via dt = r dx^2 / D with dx = 0.1, D = 0.5
        out = tmp_path / "amp.csv"
        run_cli(["ampfactor", "--equation", "diffusion", "--scheme", "d2s,euler,cn",
                 "--dt", "0.04", "--ntheta", "3", "--out", str(out)])
        header, columns, rows = read_csv(out)
        r_line = next(line for line in header if line.startswith("# r="))
        r_value = float(r_line.split()[1].split("=")[1])
        assert r_value == pytest.approx(2.0, rel=1e-12)
        assert rows[-1][columns.index("d2s_re")] == pytest.approx(1 / 9, rel=1e-9)
        # figure-one qualitative fact: euler and cn negative at theta = pi, d2s not
        assert rows[-1][columns.index("euler_re")] < 0
        assert rows[-1][columns.index("cn_re")] < 0
        assert rows[-1][columns.index("d2s_re")] > 0

    def test_exact_columns_stay_finite_once_four_r_overflows(self, tmp_path):
        # r = 1e308: 4*r used to overflow before meeting sin^2(0) = 0 and print nan
        out = tmp_path / "amp.csv"
        assert run_cli(["ampfactor", "--scheme", "d1a", "--dt", "1e300", "--dcoef", "1e8",
                        "--nx", "3", "--xmin", "0", "--xmax", "3", "--ntheta", "3",
                        "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        exact = [columns.index(f"exact_{part}") for part in ("re", "im", "abs", "phase")]
        assert [[row[j] for j in exact] for row in rows] == [[1, 0, 1, 0], [0, 0, 0, 0],
                                                              [0, 0, 0, 0]]

    def test_unknown_scheme_is_usage_error(self, capsys):
        assert run_cli(["ampfactor", "--scheme", "bogus"]) == 2
        assert "available" in capsys.readouterr().err

    def test_zero_substeps_is_unknown_scheme(self, capsys):
        # '0xd2' used to run d2 once
        code, err = run_clean(["ampfactor", "--scheme", "0xd2"], capsys)
        assert code == 2
        assert "usage error: unknown diffusion scheme '0xd2'" in err


class TestRun:
    def test_zero_steps_keeps_profile(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--equation", "diffusion", "--scheme", "d2s",
                        "--steps", "0", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        initial = rows[:, columns.index("u_initial")]
        final = rows[:, columns.index("d2s_final")]
        assert np.array_equal(initial, final)

    def test_norm_echoed_in_header(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(["run", "--scheme", "d2s", "--steps", "3", "--out", str(out)])
        header, _, _ = read_csv(out)
        assert any(line.startswith("# norm d2s final=") for line in header)

    def test_reruns_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["run", "--equation", "advection", "--scheme", "a2c,rw1a",
                "--nx", "200", "--xmin", "-10", "--xmax", "10", "--dt", "0.05",
                "--steps", "17", "--profile", "sextic", "--center", "-5"]
        run_cli(args + ["--out", str(a)])
        run_cli(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_mean_displacement_law(self, tmp_path):
        # zero-error-slope advection: <x> moves by v*dt each step
        out = tmp_path / "run.csv"
        nx, xmin, xmax, dt, steps = 400, -10.0, 10.0, 0.05, 40
        run_cli(["run", "--equation", "advection", "--scheme", "a2c",
                 "--nx", str(nx), "--xmin", str(xmin), "--xmax", str(xmax),
                 "--dt", str(dt), "--steps", str(steps), "--profile", "gaussian",
                 "--center", "-5", "--sigma", "0.5", "--out", str(out)])
        _, columns, rows = read_csv(out)
        x = rows[:, columns.index("x")]
        u0 = rows[:, columns.index("u_initial")]
        u1 = rows[:, columns.index("a2c_final")]
        before = float(np.sum(x * u0) / np.sum(u0))
        after = float(np.sum(x * u1) / np.sum(u1))
        assert after - before == pytest.approx(steps * dt, rel=1e-10)

    def test_checkpoint_columns(self, tmp_path):
        out = tmp_path / "run.csv"
        run_cli(["run", "--scheme", "d2s", "--dt", "0.1", "--steps", "10",
                 "--checkpoints", "0.5", "--out", str(out)])
        _, columns, _ = read_csv(out)
        assert "d2s_t0.5" in columns

    def test_repeated_checkpoint_writes_one_column(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--scheme", "d2s", "--dt", "0.1", "--steps", "10",
                        "--checkpoints", "0.2,0.2,0.4", "--out", str(out)]) == 0
        header, columns, _ = read_csv(out)
        assert columns == ["x", "u_initial", "d2s_t0.2", "d2s_t0.4", "d2s_final"]
        notes = [line for line in header if line.startswith("# norm d2s")]
        assert [line.split(":")[0] for line in notes[:2]] == [
            "# norm d2s t=0.20000000000000001", "# norm d2s t=0.40000000000000002"]
        assert len(notes) == 3 and notes[2].startswith("# norm d2s final=")

    def test_checkpoint_at_the_last_step_writes_it_and_the_final_column(self, tmp_path):
        out = tmp_path / "run.csv"
        assert run_cli(["run", "--scheme", "d2s", "--dt", "0.1", "--steps", "10",
                        "--checkpoints", "1", "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert columns == ["x", "u_initial", "d2s_t1", "d2s_final"]
        assert np.array_equal(rows[:, 2], rows[:, 3])
        assert not np.array_equal(rows[:, 1], rows[:, 3])
        checkpoint, final = header[-2:]
        assert checkpoint.startswith("# norm d2s t=1: ") and final.startswith("# norm d2s final=")
        assert checkpoint.split(": ")[1] == final.split("=")[1]

    @pytest.mark.parametrize("checkpoint", ["0", "0.04"])
    def test_checkpoint_at_step_zero_is_usage_error(self, checkpoint, tmp_path, capsys):
        # round(t/dt) == 0 used to be accepted and then silently dropped: the
        # step loop starts at step 1, so no checkpoint column was written
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", "--nx", "10", "--steps", "3", "--dt", "0.1",
                               "--checkpoints", checkpoint, "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error: checkpoints must lie inside the run")
        assert not out.exists()


class TestConverge:
    def test_footer_reports_plateau_and_order(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert run_cli(["converge", "--equation", "diffusion", "--scheme", "d2s",
                        "--dt", "0.1", "--tfinal", "1", "--observable", "abs-moment",
                        "--dts", "0.1,0.05,0.025,0.0125,0.00625",
                        "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        fits = [line for line in header if line.startswith("# fit scheme=d2s")]
        assert len(fits) == 1
        order = float(fits[0].split("order=")[1])
        assert order == pytest.approx(2.0, abs=0.2)
        assert columns == ["dt", "d2s"]
        assert rows.shape == (5, 2)

    def test_non_dividing_dt_adjusted_with_warning(self, tmp_path):
        out = tmp_path / "conv.csv"
        with pytest.warns(RuntimeWarning):
            run_cli(["converge", "--scheme", "d2s", "--dt", "0.1", "--steps", "10",
                     "--dts", "0.4,0.15", "--out", str(out)])
        _, _, rows = read_csv(out)
        # 0.15 does not divide 1.0: nearest step count is 7 -> dt = 1/7
        assert rows[1][0] == pytest.approx(1.0 / 7.0, rel=1e-12)

    def test_increasing_dts_is_usage_error(self):
        assert run_cli(["converge", "--scheme", "d2s", "--dts", "0.1,0.2"]) == 2

    def test_dts_of_one_step_count_are_usage_error(self, tmp_path, capsys):
        # 0.099 rounds to the 10 steps of 0.1 over t = 1: this used to write two
        # identical dt=0.10000000000000001 rows, a fit footer saying the dt values
        # were not strictly decreasing, and exit 0
        out = tmp_path / "conv.csv"
        code, err = run_clean(["converge", "--dts", "0.1,0.099,0.05", "--tfinal", "1",
                               "--out", str(out)], capsys)
        assert code == 2
        assert err == "usage error: --dts values 0.1 and 0.099 both take 10 steps over t=1.0\n"
        assert not out.exists()

    def test_repeated_scheme_writes_one_correct_column_each(self, tmp_path):
        # a repeated name used to share one name-keyed list of values: the dt = 0.05 row
        # read the dt = 0.1 value, both fits were unavailable, and the exit code was 0
        argv = ["converge", "--equation", "diffusion", "--dt", "0.1", "--tfinal", "1",
                "--dts", "0.1,0.05,0.025"]
        one, two = tmp_path / "one.csv", tmp_path / "two.csv"
        assert run_cli(argv + ["--scheme", "d2s", "--out", str(one)]) == 0
        assert run_cli(argv + ["--scheme", "d2s,d2s", "--out", str(two)]) == 0
        header1, _, rows1 = read_csv(one)
        header2, columns, rows2 = read_csv(two)
        assert columns == ["dt", "d2s", "d2s"]
        assert rows1[1, 1] == 0.88679523989888265
        assert np.array_equal(rows2, rows1[:, [0, 1, 1]])
        fit = [line for line in header1 if line.startswith("# fit")]
        assert len(fit) == 1 and "unavailable" not in fit[0]
        assert [line for line in header2 if line.startswith("# fit")] == fit * 2


class TestNorms:
    def test_diffusion_norm_error_stays_at_rounding(self, tmp_path):
        out = tmp_path / "norms.csv"
        assert run_cli(["norms", "--equation", "diffusion", "--scheme", "d2s",
                        "--dt", "0.05", "--steps", "50", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert np.max(np.abs(rows[:, columns.index("d2s")])) <= 1e-12

    def test_advdiff_rw1a_periodic_recovery_shape(self, tmp_path):
        out = tmp_path / "norms.csv"
        run_cli(["norms", "--equation", "advdiff", "--scheme", "rw1a,ad2c",
                 "--nx", "200", "--xmin", "0", "--xmax", "10", "--dt", "0.033",
                 "--dcoef", "0.005", "--vel", "1", "--steps", "303",
                 "--profile", "gaussian", "--center", "5", "--out", str(out)])
        _, columns, rows = read_csv(out)
        rw = rows[:, columns.index("rw1a")]
        # error grows while the pulse crosses the seam, then returns near zero
        assert np.max(np.abs(rw)) > 1e-5
        assert abs(rw[-1]) < 1e-6

    def test_zero_norm_profile_is_numerics_error(self, tmp_path, capsys):
        # every Gaussian sample underflows to 0: the relative error has no reference
        out = tmp_path / "norms.csv"
        code, err = run_clean(["norms", "--scheme", "d2s", "--sigma", "1e-3", "--center", "0.05",
                               "--steps", "2", "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("numerical error:")
        assert not out.exists()


class TestPhase:
    def test_exact_schemes_have_zero_error_at_origin(self, tmp_path):
        out = tmp_path / "phase.csv"
        assert run_cli(["phase", "--equation", "advection", "--scheme", "a2c,rw2",
                        "--nx", "800", "--xmin", "-10", "--xmax", "10",
                        "--dt", "0.0175", "--ntheta", "1025", "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert rows[0][columns.index("a2c")] == 0.0

    def test_phase_on_diffusion_is_usage_error(self):
        assert run_cli(["phase", "--equation", "diffusion", "--scheme", "d2s"]) == 2

    def test_spatial_amplification_is_numerics_error(self, capsys):
        # eta = 2 makes the descending Roberts-Weiss half-sweep blow up
        rc = run_cli(["phase", "--equation", "advection", "--scheme", "rw2",
                      "--nx", "100", "--xmin", "0", "--xmax", "10", "--dt", "0.2",
                      "--vel", "1"])
        assert rc == 1
        assert "numerical error" in capsys.readouterr().err


class TestDispatch:
    @pytest.mark.parametrize("command", ["ampfactor", "run", "converge", "norms", "phase"])
    def test_main_runs_the_module_attribute_of_the_command(self, command, monkeypatch):
        # a tracer wraps cmd_* by rebinding the module attribute: the function must be
        # looked up on each call, not bound once at import
        calls = []
        monkeypatch.setattr(sweepfd.cli, f"cmd_{command}",
                            lambda setup, args: calls.append(args.command))
        argv = [command, "--equation", "advection", "--scheme", "a2c"]
        assert main(argv + (["--dts", "0.1,0.05"] if command == "converge" else [])) == 0
        assert calls == [command]


class TestMalformedInput:
    @pytest.mark.parametrize("args", [
        ["run", "--checkpoints", "abc"],
        ["run", "--checkpoints", "0.5,nan"],
        ["converge", "--dts", "0.1,abc"],
        ["converge", "--dts", "inf,0.1"],
    ])
    def test_unparsable_list_is_usage_error(self, args, capsys):
        code, err = run_clean(args, capsys)
        assert code == 2
        assert err.startswith("usage error:")

    @pytest.mark.parametrize("option", ["--xmin", "--xmax", "--dcoef", "--vel", "--dt",
                                        "--tfinal", "--center", "--sigma"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_float_option_is_usage_error(self, option, value, capsys):
        code, err = run_clean(["ampfactor", "--scheme", "d2s", f"{option}={value}"], capsys)
        assert code == 2
        assert err.startswith(f"usage error: {option} must be finite")


class TestUnwritableOut:
    @pytest.mark.parametrize("out", ["missing/dir/amp.csv", "", "."])
    def test_unwritable_out_is_usage_error(self, out, tmp_path, monkeypatch, capsys):
        # a missing directory, an empty name and a directory each used to end in an
        # OSError traceback (exit 1) once every number had been computed
        monkeypatch.chdir(tmp_path)
        code, err = run_clean(["ampfactor", "--scheme", "d2s", "--ntheta", "3", "--out", out],
                              capsys)
        assert code == 2
        assert err.startswith("usage error:") and "--out" in err
        assert list(tmp_path.iterdir()) == []


class TestFailedWrite:
    """A write that fails after --out opened: exit 1, no traceback, no partial file."""

    def test_file_size_limit_exits_one_and_removes_the_partial_file(self, tmp_path):
        # a 5 MB table under a 64 KiB RLIMIT_FSIZE used to end in an
        # `OSError: [Errno 27] File too large` traceback and leave 65,536 bytes behind
        def cap_file_size():
            signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
            resource.setrlimit(resource.RLIMIT_FSIZE, (CHILD_FILE_SIZE, CHILD_FILE_SIZE))

        out = tmp_path / "run.csv"
        proc = run_child(["run", "--nx", "100000", "--steps", "0", "--out", str(out)],
                         cap_file_size)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (f"write error: --out {str(out)!r} could not be written: "
                               f"{os.strerror(errno.EFBIG)}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_device_exits_one_and_is_not_unlinked(self):
        # used to end in an `OSError: [Errno 28] No space left on device` traceback
        proc = run_child(["run", "--nx", "1000", "--steps", "0", "--out", "/dev/full"])
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ("write error: --out '/dev/full' could not be written: "
                               f"{os.strerror(errno.ENOSPC)}\n")
        assert stat.S_ISCHR(os.stat("/dev/full").st_mode)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_stdout_exits_one_with_one_line(self):
        with open("/dev/full", "w") as full:
            proc = run_child(["run", "--nx", "1000", "--steps", "0"], stdout=full)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == ("write error: stdout could not be written: "
                               f"{os.strerror(errno.ENOSPC)}\n")

    def test_closed_stdout_exits_one_quietly(self):
        # `sweepfd run --nx 100000 --steps 0 | head -1` used to end in a
        # BrokenPipeError traceback from write_csv
        with subprocess.Popen([sys.executable, "-m", "sweepfd.cli", "run", "--nx", "100000",
                               "--steps", "0"], env=child_env(), stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) as proc:
            assert proc.stdout.readline() == "# sweepfd run\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert code == 1
        assert err == ""


class TestNonFiniteOutput:
    # step is where the check found the value: run checks at each checkpoint and at the
    # end, norms at every step, converge at the end of each dt's run
    @pytest.mark.parametrize("args,scheme,step", [
        (["run", "--equation", "diffusion", "--scheme", "euler", "--dt", "1",
          "--steps", "400"], "euler", 400),
        (["norms", "--equation", "advection", "--scheme", "lw", "--dt", "1",
          "--steps", "300"], "lw", 142),
        (["converge", "--equation", "diffusion", "--scheme", "d2s,euler", "--dt", "1",
          "--steps", "400", "--dts", "1,0.5"], "euler", 400),
        (["run", "--equation", "diffusion", "--scheme", "euler", "--dt", "1",
          "--steps", "400", "--checkpoints", "100,300"], "euler", 300),
    ])
    def test_blow_up_exits_one_without_writing(self, args, scheme, step, tmp_path, capsys):
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # numpy overflow warnings while blowing up
            code = main(args + ["--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert "Traceback" not in err
        assert f"numerical error: {scheme} produced a non-finite" in err
        assert err.endswith(f" at step {step}\n")
        assert not out.exists()

    @pytest.mark.parametrize("args,scheme", [
        (["ampfactor", "--scheme", "12xeuler,d2s", "--dt", "1e100", "--ntheta", "3"], "12xeuler"),
        (["phase", "--scheme", "12xlw", "--dt", "1e100", "--ntheta", "3"], "12xlw"),
    ])
    def test_non_finite_factor_exits_one_without_writing(self, args, scheme, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, err = run_clean(args + ["--out", str(out)], capsys)
        assert code == 1
        assert f"numerical error: {scheme} produced a non-finite" in err
        assert " at theta=" in err
        assert not out.exists()


class TestNegativeDiffusion:
    def test_advdiff_fr_exits_one_without_writing(self, tmp_path, capsys):
        # fr's negative-fraction stages admit r < 0 inside the step; a negative
        # diffusivity used to slip through them and run anti-diffusion
        out = tmp_path / "run.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["run", "--equation", "advdiff", "--scheme", "fr", "--dcoef", "-0.05",
                         "--steps", "3", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("numerical error:")
        assert "Traceback" not in err and "RuntimeWarning" not in err
        # compile_scheme rejects r < 0 before fr's negative-substep warning (r > 0 only)
        assert all("negative substeps" in str(w.message) for w in caught)
        assert not out.exists()

    def test_advdiff_fr_at_zero_dcoef_runs_without_warning(self, capsys):
        # r = 0: the negative-fraction stages have nothing to diffuse backwards
        code, err = run_clean(["run", "--equation", "advdiff", "--scheme", "fr", "--dcoef", "0",
                               "--steps", "1", "--nx", "10"], capsys)
        assert code == 0
        assert "RuntimeWarning" not in err


class TestAdvDiffRange:
    def test_spatial_amplification_exits_one_without_writing(self, tmp_path, capsys):
        # r = 0.86: fr's negative-fraction stages sweep with |b| up to 1.24; the
        # run used to exit 0 and write "# norm fr final=6.45e+72" (initially 12.53)
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # fr's negative-substep warning
            code = main(["run", "--equation", "advdiff", "--scheme", "fr", "--dcoef", "0.086",
                         "--vel", "1", "--dt", "0.1", "--nx", "120", "--steps", "10",
                         "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("numerical error:") and ">= 1 and amplifies along it" in err
        assert not out.exists()

    def test_pole_of_the_rational_gamma_exits_one_without_writing(self, tmp_path, capsys):
        # fr's middle stage runs at r = -1.7024 * 1.1748 = -2 exactly, the pole of
        # AD2C's gamma = (1 - r/2)/(1 + r/2); the run used to end in a ZeroDivisionError
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # fr's negative-substep warning
            code = main(["run", "--equation", "advdiff", "--scheme", "fr", "--dcoef",
                         "1.1748021039363987", "--vel", "0", "--dt", "1", "--xmin", "0",
                         "--xmax", "120", "--nx", "120", "--steps", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("numerical error:") and "pole" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("scheme", ["split1a", "split1b"])
    def test_split_at_large_r_runs(self, scheme, tmp_path, capsys):
        # r = 2e5: e^-r cosh(psi) used to end in an OverflowError traceback
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", "--equation", "advdiff", "--scheme", scheme, "--dcoef",
                               "2e3", "--vel", "1", "--dt", "0.6", "--nx", "10", "--steps", "1",
                               "--out", str(out)], capsys)
        assert code == 0, err
        _, _, rows = read_csv(out)
        assert np.all(np.isfinite(rows))

    def test_generalized_rw_at_large_r_runs(self, tmp_path, capsys):
        # r = 1e9, eta = 0.5: alpha's discriminant used to cancel to a negative
        # rounding error, and the run exited 1 with "no real alpha exists"
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", "--equation", "advdiff", "--scheme", "rw1b", "--dcoef",
                               "2.4e9", "--vel", "1", "--dt", "0.6", "--nx", "10", "--steps", "1",
                               "--out", str(out)], capsys)
        assert code == 0, err
        assert out.exists()


class TestDerivedInput:
    @pytest.mark.parametrize("command", [
        ["run", "--steps", "1"],
        ["ampfactor"],
        ["converge", "--dts", "0.1,0.05"],
        ["norms", "--steps", "1"],
    ])
    def test_underflowing_grid_spacing_is_usage_error(self, command, tmp_path, capsys):
        # dx = 1e-160/120 squares to 0, so r = dt*dcoef/dx^2 has no finite value;
        # this used to end in a ZeroDivisionError traceback
        code, err = run_clean(command + ["--xmin", "0", "--xmax", "1e-160",
                                         "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert err.startswith("usage error:")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", [
        ["ampfactor"],
        ["phase", "--scheme", "a2c"],
        ["run", "--steps", "1"],
        ["norms", "--steps", "1"],
        ["converge", "--dts", "0.1,0.05"],
    ])
    def test_overflowing_grid_range_is_usage_error(self, command, tmp_path, capsys):
        # xmax - xmin overflows to inf, so dx = inf: ampfactor and phase used to exit 0
        # with dx=inf and an identity table, the others 1 after a numpy RuntimeWarning
        out = tmp_path / "out.csv"
        code, err = run_clean(command + ["--xmin=-1e308", "--xmax=1e308", "--out", str(out)],
                              capsys)
        assert code == 2
        assert err == "usage error: --xmax - --xmin = inf over --nx=120 gives no finite dx\n"
        assert not out.exists()

    def test_overflowing_r_is_usage_error(self, tmp_path, capsys):
        code, err = run_clean(["run", "--dcoef", "1e300", "--dt", "1e300", "--steps", "1",
                               "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "r = inf" in err

    @pytest.mark.parametrize("sigma", ["0", "-0.5"])
    def test_non_positive_gaussian_width_is_usage_error(self, sigma, tmp_path, capsys):
        # used to exit 1 with "numerical error: sigma must be positive"
        code, err = run_clean(["run", "--sigma", sigma, "--steps", "1",
                               "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "--sigma" in err

    def test_sextic_profile_ignores_sigma(self, tmp_path, capsys):
        code, err = run_clean(["run", "--profile", "sextic", "--sigma", "0", "--steps", "1",
                               "--out", str(tmp_path / "out.csv")], capsys)
        assert code == 0, err


class TestImplicitScheme:
    @pytest.mark.parametrize("schemes, name", [("cn", "cn"), ("2xcn", "2xcn"),
                                               ("d2s,cn", "cn")])
    @pytest.mark.parametrize("command", [
        ["run", "--steps", "1"],
        ["norms", "--steps", "1"],
        ["converge", "--dts", "0.1,0.05", "--tfinal", "1"],
    ])
    def test_stepping_an_implicit_scheme_is_usage_error(self, command, schemes, name,
                                                        tmp_path, capsys):
        # cn has a closed-form factor but no explicit stepper: these used to exit 1 with
        # "numerical error: the implicit comparator has no explicit stepper"
        out = tmp_path / "out.csv"
        code, err = run_clean(command + ["--scheme", schemes, "--out", str(out)], capsys)
        assert code == 2
        assert err == (f"usage error: {command[0]} cannot step {name}: the implicit "
                       "comparator has no explicit stepper (ampfactor takes its factor)\n")
        assert not out.exists()

    def test_ampfactor_takes_an_implicit_scheme(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, err = run_clean(["ampfactor", "--scheme", "cn,2xcn", "--out", str(out)], capsys)
        assert code == 0, err
        _, columns, rows = read_csv(out)
        assert "cn_abs" in columns and "2xcn_abs" in columns
        assert np.all(np.isfinite(rows))


class TestOverflowingSquares:
    """Inputs whose square overflows (above about 1.34e154) exit 1 or 2, never 0 or a traceback."""

    @pytest.mark.parametrize("command", [["run", "--steps", "1"], ["ampfactor", "--ntheta", "3"],
                                         ["phase", "--ntheta", "3"]])
    def test_lax_wendroff_at_overflowing_eta_exits_one(self, command, tmp_path, capsys):
        # eta ** 2 used to raise OverflowError
        out = tmp_path / "out.csv"
        code, err = run_clean(command + ["--equation", "advection", "--scheme", "lw",
                                         "--vel", "1e300", "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("numerical error:") and "eta" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["--scheme", "split1a", "--vel", "1e300"],              # psi^2 = -inf
        ["--scheme", "split1b", "--vel", "1e300", "--dcoef", "1e300"],   # psi^2 = nan
        ["--scheme", "split1a", "--dcoef", "1e300"],            # psi^2 = +inf
    ])
    def test_split_derived_at_overflowing_square_exits_one(self, args, tmp_path, capsys):
        # the first used to end in "ValueError: math domain error"; the last used to
        # run with beta = lam = 0 where both tend to 1/2, and exit 0
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", "--equation", "advdiff", "--nx", "102", "--steps", "1",
                               "--out", str(out)] + args, capsys)
        assert code == 1
        assert err.startswith("numerical error:")
        assert not out.exists()

    @pytest.mark.parametrize("equation,scheme", [("advection", "a2c"), ("advdiff", "ad2c")])
    @pytest.mark.parametrize("vel", ["1e20", "1e150", "1e160", "1e300"])
    def test_matched_cn_at_overflowing_eta_exits_one(self, equation, scheme, vel, tmp_path,
                                                      capsys):
        # above 1e154 s = 0 used to run the identity step and exit 0; s rounds to 1
        # long before, which no sweep can use
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", "--equation", equation, "--scheme", scheme, "--nx", "8",
                               "--steps", "2", "--vel", vel, "--out", str(out)], capsys)
        assert code == 1
        assert err.startswith("numerical error:") and "= 1.0 >= 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma", ["1e300", "-1e300", "1e-300"])
    def test_gaussian_width_without_a_finite_square_is_usage_error(self, sigma, tmp_path,
                                                                    capsys):
        # 1e300 ** 2 used to raise OverflowError; 1e-300 squared to 0 and ended in a
        # numerical error about non-finite samples
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", f"--sigma={sigma}", "--steps", "1", "--out", str(out)],
                              capsys)
        assert code == 2
        assert err.startswith("usage error:") and "--sigma" in err
        assert not out.exists()


class TestStepCounts:
    @pytest.mark.parametrize("args", [
        ["run", "--dt", "1e-320", "--tfinal", "1"],
        ["norms", "--dt", "1e-320", "--tfinal", "1"],
        ["converge", "--scheme", "d2s", "--dts", "1e-320,1e-321", "--steps", "1"],
    ])
    def test_step_count_overflow_is_usage_error(self, args, capsys):
        # tfinal/dt overflows to inf, and round(inf) used to raise OverflowError
        code, err = run_clean(args, capsys)
        assert code == 2
        assert err.startswith("usage error:")
        assert "RuntimeWarning" not in err

    @pytest.mark.parametrize("tfinal", ["-1", "0"])
    def test_non_positive_tfinal_is_usage_error(self, tfinal, tmp_path, capsys):
        # used to warn, run one step and exit 0
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", "--tfinal", tfinal, "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error: --tfinal must be positive")
        assert "RuntimeWarning" not in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["run", "--steps", "1000000000000", "--nx", "10"],
        ["run", "--dt", "1e-300", "--tfinal", "1", "--nx", "10"],
        ["converge", "--dts", "1e-300,1e-301", "--steps", "1", "--nx", "10"],
    ])
    def test_step_count_beyond_ceiling_is_usage_error(self, args, tmp_path, capsys):
        # each used to run until killed; the alarm turns that into a failure after 5 s
        out = tmp_path / "out.csv"
        with time_limit(5):
            code, err = run_clean(args + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error:")
        assert "sample-steps" in err
        assert not out.exists()

    @pytest.mark.parametrize("args", [
        ["run", "--scheme", "100000000000xd2s", "--nx", "120", "--steps", "1"],
        ["norms", "--scheme", "10000000000xd2s"],
        ["converge", "--scheme", "10000000000xd2s", "--dts", "0.1,0.05", "--steps", "1"],
        # one step of 1000 x 10 samples passes; the dt of 1e-8 takes 1e7 such steps
        ["converge", "--scheme", "d2s,1000xd2s", "--nx", "10", "--dts", "0.1,1e-8",
         "--steps", "1"],
    ])
    def test_substeps_count_toward_the_ceiling(self, args, tmp_path, capsys):
        # an NxNAME step runs N substeps: each of these counted steps x nx only, passed
        # the ceiling and ran for days
        out = tmp_path / "out.csv"
        with time_limit(5):
            code, err = run_clean(args + ["--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "sample-steps (steps x N x nx" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "norms", "converge"])
    def test_substep_ceiling_is_inclusive(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sweepfd.cli, "MAX_SAMPLE_STEPS", 5 * 3 * 10)
        out = tmp_path / "out.csv"
        argv = [command, "--scheme", "d2s,3xd2s", "--nx", "10", "--out", str(out)]
        if command == "converge":   # 1 and then 5 steps of dt = 0.1
            argv += ["--dt", "0.5", "--dts", "0.5,0.1"]
        code, _ = run_clean(argv + ["--steps", "1" if command == "converge" else "5"], capsys)
        assert code == 0
        out.unlink()
        if command == "converge":
            argv[-1] = "0.5,0.0833"   # 6 steps
        code, err = run_clean(argv + ["--steps", "1" if command == "converge" else "6"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and "at most 5 steps" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ampfactor", "run", "norms", "phase"])
    @pytest.mark.parametrize("digits", [401, 5001])
    def test_substeps_beyond_the_float_range_are_usage_error(self, command, digits, tmp_path,
                                                            capsys):
        # 10**400 substeps built a scheme, and compiling it raised OverflowError at
        # 1.0 / substeps; 5001 digits are beyond what int() converts
        out = tmp_path / "out.csv"
        scheme = "1" + "0" * (digits - 1) + "xa2c"
        with time_limit(5):
            code, err = run_clean([command, "--equation", "advection", "--scheme", scheme,
                                   "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    def test_norms_beyond_the_row_ceiling_is_usage_error(self, tmp_path, capsys):
        # norms writes one row per step: 1e9 steps at nx=3 passed the sample-step ceiling,
        # ran for minutes and ended in a MemoryError traceback from its per-step trace
        out = tmp_path / "norms.csv"
        with time_limit(5):
            code, err = run_clean(["norms", "--nx", "3", "--steps", "10000001",
                                   "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    def test_norms_row_ceiling_is_inclusive(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sweepfd.cli, "MAX_NX", 5)   # the real 1e7 rows take minutes
        out = tmp_path / "norms.csv"
        argv = ["norms", "--nx", "3", "--out", str(out)]
        code, _ = run_clean(argv + ["--steps", "5"], capsys)
        assert code == 0
        assert sum(not line.startswith("#") for line in out.open()) == 5 + 1
        out.unlink()
        code, err = run_clean(argv + ["--steps", "6"], capsys)
        assert code == 2
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not out.exists()

    def test_nx_beyond_ceiling_is_usage_error(self, tmp_path):
        # used to end in a numpy _ArrayMemoryError traceback from the initial
        # profile; the child's address space is capped so that failure cannot
        # take the host's memory
        out = tmp_path / "run.csv"
        proc = run_capped(["run", "--nx", "10000000000", "--steps", "0", "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("usage error:")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ampfactor", "phase"])
    def test_ntheta_beyond_ceiling_is_usage_error(self, command, tmp_path):
        # used to end in a numpy _ArrayMemoryError traceback from np.linspace
        out = tmp_path / "out.csv"
        proc = run_capped([command, "--equation", "advection", "--scheme", "a2c",
                           "--ntheta", "100000000000", "--out", str(out)])
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("usage error: --ntheta must lie in")
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ampfactor", "phase"])
    def test_ntheta_below_two_is_usage_error(self, command, tmp_path, capsys):
        out = tmp_path / "out.csv"
        code, err = run_clean([command, "--equation", "advection", "--scheme", "a2c",
                               "--ntheta", "1", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error: --ntheta must lie in")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["ampfactor", "phase"])
    def test_ntheta_ceiling_is_inclusive(self, command, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(sweepfd.cli, "MAX_NTHETA", 5)   # the real 1e5 rows take seconds
        out = tmp_path / "out.csv"
        argv = [command, "--equation", "advection", "--scheme", "a2c", "--out", str(out)]
        code, _ = run_clean(argv + ["--ntheta", "5"], capsys)
        assert code == 0
        assert sum(not line.startswith("#") for line in out.open()) == 5 + 1
        out.unlink()
        code, err = run_clean(argv + ["--ntheta", "6"], capsys)
        assert code == 2
        assert err.startswith("usage error: --ntheta must lie in")
        assert not out.exists()

    def test_checkpoint_overflow_is_usage_error(self, tmp_path, capsys):
        # t/dt overflows to inf, and round(inf) used to raise OverflowError
        out = tmp_path / "run.csv"
        code, err = run_clean(["run", "--dt", "1e-300", "--steps", "1", "--checkpoints", "1e300",
                               "--nx", "10", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error: t=1e+300 takes no finite number of steps")
        assert not out.exists()

    def test_converge_over_zero_time_is_usage_error(self, tmp_path, capsys):
        # --steps 0 used to write one dt=0 row per --dts entry and exit 0
        out = tmp_path / "conv.csv"
        code, err = run_clean(["converge", "--scheme", "d2s", "--dts", "0.1,0.05,0.02",
                               "--steps", "0", "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("usage error:")
        assert "RuntimeWarning" not in err
        assert not out.exists()


FUZZ_FLOATS = ["0", "-0", "1e-300", "-1e-300", "1e300", "-1e300", "1.7e308", "-1.7e308",
               "1e160", "0.5", "700", "1.1748021039363987"]


@st.composite
def cli_argvs(draw):
    """An argv of the subcommand grammar, with edge values in every float option."""
    command = draw(st.sampled_from(["ampfactor", "run", "converge", "norms", "phase"]))
    equation = draw(st.sampled_from(list(Equation)))
    # 1e11 substeps step for days unless the work ceiling counts them; 10**400 has no
    # finite float value
    prefixes = ["", "2x", "3x", "100000000000x", "1" + "0" * 400 + "x"]
    schemes = draw(st.lists(st.tuples(st.sampled_from(prefixes),
                                      st.sampled_from(preset_names(equation))),
                            min_size=1, max_size=3))
    steps = draw(st.integers(0, 20))
    argv = [command, f"--equation={equation.value}",
            "--scheme=" + ",".join(prefix + name for prefix, name in schemes),
            f"--nx={draw(st.integers(3, 200))}", f"--steps={steps}",
            f"--profile={draw(st.sampled_from(['gaussian', 'sextic']))}"]
    dt = 0.1
    options = ["--xmin", "--xmax", "--dcoef", "--vel", "--dt", "--center", "--sigma"]
    for option in draw(st.lists(st.sampled_from(options), max_size=3, unique=True)):
        value = draw(st.sampled_from(FUZZ_FLOATS))
        argv.append(f"{option}={value}")
        dt = float(value) if option == "--dt" else dt
    if command in ("ampfactor", "phase"):
        argv.append(f"--ntheta={draw(st.integers(2, 40))}")
    elif command == "run" and draw(st.booleans()):
        argv.append(f"--checkpoints={draw(st.integers(0, 22)) * dt!r}")
    elif command == "converge":
        # dt/1 > dt/2 > ...: at most 4 x 20 steps a run, whatever --dt is
        divisors = draw(st.lists(st.integers(1, 4), min_size=2, max_size=3, unique=True))
        argv.append("--dts=" + ",".join(repr(dt / k) for k in sorted(divisors)))
        argv.append(f"--observable={draw(st.sampled_from(['abs-moment', 'abs-weighted-mean']))}")
    return argv


class TestExitCodeContract:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(argv=cli_argvs())
    def test_exit_code_is_0_1_or_2_and_exit_0_writes_only_finite_numbers(self, argv):
        with tempfile.TemporaryDirectory() as tmp:
            out = Path(tmp) / "out.csv"
            with warnings.catch_warnings(), time_limit(30):
                warnings.simplefilter("ignore")
                code = main(argv + ["--out", str(out)])
            assert code in (0, 1, 2)
            if code != 0:
                assert not out.exists()
                return
            lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
            values = [float(v) for line in lines[1:] for v in line.split(",")]
            assert all(map(math.isfinite, values)), argv

