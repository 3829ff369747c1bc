"""Command-line interface: formats, determinism, exit codes, stream routing."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from kummer_asym import cli
from kummer_asym.cli import (CSV_COLUMNS, main, parse_linear_in_b,
                             verify_identities)
from kummer_asym.errors import DomainError, PrecisionExhaustedError
from kummer_asym.ratpoly import ParamPoly
from kummer_asym.special.kummer import kummer_m_scaled
from kummer_asym.special.types import Precision


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestLinearParser:
    def test_accepted_forms(self):
        cases = {
            "2-b": (2, -1),
            "b/2": (0, Fraction(1, 2)),
            "1-b/2": (1, Fraction(-1, 2)),
            "3/4+2*b": (Fraction(3, 4), 2),
            "-b": (0, -1),
            "b": (0, 1),
            "5/3": (Fraction(5, 3), 0),
            "1/2*b - 1": (-1, Fraction(1, 2)),
            "1e3": (1000, 0),
        }
        for text, (const, slope) in cases.items():
            assert parse_linear_in_b(text) == ParamPoly("b", (const, slope))

    def test_rejected_forms(self):
        for text in ("", "b^2", "b*b", "(b)", "2**b", "b+"):
            with pytest.raises(DomainError):
                parse_linear_in_b(text)


class TestCoeffs:
    def test_golden_json(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--order", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["variant"] == "AB"
        assert payload["config"]["order"] == 2
        assert payload["A"][0] == [["1"]]
        assert payload["A"][1] == [[], [], ["-1/6", "1/6"], [], [], [],
                                   ["1/72"]]
        assert payload["B"][0] == [[], [], [], ["1/6"]]
        assert len(payload["A"]) == 3 and len(payload["B"]) == 3

    def test_lowered_variant_text(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--order", "1",
                               "--variant", "ab", "--format", "text")
        assert code == 0
        assert "# config:" in out
        assert "a[0] = 1" in out
        assert "b[0] = 1/6*z^3" in out

    def test_parameter_rename(self, capsys):
        code, out, _ = run_cli(capsys, "coeffs", "--order", "1", "--param",
                               "b", "--format", "text")
        assert code == 0
        assert "A[1] = (-1/6 + 1/6*b)*z^2 + 1/72*z^6" in out

    def test_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "coeffs", "--order", "3")
        _, second, _ = run_cli(capsys, "coeffs", "--order", "3")
        assert first == second


class TestTemme:
    def test_json_tables(self, capsys):
        code, out, _ = run_cli(capsys, "temme", "--nmax", "2")
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"config", "a", "b", "d", "dtilde"}
        assert payload["a"][0] == [["1"]]
        assert payload["b"][0] == [[], [], [], ["1/6"]]
        assert payload["d"][0] == ["1"]
        assert payload["d"][1] == []
        assert payload["dtilde"][0] == ["1"]
        assert len(payload["a"]) == 3

    def test_text_lists_all_families(self, capsys):
        code, out, _ = run_cli(capsys, "temme", "--nmax", "1", "--format",
                               "text")
        assert code == 0
        for prefix in ("a[0]", "a[1]", "b[0]", "b[1]", "d[0]", "d[1]",
                       "dtilde[0]", "dtilde[1]"):
            assert f"{prefix} = " in out


class TestBernoulli:
    def test_gamma_ratio_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--n", "2", "--ell",
                               "2-b", "--x", "1-b/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["B"][0] == ["1"]
        # x - ell/2 vanishes identically for this pair
        assert payload["B"][1] == []
        assert len(payload["B"]) == 3

    def test_bad_expression(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "--n", "1", "--ell",
                               "b^2", "--x", "0")
        assert code == 1
        assert "error: DomainError" in err


class TestOracle:
    def test_half_order_k(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--fn", "k", "--nu", "0.5",
                               "--r", "2")
        assert code == 0
        # K_(1/2)(2) = sqrt(pi / 4) e^-2 = 0.1199377719680614...
        assert "value_value=0.119937771968061" in out

    def test_exponential_m(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--fn", "m", "--a", "1",
                               "--b", "1", "--x", "3")
        assert code == 0
        assert "value_logmag=3 value_phase=0" in out

    def test_u_inverse_power(self, capsys):
        code, out, _ = run_cli(capsys, "oracle", "--fn", "u", "--a", "1",
                               "--b", "2", "--r", "3")
        assert code == 0
        assert "value_value=0.33333333333333" in out

    def test_missing_arguments(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--fn", "i", "--r", "2")
        assert code == 1
        assert "error: DomainError" in err

    def test_overwound_angle_is_a_domain_error(self, capsys):
        # a turn count no float can carry is refused, not evaluated
        code, _, err = run_cli(capsys, "oracle", "--fn", "k", "--nu", "0.5",
                               "--r", "2", "--theta", "1e300")
        assert code == 1
        assert err.startswith("error: DomainError: ")

    def test_kernel_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "oracle", "--fn", "m", "--a", "1",
                               "--b", "0", "--x", "2")
        assert code == 1
        assert "error: PoleError" in err


class TestEval:
    def test_headline(self, capsys):
        code, out, _ = run_cli(capsys, "eval", "--variant", "m")
        assert code == 0
        assert "precision=double" in out
        value = float(out.rsplit("rel_discrepancy=", 1)[1])
        assert value < 1e-6

    def test_env_precision_override(self, capsys, monkeypatch):
        monkeypatch.setenv("KUMMER_ASYM_PRECISION", "dd")
        code, out, _ = run_cli(capsys, "eval", "--variant", "m")
        assert code == 0
        assert "precision=dd" in out

    def test_env_rejects_unknown_mode(self, capsys, monkeypatch):
        monkeypatch.setenv("KUMMER_ASYM_PRECISION", "quad")
        code, _, err = run_cli(capsys, "eval", "--variant", "m")
        assert code == 1
        assert "error: DomainError" in err

    def test_pole_is_reported(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--variant", "m", "--b", "0")
        assert code == 1
        assert "error: PoleError" in err

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["eval", "--variant", "bogus"])
        assert excinfo.value.code == 2
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()


class TestVerify:
    def test_all_identities_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "4")
        assert code == 0
        for name in ("recursion-resubstitution", "lowered-recursion",
                     "shifted-equals-lowered", "normalizer-reciprocal",
                     "lowered-equals-iterated",
                     "odd-ratio-coefficients-vanish", "slope-bridge",
                     "origin-bridge"):
            assert f"{name}: PASS" in out
        assert out.count(": PASS") == 8
        assert "all identity checks passed" in out

    def test_every_identity_holds_at_nmax_16(self):
        results = list(verify_identities(16))
        assert len(results) == 8
        failed = [name for name, passed, _ in results if not passed]
        assert failed == []


class TestSweep:
    def test_csv_to_stdout(self, capsys):
        code, out, err = run_cli(capsys, "sweep", "--variant", "m", "--t",
                                 "10,20", "--order", "1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        # config echo and fitted slope go to stderr when CSV owns stdout
        assert "# config:" in err
        assert "# slope:" in err and "N=1" in err

    def test_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, err = run_cli(capsys, "sweep", "--variant", "m", "--t",
                                 "20", "--order", "2", "--out", str(target))
        assert code == 0
        assert "# config:" in out
        assert err == ""
        lines = target.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_row_contents(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--variant", "m", "--t", "20",
                               "--order", "3")
        assert code == 0
        header, row = csv.reader(io.StringIO(out))
        assert list(header) == list(CSV_COLUMNS)
        record = dict(zip(header, row))
        assert record["variant"] == "m"
        assert record["b_re"] == "1.5" and record["b_im"] == "0"
        assert record["N"] == "3"
        assert record["status"] == "ok"
        assert float(record["rel_discrepancy"]) < 1e-6

    def test_failed_rows_keep_status_and_empty_cells(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--variant", "u-capital",
                               "--b", "2", "--z-theta",
                               repr(2.5 * math.pi), "--t", "20")
        assert code == 0
        _, row = csv.reader(io.StringIO(out))
        assert row[8:13] == [""] * 5
        assert row[13] == "error:DomainError"

    def test_starved_order_rows_do_not_abort(self, capsys):
        # the tables hold 11 orders, so the N = 12 rows fail on their own
        code, out, err = run_cli(capsys, "sweep", "--variant", "m", "--order",
                                 "3,12", "--t", "10,20")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["N"], row["status"]) for row in rows] == [
            ("3", "ok"), ("3", "ok"),
            ("12", "error:OrderStarvationError"),
            ("12", "error:OrderStarvationError")]
        assert err.count("# slope:") == 1 and " N=3 " in err

    def test_overwound_rows_fail_on_their_own(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--variant", "m",
                               "--z-theta", "1e300")
        assert code == 0
        assert [row["status"] for row in csv.DictReader(io.StringIO(out))] == [
            "error:DomainError"]

    def test_unwritable_out_fails_before_the_sweep(self, capsys, monkeypatch,
                                                   tmp_path):
        calls = []
        # cmd_sweep looks decay_sweep up in expansion when it runs
        monkeypatch.setattr("kummer_asym.expansion.decay_sweep", calls.append)
        target = tmp_path / "missing" / "rows.csv"
        code, out, err = run_cli(capsys, "sweep", "--variant", "m",
                                 "--out", str(target))
        assert code == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: FileNotFoundError: ")
        assert calls == []

    def test_deterministic(self, capsys):
        args = ("sweep", "--variant", "u-lower", "--t", "10,20")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second


class TestEntryPoint:
    def test_clean_interpreter_run(self):
        # the child does not inherit pytest's pythonpath, so hand it src
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = [src, os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from kummer_asym.cli import main; "
             "sys.exit(main(sys.argv[1:]))", "coeffs", "--order", "1"],
            capture_output=True, text=True, timeout=120, env=env)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["A"][0] == [["1"]]


@pytest.mark.parametrize("argv", [
    ["temme", "--nmax", "-1"],
    ["temme", "--kmax", "0"],
    ["bernoulli", "--n", "-1", "--ell", "2-b", "--x", "1-b/2"],
    ["coeffs", "--order", "-2", "--variant", "ab"],
    ["verify", "--nmax", "-1"],
    ["verify", "--nmax", "two"],
])
def test_bad_order_argument_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "expected an integer >=" in capsys.readouterr().err


@pytest.mark.parametrize("option, value", [
    ("--t", "1,x"),
    ("--order", "x"),
    ("--order", "2.5"),
    ("--z-r", "one"),
    ("--z-theta", "0,pi"),
    ("--u-theta", ","),
])
def test_bad_sweep_list_is_a_usage_error(capsys, option, value):
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--variant", "m", option, value])
    assert excinfo.value.code == 2
    assert "expected a comma-separated list" in capsys.readouterr().err


@pytest.mark.parametrize("mode", ["double", "dd"])
@pytest.mark.parametrize("argv", [
    ["eval", "--variant", "m", "--b", "nan"],
    ["eval", "--variant", "u-capital", "--b", "inf"],
    ["oracle", "--fn", "m", "--a", "1", "--b", "2", "--x", "nan"],
    ["oracle", "--fn", "m", "--a", "nan", "--b", "2", "--x", "1"],
    ["oracle", "--fn", "k", "--nu", "nan", "--r", "1"],
    ["oracle", "--fn", "i", "--nu", "inf", "--r", "1"],
    ["oracle", "--fn", "u", "--a", "1", "--b", "nan", "--r", "1"],
    ["sweep", "--variant", "m", "--b", "nan,1.5"],
])
def test_non_finite_parameter_is_one_domain_error_line(capsys, monkeypatch,
                                                       mode, argv):
    monkeypatch.setenv("KUMMER_ASYM_PRECISION", mode)
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: DomainError: ")
    assert "Traceback" not in err


def test_out_of_range_sweep_order_is_a_domain_error(capsys):
    assert main(["sweep", "--variant", "m", "--order", "0"]) == 1
    assert "truncation order must be at least 1" in capsys.readouterr().err


def run_child(argv, timeout, **env_vars):
    """The CLI in a fresh interpreter, as test_clean_interpreter_run runs it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               **env_vars)
    return subprocess.run(
        [sys.executable, "-m", "kummer_asym.cli", *argv],
        capture_output=True, text=True, timeout=timeout, env=env)


@pytest.mark.parametrize("mode, argv", [
    # log-gamma's shift ran about 1e15 times
    ("double", ["eval", "--variant", "m", "--b=-1e15+0.5j", "--z-r", "1",
                "--t", "20"]),
    ("double", ["oracle", "--fn", "i", "--nu=-1e15+0.5j", "--r", "1"]),
    ("dd", ["oracle", "--fn", "i", "--nu=-1e15+0.5j", "--r", "1"]),
    # K's integer recurrence ran n times
    ("double", ["oracle", "--fn", "k", "--nu=3e9", "--r", "1"]),
    ("dd", ["oracle", "--fn", "k", "--nu=3e9", "--r", "1"]),
    ("double", ["oracle", "--fn", "k", "--nu=1e300", "--r", "1"]),
    # the reflection's log-gamma summed 1e5 logs to a phase 3.9e-7 off
    ("double", ["oracle", "--fn", "k", "--nu", "100000.5", "--r", "1"]),
    # the U saddle estimate squared |b| ~ 1e200 in native complex
    ("double", ["oracle", "--fn", "u", "--a", "1", "--b", "1e200", "--r", "1"]),
    ("dd", ["oracle", "--fn", "u", "--a", "1", "--b", "1e200", "--r", "1"]),
])
def test_huge_parameter_is_one_domain_error_line_in_time(mode, argv):
    proc = run_child(argv, timeout=20, KUMMER_ASYM_PRECISION=mode)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: DomainError: ")


def test_m_series_beyond_its_term_cap_fails_at_once():
    # a = t^2/4 + b/2 = 1.024e15 + 0.25 at x = 1: the terms grow until
    # n ~ 3e7, and 2 sqrt(|a x|) + 10 = 6.4e7 terms are needed, against a
    # cap of 20,000; both modes once summed all 20,000 terms before they
    # raised
    argv = ["eval", "--variant", "m", "--b", "0.5", "--z-r", "1",
            "--t", "6.4e7"]
    for mode in ("double", "dd"):
        proc = run_child(argv, timeout=20, KUMMER_ASYM_PRECISION=mode)
        assert proc.returncode == 1
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith(
            "error: PrecisionExhaustedError: M series needs at least 6.4e+07 "
            "terms")
        start = time.perf_counter()
        with pytest.raises(PrecisionExhaustedError):
            kummer_m_scaled(1.024e15 + 0.25, 0.5, 1.0, Precision.from_mode(mode))
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode", ["double", "dd"])
def test_quadrature_overflow_is_a_quadrature_error(capsys, monkeypatch, mode):
    # a sample beyond e^709 of the located peak raised OverflowError
    monkeypatch.setenv("KUMMER_ASYM_PRECISION", mode)
    code, _, err = run_cli(capsys, "oracle", "--fn", "u", "--a", "1e20",
                           "--b", "1", "--r", "1")
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("error: QuadratureError: ")


def test_double_mode_imports_no_mpmath():
    # setup_s times the double context cold: mpmath and the block
    # arithmetic load with the dd context only, and K's coefficient table
    # is built in floats
    code = "\n".join([
        "import math, sys",
        "from kummer_asym.cli import main",
        "from kummer_asym.expansion import VARIANTS, ExpansionConfig, decay_sweep",
        "from kummer_asym.special.types import Precision, RiemannPoint",
        "grid = [ExpansionConfig(variant=v, b=0.7, z=RiemannPoint(0.5, theta),",
        "                        t=10.0, u_theta=0.0, order=2,",
        "                        prec=Precision.double())",
        "        for v in VARIANTS for theta in (0.0, 2.5 * math.pi)]",
        "decay_sweep(grid)",
        "main(['oracle', '--fn', 'k', '--nu', '0.3', '--r', '1'])",
        "print(sorted(m for m in ('mpmath', 'kummer_asym.special.blockfloat')",
        "             if m in sys.modules))",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("KUMMER_ASYM_PRECISION", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "value_value=" in proc.stdout
    assert proc.stdout.splitlines()[-1] == "[]"


def test_exact_commands_load_no_numeric_module():
    # exact-tables times each request from the cold import: an exact
    # command loads no kernel, and the numeric commands import theirs on
    # first use in the same process
    code = "\n".join([
        "import contextlib, io, sys",
        "from kummer_asym.cli import main",
        "exact = [['coeffs', '--order', '4', '--variant', 'ab'],",
        "         ['temme', '--nmax', '3'], ['verify', '--nmax', '2'],",
        "         ['bernoulli', '--n', '2', '--ell', '2-b', '--x', '1-b/2']]",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    codes = [main(argv) for argv in exact]",
        "print(codes, sorted(m for m in sys.modules if m in",
        "      ('csv', 'kummer_asym.expansion', 'kummer_asym.special')",
        "      or m.startswith('kummer_asym.special.')))",
        "main(['oracle', '--fn', 'u', '--a', '2', '--b', '1.5', '--r', '1'])",
        "main(['eval', '--variant', 'm'])",
        "main(['sweep', '--variant', 'm'])",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("KUMMER_ASYM_PRECISION", None)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "[0, 0, 0, 0] []"
    assert any(line.startswith("value_value=") for line in lines)
    assert any(line.startswith("rel_discrepancy=") for line in lines)
    header = lines.index(",".join(CSV_COLUMNS))
    assert lines[header + 1].startswith("m,1.5,0,1,0,20,0,3,")
    assert lines[header + 1].endswith(",ok")
    assert len(lines) == header + 2


def test_exact_request_loads_only_what_it_runs():
    # without site (-S), nothing but the request itself imports these:
    # no exact module needs dataclasses (and the inspect it pulls in) or
    # typing, and only JSON output loads json
    code = "\n".join([
        "import contextlib, io, sys",
        "from kummer_asym.cli import main",
        "heavy = ('dataclasses', 'inspect', 'json', 'typing')",
        "with contextlib.redirect_stdout(io.StringIO()):",
        "    code = main(['verify', '--nmax', '2'])",
        "print(code, [m for m in heavy if m in sys.modules])",
        "with contextlib.redirect_stdout(io.StringIO()) as out:",
        "    code = main(['coeffs', '--order', '2'])",
        "print(code, [m for m in heavy if m in sys.modules], out.getvalue()[:1])",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("KUMMER_ASYM_PRECISION", None)
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["0 []", "0 ['json'] {"]


@pytest.mark.parametrize("flags, mode, heavy", [
    (["-S"], "double", ("dataclasses", "inspect", "typing")),
    # site's own hooks may load typing, and dd's mpmath needs site
    ([], "dd", ("dataclasses", "inspect")),
], ids=["double-without-site", "dd-with-site"])
def test_numeric_row_loads_no_dataclasses(flags, mode, heavy):
    # every numeric command and sweep setup starts cold: the records are
    # plain __slots__ classes, so the numeric path imports neither
    # dataclasses nor the inspect it pulls in, nor typing
    code = "\n".join([
        "import sys",
        "from kummer_asym.expansion import (ExpansionConfig, evaluate_sides,",
        "                                   expansion_tables)",
        "from kummer_asym.special.types import Precision, RiemannPoint",
        "expansion_tables()",
        "row = evaluate_sides(ExpansionConfig('m', 1.5, RiemannPoint(1.0, 0.0),",
        f"                                    20.0, prec=Precision({mode!r})))",
        f"print(row.rel_discrepancy > 0, [m for m in {heavy!r} if m in sys.modules])",
    ])
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("KUMMER_ASYM_PRECISION", None)
    proc = subprocess.run([sys.executable, *flags, "-c", code],
                          capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["True []"]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 1: the u-lower row at t = 40 reads "
                          "ok with rel_discrepancy 4.6e11, the U connection's "
                          "error (FOUND 38) unflagged")
def test_no_ok_sweep_row_is_wholly_wrong(capsys, monkeypatch):
    monkeypatch.setenv("KUMMER_ASYM_PRECISION", "double")
    code, out, _ = run_cli(capsys, "sweep", "--variant", "u-lower", "--b",
                           "1.5", "--z-r", "1", "--z-theta", "0.9", "--t",
                           "10,20,40", "--order", "3")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    assert all(float(row["rel_discrepancy"]) <= 1 for row in rows
               if row["status"] == "ok")
