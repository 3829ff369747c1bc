"""Golden outputs: CLI stdout and stderr, byte for byte.

Each case runs the CLI through `main(argv)` with KUMMER_ASYM_PRECISION set,
and compares exit code, stdout and stderr against a file recorded under
tests/data/golden/.  The numeric cases cover `eval` for all three variants
at a wound z (arg z = 3.5, past a half turn) in double and dd, and sweeps
whose grid includes arg z = 5*pi/2 and the integer b = 2.0, so the
error-status rows are pinned too.  The exact cases pin `coeffs` (raw and
lowered families, JSON and text, and the b renaming), `temme`, `bernoulli`
and `verify`, whose output involves no floating point; `coeffs`, `temme`
and `verify` also at order 0, where no entry mentions the parameter, and at
order 20 (`verify` by its file, the 440 KB JSON of `coeffs` and `temme` by
the SHA-256 of stdout).  The acceptance sweeps of all three variants, in
double and in dd, are pinned by the SHA-256 of stdout as well.  The oracle
cases reach each kernel route directly, in both modes: I by CF1 and the
Wronskian with K's pair, at |x| = 2 and 25 (and on a wound sheet); K by
Temme's series, by CF2 and the upward recurrence (at |x| = 3 and 25), and
by winding (at a fractional and an integer order); the M series; and U by
the integral, the connection formula and the monodromy (one whole turn
either way).

The double rows and the double sweep digests pin this platform's libm as
well as the package: a different `exp`, `log` or `atan2` rounding can
change the last printed digits without any change in the code.  Re-record with

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path
from unittest import mock

import pytest

from kummer_asym.cli import main
from kummer_asym.special.types import PRECISION_ENV_VAR

GOLDEN = Path(__file__).parent / "data" / "golden"

_WOUND = ["--b", "0.7", "--z-r", "1", "--z-theta", "3.5", "--t", "20",
          "--u-theta", "0.3", "--order", "3"]
_GRID_DOUBLE = ["--b", "0.7,2.0", "--z-r", "1",
                "--z-theta", "0,3.5,7.853981633974483", "--t", "10,40",
                "--u-theta", "0,0.3", "--order", "1,3"]
_GRID_DD = ["--b", "1.5", "--z-r", "1", "--z-theta", "0,7.853981633974483",
            "--t", "10,20", "--order", "2"]
_ORACLE = {
    # i-series and i-asym keep the names of the routes they were recorded
    # for; both now reach CF1 and the Wronskian, with Temme's series and
    # with CF2 for K's pair.
    "i-series": ["--fn", "i", "--nu", "0.3", "--r", "2", "--theta", "0.4"],
    "i-asym": ["--fn", "i", "--nu", "0.3+0.2j", "--r", "25", "--theta", "0.2"],
    "i-wound": ["--fn", "i", "--nu", "1.3", "--r", "3", "--theta", "2.5"],
    # k-reflection, k-integer and k-asym keep the names of the routes they
    # were recorded for; they now reach Temme's series, CF2 and CF2.
    "k-reflection": ["--fn", "k", "--nu", "0.3", "--r", "2", "--theta", "0.5"],
    "k-integer": ["--fn", "k", "--nu", "2", "--r", "3", "--theta", "0.4"],
    "k-asym": ["--fn", "k", "--nu", "0.7", "--r", "25", "--theta", "-0.3"],
    "k-wound": ["--fn", "k", "--nu", "0.3", "--r", "2", "--theta", "4"],
    "k-integer-wound": ["--fn", "k", "--nu", "1", "--r", "1.5", "--theta", "-3.5"],
    "m-series": ["--fn", "m", "--a", "1.3", "--b", "0.7", "--x", "2+1j"],
    "u-integral": ["--fn", "u", "--a", "1.5", "--b", "0.7", "--r", "3",
                   "--theta", "0.5"],
    "u-connection": ["--fn", "u", "--a", "1.5", "--b", "0.7", "--r", "2",
                     "--theta", "2.5"],
    "u-monodromy-up": ["--fn", "u", "--a", "1.5", "--b", "0.7", "--r", "2",
                       "--theta", "7"],
    "u-monodromy-down": ["--fn", "u", "--a", "2+1j", "--b", "0.7", "--r", "2",
                         "--theta", "-8"],
}

CASES = {}
for _variant in ("m", "u-capital", "u-lower"):
    for _mode in ("double", "dd"):
        CASES[f"eval-{_variant}-{_mode}"] = (
            _mode, ["eval", "--variant", _variant, *_WOUND])
    CASES[f"sweep-{_variant}-double"] = (
        "double", ["sweep", "--variant", _variant, *_GRID_DOUBLE])
    CASES[f"sweep-{_variant}-dd"] = (
        "dd", ["sweep", "--variant", _variant, *_GRID_DD])
for _variant, _family in (("AB", "raw"), ("ab", "lowered")):
    for _fmt in ("json", "text"):
        CASES[f"coeffs-{_family}-12-{_fmt}"] = (
            "double", ["coeffs", "--order", "12", "--variant", _variant,
                       "--format", _fmt])
CASES["coeffs-lowered-3-b-text"] = (
    "double", ["coeffs", "--order", "3", "--variant", "ab", "--param", "b",
               "--format", "text"])
CASES["temme-12-text"] = ("double", ["temme", "--nmax", "12", "--format", "text"])
CASES["bernoulli-6"] = (
    "double", ["bernoulli", "--n", "6", "--ell", "2-b", "--x", "1-b/2"])
CASES["verify-8"] = ("double", ["verify", "--nmax", "8"])
CASES["verify-0"] = ("double", ["verify", "--nmax", "0"])
CASES["verify-20"] = ("double", ["verify", "--nmax", "20"])
CASES["coeffs-raw-0-text"] = (
    "double", ["coeffs", "--order", "0", "--format", "text"])
CASES["temme-0-text"] = ("double", ["temme", "--nmax", "0", "--format", "text"])
for _route, _argv in _ORACLE.items():
    for _mode in ("double", "dd"):
        CASES[f"oracle-{_route}-{_mode}"] = (_mode, ["oracle", *_argv])

DIGESTS = {
    "coeffs-raw-20-json": (
        "double", ["coeffs", "--order", "20", "--variant", "AB"],
        "931fad9c3cada0d8ea73c0b7214ca9d367e339d697bc37b9ded83a62c3302036"),
    "coeffs-lowered-20-json": (
        "double", ["coeffs", "--order", "20", "--variant", "ab"],
        "4177f365ee70a9539ba998be447daa7a5ac1920f4c2bd2f6aba1d33a46494ff9"),
    "temme-20-json": (
        "double", ["temme", "--nmax", "20"],
        "3e4fed4f2687a9433f97dd5a10d13e54f3345ac47e991da54af10a76b28e4d18"),
    # the double acceptance sweeps read libm, as the double golden rows do
    "sweep-acceptance-m-double": (
        "double", ["sweep", "--preset", "acceptance", "--variant", "m"],
        "8de9574bc55b3d180242fec93597380b479f20a63be960ce56efbe9e2a62a6d7"),
    "sweep-acceptance-u-capital-double": (
        "double", ["sweep", "--preset", "acceptance", "--variant", "u-capital"],
        "504849614cf1b0e2b25db203b7cd795a02412b5550e59d110f79c70ff63f1be8"),
    "sweep-acceptance-u-lower-double": (
        "double", ["sweep", "--preset", "acceptance", "--variant", "u-lower"],
        "fd69c36dc875c0d72e12f1cab9c423e213dafa8d3af4d70d84a03775142fbaf4"),
    # the dd acceptance sweeps read no libm, so they are pinned everywhere
    "sweep-acceptance-m-dd": (
        "dd", ["sweep", "--preset", "acceptance", "--variant", "m"],
        "df581ab01f0f729b09a77df79e12548f478c8483bce775584ecea2f1fbce681f"),
    "sweep-acceptance-u-capital-dd": (
        "dd", ["sweep", "--preset", "acceptance", "--variant", "u-capital"],
        "c8484a18c4109e8b0eb57cc1ad95b9e694d3c45e84fe5a077970e52479a0f8e1"),
    "sweep-acceptance-u-lower-dd": (
        "dd", ["sweep", "--preset", "acceptance", "--variant", "u-lower"],
        "3b864f70e8c0692879b8260fdae1643df0568a25f87bc305ca818877b7095377"),
}


def run_case(name: str) -> str:
    """Exit code, stdout and stderr of one case as a single text."""
    mode, argv = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {PRECISION_ENV_VAR: mode}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return f"{out.getvalue()}# stderr\n{err.getvalue()}# exit {code}\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden(name):
    want = (GOLDEN / f"{name}.txt").read_bytes()
    assert run_case(name).encode() == want


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_golden_digest(name):
    mode, argv, want = DIGESTS[name]
    out = io.StringIO()
    with mock.patch.dict(os.environ, {PRECISION_ENV_VAR: mode}), \
            contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(list(argv)) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == want


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for case in sorted(CASES):
        (GOLDEN / f"{case}.txt").write_bytes(run_case(case).encode())
        print(f"recorded {case}", file=sys.stderr)
