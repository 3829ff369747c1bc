"""Command-line interface: coefficient dumps, oracles, verification, sweeps.

Exit codes: 0 success, 1 domain, precision or file failure (one-line
diagnostic on stderr), 2 usage errors.  Output is deterministic: fixed key
order, floats at 17 significant digits.  KUMMER_ASYM_PRECISION=double|dd
overrides the default precision mode (double for single evaluations, dd for
the acceptance sweep preset).  Only oracle, eval and sweep load the numeric
layer (expansion, special.*), when they run, and only JSON output loads
json.
"""

from __future__ import annotations

import argparse
import contextlib
import re
import sys
from fractions import Fraction

from . import VARIANTS
from .errors import DomainError, ExactnessError
from .olver import (compute_coefficient_table, lower_coefficients,
                    normalizer_series, satisfies_recursion, shift_basis)
from .ratpoly import CoeffPoly, ParamPoly, TruncSeries
from .temme import gamma_ratio_coefficients, generalized_bernoulli, temme_base_series, temme_iterate

CSV_COLUMNS = ("variant", "b_re", "b_im", "z_r", "z_theta", "t", "u_theta",
               "N", "lhs_logmag", "lhs_phase", "rhs_logmag", "rhs_phase",
               "rel_discrepancy", "status")


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_complex(w: complex) -> str:
    w = complex(w)
    if w.imag == 0.0:
        return _fmt(w.real)
    return f"{_fmt(w.real)}{'+' if w.imag >= 0 else '-'}{_fmt(abs(w.imag))}j"


def _parse_complex(text: str) -> complex:
    try:
        return complex(text.replace(" ", ""))
    except ValueError:
        raise DomainError(f"cannot parse complex number from {text!r}")


_LINEAR_TERM = re.compile(r"^([+-]?)(?:(\d+(?:/\d+)?)\*)?b(?:/(\d+))?$")


def parse_linear_in_b(expr: str) -> ParamPoly:
    """Parse expressions like '2-b', 'b/2', '1-b/2', '3/4+2*b' into a
    degree-one polynomial in b.  No parentheses; constants must be exact
    rationals."""
    text = expr.replace(" ", "")
    if not text:
        raise DomainError("empty expression")
    pieces = re.findall(r"[+-]?[^+-]+", text)
    if "".join(pieces) != text:
        raise DomainError(f"cannot parse {expr!r}")
    const = Fraction(0)
    slope = Fraction(0)
    for piece in pieces:
        m = _LINEAR_TERM.match(piece)
        if m:
            sign = -1 if m.group(1) == "-" else 1
            coeff = Fraction(m.group(2)) if m.group(2) else Fraction(1)
            if m.group(3):
                coeff /= int(m.group(3))
            slope += sign * coeff
        else:
            try:
                const += Fraction(piece)
            except ValueError:
                raise DomainError(f"cannot parse term {piece!r} in {expr!r}")
    return ParamPoly("b", (const, slope))


def _echo(args_pairs, stream) -> None:
    parts = " ".join(f"{k}={v}" for k, v in args_pairs)
    print(f"# config: {parts}", file=stream)


def _print_logcomplex(label: str, value, stream) -> None:
    print(f"{label}_logmag={_fmt(value.logmag)} {label}_phase={_fmt(value.phase)}",
          file=stream)
    if not value.is_zero and abs(value.logmag) < 700.0:
        print(f"{label}_value={_fmt_complex(value.to_complex())}", file=stream)


def _emit_families(config, families, fmt: str) -> None:
    """Print (name, family) pairs as one JSON document, or as the config
    echo followed by one `name[index] = polynomial` line per entry."""
    if fmt == "json":
        import json

        payload = {"config": dict(config)}
        for name, family in families:
            payload[name] = [p.to_json() for p in family]
        print(json.dumps(payload, indent=2))
    else:
        _echo(config, sys.stdout)
        for name, family in families:
            for s, poly in enumerate(family):
                print(f"{name}[{s}] = {poly}")


def cmd_coeffs(args) -> int:
    table = compute_coefficient_table(
        CoeffPoly.monomial(2), order=args.order, param=args.param)
    if args.variant == "ab":
        table = lower_coefficients(table)
    # the variant spells the names of its two families
    families = tuple(zip(args.variant, (table.even, table.odd)))
    config = [("subcommand", "coeffs"), ("f", args.f), ("order", args.order),
              ("variant", args.variant), ("param", args.param),
              ("format", args.format)]
    _emit_families(config, families, args.format)
    return 0


def cmd_temme(args) -> int:
    table = temme_iterate(temme_base_series(2 * args.nmax + 1), args.nmax)
    d, dtilde = gamma_ratio_coefficients(args.nmax)
    # --kmax shapes no output; the recorded temme outputs pin its echo
    config = [("subcommand", "temme"), ("nmax", args.nmax),
              ("kmax", args.kmax), ("format", args.format)]
    _emit_families(config, (("a", table.even), ("b", table.odd),
                            ("d", d), ("dtilde", dtilde)), args.format)
    return 0


def cmd_bernoulli(args) -> int:
    ell = parse_linear_in_b(args.ell)
    x = parse_linear_in_b(args.x)
    values = generalized_bernoulli(args.n, ell, x)
    config = [("subcommand", "bernoulli"), ("n", args.n),
              ("ell", args.ell), ("x", args.x), ("format", args.format)]
    _emit_families(config, (("B", values),), args.format)
    return 0


def cmd_oracle(args) -> int:
    from .special.bessel import bessel_i, bessel_k
    from .special.kummer import kummer_m, kummer_u
    from .special.types import Precision, RiemannPoint

    prec = Precision.from_env(default="double")
    config = [("subcommand", "oracle"), ("fn", args.fn),
              ("precision", prec.mode)]
    if args.fn in ("i", "k"):
        if args.nu is None or args.r is None:
            raise DomainError("oracle --fn i|k needs --nu and --r")
        nu = _parse_complex(args.nu)
        point = RiemannPoint(args.r, args.theta)
        config += [("nu", _fmt_complex(nu)), ("r", _fmt(args.r)),
                   ("theta", _fmt(args.theta))]
        fn = bessel_i if args.fn == "i" else bessel_k
        _echo(config, sys.stdout)
        _print_logcomplex("value", fn(nu, point, prec), sys.stdout)
    elif args.fn == "m":
        if args.a is None or args.b is None or args.x is None:
            raise DomainError("oracle --fn m needs --a, --b and --x")
        a, b, x = (_parse_complex(args.a), _parse_complex(args.b),
                   _parse_complex(args.x))
        config += [("a", _fmt_complex(a)), ("b", _fmt_complex(b)),
                   ("x", _fmt_complex(x))]
        _echo(config, sys.stdout)
        _print_logcomplex("value", kummer_m(a, b, x, prec), sys.stdout)
    else:
        if args.a is None or args.b is None or args.r is None:
            raise DomainError("oracle --fn u needs --a, --b and --r")
        a, b = _parse_complex(args.a), _parse_complex(args.b)
        point = RiemannPoint(args.r, args.theta)
        config += [("a", _fmt_complex(a)), ("b", _fmt_complex(b)),
                   ("r", _fmt(args.r)), ("theta", _fmt(args.theta))]
        _echo(config, sys.stdout)
        _print_logcomplex("value", kummer_u(a, b, point, prec), sys.stdout)
    return 0


def cmd_eval(args) -> int:
    from .expansion import ExpansionConfig, evaluate_sides
    from .special.types import Precision, RiemannPoint

    prec = Precision.from_env(default="double")
    cfg = ExpansionConfig(variant=args.variant, b=_parse_complex(args.b),
                          z=RiemannPoint(args.z_r, args.z_theta),
                          t=args.t, u_theta=args.u_theta,
                          order=args.order, prec=prec)
    config = [("subcommand", "eval"), ("variant", cfg.variant),
              ("b", _fmt_complex(cfg.b)), ("z_r", _fmt(cfg.z.r)),
              ("z_theta", _fmt(cfg.z.theta)), ("t", _fmt(cfg.t)),
              ("u_theta", _fmt(cfg.u_theta)), ("N", cfg.order),
              ("precision", prec.mode)]
    _echo(config, sys.stdout)
    result = evaluate_sides(cfg)
    _print_logcomplex("lhs", result.lhs, sys.stdout)
    _print_logcomplex("rhs", result.rhs, sys.stdout)
    print(f"rel_discrepancy={_fmt(result.rel_discrepancy)}")
    return 0


def verify_identities(nmax: int):
    """Exact identity suite over the coefficient modules; yields
    (identity-name, passed, note).

    `verify` prints it, and acceptance criteria 1-4 are its results at
    nmax = 8.
    """
    table = compute_coefficient_table(CoeffPoly.monomial(2), order=nmax, param="mu")
    lowered = lower_coefficients(table)

    yield ("recursion-resubstitution", satisfies_recursion(table),
           f"s<={nmax}, exact")
    yield ("lowered-recursion", satisfies_recursion(lowered),
           f"s<={nmax}, exact")

    norm_plus = normalizer_series(table)
    norm_minus = normalizer_series(table, sign=-1)
    # the shift seeds 2*mu*odd[s-1]'(-mu, 0) are the reflected normalizer
    seeds = tuple(c.coefficient(0) for c in norm_minus.coeffs)
    yield ("shifted-equals-lowered", shift_basis(table, seeds) == lowered,
           f"s<={nmax}, exact")

    product = norm_plus * norm_minus
    unit = TruncSeries.one(product.var, product.order)
    yield ("normalizer-reciprocal",
           product == unit and product.order == table.order + 1,
           f"through u^-{2 * (table.order + 1)}, exact")

    diag = temme_iterate(temme_base_series(2 * nmax + 1), nmax)
    image = ParamPoly("b", (-1, 1))  # mu -> b - 1

    def in_b(family):
        return tuple(p.substitute_param(image) for p in family)

    yield ("lowered-equals-iterated",
           (in_b(lowered.even), in_b(lowered.odd)) == (diag.even, diag.odd),
           f"n<={nmax}, exact")

    d, dtilde = gamma_ratio_coefficients(nmax + 1)
    yield ("odd-ratio-coefficients-vanish",
           all(d[n].is_zero() for n in range(1, nmax + 2, 2)),
           f"odd n<={nmax + 1}, exact")

    one_minus_b = ParamPoly("b", (1, -1))
    half = Fraction(1, 2)
    slope_ok = all(
        table.odd[n].coefficient(1).compose(image) * one_minus_b
        == d[n + 1] * half for n in range(nmax + 1))
    yield ("slope-bridge", slope_ok, f"n<={nmax}, exact")

    origin_ok = all(
        lowered.even[n].coefficient(0).compose(image) == dtilde[n]
        for n in range(nmax + 1))
    yield ("origin-bridge", origin_ok, f"n<={nmax}, exact")


def cmd_verify(args) -> int:
    _echo([("subcommand", "verify"), ("nmax", args.nmax)], sys.stdout)
    failures = 0
    for name, passed, note in verify_identities(args.nmax):
        status = "PASS" if passed else "FAIL"
        print(f"{name}: {status} ({note})")
        if not passed:
            failures += 1
    if failures:
        print(f"{failures} identity check(s) failed")
        return 1
    print("all identity checks passed")
    return 0


def _csv_row(row) -> list:
    cfg = row.config
    b = complex(cfg.b)
    cells = [cfg.variant, _fmt(b.real), _fmt(b.imag), _fmt(cfg.z.r),
             _fmt(cfg.z.theta), _fmt(cfg.t), _fmt(cfg.u_theta),
             str(cfg.order)]
    if row.result is not None:
        res = row.result
        cells += [_fmt(res.lhs.logmag), _fmt(res.lhs.phase),
                  _fmt(res.rhs.logmag), _fmt(res.rhs.phase),
                  _fmt(res.rel_discrepancy)]
    else:
        cells += ["", "", "", "", ""]
    cells.append(row.status)
    return cells


def cmd_sweep(args) -> int:
    import csv

    from .expansion import acceptance_grid, decay_sweep, product_grid
    from .special.types import Precision

    if args.preset == "acceptance":
        prec = Precision.from_env(default="dd")
        grid = acceptance_grid(args.variant, prec)
    else:
        prec = Precision.from_env(default="double")
        grid = product_grid(
            args.variant, prec, [_parse_complex(v) for v in args.b.split(",")],
            args.z_r, args.z_theta, args.u_theta, args.order, args.t)
    # --out is opened before the sweep runs, so a bad path costs nothing
    with (open(args.out, "w", newline="") if args.out
          else contextlib.nullcontext(sys.stdout)) as csv_handle:
        result = decay_sweep(grid)
        echo_stream = sys.stdout if args.out else sys.stderr
        _echo([("subcommand", "sweep"), ("variant", args.variant),
               ("preset", args.preset or "none"), ("rows", len(result.rows)),
               ("precision", prec.mode), ("out", args.out or "stdout")],
              echo_stream)
        writer = csv.writer(csv_handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in result.rows:
            writer.writerow(_csv_row(row))
        for key, slope in result.slopes.items():
            variant, b, z_r, z_theta, u_theta, order = key
            print(f"# slope: variant={variant} b={_fmt_complex(b)} "
                  f"z_r={_fmt(z_r)} z_theta={_fmt(z_theta)} "
                  f"u_theta={_fmt(u_theta)} N={order} "
                  f"fitted={_fmt(slope)}", file=echo_stream)
    return 0


def _at_least(low: int):
    """argparse type: an integer no smaller than `low`."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {low}, got {text!r}")
        return value
    return parse


def _comma_list(item):
    """argparse type: a non-empty comma-separated list of `item` values."""
    def parse(text: str) -> list:
        try:
            values = [item(v) for v in text.split(",") if v]
        except ValueError:
            values = None
        if not values:
            raise argparse.ArgumentTypeError(
                f"expected a comma-separated list of {item.__name__}, got {text!r}")
        return values
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kummer-asym",
        description="Exact expansion coefficients and numeric verification "
                    "for large-parameter Kummer asymptotics.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("coeffs", help="dump coefficient polynomial families")
    p.add_argument("--f", choices=("z2",), default="z2",
                   help="perturbation polynomial (only z^2 is wired up)")
    p.add_argument("--order", type=_at_least(0), default=3)
    p.add_argument("--variant", choices=("AB", "ab"), default="AB")
    p.add_argument("--param", choices=("mu", "b"), default="mu",
                   help="name used for the formal parameter")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("temme", help="dump iterated diagonal families in b")
    p.add_argument("--nmax", type=_at_least(0), default=8)
    p.add_argument("--kmax", type=_at_least(1), default=2)
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_temme)

    p = sub.add_parser("bernoulli",
                       help="generalized Bernoulli polynomials B_n^(ell)(x)")
    p.add_argument("--n", type=_at_least(0), required=True)
    p.add_argument("--ell", required=True,
                   help="linear expression in b, e.g. '2-b'")
    p.add_argument("--x", required=True,
                   help="linear expression in b, e.g. '1-b/2'")
    p.add_argument("--format", choices=("json", "text"), default="json")
    p.set_defaults(func=cmd_bernoulli)

    p = sub.add_parser("oracle", help="evaluate one numeric kernel")
    p.add_argument("--fn", choices=("i", "k", "m", "u"), required=True)
    p.add_argument("--nu", help="order for i|k (complex literal)")
    p.add_argument("--a", help="first parameter for m|u")
    p.add_argument("--b", help="second parameter for m|u")
    p.add_argument("--x", help="argument for m (complex literal)")
    p.add_argument("--r", type=float, help="surface modulus for i|k|u")
    p.add_argument("--theta", type=float, default=0.0,
                   help="surface angle for i|k|u")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("eval", help="evaluate one expansion side-by-side")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--b", default="1.5")
    p.add_argument("--z-r", type=float, default=1.0, dest="z_r")
    p.add_argument("--z-theta", type=float, default=0.0, dest="z_theta")
    p.add_argument("--t", type=float, default=20.0)
    p.add_argument("--u-theta", type=float, default=0.0, dest="u_theta")
    p.add_argument("--order", "-N", type=int, default=3)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("verify", help="run the exact identity suite")
    p.add_argument("--nmax", type=_at_least(0), default=8)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sweep", help="evaluate a grid and emit CSV")
    p.add_argument("--variant", choices=VARIANTS, required=True)
    p.add_argument("--preset", choices=("acceptance",))
    floats, ints = _comma_list(float), _comma_list(int)
    p.add_argument("--b", default="1.5", help="comma-separated b values")
    p.add_argument("--z-r", dest="z_r", type=floats, default="1",
                   help="comma-separated moduli")
    p.add_argument("--z-theta", dest="z_theta", type=floats, default="0",
                   help="comma-separated angles")
    p.add_argument("--t", type=floats, default="20",
                   help="comma-separated u magnitudes")
    p.add_argument("--u-theta", dest="u_theta", type=floats, default="0",
                   help="comma-separated u angles")
    p.add_argument("--order", type=ints, default="3",
                   help="comma-separated truncation orders")
    p.add_argument("--out", help="CSV file path (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ExactnessError, ArithmeticError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
