"""End-to-end expansion evaluation: discrepancies, decay rates, sweeps."""

import contextlib
import copy
import gc
import math
import pickle
from collections import Counter

import mpmath
import pytest

from kummer_asym import expansion
from kummer_asym.errors import DomainError, PoleError
from kummer_asym.expansion import (ExpansionConfig, SideBySide, SweepResult,
                                   SweepRow, VARIANTS, acceptance_grid,
                                   decay_sweep, evaluate_sides,
                                   sweep_group_key)
from kummer_asym.special import bessel, gammafn, types
from kummer_asym.special.types import (LogComplex, Precision, RiemannPoint,
                                       exact_key, shared)
from support import gamma_ratio_discrepancy, ratio_deviation


KERNELS = ("kummer_u_scaled", "kummer_m_scaled", "bessel_k_scaled",
           "bessel_i_scaled")


def cfg(variant, b=1.5, z=(1.0, 0.0), t=20.0, u_theta=0.0, order=3, prec=None):
    return ExpansionConfig(variant=variant, b=b, z=RiemannPoint(*z), t=t,
                           u_theta=u_theta, order=order,
                           prec=prec or Precision.dd())


def quotient(a, b):
    """a / b of two nonzero LogComplex values."""
    return LogComplex(a.logmag - b.logmag, a.phase - b.phase)


class TestConfigValidation:
    def test_variant_and_order(self):
        with pytest.raises(DomainError):
            cfg("bogus")
        with pytest.raises(DomainError):
            cfg("m", order=0)
        with pytest.raises(DomainError):
            cfg("m", t=-3.0)

    def test_first_kind_pole(self):
        with pytest.raises(PoleError):
            cfg("m", b=0.0)
        with pytest.raises(PoleError):
            cfg("m", b=-2.0)
        cfg("u-capital", b=0.0)  # second kind tolerates the M poles

    def test_second_kind_u_angle(self):
        with pytest.raises(DomainError):
            cfg("u-capital", u_theta=1.6)
        with pytest.raises(DomainError):
            cfg("u-lower", u_theta=-math.pi / 2)
        cfg("m", u_theta=1.6)

    def test_side_by_side_rejects_nan(self):
        one = LogComplex(0.0, 0.0)
        with pytest.raises(DomainError):
            SideBySide(one, one, math.nan)

    def test_fields_of_the_wrong_type_are_refused(self):
        # each passed validation once and stopped decay_sweep, which never
        # aborts on a bad row, with an untyped TypeError or AttributeError
        point = RiemannPoint(1.0, 0.0)
        for bad in ({"order": 2.0}, {"order": 2.5}, {"order": "3"},
                    {"prec": "double"}, {"prec": None},
                    {"z": (1.0, 0.0)}, {"z": 1.0}):
            fields = {"variant": "m", "b": 1.5, "z": point, "t": 20.0, **bad}
            with pytest.raises(DomainError):
                ExpansionConfig(**fields)


def records():
    """One instance of each of the seven records, in dependency order."""
    point = RiemannPoint(1.0, -0.0)
    config = ExpansionConfig("m", 1.5, point, 20.0)
    one = LogComplex(0.0, 1.0)
    sides = SideBySide(one, LogComplex.zero(), 0.25)
    row = SweepRow(config, sides, "ok")
    return {"precision": Precision(), "point": point, "log": one,
            "config": config, "sides": sides, "row": row,
            "result": SweepResult((row,), {("m", 1.5): -2.0})}


class TestRecords:
    """The value records keep the behaviour of frozen dataclasses."""

    def test_construction(self):
        point = RiemannPoint(2.0, 0.5)
        assert point == RiemannPoint(r=2.0, theta=0.5)
        assert (point.r, point.theta) == (2.0, 0.5)
        assert LogComplex(1.0, 2.0) == LogComplex(logmag=1.0, phase=2.0)
        assert Precision().mode == "double"
        assert Precision("dd") == Precision(mode="dd") == Precision.dd()
        full = ExpansionConfig("u-lower", 0.7, point, 10.0, 0.3, 2,
                               Precision.double())
        assert full == ExpansionConfig(
            variant="u-lower", b=0.7, z=point, t=10.0, u_theta=0.3, order=2,
            prec=Precision.double())
        assert (full.variant, full.b, full.z, full.t, full.u_theta,
                full.order, full.prec.mode) == (
            "u-lower", 0.7, point, 10.0, 0.3, 2, "double")
        short = ExpansionConfig("m", 1.5, point, 20.0)
        assert (short.u_theta, short.order, short.prec) == (
            0.0, 3, Precision("dd"))
        one = LogComplex(0.0, 0.0)
        sides = SideBySide(lhs=one, rhs=one, rel_discrepancy=0.5)
        assert sides == SideBySide(one, one, 0.5)
        assert (sides.lhs, sides.rhs, sides.rel_discrepancy) == (one, one, 0.5)
        row = SweepRow(config=short, result=None, status="error:DomainError")
        assert (row.config, row.result, row.status) == (
            short, None, "error:DomainError")
        assert SweepRow(short, None, "ok") == SweepRow(short, None, "ok")
        result = SweepResult(rows=(row,), slopes={})
        assert (result.rows, result.slopes) == ((row,), {})
        with pytest.raises(TypeError):
            RiemannPoint(1.0)
        with pytest.raises(TypeError):
            ExpansionConfig("m", 1.5, point)
        with pytest.raises(TypeError):
            Precision("dd", "double")

    def test_validation(self):
        with pytest.raises(DomainError):
            Precision("quad")
        for r, theta in ((0.0, 0.0), (-1.0, 0.0), (math.inf, 0.0),
                         (math.nan, 0.0), (1.0, math.inf), (1.0, math.nan)):
            with pytest.raises(DomainError):
                RiemannPoint(r, theta)
        for logmag, phase in ((math.inf, 0.0), (math.nan, 0.0),
                              (0.0, math.inf), (0.0, math.nan),
                              (-math.inf, 1.0)):
            with pytest.raises(DomainError):
                LogComplex(logmag, phase)
        assert LogComplex(-math.inf, 0.0).is_zero
        for bad in ({"variant": "bogus"}, {"order": 0}, {"t": 0.0},
                    {"t": math.inf}, {"u_theta": math.nan},
                    {"b": complex(math.inf, 0.0)}, {"b": math.nan},
                    {"variant": "u-capital", "u_theta": math.pi / 2}):
            with pytest.raises(DomainError):
                cfg(**{"variant": "m", **bad})
        with pytest.raises(PoleError):
            cfg("m", b=-1.0)
        one = LogComplex(0.0, 0.0)
        with pytest.raises(DomainError):
            SideBySide(one, one, math.nan)

    def test_equality_and_hash(self):
        made, again = records(), records()
        for name, record in made.items():
            assert record == again[name] and not record != again[name]
            if name == "result":  # a dict field: unhashable, as its tuple
                with pytest.raises(TypeError):
                    hash(record)
            else:
                assert hash(record) == hash(again[name])
        # fields compare as a tuple of them does: 0.0 == -0.0
        assert RiemannPoint(1.0, 0.0) == RiemannPoint(1.0, -0.0)
        assert hash(RiemannPoint(1.0, 0.0)) == hash(RiemannPoint(1.0, -0.0))
        assert hash(LogComplex(0.5, -1.0)) == hash((0.5, -1.0))
        assert LogComplex(0.0, 1.0) != LogComplex(0.0, 1.5)
        # equal only within one class
        assert RiemannPoint(1.0, 2.0) != LogComplex(1.0, 2.0)
        assert RiemannPoint(1.0, 2.0).__eq__(LogComplex(1.0, 2.0)) \
            is NotImplemented
        assert LogComplex(1.0, 2.0) != (1.0, 2.0)
        assert Precision() != "double"

    def test_repr(self):
        made = records()
        point = "RiemannPoint(r=1.0, theta=-0.0)"
        config = (f"ExpansionConfig(variant='m', b=1.5, z={point}, t=20.0, "
                  "u_theta=0.0, order=3, prec=Precision(mode='dd'))")
        sides = ("SideBySide(lhs=LogComplex(logmag=0.0, phase=1.0), "
                 "rhs=LogComplex(logmag=-inf, phase=0.0), "
                 "rel_discrepancy=0.25)")
        row = f"SweepRow(config={config}, result={sides}, status='ok')"
        assert {name: repr(record) for name, record in made.items()} == {
            "precision": "Precision(mode='double')", "point": point,
            "log": "LogComplex(logmag=0.0, phase=1.0)", "config": config,
            "sides": sides, "row": row,
            "result": f"SweepResult(rows=({row},), slopes={{('m', 1.5): -2.0}})"}

    def test_immutable(self):
        for record in records().values():
            name = type(record).__init__.__code__.co_varnames[1]
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                record.extra = 1
            with pytest.raises(AttributeError):
                delattr(record, name)

    def test_copy_and_pickle(self):
        for record in records().values():
            for clone in (copy.copy(record), copy.deepcopy(record),
                          pickle.loads(pickle.dumps(record))):
                assert type(clone) is type(record)
                assert clone == record
                assert repr(clone) == repr(record)


class TestFirstKind:
    def test_headline_point(self):
        r = evaluate_sides(cfg("m"))
        assert r.rel_discrepancy < 1e-8

    def test_halving_u_scales_by_two_pow_2n(self):
        d20 = evaluate_sides(cfg("m", t=20.0)).rel_discrepancy
        d40 = evaluate_sides(cfg("m", t=40.0)).rel_discrepancy
        ratio = d20 / d40
        assert 32.0 < ratio < 128.0

    def test_discrepancy_decreases_with_order(self):
        discs = [evaluate_sides(cfg("m", order=n)).rel_discrepancy
                 for n in (1, 2, 3)]
        assert discs[0] > discs[1] > discs[2]
        assert discs[0] < 1e-3
        assert discs[2] < 1e-8

    def test_one_full_turn(self):
        r = evaluate_sides(cfg("m", z=(1.0, 2 * math.pi)))
        assert r.rel_discrepancy < 1e-7

    def test_half_turn_multiplier_on_oracle_side(self):
        # the prefactored M side picks up exactly e^{i pi b} per half turn
        b = 1.5
        base = evaluate_sides(cfg("m", b=b, z=(1.0, 0.3)))
        up = evaluate_sides(cfg("m", b=b, z=(1.0, 0.3 + math.pi)))
        want = LogComplex(base.lhs.logmag, base.lhs.phase + math.pi * b)
        assert ratio_deviation(up.lhs, want) < 1e-8

    def test_complex_parameter(self):
        r = evaluate_sides(cfg("m", b=complex(1.2, 0.5)))
        assert r.rel_discrepancy < 1e-6


class TestSecondKind:
    def test_headline_points(self):
        for variant in ("u-capital", "u-lower"):
            r = evaluate_sides(cfg(variant))
            assert r.rel_discrepancy < 1e-8

    def test_one_full_turn(self):
        for variant in ("u-capital", "u-lower"):
            r = evaluate_sides(cfg(variant, z=(1.0, 2 * math.pi), order=2))
            assert r.rel_discrepancy < 1e-5

    def test_discrepancy_decreases_with_order(self):
        for variant in ("u-capital", "u-lower"):
            discs = [evaluate_sides(cfg(variant, order=n)).rel_discrepancy
                     for n in (1, 2, 3)]
            assert discs[0] > discs[1] > discs[2]

    def test_rotated_u(self):
        for variant in ("u-capital", "u-lower"):
            r = evaluate_sides(cfg(variant, u_theta=0.3))
            assert r.rel_discrepancy < 1e-7

    def test_complex_parameter(self):
        for variant in ("u-capital", "u-lower"):
            r = evaluate_sides(cfg(variant, b=complex(1.2, 0.5)))
            assert r.rel_discrepancy < 1e-6

    def test_variant_equivalence_headline(self):
        # the shared oracle value cancels out of the lhs ratio, so the rhs
        # ratio must reproduce it to within the larger single discrepancy
        uc = evaluate_sides(cfg("u-capital"))
        ul = evaluate_sides(cfg("u-lower"))
        dev = ratio_deviation(quotient(uc.rhs, ul.rhs),
                              quotient(uc.lhs, ul.lhs))
        assert dev <= max(uc.rel_discrepancy, ul.rel_discrepancy)

    def test_variant_equivalence_grid(self):
        # across parameters the deviation obeys the two-sided triangle bound
        for b, zr, zth, t in ((0.7, 0.5, 0.0, 20.0), (2.5, 2.0, 0.0, 40.0),
                              (1.5, 1.0, math.pi, 20.0)):
            uc = evaluate_sides(cfg("u-capital", b=b, z=(zr, zth), t=t))
            ul = evaluate_sides(cfg("u-lower", b=b, z=(zr, zth), t=t))
            dev = ratio_deviation(quotient(uc.rhs, ul.rhs),
                                  quotient(uc.lhs, ul.lhs))
            bound = (uc.rel_discrepancy + ul.rel_discrepancy) * 1.0001
            assert dev <= bound


class TestGammaRatio:
    def test_collapses_at_b_two(self, dd):
        # every coefficient beyond d_0 vanishes at b = 2, so the asymptotic
        # statement becomes an identity
        for u in (10.0, 20.0, 40.0):
            assert gamma_ratio_discrepancy(2.0, u, 3, dd) <= 1e-12

    def test_generic_parameter(self, dd):
        assert gamma_ratio_discrepancy(1.5, 20.0, 3, dd) < 1e-10
        ratio = (gamma_ratio_discrepancy(1.5, 20.0, 3, dd)
                 / gamma_ratio_discrepancy(1.5, 40.0, 3, dd))
        # first omitted term is u^(-2*order-2), so halving u gains 2^8
        assert 128.0 < ratio < 512.0

    def test_validation(self, dd):
        with pytest.raises(DomainError):
            gamma_ratio_discrepancy(1.5, -1.0, 3, dd)
        with pytest.raises(DomainError):
            gamma_ratio_discrepancy(1.5, 20.0, -1, dd)


class TestDecaySweep:
    def test_slopes_near_minus_two_n(self):
        grid = [cfg("m", t=t, order=n)
                for n in (1, 2, 3) for t in (10.0, 20.0, 40.0)]
        result = decay_sweep(grid)
        assert len(result.rows) == 9
        assert all(row.status == "ok" for row in result.rows)
        for n in (1, 2, 3):
            key = sweep_group_key(cfg("m", order=n))
            slope = result.slopes[key]
            assert abs(slope - (-2.0 * n)) < 0.2 * n

    def test_single_t_gives_no_fit(self):
        result = decay_sweep([cfg("m")])
        assert len(result.rows) == 1
        assert result.rows[0].status == "ok"
        assert result.slopes == {}

    def test_failures_recorded_per_row(self):
        # integer b forces the connection route, which rejects it
        grid = [cfg("m"), cfg("u-capital", b=2.0, z=(1.0, 2.5 * math.pi))]
        result = decay_sweep(grid)
        assert result.rows[0].status == "ok"
        assert result.rows[1].status == "error:DomainError"
        assert result.rows[1].result is None

    def test_empty_grid_rejected(self):
        with pytest.raises(DomainError):
            decay_sweep([])

    def test_starved_order_calls_no_kernel(self, monkeypatch):
        # the tables hold 11 orders; N = 12 fails before any kernel runs
        def broken(*args):
            raise AssertionError("kernel called for a starved row")

        for name in KERNELS + ("log_gamma_ctx",):
            monkeypatch.setattr(expansion, name, broken)
        result = decay_sweep([cfg(variant, order=12) for variant in VARIANTS])
        assert [row.status for row in result.rows] == [
            "error:OrderStarvationError"] * 3

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="FOUND 74 (CHANGES.md): in double the U "
                              "integral fails to stabilize at arg z = 2.5, "
                              "|z| = 2 for t >= 20, where dd reads ok")
    def test_double_u_rows_between_the_axes_read_as_dd(self):
        # no acceptance axis lies between arg z = pi/2 and pi; dd reads
        # 2.85e-7 at t = 20 here
        def sweep(prec):
            return decay_sweep([
                cfg(variant, b=0.7 + 0.5j, z=(2.0, 2.5), t=t, prec=prec)
                for variant in ("u-capital", "u-lower")
                for t in (10.0, 20.0, 40.0)]).rows

        for got, want in zip(sweep(Precision.double()),
                             sweep(Precision.dd())):
            assert want.status == "ok"
            assert got.status == "ok", (got.config.t, got.status)
            assert abs(got.result.rel_discrepancy
                       - want.result.rel_discrepancy) <= 1e-6


def scope_is_open():
    calls = []
    for _ in range(2):
        shared(("probe",), lambda: calls.append(1))
    return len(calls) == 1


class TestKernelSharing:
    """decay_sweep computes each kernel once per (b, z, t, arg u), and each
    log-gamma value, K pair, CF1 and walk down once per exact input, and
    shares them across N and variants without changing any result."""

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_rows_and_slopes_equal_unshared_evaluation(self, monkeypatch, mode):
        # integer, half-integer and complex b, and b = 1.5 - 0j beside 1.5;
        # |u z| = 5 and 20 take both Bessel routes in both modes
        prec = Precision.from_mode(mode)
        grid = [cfg(variant, b=b, z=(0.5, theta), t=t, order=n, prec=prec)
                for variant in VARIANTS
                for b in (2.0, 1.5, complex(1.2, 0.5), complex(1.5, -0.0))
                for theta in (-0.0, math.pi, 2 * math.pi, 2.5 * math.pi)
                for n in (1, 2) for t in (10.0, 40.0)]
        with_sharing = decay_sweep(grid)
        monkeypatch.setattr(expansion, "sharing_scope", contextlib.nullcontext)
        unshared = decay_sweep(grid)
        assert with_sharing == unshared
        assert repr(with_sharing) == repr(unshared)  # signs of zeros too
        statuses = Counter(row.status for row in with_sharing.rows)
        # integer b at 5 pi/2 rejects the U connection route
        assert statuses == {"ok": 184, "error:DomainError": 8}
        assert len(with_sharing.slopes) > 0

    def test_kernel_bodies_run_once_per_distinct_input(self, monkeypatch):
        inputs = {}

        def count(module, name):
            body = getattr(module, name)

            def wrapper(*args):
                *numbers, ctx = args
                inputs.setdefault(name, []).append(
                    (ctx.name,) + tuple(exact_key(x) for x in numbers))
                return body(*args)

            monkeypatch.setattr(module, name, wrapper)

        count(gammafn, "_shifted_stirling")
        count(bessel, "_i_cf1")
        count(bessel, "_i_ratios")
        count(bessel, "_k_cf2")
        # in dd K takes CF2 at every |u z|, where K_(1/2) and K_(3/2) read
        # one pair at mu = -1/2, and I_(1/2) and I_(3/2) one CF1 at order
        # |u z| - 1/2
        cell = [cfg(variant, b=1.5, z=(1.0, 2 * math.pi), t=t, order=n)
                for variant in VARIANTS for t in (10.0, 20.0, 40.0)
                for n in (1, 2, 3)]
        result = decay_sweep(cell)
        assert all(row.status == "ok" for row in result.rows)
        assert set(inputs) == {"_shifted_stirling", "_i_cf1", "_i_ratios",
                               "_k_cf2"}
        for name, seen in inputs.items():
            assert len(seen) == len(set(seen)), name

        # at b = 0.7, K_-0.3 and K_0.7 read one CF2 pair at mu = -0.3; two
        # half-turns leave R_2 != 0 at both orders, so K's winding reads I's
        # pair, which the m variant reads too: one CF1 and one walk down
        inputs.clear()
        cell = [cfg(variant, b=0.7, z=(1.0, 2 * math.pi), t=t, order=n)
                for variant in VARIANTS for t in (10.0, 20.0, 40.0)
                for n in (1, 2, 3)]
        result = decay_sweep(cell)
        assert all(row.status == "ok" for row in result.rows)
        for name in ("_k_cf2", "_i_cf1", "_i_ratios"):
            assert len(inputs[name]) == 3, name

    def test_no_scope_outlives_a_call(self):
        double = Precision.double()
        failing = cfg("u-capital", b=2.0, z=(2.0, 2.5 * math.pi), prec=double)
        with pytest.raises(DomainError):
            evaluate_sides(failing)
        assert not scope_is_open()
        result = decay_sweep([failing, cfg("m", prec=double)])
        assert [row.status for row in result.rows] == ["error:DomainError", "ok"]
        assert not scope_is_open()

    def test_each_kernel_runs_once_per_point(self, monkeypatch):
        calls = Counter()

        def counting(name, kernel):
            def wrapper(*args):
                calls[name] += 1
                return kernel(*args)
            return wrapper

        for name in KERNELS:
            monkeypatch.setattr(expansion, name,
                                counting(name, getattr(expansion, name)))
        double = Precision.double()
        cell = [cfg(variant, t=t, order=n, prec=double) for variant in VARIANTS
                for t in (10.0, 20.0, 40.0) for n in (1, 2, 3)]
        result = decay_sweep(cell)
        assert all(row.status == "ok" for row in result.rows)
        # each Bessel call gives the pair at orders b - 1 and b
        assert calls == {"kummer_u_scaled": 3, "kummer_m_scaled": 3,
                         "bessel_k_scaled": 3, "bessel_i_scaled": 3}

        # a failed oracle is kept: once per t, not once per N
        calls.clear()
        failing = [cfg("m", z=(2.0, 2.5 * math.pi), t=t, order=n, prec=double)
                   for t in (10.0, 20.0, 40.0) for n in (1, 2, 3)]
        result = decay_sweep(failing)
        assert [row.status for row in result.rows] == (
            ["ok"] * 3 + ["error:PrecisionExhaustedError"] * 6)
        assert calls == {"kummer_m_scaled": 3, "bessel_i_scaled": 1}

    def test_kept_failures_leave_no_garbage(self):
        # the memo dies with the sweep: no reference cycle waits for the
        # cyclic collector, so peak memory does not grow across sweeps
        grid = [cfg(variant, b=2.0, z=(2.0, 2.5 * math.pi), t=t, order=n,
                    prec=Precision.double())
                for variant in VARIANTS for t in (10.0, 20.0) for n in (1, 2)]
        gc.collect()
        gc.disable()
        try:
            result = decay_sweep(grid)
            garbage = gc.collect()
        finally:
            gc.enable()
        assert {row.status for row in result.rows} == {
            "error:DomainError", "error:PrecisionExhaustedError"}
        assert garbage == 0


class TestAcceptanceGrid:
    def test_shape_and_order(self):
        grid = acceptance_grid("m")
        assert len(grid) == 648
        assert all(c.variant == "m" for c in grid)
        assert grid[0].b == 0.7 and grid[0].z.r == 0.5 and grid[0].t == 10.0
        assert grid[1].t == 20.0  # t varies fastest
        assert {c.order for c in grid} == {1, 2, 3}
        assert all(c.prec.mode == "dd" for c in grid)

    def test_variants_validated(self):
        with pytest.raises(DomainError):
            acceptance_grid("bogus")
        for variant in VARIANTS:
            assert len(acceptance_grid(variant)) == 648

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_decay_group_decays(self, variant):
        # a kernel error that lhs and rhs do not share grows with t when it
        # comes from a growing solution, and turns the fitted slope
        # positive: a rounded winding factor of 1e-16 gave 24 groups per U
        # variant slopes up to +15.9, all at arg z = 2 pi
        result = decay_sweep(acceptance_grid(variant))
        rising = {key: s for key, s in result.slopes.items() if s > 0}
        assert not rising


class TestPrecisionIsolation:
    """dd mode works in a private mpmath context: mpmath.mp is neither
    read nor written."""

    POINT = dict(b=1.5, z=(1.0, 2 * math.pi), t=20.0, order=3)

    def test_caller_dps_survives_a_fresh_dd_context(self, monkeypatch):
        monkeypatch.setattr(types, "_CTX_DD", None)
        with mpmath.workdps(15):
            evaluate_sides(cfg("u-lower", **self.POINT))
            assert mpmath.mp.dps == 15

    def test_dd_result_ignores_caller_dps(self):
        want = evaluate_sides(cfg("u-lower", **self.POINT))
        with mpmath.workdps(50):
            got = evaluate_sides(cfg("u-lower", **self.POINT))
        assert got == want


class TestCoefficientsInContext:
    """The tables are rounded into each context once per process, and a
    sweep reads them there: the values are those of CoeffPoly.evaluate."""

    B_VALUES = (0.7, 2.0, 0.7 + 0.5j)
    # |z| 0.5 and 2 off the axes, and one z whose imaginary part is -0.0
    Z_VALUES = ((0.5, 0.3), (2.0, 2.5), (2.0, None))

    @staticmethod
    def raw(x, mode):
        return x._mpc_ if mode == "dd" else exact_key(x)

    @pytest.mark.parametrize("mode", ["double", "dd"])
    def test_cached_values_equal_coeffpoly_evaluate(self, mode):
        ctx = Precision.from_mode(mode).ctx
        table, low_even, low_odd = expansion.expansion_tables()
        families = {False: (table.even, table.odd), True: (low_even, low_odd)}
        points = []
        for b in self.B_VALUES:
            mu = ctx.coerce(b) - 1
            for r, theta in self.Z_VALUES:
                if theta is None:
                    z = ctx.make_complex(r, -0.0)
                else:
                    z = ctx.real(r) * ctx.exp(ctx.make_complex(0.0, theta))
                points.append((mu, z))
        compared = 0
        for lowered, (even, odd) in families.items():
            assert len(even) == len(odd) == 11
            for s in range(11):
                for mu, z in points:
                    got = expansion._coefficient_values(ctx, lowered, s, mu, z)
                    want = (even[s].evaluate(mu, z, ctx.rational),
                            odd[s].evaluate(mu, z, ctx.rational))
                    assert ([self.raw(x, mode) for x in got]
                            == [self.raw(x, mode) for x in want]), (lowered, s)
                    compared += 2
        assert compared == 4 * 11 * len(points)

    def test_contexts_kept_apart_and_converted_lazily(self, monkeypatch):
        point = dict(b=0.7 + 0.5j, z=(1.0, 0.3), t=20.0, order=3)
        first_dd = evaluate_sides(cfg("u-lower", **point))
        evaluate_sides(cfg("u-lower", prec=Precision.double(), **point))
        assert evaluate_sides(cfg("u-lower", **point)) == first_dd
        dd_ctx = Precision.dd().ctx
        for s in range(3):
            dd_rows = expansion._table_in_context(dd_ctx, True, s)
            double_rows = expansion._table_in_context(
                Precision.double().ctx, True, s)
            dd_values = [v for rows in dd_rows for row in rows for v in row]
            double_values = [v for rows in double_rows for row in rows
                             for v in row]
            assert dd_values and len(dd_values) == len(double_values)
            assert all(isinstance(v, dd_ctx.own_types) for v in dd_values)
            assert all(type(v) is float for v in double_values)

        # a fresh dd context, as a new process has: its set-up converts
        # nothing, its first sweep converts, and a second one does not
        calls = []
        rational = types._ExtendedMP.rational

        def counting(self, fr):
            calls.append(fr)
            return rational(self, fr)

        monkeypatch.setattr(types._ExtendedMP, "rational", counting)
        monkeypatch.setattr(types, "_CTX_DD", None)
        Precision.dd().ctx
        expansion.expansion_tables.__wrapped__()
        expansion.expansion_tables()
        assert not calls
        grid = [cfg(variant, **point) for variant in VARIANTS]
        decay_sweep(grid)
        assert calls
        calls.clear()
        decay_sweep(grid)
        assert not calls
