"""Exact-arithmetic layer: ring laws, calculus, parity, serialization."""

import random
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_asym.errors import (ExactDivisionError, OrderStarvationError,
                                ParameterMixError, ParityError)
from kummer_asym.ratpoly import (CoeffPoly, ParamPoly, TruncSeries,
                                 coeff_sum_of_products, merge_param)
from kummer_asym.temme import temme_base_series, temme_iterate


def rand_frac(rng):
    return Fraction(rng.randint(-6, 6), rng.randint(1, 5))


def rand_parampoly(rng, param="mu", max_deg=3):
    n = rng.randint(0, max_deg + 1)
    return ParamPoly(param, [rand_frac(rng) for _ in range(n)])


def rand_coeffpoly(rng, param="mu", max_zdeg=4):
    n = rng.randint(0, max_zdeg + 1)
    return CoeffPoly([rand_parampoly(rng, param, 2) for _ in range(n)])


def rand_series(rng, var="w", order=6, param="mu"):
    return TruncSeries(var, order,
                       [rand_coeffpoly(rng, param, 3) for _ in range(order + 1)])


def with_zero_constant(rng, order):
    """Random series in w whose constant term is zero."""
    tail = [rand_coeffpoly(rng, "mu", 3) for _ in range(order)]
    return TruncSeries("w", order, [CoeffPoly.zero()] + tail)


class TestParamPoly:
    def test_ring_laws(self):
        rng = random.Random(20315)
        for _ in range(25):
            p = rand_parampoly(rng)
            q = rand_parampoly(rng)
            r = rand_parampoly(rng)
            assert (p + q) + r == p + (q + r)
            assert p * q == q * p
            assert p * (q + r) == p * q + p * r
            assert (p - p).is_zero()
            assert (p * q) * r == p * (q * r)

    def test_constructors_and_degree(self):
        assert ParamPoly.zero().degree() == -1
        assert ParamPoly.one().degree() == 0
        assert ParamPoly.variable("mu").degree() == 1
        assert ParamPoly.constant(Fraction(3, 7)).coefficient(0) == Fraction(3, 7)
        # trailing zeros are trimmed away on construction
        p = ParamPoly("mu", (1, 2, 0, 0))
        assert p.degree() == 1
        assert p.coefficient(5) == 0

    def test_compose_matches_pointwise(self):
        rng = random.Random(7001)
        image = ParamPoly("b", (-1, 1))  # mu -> b - 1
        for _ in range(10):
            p = rand_parampoly(rng)
            composed = p.compose(image)
            assert composed.param == ("b" if composed.degree() > 0 else None)
            v = rand_frac(rng)
            direct = p.evaluate(image.evaluate(v, lambda f: f), lambda f: f)
            assert composed.evaluate(v, lambda f: f) == direct

    def test_json_round_trip(self):
        rng = random.Random(31)
        for _ in range(10):
            p = rand_parampoly(rng)
            data = p.to_json()
            assert all(isinstance(s, str) for s in data)
            assert ParamPoly.from_json("mu", data) == p
        assert ParamPoly.from_json("mu", ["-1/6", "1/6"]) == ParamPoly(
            "mu", (Fraction(-1, 6), Fraction(1, 6)))


def ref_trim(coeffs):
    """Reference polynomial: a plain list of Fraction, no trailing zero."""
    out = [Fraction(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def ref_add(p, q):
    n = max(len(p), len(q))
    pad = lambda r: r + [Fraction(0)] * (n - len(r))
    return ref_trim([a + b for a, b in zip(pad(p), pad(q))])


def ref_mul(p, q):
    out = [Fraction(0)] * max(len(p) + len(q) - 1, 0)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return ref_trim(out)


def ref_evaluate(p, x):
    total = Fraction(0)
    for c in reversed(p):
        total = total * x + c
    return total


def ref_compose(p, q):
    total = []
    for c in reversed(p):
        total = ref_add(ref_mul(total, q), [c])
    return total


def assert_canonical(p, want):
    """Integer numerators over a positive denominator sharing no factor with
    all of them, no trailing zero, and the Fraction view equal to `want`."""
    assert all(type(c) is int for c in p.numerators)
    assert type(p.denominator) is int and p.denominator > 0
    if p.numerators:
        assert p.numerators[-1] != 0
        assert gcd(p.denominator, *p.numerators) == 1
    else:
        assert p.denominator == 1
    assert p.coeffs == tuple(want)
    assert all(type(c) is Fraction for c in p.coeffs)


rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-50, max_value=50, max_denominator=360),
    st.builds(Fraction, st.integers(-2 ** 80, 2 ** 80), st.integers(1, 2 ** 64)))
coeff_lists = st.lists(rationals, max_size=7)


class TestParamPolyAgainstFractionLists:
    """The fraction-free kernel against plain lists of Fraction."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(p=coeff_lists, q=coeff_lists)
    def test_ring_operations(self, p, q):
        a, b = ParamPoly("mu", p), ParamPoly("mu", q)
        rp, rq = ref_trim(p), ref_trim(q)
        assert_canonical(a, rp)
        assert_canonical(a + b, ref_add(rp, rq))
        assert_canonical(a - b, ref_add(rp, [-c for c in rq]))
        assert_canonical(-a, [-c for c in rp])
        assert_canonical(a * b, ref_mul(rp, rq))
        assert_canonical(a.reflect(), [-c if k % 2 else c for k, c in enumerate(rp)])
        assert_canonical(a.compose(ParamPoly("b", q)), ref_compose(rp, rq))
        assert_canonical(ParamPoly.from_json("mu", a.to_json()), rp)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=coeff_lists, c=rationals, x=rationals)
    def test_scalars_and_evaluation(self, p, c, x):
        a = ParamPoly("mu", p)
        rp = ref_trim(p)
        scaled = [c * v for v in rp]
        assert_canonical(a * c, ref_trim(scaled))
        assert_canonical(c * a, ref_trim(scaled))
        assert_canonical(a + c, ref_add(rp, [c]))
        assert_canonical(c - a, ref_add([c], [-v for v in rp]))
        assert a.evaluate(Fraction(x), lambda f: f) == ref_evaluate(rp, x)
        for k in range(-1, len(rp) + 2):
            assert a.coefficient(k) == (rp[k] if 0 <= k < len(rp) else 0)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(p=coeff_lists, k=st.integers(1, 10 ** 6))
    def test_equal_polynomials_have_equal_storage_and_hash(self, p, k):
        a = ParamPoly("mu", p)
        # the same polynomial reached through scaled inputs
        b = ParamPoly("mu", [Fraction(c) * k for c in p]) * Fraction(1, k)
        c = ParamPoly("mu", [Fraction(c) / k for c in p]) * k
        for other in (b, c):
            assert other == a and hash(other) == hash(a)
            assert (other.numerators, other.denominator) == (a.numerators, a.denominator)

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(c=rationals)
    def test_constants_are_equal_across_parameter_names(self, c):
        mu, b = ParamPoly("mu", (c,)), ParamPoly("b", (c,))
        assert mu == b and hash(mu) == hash(b)
        assert ParamPoly("mu", (0, c)) != ParamPoly("b", (0, c)) or c == 0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(p=coeff_lists)
    def test_only_a_polynomial_of_degree_one_or_more_is_named(self, p):
        for name in ("mu", "b"):
            a = ParamPoly(name, p)
            assert a.param == (name if a.degree() > 0 else None)
            assert (a - a).param is None and (a * 0).param is None

    def test_a_nameless_nonconstant_is_refused(self):
        with pytest.raises(ValueError):
            ParamPoly(None, (0, 1))
        with pytest.raises(ValueError):
            ParamPoly.variable(None)
        assert ParamPoly(None, (3,)) == ParamPoly.constant(3)

    def test_different_parameters_do_not_mix(self):
        assert merge_param(None, "b") == merge_param("b", None) == "b"
        assert merge_param("mu", "mu") == "mu" and merge_param(None, None) is None
        with pytest.raises(ParameterMixError):
            merge_param("mu", "b")
        mu, b = ParamPoly.variable("mu"), ParamPoly.variable("b")
        with pytest.raises(ParameterMixError):
            mu + b
        with pytest.raises(ParameterMixError):
            mu * b
        assert (mu + 1).param == "mu" and (2 * b).param == "b"

    def test_floats_are_refused(self):
        with pytest.raises(TypeError):
            ParamPoly("mu", (0.5,))
        with pytest.raises(TypeError):
            ParamPoly.one() * 0.5
        with pytest.raises(TypeError):
            ParamPoly.one() + 0.5
        with pytest.raises(TypeError):
            TruncSeries.one("w", 2) * 0.5


class TestCoeffPoly:
    def test_parity_declarations(self):
        mu = ParamPoly.variable("mu")
        zero = ParamPoly.zero()
        one = ParamPoly.one()
        CoeffPoly([one, zero, mu], parity="even")
        CoeffPoly([zero, one], parity="odd")
        with pytest.raises(ParityError):
            CoeffPoly([one, mu], parity="even")
        with pytest.raises(ParityError):
            CoeffPoly([one, zero, mu], parity="odd")
        with pytest.raises(ValueError):
            CoeffPoly([one], parity="mixed")

    def test_parity_propagation(self):
        # monomial() does not declare parity, so declare explicitly
        even = CoeffPoly(CoeffPoly.monomial(2).coeffs, parity="even")
        odd = CoeffPoly(CoeffPoly.monomial(3, Fraction(1, 6)).coeffs,
                        parity="odd")
        assert (even * odd).parity == "odd"
        assert (odd * odd).parity == "even"
        assert (even + even).parity == "even"
        assert (even + odd).parity == "none"
        assert even.integrate_from_zero().parity == "odd"
        assert odd.differentiate().parity == "even"

    def test_calculus_round_trip(self):
        rng = random.Random(88)
        for _ in range(15):
            p = rand_coeffpoly(rng)
            assert p.integrate_from_zero().differentiate() == p
            assert p.mul_by_z(2).divide_by_z(2) == p

    def test_calculus_builds_no_constant(self, table8, monkeypatch):
        # a scalar factor scales a ParamPoly's storage; it does not become
        # a ParamPoly first
        entry = table8.odd[4]
        want = entry.differentiate(), entry.integrate_from_zero()

        def refused(value):
            raise AssertionError(f"ParamPoly.constant({value})")

        monkeypatch.setattr(ParamPoly, "constant", refused)
        assert (entry.differentiate(), entry.integrate_from_zero()) == want

    def test_divide_by_z_requires_low_zeros(self):
        sixth = CoeffPoly.monomial(3, Fraction(1, 6))
        assert sixth.divide_by_z() == CoeffPoly.monomial(2, Fraction(1, 6))
        with pytest.raises(ExactDivisionError):
            CoeffPoly.one().divide_by_z()
        with pytest.raises(ExactDivisionError):
            sixth.divide_by_z(4)

    def test_substitute_param(self):
        rng = random.Random(660)
        minus = ParamPoly("mu", (0, -1))
        for _ in range(10):
            p = rand_coeffpoly(rng)
            assert p.substitute_param(minus).substitute_param(minus) == p
            assert p.reflect() == p.substitute_param(minus)
        odd = CoeffPoly.monomial(3) * ParamPoly("mu", (1, 2, 3))
        assert odd.reflect().parity == "odd"
        p = rand_coeffpoly(rng)
        image = ParamPoly("b", (-1, 1))
        q = p.substitute_param(image)
        assert q.param == ("b" if any(c.degree() > 0 for c in q.coeffs) else None)
        got = q.evaluate(Fraction(5, 2), Fraction(1, 3), lambda f: f)
        want = p.evaluate(Fraction(3, 2), Fraction(1, 3), lambda f: f)
        assert got == want

    def test_evaluate(self):
        # (mu - 1) z^2 / 6 + z^6 / 72 at mu = 1/2, z = 1
        p = CoeffPoly([ParamPoly.zero(), ParamPoly.zero(),
                       ParamPoly("mu", (Fraction(-1, 6), Fraction(1, 6))),
                       ParamPoly.zero(), ParamPoly.zero(),
                       ParamPoly.zero(),
                       ParamPoly.constant(Fraction(1, 72))])
        exact = p.evaluate(Fraction(1, 2), Fraction(1), lambda f: f)
        assert exact == Fraction(-5, 72)
        sixth = CoeffPoly.monomial(3, Fraction(1, 6))
        assert sixth.evaluate(Fraction(0), Fraction(2), lambda f: f) == Fraction(4, 3)
        assert sixth.evaluate(0.0, 2.0) == pytest.approx(4.0 / 3.0)

    def test_parameter_mixing_rejected(self):
        with pytest.raises(ParameterMixError):
            CoeffPoly([ParamPoly.variable("mu"), ParamPoly.variable("b")])

    def test_param_is_the_one_its_coefficients_mention(self):
        mu = ParamPoly.variable("mu")
        assert CoeffPoly([ParamPoly.one(), mu]).param == "mu"
        assert CoeffPoly([ParamPoly("b", (2,)), ParamPoly.one()]).param is None
        assert CoeffPoly.zero().param is None
        assert (CoeffPoly.monomial(2) * mu).param == "mu"
        assert (CoeffPoly.from_param(mu) - mu).param is None

    def test_json_round_trip(self):
        rng = random.Random(19)
        for _ in range(10):
            p = rand_coeffpoly(rng)
            assert CoeffPoly.from_json("mu", p.to_json()) == p

    def test_equality_ignores_parity_declaration(self):
        a = CoeffPoly([ParamPoly.one()], parity="even")
        b = CoeffPoly([ParamPoly.one()], parity="none")
        assert a == b


class TestTruncSeries:
    def test_ring_laws(self):
        rng = random.Random(2024)
        for _ in range(8):
            a = rand_series(rng)
            b = rand_series(rng)
            c = rand_series(rng)
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c

    def test_mul_matches_convolution(self):
        rng = random.Random(3333)
        a = rand_series(rng, order=7)
        b = rand_series(rng, order=7)
        prod = a * b
        for k in range(8):
            want = CoeffPoly.zero()
            for i in range(k + 1):
                want = want + a.coefficient(i) * b.coefficient(k - i)
            assert prod.coefficient(k) == want

    def test_coefficient_bounds(self):
        s = TruncSeries.one("w", 4)
        with pytest.raises(OrderStarvationError):
            s.coefficient(5)

    def test_exp_log_round_trip(self):
        rng = random.Random(42)
        for _ in range(5):
            u = TruncSeries.one("w", 5) + with_zero_constant(rng, order=5)
            assert u.log().exp() == u
        with pytest.raises(ExactDivisionError):
            TruncSeries.one("w", 3).exp()
        with pytest.raises(ExactDivisionError):
            TruncSeries("w", 3, ()).log()

    def test_inverse(self):
        geom = TruncSeries.from_rationals("w", 6, [1, 1])
        inv = geom.pow_param(-1)
        for k in range(7):
            assert inv.coefficient(k) == CoeffPoly.from_param(
                ParamPoly.constant((-1) ** k))
        assert geom * inv == TruncSeries.one("w", 6)
        with pytest.raises(ExactDivisionError):
            TruncSeries.from_rationals("w", 3, [0, 1]).pow_param(-1)

    def test_pow(self):
        rng = random.Random(11)
        s = TruncSeries.one("w", 5) + with_zero_constant(rng, order=5)
        assert s.pow_param(Fraction(3)) == s * s * s
        assert s.pow_param(-1) * s == TruncSeries.one("w", 5)

    def test_variable_mismatch_rejected(self):
        a = TruncSeries.one("w", 3)
        b = TruncSeries.one("s", 3)
        with pytest.raises(ValueError):
            a + b


# The naive definitions the sum-of-products kernel must reproduce: every
# partial product and partial sum built and reduced on its own.  ParamPoly *
# and CoeffPoly + share the kernel's integer convolution, so the naive
# product is built from Fraction lists and the naive sum adds coefficientwise
# under ParamPoly +.

def naive_param_mul(a, c):
    return ParamPoly(merge_param(a.param, c.param), ref_mul(a.coeffs, c.coeffs))


def naive_param_sum(pairs):
    return reduce(lambda acc, pair: acc + naive_param_mul(*pair), pairs,
                  ParamPoly.zero())


def naive_coeff_mul(a, c):
    if a.is_zero() or c.is_zero():
        return CoeffPoly.zero()
    out = [ParamPoly.zero()] * (len(a.coeffs) + len(c.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(c.coeffs):
            out[i + j] = out[i + j] + naive_param_mul(x, y)
    if "none" in (a.parity, c.parity):
        parity = "none"
    else:
        parity = "even" if a.parity == c.parity else "odd"
    return CoeffPoly(out, parity=parity)


def naive_coeff_add(a, b):
    """a + b coefficientwise under ParamPoly +: a zero operand takes the
    other's parity, and two nonzero ones keep a shared parity or give
    'none'."""
    if a.is_zero() or b.is_zero():
        parity = b.parity if a.is_zero() else a.parity
    else:
        parity = a.parity if a.parity == b.parity else "none"
    n = max(len(a.coeffs), len(b.coeffs))
    return CoeffPoly([a.coefficient(k) + b.coefficient(k) for k in range(n)],
                     parity=parity)


def naive_coeff_sum(pairs):
    """Fold of naive products under naive_coeff_add, and whether a partial
    sum cancelled to zero after a nonzero product (its parity then
    restarts)."""
    acc, seen, cancelled = CoeffPoly.zero(), False, False
    for a, c in pairs:
        prod = naive_coeff_mul(a, c)
        acc = naive_coeff_add(acc, prod)
        seen = seen or not prod.is_zero()
        cancelled = cancelled or (seen and acc.is_zero())
    return acc, cancelled


def naive_exp(s):
    out = [CoeffPoly.one()]
    for n in range(1, s.order + 1):
        acc = CoeffPoly.zero()
        for k in range(1, n + 1):
            acc = naive_coeff_add(acc, naive_coeff_mul(s.coeffs[k] * k, out[n - k]))
        out.append(acc * Fraction(1, n))
    return out


def naive_log(s):
    out = [CoeffPoly.zero()]
    for n in range(1, s.order + 1):
        acc = s.coeffs[n] * n
        for k in range(1, n):
            acc = naive_coeff_add(acc, -naive_coeff_mul(out[k] * k, s.coeffs[n - k]))
        out.append(acc * Fraction(1, n))
    return out


def naive_inverse(s):
    inv0 = 1 / s.coeffs[0].coefficient(0).coefficient(0)
    out = [CoeffPoly.from_param(ParamPoly.constant(inv0))]
    for n in range(1, s.order + 1):
        acc = CoeffPoly.zero()
        for k in range(1, n + 1):
            acc = naive_coeff_add(acc, naive_coeff_mul(s.coeffs[k], out[n - k]))
        out.append(acc * (-inv0))
    return out


def naive_iterate(base, n_max):
    z2 = CoeffPoly.monomial(2)
    rows = [list(base[:2 * n_max + 2])]
    for _ in range(n_max):
        prev = rows[-1]
        rows.append([
            naive_coeff_add(
                naive_coeff_mul(z2, prev[k + 2]),
                naive_coeff_mul(CoeffPoly.from_param(ParamPoly("b", (1 + k, -1))),
                                prev[k + 1])) * 4
            for k in range(len(prev) - 2)])
    return ([row[0] for row in rows],
            [row[1].mul_by_z() * (-2) for row in rows])


def assert_same(got, want):
    """Equal values, equal storage and equal declared parity."""
    assert got == want and got.parity == want.parity
    assert [(c.numerators, c.denominator, c.param) for c in got.coeffs] == \
        [(c.numerators, c.denominator, c.param) for c in want.coeffs]


small_rationals = st.one_of(
    st.integers(-9, 9), st.fractions(min_value=-9, max_value=9, max_denominator=12))
param_polys = st.one_of(
    st.just(ParamPoly.zero()),
    rationals.map(lambda c: ParamPoly(None, (c,))),
    coeff_lists.map(lambda p: ParamPoly("mu", p)))
small_param_polys = st.lists(small_rationals, max_size=3).map(
    lambda p: ParamPoly("mu", p))


@st.composite
def coeff_polys(draw, max_len=5, params=param_polys):
    """A CoeffPoly with a declared parity that its coefficients respect."""
    parity = draw(st.sampled_from(("even", "odd", "none")))
    coeffs = draw(st.lists(params, max_size=max_len))
    skip = {"even": 1, "odd": 0}.get(parity)
    if skip is not None:
        coeffs = [ParamPoly.zero() if k % 2 == skip else c
                  for k, c in enumerate(coeffs)]
    return CoeffPoly(coeffs, parity=parity)


@st.composite
def series(draw, constant=None):
    order = draw(st.integers(0, 8))
    coeffs = draw(st.lists(coeff_polys(3, small_param_polys),
                           min_size=order + 1, max_size=order + 1))
    if constant is not None:
        coeffs[0] = CoeffPoly.from_param(ParamPoly.constant(constant))
    return TruncSeries("w", order, coeffs)


def ref_rows(operand):
    """A CoeffPoly, ParamPoly or rational as one Fraction list per z-degree."""
    if isinstance(operand, CoeffPoly):
        return [list(c.coeffs) for c in operand.coeffs]
    row = ref_trim(ParamPoly._coerce(operand).coeffs)
    return [row] if row else []


def ref_add_rows(p, q):
    empty = [[]] * abs(len(p) - len(q))
    rows = [ref_add(a, b) for a, b in zip(p + empty, q + empty)]
    while rows and not rows[-1]:
        rows.pop()
    return rows


class TestCoeffPolyAgainstFractionLists:
    """CoeffPoly + and -, the kernel's sum with unit factors, against
    coefficientwise sums of Fraction lists."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(a=coeff_polys(), b=st.one_of(coeff_polys(), param_polys, rationals))
    def test_add_and_sub(self, a, b):
        ra, rb = ref_rows(a), ref_rows(b)
        neg = lambda rows: [[-c for c in row] for row in rows]
        b_parity = b.parity if isinstance(b, CoeffPoly) else "even"
        if not ra or not rb:
            parity = a.parity if ra else b_parity
        else:
            parity = a.parity if a.parity == b_parity else "none"
        for got, want in ((a + b, ref_add_rows(ra, rb)),
                          (b + a, ref_add_rows(rb, ra)),
                          (a - b, ref_add_rows(ra, neg(rb))),
                          (b - a, ref_add_rows(rb, neg(ra)))):
            assert len(got.coeffs) == len(want)
            for c, row in zip(got.coeffs, want):
                assert_canonical(c, row)
            if got:
                assert got.parity == parity

    def test_a_sum_of_zeros_is_even(self):
        # as coeff_sum_of_products([]): no operand's declaration survives
        odd, none = CoeffPoly.zero("odd"), CoeffPoly.zero("none")
        assert (odd + odd).parity == "even"
        assert (odd - none).parity == "even"
        assert (none + 0).parity == "even"
        assert (Fraction(0) - odd).parity == "even"


class TestSumOfProducts:
    """coeff_sum_of_products, and every user of it, against the naive fold
    of * and +."""

    @staticmethod
    def param_level(pairs, scale=1):
        """The kernel on ParamPoly pairs: operands constant in z make one
        z-degree, which is reduced once."""
        lift = CoeffPoly.from_param
        got = coeff_sum_of_products([(lift(a), lift(c)) for a, c in pairs], scale)
        assert got.z_degree() <= 0 and got.param == got.coefficient(0).param
        return got.coefficient(0)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(param_polys, param_polys), max_size=5),
           scale=rationals)
    def test_param_level_equals_the_fold(self, pairs, scale):
        want = naive_param_sum(pairs)
        got = self.param_level(pairs)
        assert_canonical(got, list(want.coeffs))
        assert (got.numerators, got.denominator, got.param) == \
            (want.numerators, want.denominator, want.param)
        scaled = naive_param_mul(want, ParamPoly.constant(scale))
        assert_canonical(self.param_level(pairs, scale), list(scaled.coeffs))

    def test_param_level_names_merge_as_the_fold_does(self):
        mu, b = ParamPoly.variable("mu"), ParamPoly.variable("b")
        one, zero = ParamPoly.one(), ParamPoly.zero()
        with pytest.raises(ParameterMixError):
            self.param_level([(mu, one), (b, one)])
        with pytest.raises(ParameterMixError):
            self.param_level([(mu, b)])
        with pytest.raises(ParameterMixError):
            self.param_level([(mu, zero), (b, mu)])
        # a named operand of a zero product mixes with nothing, as in mu + b*0
        assert self.param_level([(mu, one), (b, zero)]) == mu
        assert self.param_level([(mu, mu), (-mu, mu)]).param is None
        assert self.param_level([]) == zero

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(pairs=st.lists(st.tuples(coeff_polys(), coeff_polys()), max_size=4))
    def test_coeff_level_equals_the_sum_of_products(self, pairs):
        want, cancelled = naive_coeff_sum(pairs)
        got = coeff_sum_of_products(pairs)
        assert got == want
        if not cancelled:
            assert_same(got, want)
        if len(pairs) == 1:
            assert_same(pairs[0][0] * pairs[0][1], naive_coeff_mul(*pairs[0]))

    def test_coeff_level_names_and_parity(self):
        mu = CoeffPoly.from_param(ParamPoly.variable("mu"))
        b = CoeffPoly.from_param(ParamPoly.variable("b"))
        z = CoeffPoly.monomial(1)
        with pytest.raises(ParameterMixError):
            coeff_sum_of_products([(mu, z), (b, z)])
        assert coeff_sum_of_products([]).parity == "even"
        assert coeff_sum_of_products([(z, z), (mu, z)]).parity == "none"
        assert coeff_sum_of_products([(z, z), (mu, mu)]).parity == "even"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(a=series(), b=series())
    def test_series_product(self, a, b):
        got = (a * b).coeffs
        for n in range(len(got)):
            want, cancelled = naive_coeff_sum(
                [(a.coeffs[i], b.coeffs[n - i]) for i in range(n + 1)])
            assert got[n] == want
            if not cancelled:
                assert got[n].parity == want.parity

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=series(constant=0))
    def test_exp(self, s):
        for got, want in zip(s.exp().coeffs, naive_exp(s)):
            assert got == want

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=series(constant=1))
    def test_log(self, s):
        for got, want in zip(s.log().coeffs, naive_log(s)):
            assert got == want

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(s=series(constant=1))
    def test_inverse(self, s):
        for got, want in zip(s.pow_param(-1).coeffs, naive_inverse(s)):
            assert got == want

    @pytest.mark.parametrize("n_max", [0, 1, 4, 8])
    def test_temme_iterate(self, n_max):
        base = temme_base_series(2 * n_max + 1)
        table = temme_iterate(base, n_max)
        even, odd = naive_iterate(base, n_max)
        for got, want in zip(table.even + table.odd, even + odd):
            assert_same(got, want)
