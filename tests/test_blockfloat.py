"""Block-floating complex arithmetic against exact Fraction arithmetic, the
quadrature's fixed-point kernels against 50-digit mpmath, and the integer
routines (the U sample and the series term loops) against the operator
compositions they replaced."""

import cmath
import importlib
import math
import pathlib
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kummer_asym
from kummer_asym.special.blockfloat import (QUAD_BITS, BlockComplex,
                                            FixedKernels)

WP = 60


class Block(BlockComplex):
    __slots__ = ()
    wp = WP


mantissas = st.integers(-(1 << 80), 1 << 80)
blocks = st.builds(Block, mantissas, mantissas, st.integers(-200, 200))
nonzero = blocks.filter(lambda b: b.re or b.im)


def exact(b):
    scale = Fraction(2) ** b.exp
    return Fraction(b.re) * scale, Fraction(b.im) * scale


def same(a, b):
    return (a.re, a.im, a.exp) == (b.re, b.im, b.exp)


@settings(max_examples=200, derandomize=True)
@given(blocks, blocks, st.integers(-1000, 1000))
def test_products_and_integer_sums_are_exact(a, b, n):
    (ar, ai), (br, bi) = exact(a), exact(b)
    assert exact(a * b) == (ar * br - ai * bi, ar * bi + ai * br)
    assert exact(a * n) == exact(n * a) == (ar * n, ai * n)
    if a.exp <= 0:
        assert exact(a + n) == (ar + n, ai)
        assert exact(a - n) == (ar - n, ai)


@settings(max_examples=200, derandomize=True)
@given(blocks, nonzero)
def test_a_quotient_is_rounded_once_to_wp_bits(a, b):
    q = a / b
    (ar, ai), (br, bi) = exact(a), exact(b)
    den = br * br + bi * bi
    want = ((ar * br + ai * bi) / den, (ai * br - ar * bi) / den)
    unit = Fraction(2) ** q.exp
    for got, part in zip(exact(q), want):
        # truncated toward zero: at most one unit, never past the value
        assert 0 <= (part - got) * (1 if part >= 0 else -1) < unit
    if a.re or a.im:
        assert WP - 1 <= max(abs(q.re), abs(q.im)).bit_length() <= WP + 1
    assert same(-a / b, -(a / b))


@settings(max_examples=200, derandomize=True)
@given(blocks, blocks)
@example(Block(0, 0, 3), Block(5, 1, -2))
def test_a_sum_lies_on_the_coarser_grid(a, b):
    s = a + b
    if not (b.re or b.im):
        assert s is a
        return
    if not (a.re or a.im):
        assert same(s, b)
        return
    assert s.exp == max(a.exp, b.exp)
    unit = Fraction(2) ** s.exp
    for got, x, y in zip(exact(s), exact(a), exact(b)):
        assert abs(got - (x + y)) < unit
    assert same(-a + -b, -(a + b))
    assert same(a - b, a + -b)


def test_mag():
    assert Block(3, 4, -2).mag() == 1.25
    assert Block(1, 0, 5000).mag() == float("inf")
    assert Block(1, 0, -5000).mag() == 0.0
    # mantissas beyond a float's range, on a fine grid
    assert Block(3 << 1100, -4 << 1100, -1100).mag() == 5.0
    assert Block(1 << 2000, 0, 100).mag() == float("inf")


@settings(max_examples=200, derandomize=True)
@given(blocks, st.integers(-300, 300))
def test_on_grid_is_exact_or_truncates_toward_zero(a, exp):
    b = a.on_grid(exp)
    assert b.exp == exp
    unit = Fraction(2) ** exp
    for got, part in zip(exact(b), exact(a)):
        assert 0 <= (part - got) * (1 if part >= 0 else -1) < unit
        if exp <= a.exp:
            assert got == part
    assert same((-a).on_grid(exp), -b)


# The mpmath.libmp names the package uses.  They are not documented API,
# and pyproject.toml allows any mpmath from 1.2 on.
LIBMP_NAMES = {
    "mpmath.libmp": {"fzero", "from_man_exp", "to_fixed", "to_float"},
    "mpmath.libmp.libelefun": {"cos_sin_fixed", "exp_fixed", "ln2_fixed",
                               "log_taylor_cached", "pi_fixed"},
}


def test_mpmath_has_the_libmp_names_the_package_uses():
    for module, names in LIBMP_NAMES.items():
        lib = importlib.import_module(module)
        missing = sorted(name for name in names if not hasattr(lib, name))
        assert not missing, (
            f"mpmath {mpmath.__version__} has no {module}."
            f"{', '.join(missing)}, which the dd context's series and "
            f"quadrature arithmetic need")
    # and the package names no others
    used = {module: set() for module in LIBMP_NAMES}
    root = pathlib.Path(kummer_asym.__file__).parent
    for path in root.rglob("*.py"):
        text = path.read_text()
        for module, listed, line in re.findall(
                r"from (mpmath\.libmp(?:\.\w+)?) import "
                r"(?:\(([^)]*)\)|([\w, ]+))", text):
            used[module] |= set(re.findall(r"\w+", listed + line))
        used["mpmath.libmp"] |= set(re.findall(r"mpmath\.libmp\.(\w+)\b(?!\.)",
                                               text)) - {"libelefun"}
    assert used == LIBMP_NAMES


KERNELS = FixedKernels()
_REF = mpmath.MPContext()
_REF.dps = 50
UNIT = _REF.ldexp(1, -QUAD_BITS)


def kernel_bound(size, reference=1.0):
    """FixedKernels' documented error, in units of the grid, for an
    argument (or logarithm) of modulus `size`, plus the 50-digit
    reference's own rounding, relative to `reference`."""
    return (2.0 ** -12 * (1 + size / 2.0 ** 10)
            + 2.0 ** (QUAD_BITS - _REF.prec) * max(1.0, reference))


def on_quad_grid(re, im=0.0):
    return BlockComplex(int(math.ldexp(re, QUAD_BITS)),
                        int(math.ldexp(im, QUAD_BITS)), -QUAD_BITS)


def value(b):
    return _REF.mpc(_REF.ldexp(b.re, b.exp), _REF.ldexp(b.im, b.exp))


def kernel_exp(x):
    """KERNELS.exp of a block number x, read onto the kernels' grid."""
    x = x.on_grid(-KERNELS.wp)
    return BlockComplex(*KERNELS.exp(x.re, x.im))


def kernel_log1p(x):
    """KERNELS.log1p of the real part of a block number x, read onto the
    kernels' grid, as a block number."""
    return BlockComplex(KERNELS.log1p(x.on_grid(-KERNELS.wp).re), 0,
                        -KERNELS.wp)


@settings(max_examples=150, derandomize=True)
@given(st.floats(-600.0, 600.0) | st.sampled_from(
    [-600.0, -1e-9, 0.5, 33.0, 600.0, 709.0]))
def test_exp_of_a_real(w):
    x = on_quad_grid(w)
    got = kernel_exp(x)
    assert got.im == 0 and got.re.bit_length() >= KERNELS.wp - 1
    ref = _REF.exp(value(x))
    assert abs(value(got) / ref - 1) / UNIT <= kernel_bound(abs(w))


@settings(max_examples=150, derandomize=True)
@given(st.floats(0.0, 2.0 ** 70) | st.floats(0.0, 4.0) | st.sampled_from(
    [2.0 ** -200, 1e-20, 2.0 ** 60, 2.0 ** 60 + 2.0 ** 10, 2.0 ** 64]))
def test_log1p_from_zero_past_two_to_the_sixty(t):
    mantissa, exponent = math.frexp(t)
    x = BlockComplex(int(math.ldexp(mantissa, 53)), 0, exponent - 53)
    got = value(kernel_log1p(x)).real
    ref = _REF.log1p(value(x).real)
    assert abs(got - ref) / UNIT <= kernel_bound(float(ref), float(ref))


@settings(max_examples=150, derandomize=True)
@given(st.floats(-60.0, 5.0), st.floats(-1e4, 1e4) | st.floats(-4.0, 4.0))
def test_exp_of_a_complex_exponent(re_x, im_x):
    x = on_quad_grid(re_x, im_x)
    got, ref = value(kernel_exp(x)), _REF.exp(value(x))
    error = max(abs(got.real - ref.real), abs(got.imag - ref.imag))
    assert error / (UNIT * abs(ref)) <= kernel_bound(abs(complex(re_x, im_x)))


@settings(max_examples=150, derandomize=True)
@given(st.floats(2.0 ** -20, 600.0) | st.sampled_from([1e-9, 0.5, 2.2, 40.0]))
def test_log1p_of_a_reciprocal_exp(w):
    # the U integrand's log(1 + e^-w) for w > 0: the reciprocal keeps the
    # bits of e^w, so the result stays within the kernels' bound
    x = on_quad_grid(w)
    e_w = kernel_exp(x)
    got = value(BlockComplex(KERNELS.log1p_inverse(e_w.re, e_w.exp), 0,
                             -KERNELS.wp)).real
    ref = _REF.log1p(_REF.exp(-value(x).real))
    assert abs(got - ref) / UNIT <= kernel_bound(w) + 2.0 ** -12


def test_kernels_are_exact_at_zero_and_refuse_overflow():
    zero = on_quad_grid(0.0)
    assert value(kernel_exp(zero)) == 1 and value(kernel_log1p(zero)) == 0
    top = math.log(2.0 ** 1023 * (2 - 2.0 ** -52))  # a double's largest exp
    kernel_exp(on_quad_grid(top - 1e-9, 3.0))
    for x in (on_quad_grid(top + 1e-9), on_quad_grid(1e6, -2.0)):
        with pytest.raises(OverflowError):
            kernel_exp(x)
    # far below the peak a sample is exactly 0 on the grid
    tiny = kernel_exp(on_quad_grid(-1e6, 1.0)).on_grid(-QUAD_BITS)
    assert tiny.re == tiny.im == 0


# The U integral's integrand, one routine on integers
# (FixedKernels.u_integrand), against the composition it replaced, written
# out here from BlockComplex's operators and the kernels one node at a
# time: the integrand's exponent c w - d log(1 + e^-w) - x0 e^w on block
# numbers, then - g, exp and the quadrature grid.  The exponent is the
# composed one bit for bit.  A trapezoid level takes e^w along a chain of
# products, not by one exp per node, so a sample may differ from the
# composed one: its e^w is within FixedKernels' bound of the exact one, as
# an exp's is, and each of the two samples truncates E - g and itself
# onto the grid, so they differ by at most SAMPLE_UNITS units of the grid
# in each part.

SAMPLE_UNITS = 4


def reciprocal(x):
    """1 / x rounded once to wp bits, or to x's own bits where it has
    more, as the integrand formed 1 / e^w."""
    bits = max(BlockComplex.wp, (abs(x.re) | abs(x.im)).bit_length())
    wide = type("Wide", (BlockComplex,), {"__slots__": (), "wp": bits})
    return wide(1, 0, 0) / x


def composed_exponent(c, d, x0, w):
    exp_w = kernel_exp(w)
    if w.re > 0:
        d_ell = d * kernel_log1p(reciprocal(exp_w))
    else:
        d_ell = d * kernel_log1p(exp_w) - d * w
    return c * w - d_ell - x0 * exp_w


def composed_sample(c, d, x0, w, g):
    return kernel_exp(composed_exponent(c, d, x0, w) - g).on_grid(-QUAD_BITS)


def parts(b):
    return b.re, b.im, b.exp


def outcome(f, *args):
    """f's block result as integers, or the OverflowError it raised."""
    try:
        return parts(f(*args))
    except OverflowError:
        return OverflowError


def level_nodes(wl, span, n, ks):
    """The nodes wl + span k / n of a level, as peak_integral forms them."""
    bits = n.bit_length() - 1
    return [BlockComplex(wl.re + (span.re * k >> bits), 0, wl.exp)
            for k in ks]


def u_level(a, b, r, theta):
    """The fused integrand at (a, b, x0 = r e^(i theta)) in dd, its c, d
    and x0 as series numbers, and its peak, cutoffs wl and wr and shift g
    on the quadrature grid as peak_integral places them; None where the
    float twin cannot bracket the integral."""
    from kummer_asym.special import quad
    from kummer_asym.special.kummer import _u_log_integrand
    from kummer_asym.special.types import NATIVE, Precision

    ctx = Precision.dd().ctx
    a_c, b_c = ctx.coerce(a), ctx.coerce(b)
    x0_c = ctx.coerce(cmath.rect(r, theta))
    c_c, d_c = b_c - 1, a_c - b_c + 1
    c, d, x0 = (ctx.series_in(v) for v in (c_c, d_c, x0_c))
    fused = ctx.quad_kernels.u_integrand(c, d, x0)
    twin = _u_log_integrand(complex(c_c), complex(d_c), complex(x0_c))
    re = lambda w: NATIVE.to_float(twin(w))
    try:
        w_peak = quad._locate_peak(re, 0.0)
        peak_re = re(w_peak)
        drop = -math.log(ctx.eps) + 15.0
        wl, wr = (ctx.quad_in(quad._find_cutoff(re, w_peak, peak_re, s, drop))
                  for s in (-1.0, 1.0))
    except (OverflowError, quad.QuadratureError):
        return None
    peak = ctx.quad_in(w_peak)
    g = ctx.quad_in(ctx.series_out(fused(peak)))
    return fused, (c, d, x0), peak, wl, wr, g


def assert_level_is_composed(fused, cdx0, wl, g, span, n, ks):
    """The level sum over ks against the composed samples at its nodes,
    within SAMPLE_UNITS a sample; both refuse the same overflow."""
    try:
        got = fused(wl, g, span, n, ks)
    except OverflowError as exc:
        got = OverflowError, exc.args
    want_re = want_im = 0
    for node in level_nodes(wl, span, n, ks):
        try:
            sample = composed_sample(*cdx0, node, g)
        except OverflowError:
            assert got == (OverflowError, (math.ldexp(node.re, node.exp),))
            return
        want_re, want_im = want_re + sample.re, want_im + sample.im
    bound = SAMPLE_UNITS * len(ks)
    assert abs(got[0] - want_re) <= bound and abs(got[1] - want_im) <= bound


reals_a = st.floats(0.01, 400.0)
complexes_a = st.builds(lambda r, t: cmath.rect(r, t), st.floats(0.01, 400.0),
                        st.floats(-1.5, 1.5))
bs = (st.floats(0.1, 3.0) | st.integers(1, 3).map(float)
      | st.builds(complex, st.floats(0.1, 3.0), st.floats(-2.0, 2.0)))
thetas = st.just(0.0) | st.floats(-0.45 * math.pi, 0.45 * math.pi)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(a=reals_a | complexes_a, b=bs, r=st.floats(0.1, 4.0), theta=thetas,
       fractions=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
       fine=st.booleans())
def test_the_fused_exponent_is_the_composed_one_bit_for_bit(a, b, r, theta,
                                                           fractions, fine):
    setup = u_level(a, b, r, theta)
    if setup is None:
        return
    fused, (c, d, x0), peak, wl, wr, g = setup
    nodes = [wl + (wr - wl) * BlockComplex(int(math.ldexp(f, 53)), 0, -53)
             for f in fractions] + [wl, wr, peak, wl - wl]
    for node in nodes:
        node = node.on_grid(-QUAD_BITS)
        if fine:
            # a node on a finer grid than the quadrature's
            node = BlockComplex(node.re << QUAD_BITS | 1, 0, -2 * QUAD_BITS)
        assert parts(fused(node)) == parts(
            composed_exponent(c, d, x0, node))
    # a shift far below the peak's exponent: the sample at the peak is
    # beyond a double's range, and both refuse it, the level naming its node
    low = g + -800
    assert outcome(composed_sample, c, d, x0, peak, low) is OverflowError
    with pytest.raises(OverflowError) as refused:
        fused(peak, low, wr - wl, 1, (0,))
    assert refused.value.args == (math.ldexp(peak.re, peak.exp),)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=reals_a | complexes_a, b=bs, r=st.floats(0.1, 4.0), theta=thetas,
       log2_n=st.integers(4, 11), first=st.integers(0, 1),
       stride=st.integers(1, 2))
def test_a_level_sums_the_composed_samples(a, b, r, theta, log2_n, first,
                                           stride):
    # every node of a level from one cutoff to the other, so that a chain
    # of up to 2^11 products runs through w <= 0 and w > 0 alike
    setup = u_level(a, b, r, theta)
    if setup is None:
        return
    fused, cdx0, _, wl, wr, g = setup
    n = 1 << log2_n
    assert_level_is_composed(fused, cdx0, wl, g, wr - wl, n,
                             range(first, n + 1, stride))


@pytest.mark.parametrize("a, b, r, theta", [
    (0.5, 0.1, 0.1, 0.4 * math.pi), (200.0 + 150.0j, 0.7 + 0.5j, 3.0, 0.4)])
def test_the_longest_level_keeps_its_last_sample(a, b, r, theta):
    # peak_integral's longest level, 2^15 nodes at 2^16 intervals, and so
    # 2^15 - 1 products in the chain: the last sample is the difference of
    # two level sums, and within SAMPLE_UNITS of the composed one
    from kummer_asym.special.quad import _FIRST_LEVEL, _MAX_HALVINGS

    fused, cdx0, _, wl, wr, g = u_level(a, b, r, theta)
    n, span = _FIRST_LEVEL << _MAX_HALVINGS, wr - wl
    ks = range(1, n, 2)
    assert len(ks) == 2 ** 15
    assert (level_nodes(wl, span, n, ks[:1])[0].re <= 0
            < level_nodes(wl, span, n, ks[-1:])[0].re)
    whole, head = fused(wl, g, span, n, ks), fused(wl, g, span, n, ks[:-1])
    last = composed_sample(*cdx0, level_nodes(wl, span, n, ks[-1:])[0], g)
    assert abs(whole[0] - head[0] - last.re) <= SAMPLE_UNITS
    assert abs(whole[1] - head[1] - last.im) <= SAMPLE_UNITS
    # and a short level of the same integrand sums its composed samples
    assert_level_is_composed(fused, cdx0, wl, g, span, 16, range(17))


# The dd term loops of the M series, K's CF2 and I's CF1 and walk down, each
# one routine on integers (blockfloat.m_terms, k_cf2_terms, i_cf1_terms,
# i_walk), against the operator loops they replaced, written out here on
# BlockComplex numbers: every sum, peak and stop must be the same, bit for
# bit.


def dd_series(*values):
    """Numbers as the dd context's series arithmetic reads them."""
    from kummer_asym.special.types import Precision

    ctx = Precision.dd().ctx
    return ctx, [ctx.series_in(ctx.coerce(v)) for v in values]


def loop_outcome(result):
    """A routine's result with every block number as its integers."""
    if result is None:
        return None
    return tuple(parts(v) if isinstance(v, BlockComplex) else v
                 for v in result)


def block_one(ctx):
    return ctx.series_in(ctx.make_complex(1.0))


def m_operator_loop(ctx, a, b, x, min_terms, max_terms):
    term = total = block_one(ctx)
    comp = ctx.series_in(ctx.make_complex(0.0))
    max_mag, quiet = 1.0, 0
    for n in range(max_terms):
        term = term * (a + n) * x / ((b + n) * (n + 1))
        if not (term.re or term.im):
            break
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        t_mag = term.mag()
        max_mag = max(max_mag, t_mag)
        if t_mag <= ctx.series_tol * total.mag():
            quiet += 1
            if quiet >= 2 and n >= min_terms:
                break
        else:
            quiet = 0
    else:
        return None
    return total, max_mag


integer_a = st.integers(-30, 0).map(float)


@settings(max_examples=150, deadline=None, derandomize=True)
# at these points a term falls below a unit of the sum's grid, and the
# compensation carries it into the sum's last bits
@example(a=72.92320968015561, b=2.4224735026463526 - 1.026078867372159j,
         x=2.0260773152905958 - 1.1923188702601903j, min_terms=149,
         capped=False)
@example(a=310.9488948613575, b=1.9430722098611637,
         x=1.6065909163740657 + 2.8258383234434183j, min_terms=129,
         capped=False)
@given(a=reals_a | complexes_a | integer_a, b=bs,
       x=st.builds(cmath.rect, st.floats(0.01, 4.0),
                   st.floats(-math.pi, math.pi)) | st.floats(-4.0, 4.0),
       min_terms=st.integers(0, 200), capped=st.booleans())
def test_the_m_loop_is_the_operator_loop_bit_for_bit(a, b, x, min_terms,
                                                     capped):
    from kummer_asym.special.blockfloat import m_terms

    ctx, (a_s, b_s, x_s) = dd_series(a, b, x)
    # a cap below the terms the series needs: both give up
    max_terms = 40 if capped else 20000
    want = m_operator_loop(ctx, a_s, b_s, x_s, min_terms, max_terms)
    got = m_terms(a_s, b_s, x_s, min_terms, max_terms, ctx.series_tol)
    assert loop_outcome(got) == loop_outcome(want)


def k_cf2_operator_loop(ctx, a1, x, max_terms):
    one = block_one(ctx)
    a, b = -a1, 2 * (x + 1)
    d = h = delh = one / b
    t_prev, t = ctx.series_in(ctx.make_complex(0.0)), -a
    q, s, peak = t, t * delh + 1, 1.0
    for i in range(2, max_terms):
        t_prev, t = t, ((i - 1) * b * t + a * t_prev) / (i * (i - 1))
        a, b = a - 2 * (i - 1), b + 2
        q = q + t
        ad = a * d
        den = b + ad
        delh, d = ad * delh / -den, one / den
        h, term = h + delh, q * delh
        s, size = s + term, term.mag()
        peak = max(peak, size)
        if size <= ctx.series_tol * s.mag():
            return s, h, peak
    return None


mus = (st.floats(-0.5, 0.5)
       | st.builds(complex, st.floats(-0.5, 0.5), st.floats(-3.0, 3.0)))
# the arguments that K and I see on the base sheet
base_x = st.builds(cmath.rect, st.floats(2.0, 80.0),
                   st.floats(-0.5 * math.pi, 0.5 * math.pi))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(mu=mus, x=base_x, capped=st.booleans())
def test_the_cf2_loop_is_the_operator_loop_bit_for_bit(mu, x, capped):
    from kummer_asym.special.blockfloat import k_cf2_terms

    ctx, (x_s,) = dd_series(x)
    mu_c = ctx.coerce(mu)
    a1 = ctx.series_in(0.25 - mu_c * mu_c)
    max_terms = 6 if capped else 3000
    want = k_cf2_operator_loop(ctx, a1, x_s, max_terms)
    assert loop_outcome(k_cf2_terms(a1, x_s, max_terms,
                                    ctx.series_tol)) == loop_outcome(want)


def i_cf1_operator_loop(ctx, x, order, max_terms):
    one = block_one(ctx)
    a, b = x * x, 2 * (order + 1)
    d = one / b
    h = delh = x * d
    for _ in range(max_terms):
        b = b + 2
        ad = a * d
        den = b + ad
        delh, d = ad * delh / -den, one / den
        h = h + delh
        if delh.mag() <= ctx.series_tol * h.mag():
            return (h,)
    return None


def walk_operator_loop(x, r, order, steps):
    b = 2 * order
    for _ in range(steps):
        r = x / (b + x * r)
        b = b - 2
    r_next = r
    r = x / (b + x * r)
    return r, r_next


@settings(max_examples=150, deadline=None, derandomize=True)
@given(nu=st.floats(-0.5, 3.0) | st.builds(complex, st.floats(-0.5, 3.0),
                                           st.floats(-3.0, 3.0)),
       x=base_x | st.builds(cmath.rect, st.floats(0.05, 2.0),
                            st.floats(-0.5 * math.pi, 0.5 * math.pi)),
       capped=st.booleans())
def test_the_cf1_loop_and_walk_are_the_operator_loops_bit_for_bit(nu, x,
                                                                  capped):
    from kummer_asym.special.blockfloat import i_cf1_terms, i_walk

    # the orders of bessel._i_ratios: CF1 at nu + top - n, walked down
    # top - n - 1 steps and one more
    n = math.floor(complex(nu).real + 0.5)
    top = max(n + 1, math.ceil(abs(x)))
    ctx, (x_s,) = dd_series(x)
    order = ctx.coerce(nu) + (top - n)
    order_s = ctx.series_in(order)
    max_terms = 3 if capped else 3000
    want = i_cf1_operator_loop(ctx, x_s, order_s, max_terms)
    got = i_cf1_terms(x_s, order_s, max_terms, ctx.series_tol)
    assert loop_outcome(None if got is None else (got,)) == loop_outcome(want)
    if want is None:
        return
    # the walk starts from CF1's ratio rounded into the context
    r = ctx.series_in(ctx.series_out(want[0]))
    assert loop_outcome(i_walk(x_s, r, order_s, top - n - 1)) == loop_outcome(
        walk_operator_loop(x_s, r, order_s, top - n - 1))


# Each term loop of double (special.native) against its dd twin of the same
# name (blockfloat), as a kernel calls them through ctx.loops: the same
# arguments, doubles for native and their series_in images for blockfloat.
# Either both give up, or each double result is within a few eps of the dd
# one, times the loop's largest term over the result where the loop
# returns that peak.

TWIN_EPS = 16 * 2.2e-16


def twin_error(name, values, rest):
    """The largest error of native.<name> against blockfloat.<name>, in
    units of TWIN_EPS times the result's weight, or None where both give
    up; values are the loop's numbers, rest its counts and tolerance."""
    from kummer_asym.special import blockfloat, native
    from kummer_asym.special.types import Precision

    ctx = Precision.dd().ctx
    double = getattr(native, name)(*values, *rest)
    dd = getattr(blockfloat, name)(
        *[ctx.series_in(ctx.coerce(v)) for v in values], *rest)
    assert (double is None) == (dd is None), name
    if dd is None:
        return None
    if not isinstance(dd, tuple):
        double, dd = (double,), (dd,)
    # m_terms and k_cf2_terms end in the peak of their first result's terms
    peak = dd[-1] if not isinstance(dd[-1], BlockComplex) else 0.0
    worst = 0.0
    for k, (got, want) in enumerate(zip(double, dd)):
        if not isinstance(want, BlockComplex):
            continue
        want = complex(ctx.series_out(want))
        weight = abs(want) if k else max(abs(want), peak)
        worst = max(worst, abs(got - want) / (TWIN_EPS * weight))
    return worst


@settings(max_examples=200, deadline=None, derandomize=True)
@given(loop=st.sampled_from(["m_terms", "k_cf2_terms", "i_cf1_terms",
                             "i_walk"]),
       data=st.data(), capped=st.booleans())
def test_each_double_loop_is_its_dd_twin_within_rounding(loop, data, capped):
    from kummer_asym.special import native
    from kummer_asym.special.types import NATIVE

    tol = NATIVE.series_tol
    if loop == "m_terms":
        a = data.draw(reals_a | complexes_a | integer_a)
        x = data.draw(st.builds(cmath.rect, st.floats(0.01, 4.0),
                                st.floats(-math.pi, math.pi)))
        values = (a, data.draw(bs), x)
        rest = (data.draw(st.integers(0, 200)), 40 if capped else 20000, tol)
    elif loop == "k_cf2_terms":
        mu = data.draw(mus)
        values = (0.25 - mu * mu, data.draw(base_x))
        rest = (6 if capped else 3000, tol)
    else:
        nu = data.draw(st.floats(-0.5, 3.0) | st.builds(
            complex, st.floats(-0.5, 3.0), st.floats(-3.0, 3.0)))
        x = data.draw(base_x | st.builds(cmath.rect, st.floats(0.05, 2.0),
                                         st.floats(-0.5 * math.pi,
                                                   0.5 * math.pi)))
        # the orders of bessel._i_ratios
        n = math.floor(complex(nu).real + 0.5)
        top = max(n + 1, math.ceil(abs(x)))
        order = nu + (top - n)
        values, rest = (x, order), (3 if capped else 3000, tol)
        if loop == "i_walk":
            # from CF1's ratio, walked down top - n - 1 steps and one more
            values = (x, native.i_cf1_terms(x, order, 3000, tol), order)
            rest = (top - n - 1,)
    error = twin_error(loop, values, rest)
    assert error is None or error <= 1.0, (loop, values, rest, error)


# The two integer parts of dd log-gamma (gammafn._shifted_stirling): the
# shift's product against the exact product of Gaussian integers, and
# Stirling's tail against a 300-bit mpmath sum of the same coefficients.


@settings(max_examples=150, deadline=None, derandomize=True)
@given(w=st.builds(complex, st.floats(-300.0, 35.0),
                   st.sampled_from([0.0, 1e-30, -1e-300])
                   | st.floats(-300.0, 300.0)),
       shift=st.integers(1, 400))
@example(w=-2.5, shift=36)
@example(w=complex(-0.3, 1e-30), shift=36)
def test_the_shift_product_is_the_exact_one_within_its_truncations(w, shift):
    from kummer_asym.special.blockfloat import SHIFT_BITS, shift_product

    ctx, (w_s,) = dd_series(w)
    got = shift_product(w_s, shift)
    assert max(abs(got.re), abs(got.im)).bit_length() <= SHIFT_BITS
    # the exact product, (pr + i pi) 2^(shift we)
    wr, wi, we = w_s.re, w_s.im, w_s.exp
    pr, pi = 1, 0
    for k in range(shift):
        fr = wr + (k << -we)
        pr, pi = pr * fr - pi * wi, pr * wi + pi * fr
    drop = got.exp - shift * we
    assert drop >= 0
    dr, di = (got.re << drop) - pr, (got.im << drop) - pi
    # each truncation is within 2^(2 - SHIFT_BITS) of the product
    assert ((dr * dr + di * di) << (2 * SHIFT_BITS - 4)
            <= shift * shift * (pr * pr + pi * pi))


def stirling_fractions(terms=18):
    from kummer_asym.special.gammafn import bernoulli_numbers

    bern = bernoulli_numbers(2 * terms + 1)
    return [Fraction(bern[2 * n], 2 * n * (2 * n - 1))
            for n in range(1, terms + 1)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(w=st.builds(complex, st.floats(35.0, 1e4), st.floats(-1e4, 1e4))
       | st.builds(complex, st.floats(35.0, 40.0), st.floats(-1.0, 1.0))
       | st.floats(35.0, 1e60))
def test_the_horner_tail_is_the_sum_of_its_terms(w):
    from kummer_asym.special.blockfloat import TAIL_BITS, stirling_tail

    fractions = stirling_fractions()
    got = stirling_tail(dd_series(w)[1][0],
                        tuple(int(c * 2 ** TAIL_BITS) for c in fractions))
    assert got.exp == -TAIL_BITS
    ref = mpmath.MPContext()
    ref.prec = 300
    x = ref.mpc(w)
    want = ref.fsum(ref.mpf(c.numerator) / c.denominator / x ** (2 * n - 1)
                    for n, c in enumerate(fractions, 1))
    got = ref.mpc(ref.ldexp(got.re, -TAIL_BITS), ref.ldexp(got.im, -TAIL_BITS))
    assert abs(got - want) <= ref.ldexp(4, -TAIL_BITS)


# The dd sweep row (sweeprow.row_terms) against the operator row it
# replaced, written out here on the dd context's numbers as expansion._sides
# formed it (the coefficient sums, ScaledValue.add_aligned and
# expansion._finish), and against a 300-bit evaluation of the same inputs.

REF = mpmath.MPContext()
REF.prec = 300


def nearest_double(x):
    return mpmath.libmp.to_float(REF.mpf(x)._mpf_, rnd="n")


def same_double(a, b, exact, bound):
    """a and b are both the double nearest exact, unless a midpoint between
    two doubles lies within bound of exact, where either may round."""
    d = nearest_double(exact)
    for other in (math.nextafter(d, -math.inf), math.nextafter(d, math.inf)):
        if abs(exact - (REF.mpf(d) + other) / 2) <= bound:
            return True
    return a == b == d


def polar(lo, hi):
    """Complex numbers of magnitude 10^[lo, hi] at any angle."""
    return st.builds(lambda e, t: cmath.rect(10.0 ** e, t), st.floats(lo, hi),
                     st.floats(-math.pi, math.pi))


def row_inputs(order, u, coeffs, low, high, shifts, lhs, delta):
    """The dd numbers of one row: 1/u^2, the coefficient pairs, the Bessel
    mantissas, the two terms' shifts and the lhs; with delta, the lhs is
    rhs (1 + delta) on a shift near the larger term's."""
    from kummer_asym.special.types import Precision, ScaledValue, alignment

    ctx = Precision.dd().ctx
    c = ctx.coerce
    v = 1 / (c(u) * c(u))
    pairs = [(c(coeffs[2 * s]), c(coeffs[2 * s + 1])) for s in range(order)]
    shift_pair = (c(shifts[0]), c(shifts[1]))
    first, scale = alignment(*shift_pair, ctx)
    hi_shift = shift_pair[0 if first else 1]
    if delta is None:
        lhs = ScaledValue(c(lhs), c(shifts[2]))
    else:
        rhs = operator_terms(ctx, v, pairs, c(low), c(high), shift_pair)
        gap = ctx.real(shifts[2].real / 12)
        lhs = ScaledValue(rhs.mantissa * (1 + c(delta)) * ctx.exp(-gap),
                          hi_shift + gap)
    ratio_scale = ctx.exp(lhs.shift - hi_shift)
    return ctx, (v, pairs, c(low), c(high), lhs, shift_pair, ratio_scale)


def operator_terms(ctx, v, pairs, low, high, shifts):
    from kummer_asym.special.types import ScaledValue, alignment

    power = ctx.make_complex(1.0)
    sum_even = sum_odd = ctx.make_complex(0.0)
    for even_s, odd_s in pairs:
        sum_even = sum_even + power * even_s
        sum_odd = sum_odd + power * odd_s
        power = power * v
    term1 = ScaledValue(low * sum_even, shifts[0])
    term2 = ScaledValue(high * sum_odd, shifts[1])
    return term1.add_aligned(term2, *alignment(*shifts, ctx), ctx)


def operator_row(ctx, v, pairs, low, high, lhs, shifts, ratio_scale):
    from kummer_asym.expansion import _finish

    rhs = operator_terms(ctx, v, pairs, low, high, shifts)
    return _finish(lhs, lhs.to_logcomplex(ctx), rhs, ctx, ratio_scale)


def integer_row(ctx, v, pairs, low, high, lhs, shifts, ratio_scale):
    from kummer_asym.expansion import SideBySide
    from kummer_asym.special.sweeprow import row_terms
    from kummer_asym.special.types import ScaledValue, alignment

    first, scale = alignment(*shifts, ctx)
    s = ctx.series_in
    row = row_terms(s(v), [(s(e), s(o)) for e, o in pairs], s(low), s(high),
                    s(lhs.mantissa), first, s(scale), s(ratio_scale),
                    ctx.check_headroom)
    rhs = ScaledValue(ctx.series_out(row[0]), shifts[0 if first else 1])
    return SideBySide(lhs.to_logcomplex(ctx), rhs.to_logcomplex(ctx), row[1])


def reference_row(ctx, v, pairs, low, high, lhs, shifts, ratio_scale):
    """rhs, log rhs with its shift, lhs ratio_scale / rhs, and the terms'
    sizes over |rhs|, at 300 bits from the same dd numbers."""
    from kummer_asym.special.types import alignment

    first, scale = alignment(*shifts, ctx)
    x = REF.mpc
    sums = [REF.fsum(x(v) ** s * x(pair[k]) for s, pair in enumerate(pairs))
            for k in (0, 1)]
    sizes = [REF.fsum(abs(x(v)) ** s * abs(x(pair[k]))
                      for s, pair in enumerate(pairs)) for k in (0, 1)]
    terms = [x(low) * sums[0], x(high) * sums[1]]
    peaks = [abs(x(low)) * sizes[0], abs(x(high)) * sizes[1]]
    lo = 1 if first else 0
    terms[lo] *= x(scale)
    peaks[lo] *= abs(x(scale))
    rhs = terms[0] + terms[1]
    w = x(lhs.mantissa) * x(ratio_scale) / rhs
    log_rhs = REF.log(rhs) + x(shifts[1 - lo])
    return rhs, log_rhs, w, (peaks[0] + peaks[1]) / abs(rhs)


def row_outcome(f, *args):
    from kummer_asym.errors import PrecisionExhaustedError

    try:
        return f(*args)
    except PrecisionExhaustedError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True)
# the lhs far above the rhs: the discrepancy reads infinite in both
@example(order=3, u=20.0, coeffs=[1.0, 0.5, -0.3j, 0.2, 0.1, 1j, 1, 1],
         low=1.5, high=0.7j, shifts=[3.0, 1.0 + 2j, 800.0], lhs=1.0,
         delta=None)
# the larger shift on the odd term
@example(order=2, u=10.0, coeffs=[1.0, 0.5, 2.0, -1j, 1, 1, 1, 1],
         low=1.0, high=2.0, shifts=[-5.0, 5.0, 0.0], lhs=1.0, delta=1e-12)
@given(order=st.integers(1, 4),
       u=st.builds(cmath.rect, st.floats(3.0, 60.0), st.floats(-0.45, 0.45)),
       coeffs=st.lists(polar(-3, 3), min_size=8, max_size=8),
       low=polar(-2, 2), high=polar(-2, 2),
       shifts=st.lists(st.builds(complex, st.floats(-60.0, 60.0),
                                 st.floats(-10.0, 10.0)),
                       min_size=3, max_size=3),
       lhs=polar(-2, 2), delta=st.none() | polar(-15, -1))
def test_the_row_routine_is_the_operator_row(order, u, coeffs, low, high,
                                             shifts, lhs, delta):
    ctx, inputs = row_inputs(order, u, coeffs, low, high, shifts, lhs, delta)
    want = row_outcome(operator_row, ctx, *inputs)
    got = row_outcome(integer_row, ctx, *inputs)
    if isinstance(want, str):
        # the guard's message: both cancelled past the precision headroom
        assert got == want
        return
    rhs, log_rhs, w, kappa = reference_row(ctx, *inputs)
    assert got.lhs == want.lhs
    if abs(w) > REF.exp(690):
        assert got.rel_discrepancy == want.rel_discrepancy == math.inf
    else:
        disc = abs(w - 1)
        # the routine rounds once, from sums within 2^-138 of their terms
        # per order; the operator row rounds every operation to 116 bits
        assert (abs(got.rel_discrepancy - disc)
                <= math.ulp(got.rel_discrepancy) / 2
                + REF.ldexp(kappa * (abs(w) + 1), -130))
        mpc_bound = REF.ldexp(kappa * (abs(w) + 1), -100)
        assert (abs(want.rel_discrepancy - disc)
                <= math.ulp(want.rel_discrepancy) / 2 + mpc_bound)
        assert same_double(got.rel_discrepancy, want.rel_discrepancy, disc,
                           mpc_bound)
    # rhs leaves by one complex log, rounded to 116 bits in each row
    log_bound = REF.ldexp(kappa + abs(log_rhs) + 1, -100)
    for part in ("logmag", "phase"):
        exact = getattr(log_rhs, "real" if part == "logmag" else "imag")
        got_part, want_part = getattr(got.rhs, part), getattr(want.rhs, part)
        assert abs(got_part - exact) <= math.ulp(got_part) + log_bound
        assert same_double(got_part, want_part, exact, log_bound)


def test_the_row_routine_reads_zero_lhs_and_terms():
    # a zero lhs reads 1.0 against the same rhs; a zero term adds nothing,
    # so rhs is the other term, exactly, on the larger term's shift; two
    # zero terms leave a zero sum, which the guard refuses
    from kummer_asym.errors import PrecisionExhaustedError
    from kummer_asym.special.sweeprow import coefficient_sums, row_terms

    ctx, (v, pairs, low, high, lhs, shifts, ratio_scale) = row_inputs(
        2, 20.0, [1.0, 0.5, -0.3j, 0.2, 1, 1, 1, 1], 1.5, 0.7j,
        [3.0, 1.0, 0.0], 1.0, None)
    s = ctx.series_in
    zero = s(ctx.make_complex(0.0))
    args = [s(v), [(s(e), s(o)) for e, o in pairs], s(low), s(high),
            s(lhs.mantissa), True, s(ctx.exp(shifts[1] - shifts[0])),
            s(ratio_scale), ctx.check_headroom]

    def row(*zeros):
        # the row with the arguments at these indices zero
        changed = list(args)
        for index in zeros:
            changed[index] = zero
        return row_terms(*changed)

    rhs, disc = row()
    assert 0 < disc < 1
    zero_lhs = row(4)
    assert same(zero_lhs[0], rhs) and zero_lhs[1] == 1.0

    # products of block numbers are exact
    even, odd = (type(zero)(*part) for part in coefficient_sums(*args[:2]))
    x = args[4] * args[7]
    for index, want in ((3, args[2] * even), (2, args[3] * odd * args[6])):
        got, disc = row(index)
        assert exact(got) == exact(want), index
        (xr, xi), (wr, wi) = exact(x), exact(want)
        ratio = ((xr - wr) ** 2 + (xi - wi) ** 2) / (wr * wr + wi * wi)
        assert disc == pytest.approx(math.sqrt(ratio), rel=1e-15), index
    with pytest.raises(PrecisionExhaustedError, match="two-term sum"):
        row(2, 3)


def test_a_cancelling_row_raises_as_the_operator_row_does():
    from kummer_asym.errors import PrecisionExhaustedError

    # on equal shifts the odd term is minus the even one, so the two-term
    # sum cancels: to zero, or to 1e-30 of its terms
    for rest in (0.0, 1e-30):
        ctx, (v, pairs, low, high, lhs, shifts, ratio_scale) = row_inputs(
            1, 20.0, [1.0 + 0.5j, 1.0, 0, 0, 0, 0, 0, 0], 1.5, 1.0,
            [2.0, 2.0, 0.0], 1.0, None)
        high = -low * pairs[0][0] / pairs[0][1] * (1 + ctx.real(rest))
        for row in (operator_row, integer_row):
            with pytest.raises(PrecisionExhaustedError,
                               match="two-term sum cancellation"):
                row(ctx, v, pairs, low, high, lhs, shifts, ratio_scale)


def test_a_row_with_a_zero_term_reads_as_in_double(monkeypatch):
    # with every odd coefficient 0 the second term vanishes: rhs is the
    # first term alone, in both modes; with the oracle's mantissa 0 the lhs
    # vanishes: the row reads 1.0 against the rhs it has with its lhs
    from kummer_asym import expansion
    from kummer_asym.special.types import Precision, RiemannPoint, ScaledValue

    def by_mode():
        return {mode: expansion.evaluate_sides(expansion.ExpansionConfig(
            variant="u-lower", b=0.7, z=RiemannPoint(1.0, 0.3), t=20.0,
            order=3, prec=Precision(mode))) for mode in ("double", "dd")}

    full = by_mode()
    oracle = expansion.kummer_u_scaled

    def zero_oracle(*args):
        u = oracle(*args)
        return ScaledValue(u.mantissa * 0, u.shift)

    with monkeypatch.context() as patch:
        patch.setattr(expansion, "kummer_u_scaled", zero_oracle)
        for mode, row in by_mode().items():
            assert row.lhs.is_zero
            assert row.rel_discrepancy == 1.0
            assert row.rhs == full[mode].rhs

    values = expansion._coefficient_values

    def even_only(ctx, lowered, s, mu, z):
        even, _ = values(ctx, lowered, s, mu, z)
        return even, ctx.make_complex(0.0)

    monkeypatch.setattr(expansion, "_coefficient_values", even_only)
    rows = by_mode()
    # without its odd half the expansion is off by far more than either
    # mode's rounding
    assert rows["dd"].rel_discrepancy > 1e-4
    assert rows["dd"].rel_discrepancy == pytest.approx(
        rows["double"].rel_discrepancy, rel=1e-10)
    assert rows["dd"].rhs.logmag == pytest.approx(rows["double"].rhs.logmag,
                                                  rel=1e-13)


# The U quadrature's trapezoid sums (quad.peak_integral), whose dd levels
# are summed by the integrand on the integers of the grid 2^-QUAD_BITS,
# against the loop they replaced, written out here on the quadrature
# arithmetic's operators: nodes wl + h k, one sample(w, g) per node (in dd
# the composed sample) and sums by + and *.


def operator_peak_integral(integrand, w_start, ctx, plan_logf, sample_at):
    from kummer_asym.special import quad
    from kummer_asym.special.types import NATIVE, ScaledValue

    tol, native = ctx.quadrature_tol, ctx is NATIVE
    re = lambda w: NATIVE.to_float(plan_logf(w))
    w_peak = quad._locate_peak(re, NATIVE.to_float(w_start))
    peak = integrand(w_peak) if native else plan_logf(w_peak)
    drop = -math.log(tol if native else ctx.eps) + 15.0
    wl = ctx.quad_in(quad._find_cutoff(re, w_peak, NATIVE.to_float(peak),
                                       -1.0, drop))
    wr = ctx.quad_in(quad._find_cutoff(re, w_peak, NATIVE.to_float(peak),
                                       +1.0, drop))
    span = wr - wl
    g_peak = peak if native else ctx.series_out(
        integrand(ctx.quad_in(w_peak)))
    g = ctx.quad_in(g_peak)
    sample = lambda w: sample_at(w, g)
    n = quad._FIRST_LEVEL
    h = span * ctx.quad_in(1.0 / n)
    total = sum((2 * sample(wl + h * k) for k in range(1, n)),
                sample(wl) + sample(wr))
    previous, stable, needed, settled = None, 0, 2 if native else 1, False
    for _ in range(quad._MAX_HALVINGS):
        n *= 2
        h = span * ctx.quad_in(1.0 / n)
        mid = sum((sample(wl + h * k) for k in range(1, n, 2)),
                  ctx.quad_in(0.0))
        total = total + 2 * mid
        value = total * h * ctx.quad_in(0.5)
        if previous is not None:
            change, scale = ctx.mag(value - previous), ctx.mag(value)
            if scale == 0.0 or change <= tol * scale:
                stable += 1
                if stable >= needed:
                    return ScaledValue(ctx.series_out(value), g_peak)
            elif settled:
                stable, needed = 0, 2
            else:
                stable, settled = 0, change <= math.sqrt(tol) * scale
        previous = value
    raise quad.QuadratureError("no level")


def quad_outcome(f, *args):
    """f's ScaledValue as exact keys, or the type of its error."""
    from kummer_asym.special.types import exact_key

    try:
        got = f(*args)
    except (OverflowError, ArithmeticError) as exc:
        return type(exc)
    return exact_key(got.mantissa), exact_key(got.shift)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a=reals_a | complexes_a, b=bs, r=st.floats(0.1, 4.0),
       theta=st.just(0.0) | st.floats(-0.45 * math.pi, 0.45 * math.pi),
       mode=st.sampled_from(["double", "dd"]))
def test_the_trapezoid_sums_are_the_operator_loop_bit_for_bit(a, b, r, theta,
                                                             mode):
    from kummer_asym.special.kummer import _u_log_integrand
    from kummer_asym.special.quad import peak_integral
    from kummer_asym.special.types import NATIVE, Precision

    ctx = Precision(mode).ctx
    a_c, b_c = ctx.coerce(a), ctx.coerce(b)
    x0 = ctx.coerce(cmath.rect(r, theta))
    c, d = b_c - 1, a_c - b_c + 1
    twin = _u_log_integrand(ctx.to_complex(c), ctx.to_complex(d),
                            ctx.to_complex(x0))
    if ctx is NATIVE:
        integrand = sample = twin
    else:
        series = [ctx.series_in(v) for v in (c, d, x0)]
        integrand = ctx.quad_kernels.u_integrand(*series)
        sample = lambda w, g: composed_sample(*series, w, g)
    start = math.log(max(abs(complex(a)) / r, 1e-8))
    want = quad_outcome(operator_peak_integral, integrand, start, ctx, twin,
                        sample)
    assert quad_outcome(peak_integral, integrand, start, ctx, twin) == want
