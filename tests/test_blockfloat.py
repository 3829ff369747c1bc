"""Block-floating complex arithmetic against exact Fraction arithmetic."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from kummer_asym.special.blockfloat import BlockComplex

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
def test_a_sum_lies_on_the_coarser_grid(a, b):
    s = a + b
    if not (b.re or b.im):
        assert s is a
        return
    if not (a.re or a.im):
        assert s is b
        return
    assert s.exp == max(a.exp, b.exp)
    unit = Fraction(2) ** s.exp
    for got, x, y in zip(exact(s), exact(a), exact(b)):
        assert abs(got - (x + y)) < unit
    assert same(-a + -b, -(a + b))
    assert same(a - b, a + -b)


def test_mag_and_comparison_with_zero():
    assert Block(3, 4, -2).mag() == 1.25
    assert Block(1, 0, 5000).mag() == float("inf")
    assert Block(1, 0, -5000).mag() == 0.0
    assert Block(0, 0, 7) == 0
    assert not Block(8, 0, -3) == 0 and not Block(0, 1, 9) == 0
