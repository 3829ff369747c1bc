"""Exact polynomial and truncated-series arithmetic over big rationals.

Three immutable layers, all with exact rational coefficients:

  ParamPoly    univariate polynomial in one formal parameter (e.g. 'mu'
               or 'b'), degree-indexed coefficients, stored fraction-free:
               integer numerators over one positive common denominator in
               canonical form, so arithmetic is integer loops with one gcd
               pass per sum of products (`coeff_sum_of_products`, the
               kernel of every CoeffPoly and series product, sum and
               recurrence, reduces each z-degree once; + and - are its sum
               with unit factors, so each result coefficient gets one gcd
               pass, and ParamPoly + is its reduction over the nonzero
               operands, each times 1).  A scalar factor p/q (int or
               Fraction) is that reduction's scale: it multiplies the
               numerators by p and the denominator by q, and never becomes
               a ParamPoly.  `coeffs` builds the same values as a tuple of
               fractions.Fraction on each access; nothing is cached.
  CoeffPoly    polynomial in z whose coefficients are ParamPoly values,
               carrying a declared parity ('even', 'odd', 'none') that is
               validated on construction, never inferred; a sum's parity
               is the kernel's fold over its nonzero operands.
  TruncSeries  truncated power series in a named variable with CoeffPoly
               coefficients; supports the product and the exp/log
               recurrences needed for generating-function work, and powers
               of a series with constant term 1 as exp(p log).  There is
               no division by the variable: a quotient that would need one
               is written as a product with a power -1.

CoefficientTable holds one pair of CoeffPoly families (even, odd), the form
in which both coefficient routes, olver and temme, hand over their results.

The parameter is named only where it occurs: `param` is its name on a
polynomial of degree >= 1 and None on every constant, zero included, and a
CoeffPoly's `param` is the one name its coefficients mention, or None.
Operands combine under `merge_param`, so constants mix with any parameter
and two different parameters never mix.

JSON serialization writes rationals as "p/q" strings and polynomials as
degree-indexed arrays (zero polynomial = empty array).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Optional, Sequence, Union

from .errors import (
    ExactDivisionError,
    OrderStarvationError,
    ParameterMixError,
    ParityError,
)

RationalLike = Union[Fraction, int]
_ONE = Fraction(1)


def _frac(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def merge_param(a: Optional[str], b: Optional[str]) -> Optional[str]:
    """The parameter of a result from those of its operands: None is
    neutral, equal names merge, and two different names raise."""
    if a is None or a == b:
        return b
    if b is None:
        return a
    raise ParameterMixError(f"cannot mix parameters {a!r} and {b!r}")


def _canonical(param: Optional[str], numerators: list,
               denominator: int) -> "ParamPoly":
    """ParamPoly from integer numerators over a positive denominator:
    trailing zeros are trimmed, then one gcd pass divides out any factor
    shared by the denominator and every numerator."""
    n = len(numerators)
    while n and not numerators[n - 1]:
        n -= 1
    if not n:
        return _ZERO
    del numerators[n:]
    g = gcd(denominator, *numerators)
    if g != 1:
        numerators = [c // g for c in numerators]
        denominator //= g
    return ParamPoly._raw(param, tuple(numerators), denominator)


class ParamPoly:
    """Polynomial in one formal parameter with exact rational coefficients.

    Stored fraction-free: integer `numerators` over one positive common
    `denominator`, kept canonical (no trailing zero numerator, the zero
    polynomial as ((), 1), no factor shared by the denominator and every
    numerator), so equal polynomials have equal storage.  `param` names the
    parameter when the degree is >= 1 and is None on every constant.
    """

    __slots__ = ("param", "numerators", "denominator")

    def __init__(self, param: Optional[str], coeffs: Iterable[RationalLike] = ()):
        fracs = [_frac(c) for c in coeffs]
        n = len(fracs)
        while n and not fracs[n - 1]:
            n -= 1
        del fracs[n:]
        if n > 1 and not isinstance(param, str):
            raise ValueError(f"a polynomial of degree {n - 1} needs a parameter name")
        # over the lcm of reduced denominators no common factor is left
        den = lcm(*[f.denominator for f in fracs])
        object.__setattr__(self, "param", param if n > 1 else None)
        object.__setattr__(self, "numerators",
                           tuple([f.numerator * (den // f.denominator) for f in fracs]))
        object.__setattr__(self, "denominator", den)

    @classmethod
    def _raw(cls, param: Optional[str], numerators: tuple, denominator: int) -> "ParamPoly":
        """Wrap storage that is already canonical; a constant drops the name."""
        self = object.__new__(cls)
        object.__setattr__(self, "param", param if len(numerators) > 1 else None)
        object.__setattr__(self, "numerators", numerators)
        object.__setattr__(self, "denominator", denominator)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("ParamPoly is immutable")

    @property
    def coeffs(self) -> tuple:
        """Degree-indexed coefficients as a tuple of Fraction."""
        den = self.denominator
        return tuple([Fraction(c, den) for c in self.numerators])

    @classmethod
    def zero(cls) -> "ParamPoly":
        return cls._raw(None, (), 1)

    @classmethod
    def one(cls) -> "ParamPoly":
        return cls._raw(None, (1,), 1)

    @classmethod
    def constant(cls, value: RationalLike) -> "ParamPoly":
        value = _frac(value)
        if not value:
            return cls.zero()
        return cls._raw(None, (value.numerator,), value.denominator)

    @classmethod
    def variable(cls, param: str) -> "ParamPoly":
        return cls(param, (0, 1))

    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.numerators) - 1

    def is_zero(self) -> bool:
        return not self.numerators

    def coefficient(self, k: int) -> Fraction:
        if 0 <= k < len(self.numerators):
            return Fraction(self.numerators[k], self.denominator)
        return Fraction(0)

    @staticmethod
    def _coerce(other) -> "ParamPoly":
        if isinstance(other, ParamPoly):
            return other
        return ParamPoly.constant(other)

    def __add__(self, other) -> "ParamPoly":
        """The sum as _reduce's sum of products, each operand times 1."""
        if not isinstance(other, (ParamPoly, int, Fraction)):
            return NotImplemented
        other = self._coerce(other)
        return _reduce(merge_param(self.param, other.param),
                       [(p.numerators, (1,), p.denominator)
                        for p in (self, other) if p.numerators], 1, 1)

    __radd__ = __add__

    def __neg__(self) -> "ParamPoly":
        return ParamPoly._raw(self.param, tuple([-c for c in self.numerators]),
                              self.denominator)

    def __sub__(self, other) -> "ParamPoly":
        if not isinstance(other, (ParamPoly, int, Fraction)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "ParamPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "ParamPoly":
        """A product of polynomials, or of a polynomial and a scalar p/q
        as _reduce's scale: no scalar becomes a ParamPoly."""
        if isinstance(other, ParamPoly):
            return _reduce(merge_param(self.param, other.param),
                           [(self.numerators, other.numerators,
                             self.denominator * other.denominator)], 1, 1)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        p, q = other.as_integer_ratio()
        return _reduce(self.param, [(self.numerators, (1,), self.denominator)],
                       p, q)

    __rmul__ = __mul__

    def compose(self, image: "ParamPoly") -> "ParamPoly":
        """Substitute the parameter by another polynomial q/e: Horner on
        integers over e^deg, then one gcd pass."""
        nums, q, e = self.numerators, image.numerators, image.denominator
        acc = []
        for k, c in enumerate(reversed(nums)):
            prev, acc = acc, [0] * max(len(acc) + len(q) - 1, 1)
            _mac(acc, prev, q)
            acc[0] += c * e ** k
        den = self.denominator * e ** max(len(nums) - 1, 0)
        return _canonical(image.param, acc, den)

    def reflect(self) -> "ParamPoly":
        """Substitute parameter -> -parameter: odd-degree coefficients negated."""
        return ParamPoly._raw(
            self.param,
            tuple([-c if k % 2 else c for k, c in enumerate(self.numerators)]),
            self.denominator)

    def evaluate(self, value, convert: Callable[[Fraction], object] = None):
        """Horner evaluation; `convert` maps Fraction into the target arithmetic."""
        conv = convert if convert is not None else (lambda f: complex(f))
        result = conv(Fraction(0))
        for c in reversed(self.coeffs):
            result = result * value + conv(c)
        return result

    def to_json(self) -> list:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, param: str, data: Sequence[str]) -> "ParamPoly":
        return cls(param, [Fraction(s) for s in data])

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParamPoly):
            return NotImplemented
        return (self.numerators == other.numerators
                and self.denominator == other.denominator
                and self.param == other.param)

    def __hash__(self):
        return hash((self.numerators, self.denominator, self.param))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if not self.numerators:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                exp = self.param if k == 1 else f"{self.param}^{k}"
                parts.append(f"{head}{exp}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"ParamPoly({self.param!r}, {[str(c) for c in self.coeffs]})"


_ZERO = ParamPoly.zero()


def _mac(out: list, x: Sequence[int], y: Sequence[int], s: int = 1) -> None:
    """Add s times the convolution of x and y into out, all integers."""
    if len(x) < len(y):
        x, y = y, x
    for j, c in enumerate(y):
        if c:
            c *= s
            for i, v in enumerate(x, j):
                out[i] += v * c


def _reduce(param: Optional[str], terms: list, sn: int, sd: int) -> ParamPoly:
    """sn/sd times the sum of the integer convolutions in `terms`, each a
    pair of numerator tuples with the product of their denominators, over
    one common denominator, then one gcd pass (zero if `terms` is empty)."""
    den = lcm(*[d for _, _, d in terms])
    out = [0] * max([len(x) + len(y) - 1 for x, y, _ in terms], default=0)
    for x, y, d in terms:
        _mac(out, x, y, den // d * sn)
    return _canonical(param, out, den * sd)


PARITIES = ("even", "odd", "none")


def _mul_parity(a: str, b: str) -> str:
    if a == "none" or b == "none":
        return "none"
    return "even" if a == b else "odd"


def _flip(parity: str) -> str:
    return {"even": "odd", "odd": "even", "none": "none"}[parity]


def coeff_sum_of_products(pairs: Iterable[tuple],
                          scale: RationalLike = _ONE) -> "CoeffPoly":
    """scale * sum(a * c for a, c in pairs) over CoeffPoly operands: every
    z-degree gathers its coefficient products and is reduced once.  Names
    merge over the nonzero products, as in the fold of * and + (a zero
    operand carries no name), and the parity folds the products' parities
    over the nonzero products: equal parities keep theirs, mixed ones
    give 'none', and no product at all gives 'even'.  This fold is the
    parity rule of + and -, which are this sum with unit factors."""
    sn, sd = _frac(scale).as_integer_ratio()
    slots = []
    param = parity = None
    for a, c in pairs:
        if not a.coeffs or not c.coeffs:
            continue
        param = merge_param(merge_param(param, a.param), c.param)
        p = _mul_parity(a.parity, c.parity)
        parity = p if parity in (None, p) else "none"
        slots += [[] for _ in range(len(a.coeffs) + len(c.coeffs) - 1 - len(slots))]
        for i, x in enumerate(a.coeffs):
            if x.numerators:
                xn, xd = x.numerators, x.denominator
                for k, y in enumerate(c.coeffs, i):
                    if y.numerators:
                        slots[k].append((xn, y.numerators, xd * y.denominator))
    return CoeffPoly([_reduce(param, s, sn, sd) if s else _ZERO for s in slots],
                     parity or "even")


class CoeffPoly:
    """Polynomial in z over ParamPoly coefficients, with declared parity."""

    __slots__ = ("coeffs", "parity", "param")

    def __init__(self, coeffs: Iterable[ParamPoly], parity: str = "none"):
        coeffs = list(coeffs)
        n = len(coeffs)
        while n and coeffs[n - 1].is_zero():
            n -= 1
        coeffs = coeffs[:n]
        name = None
        for c in coeffs:
            name = merge_param(name, c.param)
        if parity not in PARITIES:
            raise ValueError(f"unknown parity {parity!r}")
        bad = "odd" if parity == "even" else "even" if parity == "odd" else None
        if bad is not None:
            offset = 1 if parity == "even" else 0
            for k in range(offset, len(coeffs), 2):
                if not coeffs[k].is_zero():
                    raise ParityError(
                        f"declared {parity} but z^{k} coefficient is {coeffs[k]}")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "parity", parity)
        object.__setattr__(self, "param", name)

    def __setattr__(self, name, value):
        raise AttributeError("CoeffPoly is immutable")

    @classmethod
    def zero(cls, parity: str = "even") -> "CoeffPoly":
        return cls((), parity=parity)

    @classmethod
    def one(cls) -> "CoeffPoly":
        return cls((ParamPoly.one(),), parity="even")

    @classmethod
    def from_param(cls, p: ParamPoly) -> "CoeffPoly":
        """Embed a parameter polynomial as a z-degree-0 (even) polynomial."""
        return cls((p,), parity="even")

    @classmethod
    def monomial(cls, k: int, coeff: RationalLike = 1) -> "CoeffPoly":
        c = [_ZERO] * k + [ParamPoly.constant(coeff)]
        return cls(c, parity="even" if k % 2 == 0 else "odd")

    def z_degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> ParamPoly:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    @staticmethod
    def _coerce(other) -> "CoeffPoly":
        if isinstance(other, CoeffPoly):
            return other
        return CoeffPoly.from_param(ParamPoly._coerce(other))

    def __add__(self, other) -> "CoeffPoly":
        if not isinstance(other, (CoeffPoly, ParamPoly, int, Fraction)):
            return NotImplemented
        return coeff_sum_of_products(((self, _UNIT), (self._coerce(other), _UNIT)))

    __radd__ = __add__

    def __neg__(self) -> "CoeffPoly":
        return CoeffPoly([-c for c in self.coeffs], parity=self.parity)

    def __sub__(self, other) -> "CoeffPoly":
        if not isinstance(other, (CoeffPoly, ParamPoly, int, Fraction)):
            return NotImplemented
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "CoeffPoly":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "CoeffPoly":
        if not isinstance(other, (CoeffPoly, ParamPoly, int, Fraction)):
            return NotImplemented
        return coeff_sum_of_products(((self, self._coerce(other)),))

    __rmul__ = __mul__

    def differentiate(self) -> "CoeffPoly":
        return CoeffPoly(
            [k * c for k, c in enumerate(self.coeffs)][1:],
            parity=_flip(self.parity))

    def integrate_from_zero(self) -> "CoeffPoly":
        """Antiderivative vanishing at z=0; parity flips."""
        out = [_ZERO]
        for k, c in enumerate(self.coeffs):
            out.append(c * Fraction(1, k + 1))
        return CoeffPoly(out, parity=_flip(self.parity))

    def divide_by_z(self, power: int = 1) -> "CoeffPoly":
        """Exact division by z**power; raises if any low coefficient is nonzero."""
        for k in range(min(power, len(self.coeffs))):
            if not self.coeffs[k].is_zero():
                raise ExactDivisionError(
                    f"z^{k} coefficient {self.coeffs[k]} blocks division by z^{power}")
        parity = self.parity if power % 2 == 0 else _flip(self.parity)
        return CoeffPoly(self.coeffs[power:], parity=parity)

    def mul_by_z(self, power: int = 1) -> "CoeffPoly":
        if self.is_zero():
            return self
        parity = self.parity if power % 2 == 0 else _flip(self.parity)
        return CoeffPoly([_ZERO] * power + list(self.coeffs), parity=parity)

    def substitute_param(self, image: ParamPoly) -> "CoeffPoly":
        """Replace the formal parameter by `image` in every coefficient."""
        return CoeffPoly(
            [c.compose(image) for c in self.coeffs], parity=self.parity)

    def reflect(self) -> "CoeffPoly":
        """Substitute parameter -> -parameter in every coefficient; parity kept."""
        return CoeffPoly(
            [c.reflect() for c in self.coeffs], parity=self.parity)

    def evaluate(self, param_value, z_value, convert: Callable[[Fraction], object] = None):
        conv = convert if convert is not None else (lambda f: complex(f))
        result = conv(Fraction(0))
        for c in reversed(self.coeffs):
            result = result * z_value + c.evaluate(param_value, conv)
        return result

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    @classmethod
    def from_json(cls, param: str, data: Sequence[Sequence[str]], parity: str = "none"):
        return cls([ParamPoly.from_json(param, row) for row in data], parity=parity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoeffPoly):
            return NotImplemented
        # parity is a declaration; equality is about values
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            cs = str(c)
            if "+" in cs or "-" in cs[1:]:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            else:
                zk = "z" if k == 1 else f"z^{k}"
                parts.append(zk if cs == "1" else f"{cs}*{zk}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"CoeffPoly({self.param!r}, parity={self.parity!r}, {self.to_json()})"


_UNIT = CoeffPoly.one()


@dataclass(frozen=True)
class CoefficientTable:
    """Families even[s], odd[s] for s <= order, in the parameter `param`,
    for the perturbation polynomial f; what both coefficient routes return."""

    f: CoeffPoly
    order: int
    param: str
    even: tuple[CoeffPoly, ...]
    odd: tuple[CoeffPoly, ...]


class TruncSeries:
    """Power series in a named variable, truncated at a fixed order.

    Coefficients are CoeffPoly values; index k holds the var**k coefficient
    and everything beyond `order` is dropped by every operation.
    """

    __slots__ = ("var", "order", "coeffs")

    def __init__(self, var: str, order: int, coeffs: Iterable[CoeffPoly]):
        if order < 0:
            raise ValueError("series order must be >= 0")
        coeffs = list(coeffs)[: order + 1]
        coeffs += [CoeffPoly.zero()] * (order + 1 - len(coeffs))
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("TruncSeries is immutable")

    @classmethod
    def from_rationals(cls, var: str, order: int,
                       values: Sequence[RationalLike]) -> "TruncSeries":
        return cls(var, order, [CoeffPoly.from_param(ParamPoly.constant(v)) for v in values])

    @classmethod
    def one(cls, var: str, order: int) -> "TruncSeries":
        return cls(var, order, (_UNIT,))

    def coefficient(self, k: int) -> CoeffPoly:
        if not 0 <= k <= self.order:
            raise OrderStarvationError(
                f"coefficient {k} beyond truncation order {self.order}")
        return self.coeffs[k]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)

    def _check(self, other: "TruncSeries"):
        if self.var != other.var:
            raise ValueError(f"series variables differ: {self.var!r} vs {other.var!r}")

    def _coerce(self, other) -> "TruncSeries":
        if isinstance(other, TruncSeries):
            return other
        return TruncSeries(self.var, self.order, (CoeffPoly._coerce(other),))

    def __add__(self, other) -> "TruncSeries":
        other = self._coerce(other)
        self._check(other)
        order = min(self.order, other.order)
        return TruncSeries(self.var, order,
                           [self.coeffs[k] + other.coeffs[k] for k in range(order + 1)])

    __radd__ = __add__

    def __neg__(self) -> "TruncSeries":
        return TruncSeries(self.var, self.order, [-c for c in self.coeffs])

    def __sub__(self, other) -> "TruncSeries":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "TruncSeries":
        return (-self) + self._coerce(other)

    def __mul__(self, other) -> "TruncSeries":
        if not isinstance(other, TruncSeries):
            return TruncSeries(self.var, self.order, [c * other for c in self.coeffs])
        self._check(other)
        order = min(self.order, other.order)
        a, c = self.coeffs, other.coeffs
        return TruncSeries(self.var, order, [
            coeff_sum_of_products([(a[i], c[n - i]) for i in range(n + 1)])
            for n in range(order + 1)])

    __rmul__ = __mul__

    def exp(self) -> "TruncSeries":
        """exp of a series with zero constant term."""
        if not self.coeffs[0].is_zero():
            raise ExactDivisionError("exp needs a zero constant term")
        deriv = [c * k for k, c in enumerate(self.coeffs)]
        out = [_UNIT]
        for n in range(1, self.order + 1):
            out.append(coeff_sum_of_products(
                [(deriv[k], out[n - k]) for k in range(1, n + 1)], Fraction(1, n)))
        return TruncSeries(self.var, self.order, out)

    def log(self) -> "TruncSeries":
        """log of a series with constant term exactly 1."""
        if self.coeffs[0] != _UNIT:
            raise ExactDivisionError("log needs constant term 1")
        out = [CoeffPoly.zero()]
        neg_deriv = [out[0]]  # -k * out[k]
        for n in range(1, self.order + 1):
            pairs = [(self.coeffs[n], CoeffPoly._coerce(n))]
            pairs += [(neg_deriv[k], self.coeffs[n - k]) for k in range(1, n)]
            out.append(coeff_sum_of_products(pairs, Fraction(1, n)))
            neg_deriv.append(out[n] * (-n))
        return TruncSeries(self.var, self.order, out)

    def pow_param(self, exponent) -> "TruncSeries":
        """Series**p for a polynomial exponent, as exp(p*log(series))."""
        return (self.log() * ParamPoly._coerce(exponent)).exp()

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (self.var == other.var and self.order == other.order
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.var, self.order, self.coeffs))

    def __str__(self) -> str:
        parts = [f"({c})*{self.var}^{k}" for k, c in enumerate(self.coeffs) if not c.is_zero()]
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O({self.var}^{self.order + 1})"

    __repr__ = __str__
