"""Certified real arithmetic: rational intervals, exact radicals, and a
comparison layer that refines on demand.

Three levels cooperate here:

* ``Interval`` is a closed interval with ``Fraction`` endpoints. All
  rounding is outward, so any value proven inside stays inside.
* ``QuadExt`` is an exact element of a real multi-quadratic extension,
  stored as a rational linear combination of square roots of distinct
  squarefree integers. Signs of nonzero elements are decidable, so
  comparisons never need a precision cap.
* ``CReal`` wraps either a ``QuadExt`` or a lazily refinable enclosure
  (for algebraic atoms that are not multi-quadratic). Comparisons refine
  in rounds and raise ``PrecisionCapError`` rather than guess.

The atoms themselves (roots of integer polynomials) come from
``roots.PolyRoots``. Everything here is stdlib arithmetic: exact radicals
need only trial division (``prime_factors``), and a radicand that trial
division cannot settle is enclosed instead.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from itertools import chain
from math import gcd, isqrt

from .errors import PrecisionCapError

DEFAULT_PRECISION_CAP_BITS = 4096

_ZERO = Fraction(0)


def sqrt_lower(q: Fraction, bits: int) -> Fraction:
    """A rational lower bound for sqrt(q), within 2**-bits of it."""
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return _ZERO
    s = 1 << bits
    num, den = q.numerator, q.denominator
    return Fraction(isqrt(num * den * s * s), den * s)


def sqrt_upper(q: Fraction, bits: int) -> Fraction:
    if q < 0:
        raise ValueError("negative radicand")
    if q == 0:
        return _ZERO
    s = 1 << bits
    num, den = q.numerator, q.denominator
    r = isqrt(num * den * s * s)
    if r * r < num * den * s * s:
        r += 1
    return Fraction(r, den * s)


class IndeterminateInterval(ArithmeticError):
    """Internal: an interval operation needs tighter inputs (e.g. division
    by an interval straddling zero). Callers refine and retry."""


class Interval:
    """Closed interval [lo, hi] with rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo, hi = Fraction(lo), Fraction(hi)
        if lo > hi:
            raise ValueError("interval endpoints out of order")
        self.lo = lo
        self.hi = hi

    @classmethod
    def point(cls, q) -> "Interval":
        q = Fraction(q)
        return cls(q, q)

    def __repr__(self) -> str:
        return f"Interval({self.lo}, {self.hi})"

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __mul__(self, other: "Interval") -> "Interval":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Interval(min(cands), max(cands))

    def scaled(self, q) -> "Interval":
        q = Fraction(q)
        if q >= 0:
            return Interval(self.lo * q, self.hi * q)
        return Interval(self.hi * q, self.lo * q)

    def recip(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise IndeterminateInterval("reciprocal of interval containing zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def sq(self) -> "Interval":
        if self.lo >= 0:
            return Interval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return Interval(self.hi * self.hi, self.lo * self.lo)
        return Interval(_ZERO, max(self.lo * self.lo, self.hi * self.hi))

    def sqrt(self, bits: int) -> "Interval":
        if self.hi < 0:
            raise IndeterminateInterval("sqrt of a negative interval")
        lo = self.lo if self.lo > 0 else _ZERO
        return Interval(sqrt_lower(lo, bits), sqrt_upper(self.hi, bits))

    def pow(self, k: int) -> "Interval":
        if k < 0:
            return self.pow(-k).recip()
        out = Interval.point(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, q) -> bool:
        return self.lo <= q <= self.hi

    def strictly_positive(self) -> bool:
        return self.lo > 0

    def strictly_negative(self) -> bool:
        return self.hi < 0


class ComplexBox:
    """Axis-aligned rectangle in the complex plane with rational corners."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval, im: Interval):
        self.re = re
        self.im = im

    def __repr__(self) -> str:
        return f"ComplexBox({self.re}, {self.im})"

    def conj(self) -> "ComplexBox":
        return ComplexBox(self.re, -self.im)

    def __add__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(self.re + other.re, self.im + other.im)

    def __mul__(self, other: "ComplexBox") -> "ComplexBox":
        return ComplexBox(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def modulus_sq(self) -> Interval:
        return self.re.sq() + self.im.sq()

    def recip(self) -> "ComplexBox":
        m = self.modulus_sq()
        if m.lo <= 0:
            raise IndeterminateInterval("reciprocal of a box near zero")
        inv = m.recip()
        return ComplexBox(self.re * inv, (-self.im) * inv)

    def scaled(self, q) -> "ComplexBox":
        return ComplexBox(self.re.scaled(q), self.im.scaled(q))

    def pow(self, k: int) -> "ComplexBox":
        out = ComplexBox(Interval.point(1), Interval.point(0))
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def intersects(self, other: "ComplexBox") -> bool:
        return not (
            self.re.hi < other.re.lo
            or other.re.hi < self.re.lo
            or self.im.hi < other.im.lo
            or other.im.hi < self.im.lo
        )


_TRIAL_LIMIT = 1 << 16


def prime_factors(m: int) -> dict[int, int] | None:
    """Prime factorisation {p: e} of m >= 1, or None when trial division
    cannot settle it.

    Trial division below 2^16 leaves a cofactor c with no prime factor
    below 2^16, so c < 2^32 is 1 or a prime, and a perfect square
    c < 2^64 is the square of a prime. Any other cofactor makes the
    result None.
    """
    if m < 1:
        raise ValueError("prime factorisation needs a positive integer")
    out: dict[int, int] = {}
    for p in chain((2,), range(3, _TRIAL_LIMIT, 2)):
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out[p] = e
    if m == 1:
        return out
    if m < _TRIAL_LIMIT * _TRIAL_LIMIT:
        out[m] = 1
        return out
    r = isqrt(m)
    if r * r == m and r < _TRIAL_LIMIT * _TRIAL_LIMIT:
        out[r] = 2
        return out
    return None


def _squarefree_decompose(m: int) -> tuple[int, int] | None:
    """m = s*s*d with d squarefree. Requires m >= 0. None when
    prime_factors cannot settle m."""
    if m < 0:
        raise ValueError("negative radicand")
    if m in (0, 1):
        return m, 1
    factors = prime_factors(m)
    if factors is None:
        return None
    s, d = 1, 1
    for p, e in factors.items():
        s *= p ** (e // 2)
        if e % 2:
            d *= p
    return s, d


class QuadExt:
    """Exact real number of the form sum(c_d * sqrt(d)) with rational c_d
    and distinct squarefree integer radicands d >= 1 (d = 1 holds the
    rational part). Closed under ring operations and division; sign is
    exactly decidable because distinct radicals are linearly independent
    over the rationals.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[int, Fraction] | None = None):
        self.terms = {d: c for d, c in (terms or {}).items() if c != 0}

    @classmethod
    def rational(cls, q) -> "QuadExt":
        return cls({1: Fraction(q)})

    @classmethod
    def sqrt_rational(cls, q) -> "QuadExt | None":
        """Exact sqrt(q) for a rational q >= 0, or None when trial
        division cannot factor q's numerator times its denominator (see
        ``prime_factors``)."""
        q = Fraction(q)
        if q < 0:
            raise ValueError("negative radicand")
        sd = _squarefree_decompose(q.numerator * q.denominator)
        if sd is None:
            return None
        s, d = sd
        return cls({d: Fraction(s, q.denominator)})

    def __repr__(self) -> str:
        if not self.terms:
            return "QuadExt(0)"
        parts = [
            (f"{c}" if d == 1 else f"{c}*sqrt({d})")
            for d, c in sorted(self.terms.items())
        ]
        return "QuadExt(" + " + ".join(parts) + ")"

    def __add__(self, other: "QuadExt") -> "QuadExt":
        out = dict(self.terms)
        for d, c in other.terms.items():
            out[d] = out.get(d, _ZERO) + c
        return QuadExt(out)

    def __neg__(self) -> "QuadExt":
        return QuadExt({d: -c for d, c in self.terms.items()})

    def __sub__(self, other: "QuadExt") -> "QuadExt":
        return self + (-other)

    def __mul__(self, other: "QuadExt") -> "QuadExt":
        out: dict[int, Fraction] = {}
        for d1, c1 in self.terms.items():
            for d2, c2 in other.terms.items():
                g = gcd(d1, d2)
                d = (d1 // g) * (d2 // g)
                c = c1 * c2 * g
                out[d] = out.get(d, _ZERO) + c
        return QuadExt(out)

    def scaled(self, q) -> "QuadExt":
        q = Fraction(q)
        return QuadExt({d: c * q for d, c in self.terms.items()})

    def is_zero(self) -> bool:
        return not self.terms

    def is_rational(self) -> bool:
        return all(d == 1 for d in self.terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational element")
        return self.terms.get(1, _ZERO)

    def inverse(self) -> "QuadExt":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return QuadExt({1: 1 / self.terms[1]})
        # a radicand p > 1 that every radicand is a multiple of or coprime
        # to (a prime would do; gcds find one without factoring), so
        # self = a + sqrt(p) b with sqrt(p) absent from a and b
        p = min(d for d in self.terms if d != 1)
        while True:
            g = next((g for g in (gcd(p, d) for d in self.terms) if 1 < g < p), p)
            if g == p:
                break
            p = g
        plain: dict[int, Fraction] = {}
        radical: dict[int, Fraction] = {}
        for d, c in self.terms.items():
            if d % p == 0:
                radical[d // p] = c
            else:
                plain[d] = c
        a, b = QuadExt(plain), QuadExt(radical)
        den = a * a - (b * b).scaled(p)
        inv_den = den.inverse()
        return (a - QuadExt({p: Fraction(1)}) * b) * inv_den

    def __truediv__(self, other: "QuadExt") -> "QuadExt":
        return self * other.inverse()

    def pow(self, k: int) -> "QuadExt":
        if k < 0:
            return self.inverse().pow(-k)
        out = QuadExt.rational(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def sqrt_exact(self) -> "QuadExt | None":
        """Exact square root when the element is a nonnegative rational
        that trial division settles (``sqrt_rational``); None otherwise,
        and the caller encloses the root."""
        if not self.is_rational() or self.rational_value() < 0:
            return None
        return QuadExt.sqrt_rational(self.rational_value())

    def interval(self, bits: int) -> Interval:
        out = Interval.point(0)
        for d, c in self.terms.items():
            if d == 1:
                out = out + Interval.point(c)
            else:
                out = out + Interval(sqrt_lower(Fraction(d), bits), sqrt_upper(Fraction(d), bits)).scaled(c)
        return out

    def sign(self) -> int:
        """Exact sign. Distinct squarefree radicals are linearly independent
        over the rationals, so a nonzero element separates from zero at some
        finite precision."""
        if not self.terms:
            return 0
        if len(self.terms) == 1:
            c = next(iter(self.terms.values()))
            return 1 if c > 0 else -1
        bits = 32
        while True:
            iv = self.interval(bits)
            if iv.strictly_positive():
                return 1
            if iv.strictly_negative():
                return -1
            bits *= 2
            if bits > (1 << 22):
                raise PrecisionCapError("radical sign undecided at 2^22 precision bits")

    def compare(self, other: "QuadExt") -> int:
        return (self - other).sign()


class CReal:
    """A certified real: either exact (``QuadExt``) or a refinable enclosure.

    Arithmetic keeps exactness whenever both operands are exact. A
    comparison between values that are equal but not both exact cannot
    terminate; it raises ``PrecisionCapError`` at the configured cap.
    """

    __slots__ = ("exact", "_fn")

    def __init__(self, exact: QuadExt | None, fn: Callable[[int], Interval] | None):
        self.exact = exact
        self._fn = fn

    @classmethod
    def from_rational(cls, q) -> "CReal":
        return cls(QuadExt.rational(q), None)

    @classmethod
    def from_quadext(cls, q: QuadExt) -> "CReal":
        return cls(q, None)

    @classmethod
    def from_refinable(cls, fn: Callable[[int], Interval]) -> "CReal":
        return cls(None, fn)

    @classmethod
    def wrap(cls, x) -> "CReal":
        if isinstance(x, CReal):
            return x
        if isinstance(x, QuadExt):
            return cls.from_quadext(x)
        if isinstance(x, (int, Fraction)):
            return cls.from_rational(x)
        raise TypeError(f"cannot wrap {type(x)!r}")

    def is_exact(self) -> bool:
        return self.exact is not None

    def interval(self, bits: int) -> Interval:
        if self.exact is not None:
            return self.exact.interval(bits)
        return self._fn(bits)

    def __add__(self, other) -> "CReal":
        other = CReal.wrap(other)
        if self.exact is not None and other.exact is not None:
            return CReal.from_quadext(self.exact + other.exact)
        return CReal.from_refinable(lambda bits: self.interval(bits) + other.interval(bits))

    __radd__ = __add__

    def __neg__(self) -> "CReal":
        if self.exact is not None:
            return CReal.from_quadext(-self.exact)
        return CReal.from_refinable(lambda bits: -self.interval(bits))

    def __sub__(self, other) -> "CReal":
        return self + (-CReal.wrap(other))

    def __rsub__(self, other) -> "CReal":
        return CReal.wrap(other) + (-self)

    def __mul__(self, other) -> "CReal":
        other = CReal.wrap(other)
        if self.exact is not None and other.exact is not None:
            return CReal.from_quadext(self.exact * other.exact)
        return CReal.from_refinable(lambda bits: self.interval(bits) * other.interval(bits))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "CReal":
        other = CReal.wrap(other)
        if self.exact is not None and other.exact is not None:
            return CReal.from_quadext(self.exact / other.exact)
        return CReal.from_refinable(lambda bits: self.interval(bits) * other.interval(bits).recip())

    def __rtruediv__(self, other) -> "CReal":
        return CReal.wrap(other) / self

    def pow(self, k: int) -> "CReal":
        if self.exact is not None:
            return CReal.from_quadext(self.exact.pow(k))
        return CReal.from_refinable(lambda bits: self.interval(bits).pow(k))

    def sqrt(self) -> "CReal":
        if self.exact is not None:
            ex = self.exact.sqrt_exact()
            if ex is not None:
                return CReal.from_quadext(ex)
        return CReal.from_refinable(lambda bits: self.interval(bits).sqrt(bits))

    @staticmethod
    def minimum(values) -> "CReal":
        vals = [CReal.wrap(v) for v in values]
        if not vals:
            raise ValueError("minimum of nothing")
        if all(v.exact is not None for v in vals):
            best = vals[0].exact
            for v in vals[1:]:
                if v.exact.compare(best) < 0:
                    best = v.exact
            return CReal.from_quadext(best)

        def fn(bits: int) -> Interval:
            ivs = [v.interval(bits) for v in vals]
            return Interval(min(iv.lo for iv in ivs), min(iv.hi for iv in ivs))

        return CReal.from_refinable(fn)

    def compare(self, other, cap_bits: int | None = None) -> int:
        """-1, 0 or +1. Exact pairs always decide; refinable pairs refine
        until separated or the cap is hit."""
        other = CReal.wrap(other)
        if self.exact is not None and other.exact is not None:
            return self.exact.compare(other.exact)
        cap = DEFAULT_PRECISION_CAP_BITS if cap_bits is None else cap_bits
        bits = 64
        while True:
            try:
                iv = (self - other).interval(bits)
            except IndeterminateInterval:
                iv = None
            if iv is not None:
                if iv.strictly_positive():
                    return 1
                if iv.strictly_negative():
                    return -1
            if bits >= cap:
                raise PrecisionCapError(
                    f"comparison undecided at {bits} precision bits; "
                    "values may be exactly equal"
                )
            bits = min(bits * 2, cap)
