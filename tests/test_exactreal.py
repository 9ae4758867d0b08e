from fractions import Fraction

import pytest

from latnaf import exactreal as xr
from latnaf.errors import PrecisionCapError


def test_sqrt_bounds_bracket():
    for q in (Fraction(2), Fraction(1, 2), Fraction(8, 7), Fraction(0)):
        lo = xr.sqrt_lower(q, 80)
        hi = xr.sqrt_upper(q, 80)
        assert lo * lo <= q <= hi * hi
        assert hi - lo <= Fraction(1, 2**78)


def test_sqrt_bounds_exact_squares():
    assert xr.sqrt_lower(Fraction(9), 64) == 3
    assert xr.sqrt_upper(Fraction(9, 4), 64) == Fraction(3, 2)


def test_interval_arithmetic():
    a = xr.Interval(Fraction(1), Fraction(2))
    b = xr.Interval(Fraction(-1), Fraction(3))
    s = a + b
    assert (s.lo, s.hi) == (0, 5)
    p = a * b
    assert (p.lo, p.hi) == (-2, 6)
    assert (a.sq().lo, a.sq().hi) == (1, 4)
    m = xr.Interval(Fraction(-2), Fraction(-1))
    assert (m.sq().lo, m.sq().hi) == (1, 4)
    z = xr.Interval(Fraction(-1), Fraction(1))
    assert z.sq().lo == 0


def test_interval_recip_rejects_zero_straddle():
    z = xr.Interval(Fraction(-1), Fraction(1))
    with pytest.raises(xr.IndeterminateInterval):
        z.recip()
    a = xr.Interval(Fraction(1, 2), Fraction(2))
    r = a.recip()
    assert (r.lo, r.hi) == (Fraction(1, 2), 2)


def test_complex_box_modulus_and_recip():
    # box around 1 + i
    b = xr.ComplexBox(xr.Interval.point(1), xr.Interval.point(1))
    msq = b.modulus_sq()
    assert msq.lo == 2 == msq.hi
    r = b.recip()
    assert r.re.contains(Fraction(1, 2))
    assert r.im.contains(Fraction(-1, 2))
    sq = b.pow(2)
    assert sq.re.contains(0) and sq.im.contains(2)


def test_quadext_arithmetic():
    s2 = xr.QuadExt.sqrt_rational(2)
    assert (s2 * s2).rational_value() == 2
    assert s2.compare(xr.QuadExt.rational(Fraction(3, 2))) < 0
    assert s2.compare(xr.QuadExt.rational(Fraction(7, 5))) > 0
    half = xr.QuadExt.sqrt_rational(Fraction(1, 2))
    assert (half * half).rational_value() == Fraction(1, 2)
    assert (s2 * half).rational_value() == 1
    inv = s2.inverse()
    assert (inv * s2).rational_value() == 1


def test_quadext_mixed_radicals():
    s2 = xr.QuadExt.sqrt_rational(2)
    s3 = xr.QuadExt.sqrt_rational(3)
    v = s2 + s3
    # (sqrt2 + sqrt3)^2 = 5 + 2*sqrt6
    sq = v * v
    assert not sq.is_rational()
    diff = sq - xr.QuadExt.rational(5)
    assert (diff * diff).rational_value() == 24
    assert v.sign() == 1
    assert (s2 - s3).sign() == -1
    assert (s2 - s2).sign() == 0


def test_quadext_sqrt_exact():
    q = xr.QuadExt.rational(Fraction(9, 4))
    assert q.sqrt_exact().rational_value() == Fraction(3, 2)
    two = xr.QuadExt.rational(2)
    r = two.sqrt_exact()
    assert r is not None and (r * r).rational_value() == 2


def test_creal_exact_comparison_boundary():
    # sqrt(1/2)^2 vs 1/2 must resolve as equal without refining forever
    u = xr.CReal.from_quadext(xr.QuadExt.sqrt_rational(Fraction(1, 2)))
    usq = u.pow(2)
    assert usq.compare(Fraction(1, 2)) == 0


def test_creal_refinable_comparison_and_cap():
    import itertools

    def near_half(bits):
        eps = Fraction(1, 2**bits)
        return xr.Interval(Fraction(1, 2) - eps, Fraction(1, 2) + eps)

    c = xr.CReal.from_refinable(near_half)
    assert c.compare(Fraction(1, 4), 4096) > 0
    assert c.compare(Fraction(3, 4), 4096) < 0
    with pytest.raises(PrecisionCapError):
        c.compare(Fraction(1, 2), 256)


def test_creal_arithmetic_and_minimum():
    a = xr.CReal.from_rational(Fraction(1, 3))
    b = xr.CReal.from_quadext(xr.QuadExt.sqrt_rational(2))
    s = a + b
    iv = s.interval(128)
    assert iv.width() <= Fraction(1, 2**100)
    m = xr.CReal.minimum([b, a, xr.CReal.from_rational(1)])
    assert m.compare(Fraction(1, 3)) == 0


def test_creal_sqrt_squares_back():
    v = xr.CReal.from_rational(Fraction(8, 7))
    s = v.sqrt()
    iv = (s * s).interval(256)
    assert iv.lo <= Fraction(8, 7) <= iv.hi
    assert iv.width() <= Fraction(1, 2**200)


def test_creal_sqrt_encloses_what_trial_division_cannot_factor():
    # the product of the Mersenne primes 2^31 - 1 and 2^61 - 1 is beyond
    # trial division
    q = Fraction((2**31 - 1) * (2**61 - 1), 12)
    s = xr.CReal.from_rational(q).sqrt()
    assert not s.is_exact()
    iv = s.interval(128)
    assert iv.lo * iv.lo <= q <= iv.hi * iv.hi
    assert iv.width() <= Fraction(1, 2**127)
    # no exact radical either: trial division cannot settle the radicand
    assert xr.QuadExt.sqrt_rational(q) is None
    settled = xr.CReal.from_rational(Fraction(8, 9) * 65537**2).sqrt()
    assert settled.is_exact()
    assert settled.exact.terms == {2: Fraction(2 * 65537, 3)}
