"""Each stdlib closed form against the sympy path it replaces: trial
division against ``sympy.factorint``, integer bisection against
``sympy.integer_nthroot``, the discriminant of a monic quadratic
against ``sympy.Poly`` and root isolation, and the smallest eigenvalue
of 2 x 2 matrices against isolation of the characteristic polynomial."""

import warnings
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latnaf import exactreal as xr
from latnaf import numberfield as nfm
from latnaf import quadform as qf

SETTINGS = settings(derandomize=True, deadline=None)

X = sympy.Symbol("x")
LIMIT = 1 << 16


def _prime_in(lo, hi):
    return st.integers(lo, hi).map(lambda v: int(sympy.nextprime(v)))


# (cofactor with no prime factor below 2^16, whether trial division
# settles it without sympy)
COFACTORS = st.one_of(
    st.just((1, True)),
    _prime_in(LIMIT, 2**32 - 2**10).map(lambda q: (q, True)),
    _prime_in(LIMIT, 2**32 - 2**10).map(lambda q: (q * q, True)),
    st.tuples(_prime_in(LIMIT, 2**40), _prime_in(LIMIT, 2**40)).map(
        lambda qs: (qs[0] * qs[1], qs[0] == qs[1] and qs[0] < 2**32)
    ),
    _prime_in(LIMIT, 2**32).map(lambda q: (q**3, False)),
    _prime_in(2**32, 2**70).map(lambda q: (q, False)),
)


@SETTINGS
@given(st.lists(st.integers(2, LIMIT - 1), max_size=6), COFACTORS)
def test_prime_factors_match_factorint(small, cofactor):
    c, settled = cofactor
    m = c
    for v in small:
        m *= v
    want = {int(p): int(e) for p, e in sympy.factorint(m).items()}
    assert xr.prime_factors(m) == (want if settled else None)


@SETTINGS
@given(st.integers(1, 2**80))
def test_prime_factors_of_any_integer(m):
    want = {int(p): int(e) for p, e in sympy.factorint(m).items()}
    # the cofactor left by trial division below 2^16 is settled when it
    # is 1, a prime below 2^32, or the square of one
    big = {p: e for p, e in want.items() if p >= LIMIT}
    cofactor = 1
    for p, e in big.items():
        cofactor *= p**e
    settled = cofactor < 2**32 or (
        len(big) == 1 and list(big.values()) == [2] and cofactor < 2**64
    )
    assert xr.prime_factors(m) == (want if settled else None)


def test_prime_factors_rejects_nonpositive():
    with pytest.raises(ValueError):
        xr.prime_factors(0)


@SETTINGS
@given(
    st.one_of(
        st.tuples(st.integers(0, 2**300), st.integers(1, 12)),
        st.tuples(st.integers(0, 2**60), st.integers(1, 12), st.integers(-1, 1)).map(
            lambda t: (max(t[0] ** t[1] + t[2], 0), t[1])
        ),
    )
)
def test_int_root_matches_integer_nthroot(case):
    x, n = case
    root, exact = sympy.integer_nthroot(x, n)
    assert nfm._int_root(x, n) == (int(root) if exact else None)


# monic quadratics x^2 + b x + c, half of them drawn from integer roots
# so that repeated roots and rational splits come up often
QUADRATICS = st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(-60, 60)),
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(
        lambda r: (-(r[0] + r[1]), r[0] * r[1])
    ),
).filter(lambda bc: bc[1] != 0)


@SETTINGS
@given(QUADRATICS)
def test_quadratic_signature_matches_poly(bc):
    b, c = bc
    poly = sympy.Poly([1, b, c], X)
    if sympy.degree(sympy.gcd(poly, poly.diff(X)), X) > 0:
        with pytest.raises(ValueError):
            nfm.build([c, b, 1])
        return
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nf = nfm.build([c, b, 1])
    assert bool(caught) == (not poly.is_irreducible)
    s = poly.count_roots()
    assert (nf.s, nf.t) == (s, (2 - s) // 2)


# complex root isolation at 256 bits takes sympy about a second a case
@settings(derandomize=True, deadline=None, max_examples=12)
@given(QUADRATICS)
def test_quadratic_gram_inside_enclosure(bc):
    b, c = bc
    if b * b == 4 * c:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nf = nfm.build([c, b, 1])
    assert nf.gram_kind == (nfm.GRAM_EQUAL_MODULUS if nf.t else nfm.GRAM_POWER_SUMS)
    for bits in (64, 256):
        enc = nfm.gram_enclosure(nf, bits)
        for i in range(2):
            for k in range(2):
                assert enc[i][k].contains(nf.gram[i][k])


RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@SETTINGS
@given(RATIONALS, RATIONALS, RATIONALS)
def test_two_by_two_min_eigenvalue_overlaps_isolation(a, b, d):
    # the rational matrix scaled by its denominator q: an integer matrix
    # whose eigenvalues are q times the rational one's
    q = lcm(a.denominator, b.denominator, d.denominator)
    a, b, d = int(a * q), int(b * q), int(d * q)
    ev = qf.min_eigenvalue_real([[a, b], [b, d]])
    poly = sympy.Poly([1, -(a + d), a * d - b * b], X)
    assert ev.is_exact() == (not poly.is_irreducible)
    for bits in (64, 256):
        (lo, hi), _ = poly.intervals(eps=sympy.Rational(1, 2**bits))[0]
        iv = ev.interval(bits)
        assert iv.lo <= Fraction(hi.p, hi.q) and Fraction(lo.p, lo.q) <= iv.hi
