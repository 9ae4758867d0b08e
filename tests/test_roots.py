"""The stdlib root kernel against sympy, which is a test-only dependency:
counts, order and isolation against ``Poly.intervals``, nesting under
refinement, reducibility against ``Poly.is_irreducible``, and the
smallest eigenvalue of symmetric matrices against sympy's exact
eigenvalues."""

import time
from fractions import Fraction
from math import lcm

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latnaf import quadform as qf
from latnaf import roots
from latnaf.exactreal import ComplexBox, Interval

SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
X = sympy.Symbol("x")


def _poly(coeffs):
    return sympy.Poly(list(reversed(coeffs)), X)


def _squarefree(coeffs):
    poly = _poly(coeffs)
    return sympy.degree(sympy.gcd(poly, poly.diff(X)), X) == 0


# monic, degree 3 to 6, nonzero constant term, squarefree; half of them
# products of two random factors, so reducible ones come up often
def _product(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


_monic = lambda lo, hi: st.lists(st.integers(-9, 9), min_size=lo, max_size=hi).map(
    lambda cs: tuple(cs) + (1,)
)
POLYS = st.one_of(
    _monic(3, 6),
    st.tuples(_monic(1, 3), _monic(2, 3)).map(lambda ab: _product(*ab)),
).filter(lambda c: 3 <= len(c) - 1 <= 6 and c[0] != 0 and _squarefree(c))


def _frac(v):
    return Fraction(int(v.p), int(v.q))


def _sympy_boxes(coeffs):
    """sympy's isolating intervals, unrefined: reals ascending, and the
    upper boxes in sympy's own order."""
    real_iv, cplx_iv = _poly(coeffs).intervals(all=True)
    reals = [Interval(_frac(lo), _frac(hi)) for (lo, hi), _ in real_iv]
    pairs = []
    for (c1, c2), _ in cplx_iv:
        r1, i1 = c1.as_real_imag()
        r2, i2 = c2.as_real_imag()
        if min(i1, i2) >= 0:
            pairs.append(
                ComplexBox(
                    Interval(min(_frac(r1), _frac(r2)), max(_frac(r1), _frac(r2))),
                    Interval(min(_frac(i1), _frac(i2)), max(_frac(i1), _frac(i2))),
                )
            )
    return reals, pairs


def _disjoint(a: Interval, b: Interval) -> bool:
    return a.hi < b.lo or b.hi < a.lo


def _inside(inner, outer) -> bool:
    if isinstance(inner, Interval):
        return outer.lo <= inner.lo and inner.hi <= outer.hi
    return _inside(inner.re, outer.re) and _inside(inner.im, outer.im)


@SETTINGS
@given(POLYS)
def test_isolation_matches_sympy_intervals(coeffs):
    pr = roots.PolyRoots(coeffs)
    s_reals, s_pairs = _sympy_boxes(coeffs)
    reals, pairs = pr.boxes(64)
    assert (pr.s, pr.t) == (len(s_reals), len(s_pairs)) == (len(reals), len(pairs))
    assert pr.s + 2 * pr.t == len(coeffs) - 1
    # each box meets exactly one sympy box, the one at the same index
    for k, iv in enumerate(reals):
        hits = [j for j, s in enumerate(s_reals) if not _disjoint(iv, s)]
        assert hits == [k]
        assert iv.width() <= Fraction(1, 2**64)
    for k, box in enumerate(pairs):
        hits = [j for j, s in enumerate(s_pairs) if box.intersects(s)]
        assert len(hits) == 1
        assert box.im.lo > 0
        assert box.re.width() <= Fraction(1, 2**64) and box.im.width() <= Fraction(1, 2**64)
        # sympy orders its boxes by corner; where the real parts are apart
        # that is the order by real part, and the same index
        if all(_disjoint(s_pairs[hits[0]].re, o.re) for o in s_pairs if o is not s_pairs[hits[0]]):
            assert hits == [k]
    # ours: ascending reals, pairs by real part
    assert all(a.hi < b.lo for a, b in zip(reals, reals[1:]))
    assert all(a.re.lo <= b.re.hi for a, b in zip(pairs, pairs[1:]))
    # nested under refinement, at every level in between
    prev = pr.boxes(8)
    for bits in (16, 32, 64, 128, 256):
        cur = pr.boxes(bits)
        assert all(_inside(a, b) for a, b in zip(cur[0], prev[0]))
        assert all(_inside(a, b) for a, b in zip(cur[1], prev[1]))
        prev = cur
    assert (pr.proper_factor() is None) == _poly(coeffs).is_irreducible


def test_pair_order_breaks_real_part_ties_by_imaginary_part():
    coeffs = (4, 0, 5, 0, 1)  # (x^2 + 1)(x^2 + 4)
    _, pairs = roots.PolyRoots(coeffs).boxes(64)
    assert [p.im.contains(1) for p in pairs] == [True, False]
    assert [p.im.contains(2) for p in pairs] == [False, True]
    _, s_pairs = _sympy_boxes(coeffs)
    assert [s.im.contains(1) for s in s_pairs] == [True, False]


def test_exact_roots_and_factors():
    pr = roots.PolyRoots((-6, 11, -6, 1))  # (x - 1)(x - 2)(x - 3)
    reals, pairs = pr.boxes(64)
    assert [(iv.lo, iv.hi) for iv in reals] == [(1, 1), (2, 2), (3, 3)] and pairs == ()
    assert pr.proper_factor() in ((-1, 1), (-2, 1), (-3, 1))
    assert roots.PolyRoots((3, 1, 0, 1)).proper_factor() is None
    assert roots.PolyRoots((-2, 0, 0, 0, 1)).proper_factor() is None
    assert roots.PolyRoots((4, 0, 5, 0, 1)).proper_factor() in ((1, 0, 1), (4, 0, 1))


def test_repeated_roots_raise():
    with pytest.raises(ValueError, match="repeated"):
        roots.PolyRoots((2, -3, 0, 1))  # (x - 1)^2 (x + 2)
    with pytest.raises(ValueError, match="repeated"):
        roots.PolyRoots((1, 0, 2, 0, 1))  # (x^2 + 1)^2


def test_huge_coefficients_take_the_scaled_integer_seeds():
    coeffs = (1, 10**400, 0, 1)  # too large for a float
    seeds = roots._seeds(coeffs, roots.derivative(coeffs))
    assert all(isinstance(z, roots._Gauss) for z in seeds)
    pr = roots.PolyRoots(coeffs)
    reals, pairs = pr.boxes(64)
    assert (len(reals), len(pairs)) == (1, 1)
    # the pair is close to +-i 10^200, the real root close to -10^-400
    assert pairs[0].im.lo < 10**200 < pairs[0].im.hi + 1
    assert reals[0].lo < 0 < reals[0].hi + Fraction(1, 10**399)


def test_cubic_refinement_is_cheaper_than_one_sympy_isolation():
    coeffs = (3, 1, 0, 1)
    pr = roots.PolyRoots(coeffs)
    pr.boxes(64)
    start = time.perf_counter()
    reals, pairs = pr.boxes(4096)
    refine = time.perf_counter() - start
    assert pairs[0].re.width() <= Fraction(1, 2**4096)
    start = time.perf_counter()
    _poly(coeffs).intervals(all=True, eps=sympy.Rational(1, 2**64))
    isolate = time.perf_counter() - start
    assert refine < isolate, (refine, isolate)


# symmetric integer matrices: the smallest eigenvalue against sympy's
# exact eigenvalues
SYMMETRIC = st.integers(3, 4).flatmap(
    lambda n: st.lists(st.integers(-5, 5), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
        lambda vals, n=n: _symmetric(n, vals)
    )
)


def _symmetric(n, vals):
    it = iter(vals)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
    return m


@settings(derandomize=True, deadline=None, max_examples=30)
@given(SYMMETRIC, st.integers(1, 6))
def test_min_eigenvalue_matches_sympy(mat, scale):
    # mat / scale scaled by its denominator q: an integer matrix whose
    # eigenvalues are q times those of mat / scale
    fracs = [[Fraction(v, scale) for v in row] for row in mat]
    q = lcm(*(v.denominator for row in fracs for v in row))
    rows = [[int(v * q) for v in row] for row in fracs]
    ev = qf.min_eigenvalue_real(rows)
    lam = min(sympy.Matrix(rows).charpoly(X).as_expr().as_poly(X).real_roots())
    assert ev.is_exact() == isinstance(lam, sympy.Rational)
    for bits in (64, 256):
        iv = ev.interval(bits)
        assert iv.width() <= Fraction(1, 2**bits)
        assert sympy.Rational(iv.lo.numerator, iv.lo.denominator) <= lam
        assert lam <= sympy.Rational(iv.hi.numerator, iv.hi.denominator)
