"""The integer norm kernel of Geometry with its enclosure level forced
on bases whose Gram matrix is exact, against the exact level and the
rational references of ``quadform_reference``; and, on random totally real and
equal-modulus bases, the exact Gram matrix against the enclosure built
from their roots, and the kernel's brackets against the interval sum
over that enclosure. On all of them and on bases with no exact Gram
matrix, the enclosure level and its inflation factor kappa against the
smallest eigenvalue of the integer midpoint matrix."""

import warnings
from fractions import Fraction
from math import isqrt

import mpmath
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from latnaf import intmat, lattice, roots
from latnaf import digitset as dsm
from latnaf import numberfield as nfm
from latnaf import quadform as qf
from latnaf.exactreal import DEFAULT_PRECISION_CAP_BITS, Interval, sqrt_upper

import quadform_reference as ref

BASES = [[5, -5, 1], [2, -1, 1], [5, -4, 1]]  # power sums, equal modulus twice
X = sympy.Symbol("x")


def _pair(coeffs):
    nf = nfm.build(coeffs)
    assert nf.gram is not None
    exact = dsm.geometry(nf)
    forced = dsm.Geometry(nf.lattice, nf, None, DEFAULT_PRECISION_CAP_BITS)
    return exact, forced


def _exact_norm_sq(geo, p):
    lo, hi, den = geo.norm_sq_interval(p)
    assert lo == hi
    return Fraction(lo, den)


@pytest.mark.parametrize("coeffs", BASES)
def test_enclosure_ball_contains_exact_ball(coeffs):
    exact, forced = _pair(coeffs)
    # bounds on exact norms put lattice points on the boundary sphere
    norms = sorted({_exact_norm_sq(exact, p) for p in exact.ball(Fraction(40))})
    for bound in [Fraction(7, 2), *norms[:8]]:
        inner = exact.ball(bound)
        assert set(inner) <= set(forced.ball(bound)), bound
        assert inner == sorted(inner)


@pytest.mark.parametrize("coeffs", BASES)
def test_enclosure_norm_brackets_exact_norm(coeffs):
    exact, forced = _pair(coeffs)
    for p in exact.ball(Fraction(30)):
        want = _exact_norm_sq(exact, p)
        assert want == ref.eval_quadratic(exact.gram, p)
        for bits in (64, 256):
            lo, hi, den = forced.norm_sq_interval(p, bits)
            assert Fraction(lo, den) <= want <= Fraction(hi, den), (p, bits)
        assert Fraction(hi - lo, den) < Fraction(1, 2**100)


@pytest.mark.parametrize("coeffs", BASES)
def test_enclosure_norm_context_brackets_exact(coeffs):
    exact, forced = _pair(coeffs)
    ctx, loose = exact.norm_context, forced.norm_context
    assert ctx.r_sq == ref.shortest_nonzero_norm_sq(exact.gram) / 4
    assert ctx.R_sq == ref.covering_radius_sq_2d(exact.gram)
    assert loose.r_sq <= ctx.r_sq <= ctx.R_sq <= loose.R_sq


def _min_eigenvalue(m) -> Interval:
    """The smallest eigenvalue of the symmetric integer matrix m, within
    2^-256: mpmath's Jacobi estimate at a precision 320 bits past the
    entries', certified by sympy's Sturm counts on the characteristic
    polynomial (no root at or below lo, one in (lo, hi]). A reference
    independent of the LDL that decides the level and kappa, and far
    cheaper than sympy isolating every root."""
    prec = max(abs(v) for row in m for v in row).bit_length() + 320
    with mpmath.workprec(prec):
        est = min(mpmath.eigsy(mpmath.matrix(m), eigvals_only=True))
        mid = Fraction(int(mpmath.floor(est * 2**257)), 2**257)
    lo, hi = mid - Fraction(1, 2**257), mid + Fraction(1, 2**257)
    cp = sympy.Matrix(m).charpoly(X)
    assert cp.count_roots(None, sympy.Rational(lo.numerator, lo.denominator)) == 0
    assert cp.count_roots(*(sympy.Rational(v.numerator, v.denominator) for v in (lo, hi))) >= 1
    return Interval(lo, hi)


def _check_kappa(geo):
    """The enclosure level and kappa against lambda, the smallest
    eigenvalue of the integer midpoint matrix M, with c = n max H.

    Level: accepted exactly when 0 < lambda and 2 c <= lambda at 64 bits,
    the rule eps n <= lambda_min(M / D) / 2 of an eigenvalue-sized kappa,
    checked on the real level at 64 bits and on copies of it whose
    half-widths are scaled by 2^k, which the rule rejects from some k on
    (the level then moves to 128 bits). kappa: c / lambda < kappa <=
    2 c / lambda, read with the eigenvalue's interval ends on the safe
    side, and 0 when c is 0."""
    den, m, h = geo._level(64)
    iv = _min_eigenvalue(m)
    lam = iv.lo
    if not any(map(any, h)):
        h = tuple(tuple(1 for _ in row) for row in h)
    rejected = 0
    for k in range(0, 80, 8):
        forged = tuple(tuple(v << k for v in row) for row in h)
        c = len(m) * max(map(max, forged))
        geo._levels[64] = (den, m, forged)
        geo._midpoints.clear()
        bits, form, kappa = geo.enclosure()
        assert (bits == 64) == (0 < lam and 2 * c <= lam), k
        rejected += bits != 64
    assert rejected  # the rejection branch was reached
    geo._levels.pop(64)
    geo._midpoints.clear()
    bits, form, kappa = geo.enclosure()
    den, m, h = geo._level(bits)
    assert form == qf.ldl(m, den)
    c = len(m) * max(map(max, h))
    if c == 0:
        assert kappa == 0
        return
    if bits != 64:
        iv = _min_eigenvalue(m)
    assert c < kappa * iv.lo and kappa * iv.hi <= 2 * c
    assert kappa.numerator == 1 and kappa.denominator & (kappa.denominator - 1) == 0


@pytest.mark.parametrize("coeffs", BASES)
def test_forced_enclosure_kappa(coeffs):
    _check_kappa(_pair(coeffs)[1])


@pytest.mark.parametrize("coeffs", [[3, 1, 0, 1], [1, 1, 0, 1], [2, 1, 1, 1], [-2, 0, 0, 0, 1]])
def test_enclosure_kappa_and_ball(coeffs):
    """On bases with no exact Gram matrix, kappa as above, and every point
    whose norm is certified at most the bound lies in the ball."""
    geo = dsm.geometry(nfm.build(coeffs))
    assert geo.gram is None
    _check_kappa(geo)
    for bound in (Fraction(7, 2), Fraction(20)):
        ball = set(geo.ball(bound))
        for p in geo.ball(2 * bound):
            _, hi, den = geo.norm_sq_interval(p, 256)
            if Fraction(hi, den) <= bound:
                assert p in ball, (bound, p)


def test_norm_context_covering_radius_upper_bound():
    """Exact where quadform computes the covering radius, otherwise the
    half-diameter bound: rounding coordinates one at a time strays at
    most half the sum of the basis-vector lengths."""

    def ctx(rows):
        n = len(rows)
        inst = lattice.LatticeInstance.from_matrix([[2 * (i == k) for k in range(n)] for i in range(n)])
        return dsm.Geometry(inst, None, qf.as_gram(rows), 256).norm_context

    exact = ctx([[2, 1], [1, 4]])
    assert exact.R_sq == Fraction(8, 7)
    loose = ctx([[2 if i == k else 1 for k in range(4)] for i in range(4)])
    assert loose.r_sq == Fraction(1, 2)
    assert loose.R_sq == (4 * sqrt_upper(Fraction(2), 64)) ** 2 / 4


def _mirror_ties_only(pre):
    return len(pre) == 1 or (len(pre) == 2 and pre[1] == tuple(-c for c in pre[0]))


@pytest.mark.parametrize("coeffs, w", [(BASES[0], 2), (BASES[1], 4), (BASES[2], 2)])
def test_enclosure_minimizers_match_exact(coeffs, w):
    exact, forced = _pair(coeffs)
    inst = exact.inst
    pw, pullback = lattice.power_pullback(inst, w)
    compared = 0
    for rep in lattice.residue_system(inst, w):
        if rep == inst.zero() or lattice.solve_divisibility(inst, rep, 1) is not None:
            continue
        t = ref.solve_exact(pw, rep)
        winners, _ = ref.closest_lattice_points(exact.gram, t)
        want = sorted(tuple(r + s for r, s in zip(rep, intmat.mat_vec(pw, x))) for x in winners)
        assert dsm._minimizers(exact, pw, pullback, rep) == want, rep
        pre = [ref.solve_exact(pw, d) for d in want]
        if not _mirror_ties_only(pre):
            continue  # a non-mirror tie cannot be separated by enclosures
        assert dsm._minimizers(forced, pw, pullback, rep) == want, rep
        compared += 1
    assert compared >= 3


# Hypothesis: the exact Gram matrix of random totally real and random
# equal-modulus bases lies inside the enclosure built from the roots, and
# at random points the kernel's brackets are the interval sums over it
def _poly_product(factors):
    out = (1,)
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = tuple(prod)
    return out


def _symmetric_char_poly(vals):
    n = 3 if len(vals) == 6 else 4
    it = iter(vals)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = next(it)
    return intmat.char_poly(m)


def _equal_modulus_poly(m, bs, quartic_c, reals):
    """Monic, every root of squared modulus m: quadratics x^2 - b x + m
    with b^2 < 4 m, optionally x^4 + c x^2 + m^2 with c^2 < 4 m^2, and
    x -+ s when m = s^2."""
    factors = [(m, -b, 1) for b in bs]
    if quartic_c is not None:
        factors.append((m * m, 0, quartic_c, 0, 1))
    s = isqrt(m)
    if s * s == m:
        factors += [(-s, 1), (s, 1)][:reals]
    return _poly_product(factors)


def _usable(coeffs):
    return (
        len(coeffs) > 2
        and coeffs[0] != 0
        and len(roots.poly_gcd(coeffs, roots.derivative(coeffs))) == 1
    )


TOTALLY_REAL = st.one_of(
    st.lists(st.integers(-4, 4), min_size=6, max_size=6),
    st.lists(st.integers(-3, 3), min_size=10, max_size=10),
).map(_symmetric_char_poly).filter(_usable)

EQUAL_MODULUS = (
    st.integers(2, 9)
    .flatmap(
        lambda m: st.tuples(
            st.just(m),
            st.sets(st.integers(-(isqrt(4 * m - 1)), isqrt(4 * m - 1)), max_size=2),
            st.one_of(st.none(), st.integers(-2 * m + 1, 2 * m - 1)),
            st.integers(0, 2),
        )
    )
    .map(lambda args: _equal_modulus_poly(*args))
    .filter(_usable)
)


def _interval_sum(enc, p):
    """Reference bracket: the sum of the enclosure entries scaled by
    p_i p_k, in interval arithmetic."""
    acc = Interval.point(0)
    for i, vi in enumerate(p):
        for k, vk in enumerate(p):
            if vi and vk:
                acc = acc + enc[i][k].scaled(vi * vk)
    return acc


def _check_gram_inside_enclosure(coeffs, kind, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        nf = nfm.build(list(coeffs))
    assert nf.gram_kind == kind
    n = nf.degree
    exact = dsm.geometry(nf)
    forced = dsm.Geometry(nf.lattice, nf, None, DEFAULT_PRECISION_CAP_BITS)
    if n <= 5:
        # checking kappa on every degree triples this test's time: the
        # forged levels of degrees 6 to 8 rebuild enclosures at finer
        # precision, and the reference's Sturm counts grow with them
        _check_kappa(forced)
    bound = 2 * min(nf.gram[i][i] for i in range(n))
    assert set(exact.ball(bound)) <= set(forced.ball(bound))
    coords = st.tuples(*[st.integers(-10**6, 10**6) | st.integers(-3, 3)] * n)
    points = data.draw(st.lists(coords, min_size=1, max_size=6))
    for bits in (64, 256):
        enc = nfm.gram_enclosure(nf, bits)
        for i in range(n):
            for k in range(n):
                assert enc[i][k].contains(nf.gram[i][k]), (bits, i, k)
        for p in points:
            want = _exact_norm_sq(exact, p)
            assert want == ref.eval_quadratic(nf.gram, p)
            lo, hi, den = forced.norm_sq_interval(p, bits)
            iv = _interval_sum(enc, p)
            assert (Fraction(lo, den), Fraction(hi, den)) == (iv.lo, iv.hi), (bits, p)
            assert iv.contains(want), (bits, p)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(TOTALLY_REAL, st.data())
def test_power_sum_gram_inside_enclosure(coeffs, data):
    _check_gram_inside_enclosure(coeffs, nfm.GRAM_POWER_SUMS, data)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(EQUAL_MODULUS, st.data())
def test_equal_modulus_gram_inside_enclosure(coeffs, data):
    _check_gram_inside_enclosure(coeffs, nfm.GRAM_EQUAL_MODULUS, data)
