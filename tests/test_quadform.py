import itertools
import random
import tracemalloc
from fractions import Fraction
from math import ceil, floor, isqrt, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnaf import digitset as dsm
from latnaf import lattice
from latnaf import quadform as qf
from latnaf.errors import BallSizeError
from latnaf.exactreal import QuadExt

import quadform_reference as ref


def F(a, b=1):
    return Fraction(a, b)


G_COMPLEX = ((F(2), F(1)), (F(1), F(4)))  # norm form with covering radius^2 8/7
G_GAUSS = ((F(2), F(2)), (F(2), F(4)))
G_ID = ((F(1), F(0)), (F(0), F(1)))


def test_eval_quadratic():
    assert ref.eval_quadratic(G_COMPLEX, (1, 0)) == 2
    assert ref.eval_quadratic(G_COMPLEX, (0, 1)) == 4
    assert ref.eval_quadratic(G_COMPLEX, (1, 1)) == 8
    assert ref.eval_quadratic(G_ID, (3, -4)) == 25


def _integer_ldl_value(form, y):
    """scale * Q_M(y) from the integer LDL: sum_i weights[i] (P_i y_i + c_i)^2."""
    return sum(
        w * (p * y[i] + sum(map(mul, up, y[i + 1:]))) ** 2
        for i, (p, up, w) in enumerate(zip(form.pivots, form.upper, form.weights))
    )


def test_ldl_positive_definite():
    rational = ((F(5, 2), F(1, 3), F(-1)), (F(1, 3), F(2), F(1, 2)), (F(-1), F(1, 2), F(3)))
    rng = random.Random(1)
    for g in (G_COMPLEX, rational):
        n = len(g)
        d, u = ref.ldl(g)
        form = ref.integer_ldl(g)
        assert all(x > 0 for x in d) and all(p > 0 for p in form.pivots)
        # the pivots are the leading minors of M = den * g, the d_i their ratios
        assert [F(p, q) for p, q in zip(form.pivots, [1, *form.pivots])] == [x * form.den for x in d]
        for _ in range(30):
            # Q(y) = sum_i d[i] * (y_i + sum_{j>i} u[i][j] y_j)^2
            y = [F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]
            total = sum(
                (
                    d[i] * (y[i] + sum(u[i][j] * y[j] for j in range(i + 1, n))) ** 2
                    for i in range(n)
                ),
                F(0),
            )
            assert total == ref.eval_quadratic(g, y)
            z = [rng.randint(-9, 9) for _ in range(n)]
            want = form.scale * form.den * ref.eval_quadratic(g, z)
            assert _integer_ldl_value(form, z) == want


def test_ldl_rejects_indefinite():
    assert ref.ldl(((F(1), F(2)), (F(2), F(1)))) is None
    assert ref.ldl(((F(0),),)) is None
    assert qf.ldl(((1, 2), (2, 1))) is None
    assert qf.ldl(((0,),)) is None
    # leading minors 1, 1, then -1
    assert qf.ldl(((1, 0, 1), (0, 1, 1), (1, 1, 1))) is None


def test_enumerate_ball_identity():
    pts = qf.enumerate_ball(ref.integer_ldl(G_ID), F(2))
    assert len(pts) == 9
    assert (0, 0) in pts
    assert (1, 1) in pts and (-1, -1) in pts
    assert (2, 0) not in pts
    assert pts == sorted(pts)


def test_enumerate_matches_brute_force():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(1, 3)
        # random SPD Gram: A^T A + I with small integer A
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        g = tuple(
            tuple(
                F(sum(a[k][i] * a[k][j] for k in range(n)) + (i == j))
                for j in range(n)
            )
            for i in range(n)
        )
        bound = F(rng.randint(1, 6))
        got = set(qf.enumerate_ball(ref.integer_ldl(g), bound))
        box = range(-6, 7)
        want = set()

        def rec(prefix):
            if len(prefix) == n:
                if ref.eval_quadratic(g, prefix) <= bound:
                    want.add(tuple(prefix))
                return
            for v in box:
                rec(prefix + [v])

        rec([])
        assert got == want


def _det(m):
    if not m:
        return F(1)
    return sum(
        (-1) ** j * m[0][j] * _det([row[:j] + row[j + 1 :] for row in m[1:]])
        for j in range(len(m))
    )


BOX_LIMIT = 1500


def _box_filter(g, t, bound):
    """Every integer x with Q(t + x) <= bound, by testing each point of
    the box |t_i + x_i| <= sqrt(bound * (G^-1)_ii) that holds the ellipsoid
    (cofactors for the inverse, nothing shared with the LDL path); None
    when the box holds more than BOX_LIMIT points."""
    n = len(g)
    if bound < 0:
        return []
    det = _det([list(row) for row in g])
    ranges = []
    for i in range(n):
        minor = [[g[a][b] for b in range(n) if b != i] for a in range(n) if a != i]
        half = bound * _det(minor) / det
        r = isqrt(floor(half)) + 1
        ranges.append(range(ceil(-t[i]) - r, floor(-t[i]) + r + 1))
    if prod(map(len, ranges)) > BOX_LIMIT:
        return None
    return sorted(
        x
        for x in itertools.product(*ranges)
        if ref.eval_quadratic(g, [a + b for a, b in zip(t, x)]) <= bound
    )


DYADIC = 2**66  # the scale of the enclosure cubic's midpoint denominators


@st.composite
def _offset_balls(draw):
    """(G, t, k, bound): G = A^T A + c I + E positive definite, n = 1..4,
    with A's entries over 1, 2 or 3 and c >= 1/2, E zero or a symmetric
    perturbation below 1/64 per entry over 2^66; a rational offset t,
    written with its common denominator times k; and a bound that is
    negative, 0, small, on the sphere through a lattice point, or large."""
    n = draw(st.integers(1, 4))
    den = draw(st.sampled_from([1, 2, 3]))
    a = [[F(draw(st.integers(-2 * den, 2 * den)), den) for _ in range(n)] for _ in range(n)]
    c = draw(st.fractions(min_value=F(1, 2), max_value=3, max_denominator=6))
    g = [
        [sum(a[k][i] * a[k][j] for k in range(n)) + (c if i == j else 0) for j in range(n)]
        for i in range(n)
    ]
    if draw(st.booleans()):
        for i in range(n):
            for j in range(i, n):
                e = F(draw(st.integers(-(2**60), 2**60)), DYADIC)
                g[i][j] += e
                if j != i:
                    g[j][i] += e
    g = tuple(map(tuple, g))
    t = tuple(
        draw(st.fractions(min_value=-5, max_value=5, max_denominator=7)) for _ in range(n)
    )
    k = draw(st.integers(1, 3))
    on_sphere = [a + b for a, b in zip(t, draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))]
    bound = draw(
        st.one_of(
            st.fractions(min_value=0, max_value=8, max_denominator=5),
            st.just(ref.eval_quadratic(g, on_sphere)),
            st.just(F(0)),
            st.fractions(min_value=-3, max_value=0, max_denominator=5),
            st.integers(50, 10**4).map(F),
        )
    )
    return g, t, k, bound


BALL_CAP = 600


def _agree(ours, theirs):
    """ours(cap) and theirs(cap) list the same points, or both raise
    BallSizeError; when they list L > 0 points, both raise at cap L - 1.
    Returns the list, or None when the cap stopped both."""
    try:
        want = theirs(BALL_CAP)
    except BallSizeError:
        with pytest.raises(BallSizeError):
            ours(BALL_CAP)
        return None
    assert ours(len(want)) == want
    if want:
        with pytest.raises(BallSizeError):
            ours(len(want) - 1)
        with pytest.raises(BallSizeError):
            theirs(len(want) - 1)
    return want


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_offset_balls())
def test_enumerate_with_offset_matches_box_filter(case):
    """The integer kernel against the rational reference: the same
    offset ball, the same ball at the origin, the same Babai point, and
    BallSizeError at the same cap; the reference against the box filter
    wherever the box is small enough to scan."""
    g, t, k, bound = case
    form = ref.integer_ldl(g)
    a, q = ref.split_offset(t, k)
    assert qf.babai_point(form, a, q) == ref.babai_point(g, t)
    want = _agree(
        lambda cap: qf.enumerate_with_offset(form, a, q, bound, cap),
        lambda cap: ref.enumerate_with_offset(g, t, bound, cap),
    )
    _agree(
        lambda cap: qf.enumerate_ball(form, bound, cap),
        lambda cap: ref.enumerate_ball(g, bound, cap),
    )
    if want is not None:
        box = _box_filter(g, t, bound)
        assert box is None or box == want


def test_enumerate_cap_fires_before_the_row_is_built():
    # 2 * 10^8 + 1 points in one row: the cap must stop it unbuilt
    tracemalloc.start()
    try:
        with pytest.raises(BallSizeError):
            qf.enumerate_ball(qf.ldl(((1,),)), 10**16, cap=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_shortest_nonzero():
    assert ref.shortest_nonzero_norm_sq(G_COMPLEX) == 2
    assert ref.shortest_nonzero_norm_sq(G_ID) == 1
    skew = ((F(5), F(3)), (F(3), F(2)))
    assert ref.shortest_nonzero_norm_sq(skew) == 1  # (1, -1) and (-1, 2)


def test_closest_points_tie():
    # both x = (0,0) and x = (1,0) leave t + x at distance 1/2
    winners, best = ref.closest_lattice_points(G_ID, (F(-1, 2), F(0)))
    assert best == F(1, 4)
    assert winners == [(0, 0), (1, 0)]


def test_closest_points_interior():
    t = (F(1, 3), F(1, 3))
    winners, best = ref.closest_lattice_points(G_COMPLEX, t)
    assert len(winners) >= 1
    for w in winners:
        v = tuple(a + b for a, b in zip(t, w))
        assert ref.eval_quadratic(G_COMPLEX, v) == best
    best_brute = min(
        ref.eval_quadratic(G_COMPLEX, (F(1, 3) + x, F(1, 3) + y))
        for x in range(-3, 4)
        for y in range(-3, 4)
    )
    assert best == best_brute


def test_covering_radius_examples():
    assert qf.covering_radius_sq_exact(((F(4),),)) == 1
    assert qf.covering_radius_sq_exact(G_ID) == F(1, 2)
    assert qf.covering_radius_sq_exact(G_COMPLEX) == F(8, 7)
    assert qf.covering_radius_sq_exact(G_GAUSS) == 1
    diag3 = tuple(
        tuple(F(2) if i == j else F(0) for j in range(3)) for i in range(3)
    )
    assert qf.covering_radius_sq_exact(diag3) == F(3, 2)


def test_covering_radius_deep_hole_is_attained():
    """The 2d exact value must equal the max over Voronoi vertices,
    cross-checked by sampling rational points and measuring CVP distance."""
    rng = random.Random(17)
    for g in (G_COMPLEX, G_GAUSS, ((F(3), F(1)), (F(1), F(5)))):
        r_sq = qf.covering_radius_sq_exact(g)
        for _ in range(40):
            t = (F(rng.randint(-12, 12), 8), F(rng.randint(-12, 12), 8))
            _, d = ref.closest_lattice_points(g, t)
            assert d <= r_sq


@st.composite
def _planar_grams(draw):
    """A 2 x 2 Gram matrix U^T G U: G = (a, b; b, c) of a general,
    rectangular (b = 0) or hexagonal (a = c = 2b) lattice, U a product
    of random elementary unimodular moves, so the basis is unreduced."""
    kind = draw(st.sampled_from(["general", "rectangular", "hexagonal"]))
    pos = st.fractions(min_value=F(1, 4), max_value=4, max_denominator=5)
    a = draw(pos)
    if kind == "hexagonal":
        b, c = a / 2, a
    else:
        c = draw(pos)
        b = F(0)
        if kind == "general":
            # |b| < min(a, c) <= sqrt(ac): positive definite
            b = draw(st.fractions(min_value=-1, max_value=1, max_denominator=7)) * min(a, c)
            if abs(b) == min(a, c):
                b /= 2
    g = [[a, b], [b, c]]
    for i, m in draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([-1, 1])), max_size=2)):
        # column i += m * column j, row i += m * row j: G -> E^T G E
        j = 1 - i
        for row in g:
            row[i] += m * row[j]
        g[i] = [x + m * y for x, y in zip(g[i], g[j])]
    return tuple(map(tuple, g))


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_planar_grams())
def test_covering_radius_closed_form_matches_vertex_scan(g):
    assert qf.covering_radius_sq_exact(g) == ref.covering_radius_sq_2d(g)


def test_min_eigenvalue():
    assert qf.min_eigenvalue_real(((1, 0), (0, 1))).compare(1) == 0
    assert qf.min_eigenvalue_real(((2, 0), (0, 3))).compare(2) == 0
    # eigenvalues of G_COMPLEX are 3 +- sqrt(2)
    ev = qf.min_eigenvalue_real(((2, 1), (1, 4)))
    iv = ev.interval(96)
    from latnaf.exactreal import sqrt_lower, sqrt_upper

    assert iv.lo <= 3 - sqrt_lower(F(2), 96)
    assert iv.hi >= 3 - sqrt_upper(F(2), 96)
    assert iv.width() < F(1, 2**48)


def _near_tie_matrix():
    """q M for the rational M = diag(((2, 1), (1, 3)), r), q the
    denominator of r: r is a continued-fraction convergent of
    (5 - sqrt 5) / 2, the small eigenvalue of the upper 2x2 block, just
    above it, so the two smallest eigenvalues of q M are q (5 - sqrt 5) / 2
    and q r, about 2^-84 apart (q is about 2^83)."""
    lam = (5 - F(isqrt(5 * 10**200), 10**100)) / 2
    r = lam.limit_denominator(10**25)
    assert 0 < r - lam < F(1, 10**30)
    q = r.denominator
    return ((2 * q, q, 0), (q, 3 * q, 0), (0, 0, r.numerator)), r.numerator


def test_min_eigenvalue_honours_the_cap():
    # separating the two smallest eigenvalues takes more than 64 bits
    near_tie, qr = _near_tie_matrix()
    ev = qf.min_eigenvalue_real(near_tie)
    assert ev.interval(256).hi < qr


def test_min_eigenvalue_width_follows_the_request():
    # the interval at b bits is 2^-b wide or a little less
    mat, qr = _near_tie_matrix()
    ev = qf.min_eigenvalue_real(mat)
    for bits in (64, 100, 256):
        iv = ev.interval(bits)
        assert F(1, 2 ** (2 * bits)) < iv.width() <= F(1, 2**bits), bits
    # the eigenvalue sits about 2^-84 below q r
    assert F(1, 2**85) < qr - ev.interval(256).hi < F(1, 2**83)


def test_min_eigenvalue_not_exact_when_only_a_larger_one_is_an_integer():
    # eigenvalues 2 and (5 +- sqrt 5) / 2: M - 2 I is singular, but the
    # smallest eigenvalue is (5 - sqrt 5) / 2, about 1.382
    ev = qf.min_eigenvalue_real(((2, 0, 0), (0, 2, 1), (0, 1, 3)))
    assert not ev.is_exact()
    iv = ev.interval(64)
    assert iv.hi < 2 and iv.width() <= F(1, 2**64)
    # lo <= (5 - sqrt 5) / 2 <= hi, squared: both sides are positive
    assert (5 - 2 * iv.hi) ** 2 <= 5 <= (5 - 2 * iv.lo) ** 2


BAND4 = tuple(tuple(3 if i == k else abs(i - k) == 1 for k in range(4)) for i in range(4))


@pytest.mark.parametrize(
    "mat",
    [
        ((2, 0, 0), (0, 2, 1), (0, 1, 3)),
        BAND4,  # eigenvalues 3 + 2 cos(k pi / 5)
        ((2, 1, 0, 0), (1, 3, 0, 0), (0, 0, 2, 1), (0, 0, 1, 3)),  # a double lambda
        _near_tie_matrix()[0],
    ],
)
def test_min_eigenvalue_intervals_nest_and_stay_certified(mat):
    """Up to 4096 bits, each finer interval nests in the coarser one, is
    [a, a + 1] / 2^b, and M - s I is definite at its low end s and not
    at its high end. A coarser interval asked after a finer one, and a
    fresh real asked at once for 4096 bits, give the same intervals."""
    ev = qf.min_eigenvalue_real(mat)
    assert not ev.is_exact()
    seen = {}
    for bits in (64, 65, 100, 128, 256, 1000, 2048, 4096):
        iv = ev.interval(bits)
        assert iv.width() == F(1, 2**bits)
        a = iv.lo * 2**bits
        assert a.denominator == 1
        scaled = [[v << bits for v in row] for row in mat]
        assert qf.definite(scaled, int(a)) and not qf.definite(scaled, int(a) + 1)
        if seen:
            prev = seen[max(seen)]
            assert prev.lo <= iv.lo and iv.hi <= prev.hi
        seen[bits] = iv
    fresh = qf.min_eigenvalue_real(mat)
    for bits in (4096, 1000, 100, 65):
        iv = fresh.interval(bits)
        assert (iv.lo, iv.hi) == (seen[bits].lo, seen[bits].hi)


@pytest.mark.parametrize(
    "mat, lam",
    [(((5,),), 5), (((2, 0), (0, 2)), 2), (((2, 0, 0), (0, 2, 0), (0, 0, 4)), 2)],
)
def test_min_eigenvalue_exact_on_integer_eigenvalues(mat, lam):
    ev = qf.min_eigenvalue_real(mat)
    assert ev.is_exact()
    assert ev.compare(lam) == 0


@pytest.mark.parametrize(
    "rows",
    [
        [[1, -1, 0], [1, 1, 0], [0, 0, 2]],
        [[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]],
    ],
)
def test_matrix_kernel_systems_keep_an_exact_u(rows):
    # phi^T phi = diag(2, 2, 4) and 2 I: the smallest eigenvalue is the
    # integer 2, so u = 1 / sqrt 2 exactly
    geo = dsm.geometry(lattice.LatticeInstance.from_matrix(rows))
    assert geo.u.is_exact()
    assert geo.u.exact.compare(QuadExt.sqrt_rational(F(1, 2))) == 0
