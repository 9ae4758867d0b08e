"""Exact lattice geometry for positive definite rational quadratic forms.

A Gram matrix M / D (M an integer matrix, D > 0) is prepared once as an
integer LDL decomposition (``ldl``). With P_i the i-th leading principal
minor of M (P_-1 = 1) and B_ij the entries of the fraction-free
(Bareiss) elimination of M above its diagonal,

    Q_M(y) = sum_i (P_i y_i + c_i)^2 / (P_{i-1} P_i),  c_i = sum_{j>i} B_ij y_j,

which is the rational LDL d_i (y_i + sum_{j>i} u_ij y_j)^2 with
d_i = P_i / P_{i-1} and u_ij = B_ij / P_i over common denominators, and
M is positive definite exactly when every P_i > 0. Ball enumeration
(Fincke-Pohst) and nearest-plane rounding (Babai) work on that form for
an offset t = a / q through the integer vector y = a + q x, so no
rational number is formed: each level takes one integer center
P_i a_i + c_i, one isqrt of its budget and two floor divisions for the
range of x_i. The smallest eigenvalue of a symmetric integer matrix
comes from Sturm counts on its characteristic polynomial
(``min_eigenvalue_real``).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt, lcm
from operator import mul

from . import intmat
from .errors import BallSizeError, PrecisionCapError
from .exactreal import CReal, Interval, sqrt_lower, sqrt_upper
from .record import Record

Gram = tuple[tuple[Fraction, ...], ...]


def as_gram(rows) -> Gram:
    g = tuple(tuple(Fraction(v) for v in row) for row in rows)
    n = len(g)
    for row in g:
        if len(row) != n:
            raise ValueError("gram matrix must be square")
    for i in range(n):
        for k in range(i + 1, n):
            if g[i][k] != g[k][i]:
                raise ValueError("gram matrix must be symmetric")
    return g


class LDL(Record):
    """Integer LDL decomposition of a positive definite Gram matrix M / den.

    pivots[i] is P_i and upper[i] holds B_ij for j > i, so that
    scale * Q_M(y) = sum_i weights[i] (P_i y_i + c_i)^2 with
    weights[i] = scale / (P_{i-1} P_i), all integers.
    """

    den: int
    pivots: tuple[int, ...]
    upper: tuple[tuple[int, ...], ...]
    weights: tuple[int, ...]
    scale: int

    def __init__(self, den: int, pivots, upper, weights, scale: int):
        vars(self).update(den=den, pivots=pivots, upper=upper, weights=weights, scale=scale)


def ldl(m, den: int = 1) -> LDL | None:
    """The integer LDL of the symmetric Gram matrix m / den (m integer,
    den > 0), or None when it is not positive definite: Sylvester's
    criterion, read off the pivots of the elimination."""
    n = len(m)
    a = [list(row) for row in m]
    pivots = []
    prev = 1
    for k in range(n):
        p = a[k][k]
        if p <= 0:
            return None
        pivots.append(p)
        for j in range(k + 1, n):
            for i in range(k + 1, n):
                a[j][i] = (p * a[j][i] - a[j][k] * a[k][i]) // prev  # exact (Bareiss)
        prev = p
    pairs = [prev_p * p for prev_p, p in zip([1, *pivots], pivots)]
    scale = lcm(*pairs)
    return LDL(
        den,
        tuple(pivots),
        tuple(tuple(a[i][i + 1:]) for i in range(n)),
        tuple(scale // w for w in pairs),
        scale,
    )


def enumerate_with_offset(form: LDL, a, q: int, bound, cap: int | None = None):
    """All integer x with Q(t + x) <= bound for t = a / q, sorted
    lexicographically; Q is the form's Gram matrix M / den, a an integer
    vector, q > 0 and bound a rational.

    With y = a + q x, Q(t + x) <= bound exactly when scale * Q_M(y) is at
    most the integer floor(scale * den * q^2 * bound). At level i the
    budget left by the outer levels is an integer, and the x_i with
    weights[i] (e + P_i q x_i)^2 within it, e = P_i a_i + c_i, are those
    with |e + P_i q x_i| <= s = isqrt(budget // weights[i]): the range
    [-((s + e) // (P_i q)), (s - e) // (P_i q)], exact, so the innermost
    level emits its whole row without evaluating the form. Raises
    BallSizeError before a row would take the count past cap.
    """
    n = len(form.pivots)
    if len(a) != n:
        raise ValueError("offset length mismatch")
    bound = Fraction(bound)
    if bound < 0:
        return []
    limit = bound.numerator * form.scale * form.den * q * q // bound.denominator
    pivots, upper, weights = form.pivots, form.upper, form.weights
    out: list[tuple[int, ...]] = []
    ys = [0] * n
    xs = [0] * n

    def recurse(i: int, budget: int) -> None:
        p = pivots[i]
        e = p * a[i] + sum(map(mul, upper[i], ys[i + 1:]))
        h = p * q
        s = isqrt(budget // weights[i])
        lo, hi = -((s + e) // h), (s - e) // h
        if i == 0:
            if cap is not None and len(out) + (hi - lo + 1) > cap:
                raise BallSizeError(
                    f"search ball holds more than {cap} points", cap
                )
            rest = tuple(xs[1:])
            out.extend((xi, *rest) for xi in range(lo, hi + 1))
            return
        w = weights[i]
        for xi in range(lo, hi + 1):
            v = e + h * xi
            xs[i] = xi
            ys[i] = a[i] + q * xi
            recurse(i - 1, budget - w * v * v)

    recurse(n - 1, limit)
    out.sort()
    return out


def enumerate_ball(form: LDL, bound, cap: int | None = None):
    """All integer points with Q(x) <= bound, origin included, lex order."""
    return enumerate_with_offset(form, (0,) * len(form.pivots), 1, bound, cap)


def babai_point(form: LDL, a, q: int) -> tuple[int, ...]:
    """Nearest-plane rounding for t = a / q: an integer x with Q(t + x)
    small, whose value bounds the search for the closest points. Level i
    rounds -(t_i + sum_{j>i} u_ij (t_j + x_j)) = -e / (P_i q) to
    floor(-e / h + 1/2) = (h - 2 e) // (2 h), h = P_i q."""
    n = len(form.pivots)
    xs = [0] * n
    ys = [0] * n
    for i in range(n - 1, -1, -1):
        p = form.pivots[i]
        e = p * a[i] + sum(map(mul, form.upper[i], ys[i + 1:]))
        h = p * q
        xs[i] = (h - 2 * e) // (2 * h)
        ys[i] = a[i] + q * xs[i]
    return tuple(xs)


def _is_diagonal(g: Gram) -> bool:
    n = len(g)
    return all(g[i][k] == 0 for i in range(n) for k in range(n) if i != k)


def covering_radius_sq_exact(g: Gram) -> Fraction | None:
    """Exact squared covering radius when cheaply available, else None:
    the sum of the diagonal over 4 for a diagonal Gram matrix (n = 1
    included), and a closed form for n = 2.

    For n = 2, write Q(x, y) = a x^2 + 2 b x y + c y^2 for the basis
    v1, v2. Lagrange-Gauss reduction (v2 -= k v1 with k the integer
    nearest b / a, swap while a > c, then v2 -> -v2 if b < 0) changes the
    basis but not the lattice, and ends with |2b| <= a <= c and b >= 0.
    Then the triangle (0, v1, v2) is not obtuse: its angles at 0, v1 and
    v2 have cosines of the signs of b, a - b and c - b, all >= 0. The
    translates of that triangle and of its point reflection
    (v1, v2, v1 + v2) tile the plane, and the two triangles on each edge
    are congruent by the half-turn about the edge's midpoint, so their
    angles opposite that edge are equal and sum to at most pi. A
    triangulation with that property on every edge is a Delaunay
    triangulation: no lattice point lies inside any triangle's
    circumcircle. The Voronoi vertices of the lattice are therefore the
    circumcenters of these congruent triangles, and the covering radius
    is their circumradius. With side lengths squared a, c and
    |v1 - v2|^2 = a + c - 2b and area^2 = (ac - b^2) / 4,
    R^2 = (a c (a + c - 2b)) / (16 area^2) = a c (a + c - 2b) / (4 (ac - b^2)).
    """
    n = len(g)
    if _is_diagonal(g):
        return sum((g[i][i] for i in range(n)), Fraction(0)) / 4
    if n == 2:
        a, b, c = g[0][0], g[0][1], g[1][1]
        while True:
            k = floor(b / a + Fraction(1, 2))
            b, c = b - k * a, c - 2 * k * b + k * k * a
            if a <= c:
                break
            a, c = c, a
        b = abs(b)
        return a * c * (a + c - 2 * b) / (4 * (a * c - b * b))
    return None


def min_eigenvalue_real(mat: intmat.Matrix, cap_bits: int) -> CReal:
    """Smallest eigenvalue of a symmetric integer matrix as a certified
    real; exact whenever that eigenvalue is rational.

    The eigenvalues are the roots of the monic integer characteristic
    polynomial. Up to 2 x 2 the quadratic formula gives the smallest.
    Larger matrices take the squarefree part q of that polynomial (all
    its roots are real) and bisect from its Cauchy bound with Sturm
    counts until a bracket (lo, hi] narrower than 1 holds the smallest
    root and no other. A rational root of a monic integer polynomial is
    an integer, so the eigenvalue is rational exactly when the bracket's
    integer is a root of q. Raises PrecisionCapError when isolating the
    smallest eigenvalue from the next one needs brackets narrower than
    2^-cap_bits. The interval at b bits is the bracket refined in place
    to width at most 2^-b.
    """
    n = len(mat)
    if n == 1:
        return CReal.from_rational(mat[0][0])
    if n == 2:
        # lambda solves x^2 - tr x + det; symmetric, so disc >= 0
        tr = mat[0][0] + mat[1][1]
        disc = tr * tr - 4 * (mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0])
        root = isqrt(disc)
        if root * root == disc:
            return CReal.from_rational(Fraction(tr - root, 2))
        return CReal.from_refinable(
            lambda bits: Interval(
                (tr - sqrt_upper(disc, bits)) / 2, (tr - sqrt_lower(disc, bits)) / 2
            )
        )
    # imported on first use: the package's largest module, needed here
    # only by matrix bases above 2 x 2
    from . import roots

    q = roots.squarefree_part(intmat.char_poly(mat))
    chain = roots.sturm_chain(q)
    lo = Fraction(-roots.root_bound(q))
    hi = -lo
    v_lo, v_hi = roots.variations(chain, lo), roots.variations(chain, hi)
    floor_width = Fraction(1, 1 << cap_bits)
    # invariant: no root <= lo, at least one in (lo, hi]
    while v_lo - v_hi > 1 or hi - lo >= 1:
        if v_lo - v_hi > 1 and hi - lo < floor_width:
            raise PrecisionCapError(
                f"smallest eigenvalue not isolated at {cap_bits} precision bits"
            )
        mid = (lo + hi) / 2
        v_mid = roots.variations(chain, mid)
        if v_lo - v_mid >= 1:
            hi, v_hi = mid, v_mid
        else:
            lo, v_lo = mid, v_mid
    for k in range(ceil(lo), floor(hi) + 1):
        if roots.sign_at(q, Fraction(k)) == 0:
            return CReal.from_rational(k)
    dq = roots.derivative(q)
    s_lo = roots.sign_at(q, lo)
    state = [lo, hi]
    memo: dict[int, Interval] = {}

    def atom(bits: int) -> Interval:
        if bits not in memo:
            state[:] = roots.narrow(q, dq, *state, s_lo, Fraction(1, 1 << bits))
            memo[bits] = Interval(*state)
        return memo[bits]

    return CReal.from_refinable(atom)
