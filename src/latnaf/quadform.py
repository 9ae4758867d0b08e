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
range of x_i. The same pivots decide whether M - s I is positive
definite (``definite``), which is whether every eigenvalue of M exceeds
s; narrowing on that test, guided by Laguerre and Newton steps on
det(M - s I), gives the smallest eigenvalue of a symmetric integer
matrix (``min_eigenvalue_real``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import floor, isqrt, lcm
from operator import mul

from . import intmat
from .errors import BallSizeError
from .exactreal import CReal, Interval
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


def _eliminate(m) -> list[list[int]] | None:
    """Fraction-free (Bareiss) elimination of the symmetric integer
    matrix m on and above its diagonal, which then holds the leading
    principal minors P_i, or None at the first P_i <= 0, where m is not
    positive definite (Sylvester's criterion)."""
    a = [list(row) for row in m]
    prev = 1
    for k, rk in enumerate(a):
        p = rk[k]
        if p <= 0:
            return None
        for j in range(k + 1, len(a)):
            rj, c = a[j], rk[j]  # rk[j] is a[j][k], by symmetry
            for i in range(j, len(a)):
                rj[i] = (p * rj[i] - c * rk[i]) // prev  # exact (Bareiss)
        prev = p
    return a


def ldl(m, den: int = 1) -> LDL | None:
    """The integer LDL of the symmetric Gram matrix m / den (m integer,
    den > 0), or None when it is not positive definite."""
    a = _eliminate(m)
    if a is None:
        return None
    pivots = tuple(row[i] for i, row in enumerate(a))
    pairs = [prev_p * p for prev_p, p in zip((1, *pivots), pivots)]
    scale = lcm(*pairs)
    upper = tuple(tuple(row[i + 1:]) for i, row in enumerate(a))
    return LDL(den, pivots, upper, tuple(scale // w for w in pairs), scale)


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


def _shifted(m: intmat.Matrix, s: int) -> list[list[int]]:
    return [[v - s * (i == k) for k, v in enumerate(row)] for i, row in enumerate(m)]


def definite(m: intmat.Matrix, s: int) -> bool:
    """Whether M - s I is positive definite: every eigenvalue of M exceeds s."""
    return _eliminate(_shifted(m, s)) is not None


def _estimates(m: intmat.Matrix, s: int) -> tuple[int, int, int]:
    """Integer estimates (lower bound, guess, upper bound) of lambda - s,
    lambda the smallest eigenvalue of M, when M - s I is positive
    definite. With t_i = lambda_i - s > 0, the sums of the principal
    k-minors of M - s I are the elementary symmetric e_k(t), so their
    last Bareiss pivots give G = sum 1 / t_i = e_(n-1) / e_n and
    H = sum 1 / t_i^2 = G^2 - 2 e_(n-2) / e_n. With t_1 = min t_i:
    - Laguerre's step n / (G + sqrt((n - 1) (n H - G^2))) on det(M - s I),
      a real-rooted polynomial, is at most t_1; from far below it lands
      near the eigenvalues, and it converges cubically to a simple one;
    - m / G, m = G^2 / H rounded (about the multiplicity of lambda near
      it), is Newton's step for an m-fold root: it converges
      quadratically whatever m, but may pass lambda;
    - G / H is at least t_1 (1 / t_i^2 <= 1 / (t_1 t_i)), and within
      O(t_1^2) of it near lambda, whatever the multiplicity.
    """
    a = _shifted(m, s)
    n = len(a)

    def e(k: int) -> int:  # each principal minor is its last pivot
        total = 0
        for keep in combinations(range(n), k):
            minor = [[a[i][j] for j in keep] for i in keep]
            total += _eliminate(minor)[-1][-1] if keep else 1
        return total

    en, en1, en2 = e(n), e(n - 1), e(n - 2) if n > 1 else 0
    den = en1 * en1 - 2 * en2 * en  # H e_n^2
    spread = (n - 1) * (n * den - en1 * en1)  # (n - 1)(n H - G^2) e_n^2
    root = isqrt(spread)
    root += root * root < spread
    mult = (2 * en1 * en1 + den) // (2 * den)
    return n * en // (en1 + root), mult * en // en1, -(-en1 * en // den)


def min_eigenvalue_real(mat: intmat.Matrix) -> CReal:
    """Smallest eigenvalue lambda of a symmetric integer matrix M as a
    certified real; exact whenever lambda is rational.

    lambda > s exactly when M - s I is positive definite (``definite``),
    so narrowing on that test from below Gershgorin's bound to the least
    diagonal entry brackets lambda in (hi - 1, hi] for an integer hi.
    Rational zeros of the monic characteristic polynomial are integers,
    so lambda is rational exactly when it is hi: when M - hi I is
    singular with no negative principal minor (singular alone also holds
    when hi is a larger eigenvalue). Else the interval at b bits is
    [a, a + 1] / 2^b for the a with 2^b M - a I definite and
    2^b M - (a + 1) I not, narrowed from the finest bracket so far.

    Narrowing a bracket (lo, hi] evaluates the minors of M - lo I once
    for three estimates of lambda (``_estimates``) and tests each; if
    the bracket is still wider than 1 it tests one below its upper end,
    then its midpoint, so every round at least halves it, as bisection
    would. Each new end rests on a ``definite`` test, never on an
    estimate alone.
    """

    def cut(m, lo: int, hi: int, t: int) -> tuple[int, int]:
        if not lo < t < hi:
            return lo, hi
        return (t, hi) if definite(m, t) else (lo, t)

    def narrow(m, lo: int, hi: int) -> int:  # m - lo I definite, m - hi I not
        while hi - lo > 1:
            for t in [lo + v for v in _estimates(m, lo)]:
                lo, hi = cut(m, lo, hi, t)
            lo, hi = cut(m, lo, hi, hi - 1)
            lo, hi = cut(m, lo, hi, (lo + hi) // 2)
        return lo

    diag = [row[i] for i, row in enumerate(mat)]
    gershgorin = min(d + abs(d) - sum(map(abs, row)) for d, row in zip(diag, mat))
    hi = narrow(mat, gershgorin - 1, min(diag)) + 1
    shifted = _shifted(mat, hi)
    minors = (
        intmat.determinant([[shifted[i][k] for k in idx] for i in idx])
        for r in range(len(mat), 0, -1)  # det(M - hi I) first
        for idx in combinations(range(len(mat)), r)
    )
    if next(minors) == 0 and all(v >= 0 for v in minors):
        return CReal.from_rational(hi)
    state = [0, hi - 1]  # lambda lies in (a, a + 1) / 2^b for [b, a]
    memo: dict[int, Interval] = {}

    def atom(bits: int) -> Interval:
        if bits not in memo:
            b, a = state
            if bits <= b:
                a >>= b - bits
            else:
                k = bits - b
                a = narrow([[v << bits for v in row] for row in mat], a << k, (a + 1) << k)
                state[:] = bits, a
            memo[bits] = Interval(Fraction(a, 1 << bits), Fraction(a + 1, 1 << bits))
        return memo[bits]

    return CReal.from_refinable(atom)
