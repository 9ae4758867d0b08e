"""Rational reference implementations of the lattice geometry.

The package runs one integer kernel (``quadform.ldl`` and the integer
Fincke-Pohst enumeration and Babai rounding on it, the closed-form 2-D
covering radius, one adjugate per pullback). The functions here compute
the same quantities the straightforward way, in ``Fraction`` arithmetic,
so the tests can compare the two: a rational LDL, enumeration with exact
rational range endpoints, nearest-plane rounding, the closest-vector
search, the shortest vector, the 2-D covering radius as the farthest
vertex of the Voronoi cell, and Gauss-Jordan solving.
"""

from __future__ import annotations

from fractions import Fraction
from math import floor, isqrt, lcm

from latnaf import quadform
from latnaf.errors import BallSizeError, ConsistencyError


def eval_quadratic(g, v) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        row = g[i]
        for k, vk in enumerate(v):
            if vk:
                total += Fraction(vi) * Fraction(vk) * row[k]
    return total


def integer_ldl(g) -> quadform.LDL | None:
    """The package's integer LDL of a rational Gram matrix g = M / D."""
    den = lcm(*(Fraction(v).denominator for row in g for v in row))
    return quadform.ldl([[int(Fraction(v) * den) for v in row] for row in g], den)


def split_offset(t, k: int = 1) -> tuple[tuple[int, ...], int]:
    """(a, q) with t = a / q, q the common denominator times k."""
    q = k * lcm(*(Fraction(v).denominator for v in t))
    return tuple(int(Fraction(v) * q) for v in t), q


def ldl(g):
    """Q(y) = sum_i d[i] * (y_i + sum_{j>i} u[i][j] y_j)^2 with d[i] > 0,
    or None when the form is not positive definite."""
    n = len(g)
    a = [[Fraction(g[i][k]) for k in range(n)] for i in range(n)]
    d = [Fraction(0)] * n
    u = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        pivot = a[i][i]
        if pivot <= 0:
            return None
        d[i] = pivot
        for j in range(i + 1, n):
            u[i][j] = a[i][j] / pivot
        for j in range(i + 1, n):
            for k in range(j, n):
                a[j][k] -= a[i][j] * a[i][k] / pivot
                a[k][j] = a[j][k]
    return d, u


def _floor_shift_sqrt(shift: Fraction, val: Fraction) -> int:
    """floor(shift + sqrt(val)) computed exactly; val >= 0."""
    if val < 0:
        raise ValueError("negative radicand")
    num, den = val.numerator, val.denominator
    k = floor(shift) + isqrt(num * den) // den

    def le(c: int) -> bool:
        # c <= shift + sqrt(val)
        rest = Fraction(c) - shift
        if rest <= 0:
            return True
        return rest * rest <= val

    while le(k + 1):
        k += 1
    while not le(k):
        k -= 1
    return k


def enumerate_with_offset(g, t, bound, cap: int | None = None):
    """All integer x with Q(t + x) <= bound, sorted lexicographically,
    from the rational LDL: each range [lo, hi] holds the integers x_i
    with d_i (y_i + shift)^2 within the remaining rational budget.
    Raises BallSizeError before a row would take the count past cap."""
    n = len(g)
    decomp = ldl(g)
    if decomp is None:
        raise ValueError("form is not positive definite")
    d, u = decomp
    tt = tuple(Fraction(v) for v in t)
    if len(tt) != n:
        raise ValueError("offset length mismatch")
    bound = Fraction(bound)
    if bound < 0:
        return []
    out: list[tuple[int, ...]] = []
    ys = [Fraction(0)] * n
    xs = [0] * n

    def recurse(i: int, budget: Fraction) -> None:
        shift = sum((u[i][j] * ys[j] for j in range(i + 1, n)), Fraction(0))
        rad = budget / d[i]
        center = -(tt[i] + shift)
        hi = _floor_shift_sqrt(center, rad)
        lo = -_floor_shift_sqrt(-center, rad)
        if i == 0:
            if cap is not None and len(out) + (hi - lo + 1) > cap:
                raise BallSizeError(f"search ball holds more than {cap} points", cap)
            rest = tuple(xs[1:])
            out.extend((xi, *rest) for xi in range(lo, hi + 1))
            return
        for xi in range(lo, hi + 1):
            yi = tt[i] + xi
            xs[i] = xi
            ys[i] = yi
            recurse(i - 1, budget - d[i] * (yi + shift) * (yi + shift))

    recurse(n - 1, bound)
    out.sort()
    return out


def enumerate_ball(g, bound, cap: int | None = None):
    """All integer points with Q(x) <= bound, origin included, lex order."""
    return enumerate_with_offset(g, (0,) * len(g), bound, cap)


def babai_point(g, t) -> tuple[int, ...]:
    """Nearest-plane rounding on the rational LDL."""
    n = len(g)
    d, u = ldl(g)
    xs = [0] * n
    ys = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        shift = sum((u[i][j] * ys[j] for j in range(i + 1, n)), Fraction(0))
        target = -(Fraction(t[i]) + shift)
        xs[i] = floor(target + Fraction(1, 2))
        ys[i] = Fraction(t[i]) + xs[i]
    return tuple(xs)


def shortest_nonzero_norm_sq(g) -> Fraction:
    bound = min(g[i][i] for i in range(len(g)))
    best = None
    for x in enumerate_ball(g, bound):
        if all(c == 0 for c in x):
            continue
        v = eval_quadratic(g, x)
        if best is None or v < best:
            best = v
    if best is None:
        raise ConsistencyError("no nonzero lattice point within the diagonal bound")
    return best


def closest_lattice_points(g, t):
    """All integer x minimizing Q(t + x), with the minimum: (points
    sorted lex, min_value). The Babai point seeds the search radius, so
    the enumeration provably contains every minimizer."""
    tt = tuple(Fraction(v) for v in t)
    seed = babai_point(g, tt)
    bound = eval_quadratic(g, tuple(a + b for a, b in zip(tt, seed)))
    best = bound
    winners = []
    for x in enumerate_with_offset(g, tt, bound):
        v = eval_quadratic(g, tuple(a + b for a, b in zip(tt, x)))
        if v < best:
            best = v
            winners = [x]
        elif v == best:
            winners.append(x)
    winners.sort()
    return winners, best


def covering_radius_sq_2d(g) -> Fraction:
    """Exact squared covering radius in dimension 2: the farthest vertex
    of the origin's Voronoi cell, from every pair of bisectors of the
    lattice vectors in a ball that holds all relevant ones."""
    bound = 2 * (g[0][0] + g[1][1])
    rel = [x for x in enumerate_ball(g, bound) if x != (0, 0)]
    half = []
    for v in rel:
        gv = (
            g[0][0] * v[0] + g[0][1] * v[1],
            g[1][0] * v[0] + g[1][1] * v[1],
        )
        half.append((2 * gv[0], 2 * gv[1], eval_quadratic(g, v)))
    best = Fraction(0)
    m = len(half)
    for i in range(m):
        a1, b1, c1 = half[i]
        for j in range(i + 1, m):
            a2, b2, c2 = half[j]
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(a * x + b * y <= c for a, b, c in half):
                nv = eval_quadratic(g, (x, y))
                if nv > best:
                    best = nv
    # constraints from vectors outside the candidate ball cannot cut the
    # cell: their bisectors stay farther out than every vertex found
    if best > Fraction(bound, 4):
        raise ConsistencyError("Voronoi vertex beyond the candidate ball")
    return best


def solve_exact(a, v) -> tuple[Fraction, ...]:
    """Solve a x = v over the rationals (Gauss-Jordan). Raises on
    singular a."""
    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(v[i])] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            raise ValueError("singular matrix")
        m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return tuple(m[i][n] for i in range(n))
