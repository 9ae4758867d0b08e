"""Exact lattice geometry for positive definite rational quadratic forms.

Everything here is rational arithmetic: enumeration bounds come from an
LDL decomposition with integer range endpoints computed through isqrt,
so no floating point is involved anywhere on a decision path. The
smallest eigenvalue of a symmetric matrix comes from Sturm counts on its
characteristic polynomial (``min_eigenvalue_real``).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, floor, isqrt, lcm

from . import intmat
from .errors import BallSizeError, ConsistencyError, PrecisionCapError
from .exactreal import CReal, Interval, sqrt_lower, sqrt_upper

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


def eval_quadratic(g: Gram, v) -> Fraction:
    total = Fraction(0)
    for i, vi in enumerate(v):
        if vi == 0:
            continue
        row = g[i]
        for k, vk in enumerate(v):
            if vk:
                total += Fraction(vi) * Fraction(vk) * row[k]
    return total


def ldl(g: Gram):
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


def enumerate_with_offset(g: Gram, t, bound: Fraction, cap: int | None = None):
    """All integer x with Q(t + x) <= bound, sorted lexicographically.

    t is a rational point of the ambient space; bound is a rational.
    Each coordinate range [lo, hi] is exact: it holds the integers x_i
    with d_i (y_i + shift)^2 within the remaining budget and no others,
    so the innermost level emits its whole row without evaluating the
    form. Raises BallSizeError before a row would take the count past cap.
    """
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
                raise BallSizeError(
                    f"search ball holds more than {cap} points", cap
                )
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


def enumerate_ball(g: Gram, bound: Fraction, cap: int | None = None):
    """All integer points with Q(x) <= bound, origin included, lex order."""
    return enumerate_with_offset(g, (0,) * len(g), bound, cap)


def shortest_nonzero_norm_sq(g: Gram) -> Fraction:
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


def babai_point(g: Gram, t) -> tuple[int, ...]:
    """Nearest-plane rounding: an integer x with Q(t + x) small, whose
    value bounds the search for the closest points."""
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


def closest_lattice_points(g: Gram, t):
    """All integer x minimizing Q(t + x), with the minimum.

    Returns (points sorted lex, min_value). The Babai nearest-plane point
    seeds the search radius, so the enumeration provably contains every
    minimizer. The rational reference for the minimizer of
    ``digitset``, which compares integer norm brackets instead.
    """
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


def _is_diagonal(g: Gram) -> bool:
    n = len(g)
    return all(g[i][k] == 0 for i in range(n) for k in range(n) if i != k)


def _covering_radius_sq_2d(g: Gram) -> Fraction:
    """Exact squared covering radius in dimension 2: the farthest vertex
    of the origin's exact Voronoi cell."""
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


def covering_radius_sq_exact(g: Gram) -> Fraction | None:
    """Exact squared covering radius when cheaply available, else None."""
    n = len(g)
    if n == 1:
        return g[0][0] / 4
    if _is_diagonal(g):
        return sum((g[i][i] for i in range(n)), Fraction(0)) / 4
    if n == 2:
        return _covering_radius_sq_2d(g)
    return None


def min_eigenvalue_real(mat, cap_bits: int) -> CReal:
    """Smallest eigenvalue of a symmetric rational matrix as a certified
    real; exact rational whenever that eigenvalue is rational.

    With den the common denominator of the entries, den * lambda is a
    root of the monic integer characteristic polynomial of den * mat. Up
    to 2 x 2 the quadratic formula gives it. Larger matrices take the
    squarefree part q of that polynomial (all its roots are real) and
    bisect from its Cauchy bound with Sturm counts until a bracket
    (lo, hi] narrower than 1 holds the smallest root and no other. A
    rational root of a monic integer polynomial is an integer, so the
    eigenvalue is rational exactly when the bracket's integer is a root
    of q. Raises PrecisionCapError when isolating the smallest
    eigenvalue from the next one needs brackets narrower than
    2^-cap_bits. The interval at b bits is the bracket refined in place
    to width 2^-(b + 1), rounded outward to multiples of 2^-(b + 2): at
    most 2^-b wide whatever den is.
    """
    rows = [[Fraction(v) for v in row] for row in mat]
    n = len(rows)
    den = 1
    for row in rows:
        for v in row:
            den = lcm(den, v.denominator)
    a = tuple(
        tuple(int(v * den) for v in row) for row in rows
    )
    if n == 1:
        return CReal.from_rational(rows[0][0])
    if n == 2:
        # den * lambda solves x^2 - tr x + det; symmetric, so disc >= 0
        tr = a[0][0] + a[1][1]
        disc = tr * tr - 4 * (a[0][0] * a[1][1] - a[0][1] * a[1][0])
        root = isqrt(disc)
        if root * root == disc:
            return CReal.from_rational(Fraction(tr - root, 2 * den))
        disc_q = Fraction(disc)
        return CReal.from_refinable(
            lambda bits: Interval(
                Fraction(tr - sqrt_upper(disc_q, bits), 2 * den),
                Fraction(tr - sqrt_lower(disc_q, bits), 2 * den),
            )
        )
    # imported on first use: the package's largest module, needed here
    # only above 2 x 2
    from . import roots

    q = roots.squarefree_part(intmat.char_poly(a))
    chain = roots.sturm_chain(q)
    lo = Fraction(-roots.root_bound(q))
    hi = -lo
    v_lo, v_hi = roots.variations(chain, lo), roots.variations(chain, hi)
    floor_width = Fraction(den, 1 << cap_bits)
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
            return CReal.from_rational(Fraction(k, den))
    dq = roots.derivative(q)
    s_lo = roots.sign_at(q, lo)
    state = [lo, hi]
    memo: dict[int, Interval] = {}

    def atom(bits: int) -> Interval:
        if bits not in memo:
            state[:] = roots.narrow(q, dq, *state, s_lo, Fraction(den, 1 << (bits + 1)))
            g = 1 << (bits + 2)
            memo[bits] = Interval(
                Fraction(floor(state[0] * g / den), g),
                Fraction(ceil(state[1] * g / den), g),
            )
        return memo[bits]

    return CReal.from_refinable(atom)
