"""Exact integer matrix helpers.

Everything here is plain tuples/lists of Python ints; no floating
point. Matrices are tuples of row tuples, vectors are tuples.
Sizes are small (desk scale), so simple cubic algorithms are fine.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .errors import ConsistencyError

Matrix = tuple[tuple[int, ...], ...]
Vector = tuple[int, ...]


def int_tuple(values) -> Vector:
    """values as a tuple of ints through ``operator.index``, which, unlike
    ``int``, refuses a float or a fraction rather than truncate it:
    raises ValueError naming the first such value."""
    values = tuple(values)
    try:
        return tuple(map(index, values))
    except TypeError:
        bad = [v for v in values if not hasattr(type(v), "__index__")]
        if not bad:
            raise
        raise ValueError(f"not an integer: {bad[0]!r}") from None


def mat_from_rows(rows) -> Matrix:
    mat = tuple(map(int_tuple, rows))
    n = len(mat)
    if n == 0 or any(len(row) != n for row in mat):
        raise ValueError("matrix must be square and non-empty")
    return mat


def identity(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_vec(a: Matrix, v) -> tuple:
    if len(v) != len(a[0]):
        raise ValueError("dimension mismatch")
    return tuple(sum(ai * vi for ai, vi in zip(row, v)) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    if k < 0:
        raise ValueError("negative matrix power")
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def determinant(a: Matrix) -> int:
    """Bareiss fraction-free elimination; exact over the integers."""
    n = len(a)
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _minor(a: Matrix, i: int, j: int) -> Matrix:
    return tuple(
        tuple(v for jj, v in enumerate(row) if jj != j)
        for ii, row in enumerate(a)
        if ii != i
    )


def adjugate(a: Matrix) -> Matrix:
    """adj(a) with a @ adj(a) == det(a) * I. Cofactor expansion, n is small."""
    n = len(a)
    if n == 1:
        return ((1,),)
    cof = [
        [(-1) ** (i + j) * determinant(_minor(a, i, j)) for j in range(n)]
        for i in range(n)
    ]
    return tuple(tuple(cof[j][i] for j in range(n)) for i in range(n))


def unimodular_inverse(a: Matrix) -> Matrix:
    d = determinant(a)
    if d not in (1, -1):
        raise ValueError("matrix is not unimodular")
    adj = adjugate(a)
    if d == 1:
        return adj
    return tuple(tuple(-v for v in row) for row in adj)


def char_poly(a: Matrix) -> tuple[int, ...]:
    """Coefficients of det(xI - a), ascending by power, leading 1.

    Faddeev-LeVerrier recurrence; the divisions by k are exact.
    """
    n = len(a)
    coeffs = [0] * (n + 1)
    coeffs[n] = 1
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        tr = sum(am[i][i] for i in range(n))
        q, r = divmod(-tr, k)
        if r:
            raise ConsistencyError("trace recurrence must divide exactly")
        coeffs[n - k] = q
        if k < n:
            m = tuple(
                tuple(am[i][j] + (q if i == j else 0) for j in range(n))
                for i in range(n)
            )
    return tuple(coeffs)


def smith_normal_form(a: Matrix) -> tuple[Matrix, tuple[int, ...], Matrix]:
    """Return (u, diag, v) with u @ a @ v diagonal, u and v unimodular.

    Diagonal entries are nonnegative and each divides the next. The
    reduction is deterministic, so downstream residue keys are stable.
    """
    n = len(a)
    m = [list(row) for row in a]
    u = [list(row) for row in identity(n)]
    v = [list(row) for row in identity(n)]

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_row(dst, src, q):
        # row[dst] += q * row[src]
        m[dst] = [x + q * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + q * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, q):
        for row in m:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]

    for t in range(n):
        while True:
            piv = None
            for i in range(t, n):
                for j in range(t, n):
                    if m[i][j] != 0 and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                        piv = (i, j)
            if piv is None:
                break
            if piv != (t, t):
                if piv[0] != t:
                    swap_rows(t, piv[0])
                if piv[1] != t:
                    swap_cols(t, piv[1])
            dirty = False
            for i in range(t + 1, n):
                if m[i][t]:
                    q = m[i][t] // m[t][t]
                    if q:
                        add_row(i, t, -q)
                    if m[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if m[t][j]:
                    q = m[t][j] // m[t][t]
                    if q:
                        add_col(j, t, -q)
                    if m[t][j]:
                        dirty = True
            if dirty:
                continue
            # row and column are clear; force divisibility of the rest
            offender = None
            for i in range(t + 1, n):
                for j in range(t + 1, n):
                    if m[i][j] % m[t][t]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(t, offender, 1)

    neg = {i for i in range(n) if m[i][i] < 0}
    if neg:
        for i in neg:
            m[i] = [-x for x in m[i]]
            u[i] = [-x for x in u[i]]
    return (
        tuple(tuple(row) for row in u),
        tuple(m[i][i] for i in range(n)),
        tuple(tuple(row) for row in v),
    )


def _strip_leading(coeffs) -> list:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def all_roots_in_open_unit_disk(coeffs) -> bool:
    """Exact Schur-Cohn style test on integer coefficients (ascending).

    One reduction step per degree: with a0, ad the extreme coefficients,
    the polynomial is stable only if ad^2 > a0^2, and then stability is
    equivalent to stability of (ad*p - a0*p~)/x where p~ has the
    coefficients reversed. Roots on the unit circle report False.
    """
    cs = _strip_leading(coeffs)
    if not cs:
        raise ValueError("zero polynomial has no root locus")
    while len(cs) > 1:
        a0, ad = cs[0], cs[-1]
        if ad * ad - a0 * a0 <= 0:
            return False
        rev = cs[::-1]
        cs = [ad * c - a0 * r for c, r in zip(cs, rev)][1:]
        g = 0
        for c in cs:
            g = gcd(g, abs(c))
        if g > 1:
            cs = [c // g for c in cs]
    return True
