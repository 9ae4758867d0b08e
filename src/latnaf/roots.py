"""Certified roots of a squarefree integer polynomial, in stdlib arithmetic.

``PolyRoots`` isolates the roots of one polynomial once and refines them
in place; every decision rests on exact integer or rational arithmetic.

* Squarefreeness: the gcd of p and p' over the integers (primitive
  remainder sequence). A repeated root raises ``ValueError``.
* Real roots: Sturm sequences count the distinct roots in a half-open
  interval (a, b] exactly, so bisection from the Cauchy bound isolates
  them (Collins and Akritas, 1976). Refinement takes a Newton step from
  the midpoint and keeps the small bracket around it only when the signs
  of p at its ends certify a root there; otherwise it bisects.
* Complex pairs: Aberth-Ehrlich iteration seeds the approximations, in
  floats when the coefficients fit and in scaled Gaussian integers
  otherwise. Seeds are never trusted. For distinct approximations
  z_1 .. z_n of the roots of p (leading coefficient c), the matrix
  diag(z) - W 1^T with Weierstrass corrections
  W_i = p(z_i) / (c * prod_{j != i} (z_i - z_j)) has characteristic
  polynomial p / c (Lagrange interpolation), so by Gerschgorin every root
  lies in a disc D(z_i - W_i, (n - 1)|W_i|), and a disc disjoint from all
  the others holds exactly one root (Braess and Hadeler 1973; Carstensen
  1991; Bini and Fiorentino's MPSolve, 2000). The check runs on the
  dyadic boxes around those discs in exact integer arithmetic: a box in
  the upper half plane that meets no other box holds exactly one root,
  and a failed check iterates further at a higher precision.

Boxes are kept per precision level L = 8, 16, 32, ...: every box of
level L is narrower than 2^-L, the level-2L box lies inside the level-L
box, and a root keeps its index for the object's life.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from .errors import PrecisionCapError
from .exactreal import ComplexBox, Interval

Poly = tuple[int, ...]

# working precision beyond which the complex isolation gives up (raises)
_MAX_WORK_BITS = 1 << 16


def _strip(p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _primitive(p) -> Poly:
    """The integer polynomial positively proportional to p (rational
    coefficients), with content 1; () for the zero polynomial."""
    p = _strip([Fraction(c) for c in p])
    if not p:
        return ()
    den = math.lcm(*(c.denominator for c in p))
    ints = [int(c * den) for c in p]
    g = gcd(*ints)
    return tuple(c // g for c in ints)


def derivative(p: Poly) -> Poly:
    return tuple(i * c for i, c in enumerate(p))[1:]


def _remainder(a: Poly, b: Poly) -> Poly:
    """A positive multiple of a mod b (over the rationals), primitive."""
    r = [Fraction(c) for c in a]
    db = len(b) - 1
    while len(r) - 1 >= db and r:
        q = r[-1] / b[-1]
        shift = len(r) - 1 - db
        for i, c in enumerate(b):
            r[i + shift] -= q * c
        r.pop()
        _strip(r)
    return _primitive(r)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Primitive gcd of two integer polynomials, positive leading
    coefficient."""
    a, b = _primitive(a), _primitive(b)
    while b:
        a, b = b, _remainder(a, b)
    return a if a[-1] > 0 else tuple(-c for c in a)


def exact_quotient(a: Poly, b: Poly) -> Poly | None:
    """a / b when b divides a over the integers, else None."""
    r = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    while len(_strip(r)) - 1 >= db:
        c, rest = divmod(r[-1], b[-1])
        if rest:
            return None
        shift = len(r) - 1 - db
        q[shift] = c
        for i, bc in enumerate(b):
            r[i + shift] -= c * bc
    return None if r else tuple(q)


def sign_at(p: Poly, x: Fraction) -> int:
    """Sign of p(x), from the integer sum of c_i num^i den^(d - i)."""
    num, den = x.numerator, x.denominator
    v, scale = 0, 1
    for c in reversed(p):
        v = v * num + c * scale
        scale *= den
    return (v > 0) - (v < 0)


def _value(p: Poly, x: Fraction) -> Fraction:
    v = Fraction(0)
    for c in reversed(p):
        v = v * x + c
    return v


def sturm_chain(p: Poly) -> list[Poly]:
    """p, p', then the negated remainders, each scaled by a positive
    factor (so the signs, and the counts, are those of the textbook
    sequence)."""
    chain = [tuple(p), derivative(p)]
    while len(chain[-1]) > 1:
        r = _remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(tuple(-c for c in r))
    return chain


def variations(chain: list[Poly], x: Fraction) -> int:
    """Sign changes of the chain at x. For squarefree p, the number of
    distinct roots in (a, b] is variations(a) - variations(b)."""
    count, last = 0, 0
    for q in chain:
        s = sign_at(q, x)
        if s:
            if last and s != last:
                count += 1
            last = s
    return count


def root_bound(p: Poly) -> int:
    """A power of two above the modulus of every root (Cauchy)."""
    lead = abs(p[-1])
    bound = 1 + max(-(-abs(c) // lead) for c in p[:-1])
    return 1 << bound.bit_length()


def narrow(p: Poly, dp: Poly, lo: Fraction, hi: Fraction, s_lo: int, width: Fraction):
    """Shrink [lo, hi], where p changes sign (p(lo) has sign s_lo), to
    width at most `width`. A Newton step from the midpoint proposes a
    bracket about as wide as the square of the current one; it is kept
    only when the signs at its ends certify it, otherwise the interval
    is bisected. Returns (lo, hi); lo == hi when an exact root was hit.
    The result always lies inside [lo, hi]."""
    while hi - lo > width:
        mid = (lo + hi) / 2
        s_mid = sign_at(p, mid)
        if s_mid == 0:
            return mid, mid
        w = hi - lo
        # Newton only once the bracket is narrow: the square of w shrinks it
        if w < 1:
            step = max(w * w, width / 2)
            e = (step.denominator // step.numerator).bit_length() - 1
            slope = _value(dp, mid)
            if slope:
                x = mid - _value(p, mid) / slope
                g = Fraction(1, 1 << (e + 1))
                x = Fraction(math.floor(x / g)) * g
                a, b = max(lo, x - g), min(hi, x + g)
                if a < b and b - a < w / 2:
                    s_a, s_b = sign_at(p, a), sign_at(p, b)
                    if s_a == 0:
                        return a, a
                    if s_b == 0:
                        return b, b
                    if s_a == s_lo and s_b == -s_lo:
                        lo, hi = a, b
                        continue
        if s_mid == s_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


class _Gauss:
    """(re + i im) / 2^k with integer re, im: scaled-integer complex
    arithmetic, for Aberth seeds whose coefficients do not fit a float
    and for iterating past float precision."""

    __slots__ = ("re", "im", "k")

    def __init__(self, re: int, im: int, k: int):
        self.re, self.im, self.k = re, im, k

    def _lift(self, v) -> "_Gauss":
        if isinstance(v, _Gauss):
            return v
        return _Gauss(v << self.k, 0, self.k)

    def __add__(self, other):
        o = self._lift(other)
        return _Gauss(self.re + o.re, self.im + o.im, self.k)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._lift(other)
        return _Gauss(self.re - o.re, self.im - o.im, self.k)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        if not isinstance(other, _Gauss):
            return _Gauss(self.re * other, self.im * other, self.k)
        k = self.k
        return _Gauss(
            (self.re * other.re - self.im * other.im) >> k,
            (self.re * other.im + self.im * other.re) >> k,
            k,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        m = o.re * o.re + o.im * o.im
        if m == 0:
            raise ZeroDivisionError("division by a zero Gaussian")
        return _Gauss(
            ((self.re * o.re + self.im * o.im) << self.k) // m,
            ((self.im * o.re - self.re * o.im) << self.k) // m,
            self.k,
        )

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __abs__(self) -> Fraction:
        return Fraction(isqrt(self.re * self.re + self.im * self.im), 1 << self.k)

    @classmethod
    def of(cls, z, k: int) -> "_Gauss":
        """z (a complex or another _Gauss) at scale 2^k."""
        if isinstance(z, _Gauss):
            if k >= z.k:
                return cls(z.re << (k - z.k), z.im << (k - z.k), k)
            return cls(z.re >> (z.k - k), z.im >> (z.k - k), k)
        re, im = Fraction(z.real), Fraction(z.imag)
        return cls((re.numerator << k) // re.denominator, (im.numerator << k) // im.denominator, k)


def _horner(p: Poly, z):
    v = 0 * z
    for c in reversed(p):
        v = v * z + c
    return v


def _aberth(p: Poly, dp: Poly, zs: list, tol, rounds: int) -> bool:
    """Aberth-Ehrlich sweeps (Gauss-Seidel order) on zs in place, until
    every correction is within tol; False when rounds run out."""
    n = len(zs)
    for _ in range(rounds):
        worst = 0
        for i in range(n):
            z = zs[i]
            try:
                ratio = _horner(p, z) / _horner(dp, z)
                pull = sum(1 / (z - zs[j]) for j in range(n) if j != i)
                corr = ratio / (1 - ratio * pull)
            except ZeroDivisionError:
                continue
            zs[i] = z - corr
            worst = max(worst, abs(corr))
        if worst <= tol:
            return True
    return False


def _seeds(p: Poly, dp: Poly) -> list:
    """Aberth approximations of all roots, started on a circle of about
    the roots' largest modulus (Fujiwara's bound): floats when the
    coefficients and the iteration stay finite, scaled Gaussian integers
    otherwise."""
    n = len(p) - 1
    lead = abs(p[-1]).bit_length()
    radius = 1 << max(
        0, *(-(-(abs(p[n - k]).bit_length() - lead + 1) // k) for k in range(1, n + 1))
    )
    center = -Fraction(p[-2], n * p[-1])
    angles = (2 * math.pi * j / n + 0.4 for j in range(n))
    units = [complex(math.cos(a), math.sin(a)) for a in angles]
    try:
        c = float(center)
        zs = [c + radius * u for u in units]
        _aberth(p, dp, zs, 2.0**-48 * radius, 200)
        if all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
            return zs
    except (OverflowError, ValueError):
        pass
    k = 64 + radius.bit_length()
    c = _Gauss((center.numerator << k) // center.denominator, 0, k)
    zs = [c + _Gauss.of(u, k) * radius for u in units]
    _aberth(p, dp, zs, Fraction(1, 1 << (k - 16)), 400)
    return zs


def _inclusion_boxes(p: Poly, zs: list, g: int) -> list | None:
    """For each approximation z_i (as _Gauss at a common scale 2^k), the
    box (re_lo, re_hi, im_lo, im_hi), integers at scale 2^-g, around the
    disc D(z_i - W_i, (n - 1)|W_i|). None when two approximations
    coincide."""
    n = len(zs)
    k = zs[0].k
    lead = p[-1]
    out = []
    for i, zi in enumerate(zs):
        # p(z_i) * 2^(kn), in Gaussian integers
        vr, vi = p[-1], 0
        for j in range(n - 1, -1, -1):
            vr, vi = vr * zi.re - vi * zi.im, vr * zi.im + vi * zi.re
            vr += p[j] << (k * (n - j))
        dr, di = 1, 0
        for j, zj in enumerate(zs):
            if j != i:
                ar, ai = zi.re - zj.re, zi.im - zj.im
                dr, di = dr * ar - di * ai, dr * ai + di * ar
        m = dr * dr + di * di
        if m == 0:
            return None
        # W_i = (vr + i vi)(dr - i di) / (lead * m * 2^k)
        nr, ni = vr * dr + vi * di, vi * dr - vr * di
        den = lead * m
        if den < 0:
            nr, ni, den = -nr, -ni, -den
        den_k = den << k
        radius_sq = (n - 1) ** 2 * (nr * nr + ni * ni) << (2 * g)
        root = isqrt(radius_sq)
        if root * root < radius_sq:
            root += 1
        rad = -(-root // den_k)
        box = []
        for z, w in ((zi.re, nr), (zi.im, ni)):
            x = (z * den - w) << g
            box += [x // den_k - rad, -(-x // den_k) + rad]
        out.append(tuple(box))
    return out


def _meets(a, b) -> bool:
    """Whether two closed boxes (re_lo, re_hi, im_lo, im_hi) intersect."""
    return not (a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2])


def _cluster_order(boxes: list) -> list[int] | None:
    """Indices of the upper boxes ordered by real part, then imaginary
    part. Boxes whose real ranges overlap, directly or through a chain
    of others, count as tied and are ordered by imaginary part; None
    when two tied boxes also overlap in imaginary part (the isolation
    cannot order them yet)."""
    idx = sorted(range(len(boxes)), key=lambda i: boxes[i][0])
    order, cluster, reach = [], [], None
    for i in idx + [None]:
        if i is not None and cluster and boxes[i][0] <= reach:
            cluster.append(i)
            reach = max(reach, boxes[i][1])
            continue
        cluster.sort(key=lambda j: boxes[j][2])
        for a, b in zip(cluster, cluster[1:]):
            if boxes[b][2] <= boxes[a][3]:
                return None
        order += cluster
        if i is not None:
            cluster, reach = [i], boxes[i][1]
    return order


class PolyRoots:
    """Certified enclosures of the roots of a squarefree integer
    polynomial (ascending coefficients, degree >= 1).

    ``boxes(bits)`` returns (reals, pairs): the real roots as Intervals,
    ascending, and one ComplexBox per conjugate pair (the root with
    positive imaginary part), each narrower than 2^-max(bits, 8) and
    holding exactly one root. Pairs are ordered by real part, then by
    imaginary part. Tie rule: real parts that the first certified
    isolation does not separate (their ranges overlap, directly or
    through a chain of other pairs) count as equal, so the roots of
    (x^2 + 1)(x^2 + 4) are listed i, then 2i. The k-th entry encloses the
    same root at every precision, and the box for 2b bits lies inside
    the box for b bits.
    """

    def __init__(self, coeffs):
        p = tuple(int(c) for c in coeffs)
        if len(p) < 2 or p[-1] == 0:
            raise ValueError("root isolation needs a polynomial of degree at least 1")
        if len(poly_gcd(p, derivative(p))) > 1:
            raise ValueError("repeated roots degenerate the embedding norm")
        self.p = p
        self.dp = derivative(p)
        self.degree = len(p) - 1
        self._chain = sturm_chain(p)
        # per level: (lo, hi, sign of p(lo)) per real root, and for the
        # pairs (g, boxes as integers at scale 2^-g); the isolation itself
        # comes first, as the reference for level 0
        self._reals = [self._isolate_reals()]
        self.s = len(self._reals[0])
        self.t = (self.degree - self.s) // 2
        self._zs: list = []
        self._pairs: list = []
        self._out: dict = {}

    def _isolate_reals(self) -> list[tuple[Fraction, Fraction, int]]:
        """(lo, hi, sign of p(lo)) per real root, ascending: p changes
        sign on [lo, hi], or lo == hi is the root."""
        p, chain = self.p, self._chain
        b = Fraction(root_bound(p))
        work = [(-b, b, variations(chain, -b), variations(chain, b))]
        found = []
        while work:
            a, c, va, vc = work.pop()
            if va - vc == 1:
                found.append((a, c))
            elif va - vc > 1:
                mid = (a + c) / 2
                vm = variations(chain, mid)
                work += [(a, mid, va, vm), (mid, c, vm, vc)]
        out = []
        for a, c in sorted(found):
            # the one root lies in (a, c]; a may be the root to its left
            while sign_at(p, c) and not sign_at(p, a):
                mid = (a + c) / 2
                if variations(chain, a) - variations(chain, mid) == 1:
                    c = mid
                else:
                    a = mid
            if not sign_at(p, c):
                a = c
            out.append((a, c, sign_at(p, a)))
        return out

    @staticmethod
    def _level(bits: int) -> int:
        """Index i of the precision level 8 * 2^i that serves a request."""
        return max(0, (max(bits, 8) - 1).bit_length() - 3)

    def _reals_at(self, level: int) -> list:
        while len(self._reals) <= level + 1:
            width = Fraction(1, 1 << (8 << (len(self._reals) - 1)))
            nxt = []
            for lo, hi, s in self._reals[-1]:
                if hi - lo > width:
                    lo, hi = narrow(self.p, self.dp, lo, hi, s, width)
                    s = sign_at(self.p, lo)
                nxt.append((lo, hi, s))
            self._reals.append(nxt)
        return self._reals[level + 1]

    def _certify(self, g: int) -> list | None:
        """Upper boxes at grid 2^-g from the current approximations,
        when exactly t of them lie in the upper half plane and each
        meets no other box; None otherwise."""
        boxes = _inclusion_boxes(self.p, self._zs, g)
        if boxes is None:
            return None
        upper = [i for i, b in enumerate(boxes) if b[2] > 0]
        if len(upper) != self.t:
            return None
        for i in upper:
            if any(_meets(boxes[i], b) for j, b in enumerate(boxes) if j != i):
                return None
        return [boxes[i] for i in upper]

    def _improve(self, k: int) -> None:
        """Aberth sweeps on all approximations at scale 2^k."""
        self._zs = [_Gauss.of(z, k) for z in self._zs]
        _aberth(self.p, self.dp, self._zs, Fraction(1, 1 << (k - 12)), 50)

    def _isolate_pairs(self) -> tuple[int, list]:
        """The first certified boxes of the pairs, in the order of
        ``_cluster_order``."""
        k = 64 + root_bound(self.p).bit_length()
        self._zs = [_Gauss.of(z, k) for z in _seeds(self.p, self.dp)]
        while True:
            boxes = self._certify(k - 8)
            order = None if boxes is None else _cluster_order(boxes)
            if order is not None:
                return k - 8, [boxes[i] for i in order]
            k *= 2
            if k > _MAX_WORK_BITS:
                raise PrecisionCapError("complex root isolation did not converge")
            self._improve(k)

    def _pairs_at(self, level: int) -> tuple[int, list]:
        if not self._pairs:
            self._pairs.append(self._isolate_pairs())
        while len(self._pairs) <= level + 1:
            self._pairs.append(self._refine_pairs(8 << (len(self._pairs) - 1)))
        return self._pairs[level + 1]

    def _refine_pairs(self, bits: int) -> tuple[int, list]:
        """Boxes narrower than 2^-bits, each inside the previous level's
        box of the same root."""
        g_old, old = self._pairs[-1]
        if _narrower(old, g_old, bits):
            return g_old, old
        g = max(bits + 4, g_old)
        k = max(self._zs[0].k, g + 16)
        while True:
            self._improve(k)
            new = self._certify(g)
            matched = None if new is None else _match(g_old, old, g, new)
            if matched is not None and _narrower(matched, g, bits):
                return g, matched
            k *= 2
            if k > _MAX_WORK_BITS:
                raise PrecisionCapError("complex root refinement did not converge")

    def boxes(self, bits: int) -> tuple[tuple[Interval, ...], tuple[ComplexBox, ...]]:
        level = self._level(bits)
        if level not in self._out:
            reals = tuple(Interval(lo, hi) for lo, hi, _ in self._reals_at(level))
            pairs = ()
            if self.t:
                g, boxes = self._pairs_at(level)
                den = 1 << g
                pairs = tuple(
                    ComplexBox(
                        Interval(Fraction(b[0], den), Fraction(b[1], den)),
                        Interval(Fraction(b[2], den), Fraction(b[3], den)),
                    )
                    for b in boxes
                )
            self._out[level] = reals, pairs
        return self._out[level]

    def proper_factor(self) -> Poly | None:
        """A monic integer factor of p of degree 1 .. n - 1, or None when
        p is irreducible over the rationals.

        Any factor is the product of x - r over a conjugation-closed set
        of roots, and one of degree at most n / 2 exists when p is
        reducible. For each such set, the coefficients of the product are
        enclosed in intervals. When every interval holds exactly one
        integer, exact division decides: a factor would have exactly
        those integers as coefficients. A set with an interval holding no
        integer is no factor; one with an interval holding several is
        retried at the next precision.
        """
        n = self.degree
        units = [(1, "r", i) for i in range(self.s)] + [(2, "p", j) for j in range(self.t)]
        pending = [
            combo
            for size in range(1, len(units) + 1)
            for combo in combinations(units, size)
            if sum(u[0] for u in combo) <= n // 2
        ]
        bits = 32
        while pending:
            if any(u[1] == "p" for combo in pending for u in combo):
                reals, pairs = self.boxes(bits)
            else:
                reals = [Interval(lo, hi) for lo, hi, _ in self._reals_at(self._level(bits))]
            undecided = []
            for combo in pending:
                coeffs = [Interval.point(1)]
                for _, kind, i in combo:
                    if kind == "r":
                        factor = [-reals[i], Interval.point(1)]
                    else:
                        box = pairs[i]
                        factor = [box.modulus_sq(), box.re.scaled(-2), Interval.point(1)]
                    coeffs = _poly_mul(coeffs, factor)
                ints = [(math.ceil(c.lo), math.floor(c.hi)) for c in coeffs]
                if any(lo > hi for lo, hi in ints):
                    continue
                if any(lo < hi for lo, hi in ints):
                    undecided.append(combo)
                    continue
                cand = tuple(lo for lo, _ in ints)
                if exact_quotient(self.p, cand) is not None:
                    return cand
            pending = undecided
            bits *= 2
        return None


def _narrower(boxes: list, g: int, bits: int) -> bool:
    """Whether every box (integers at scale 2^-g) is at most 2^-bits
    wide in both directions."""
    return g >= bits and all(
        max(b[1] - b[0], b[3] - b[2]) <= 1 << (g - bits) for b in boxes
    )


def _match(g_old: int, old: list, g: int, new: list) -> list | None:
    """new's boxes in old's order, each cut down to its old box. Old box
    i holds one root, and every upper root lies in some new box, so when
    old box i meets exactly one new box, that box holds the same root.
    None when an old box meets no new box or several."""
    shift = g - g_old
    out = []
    for ob in old:
        ob = tuple(v << shift for v in ob)
        hits = [nb for nb in new if _meets(ob, nb)]
        if len(hits) != 1:
            return None
        nb = hits[0]
        out.append((max(ob[0], nb[0]), min(ob[1], nb[1]), max(ob[2], nb[2]), min(ob[3], nb[3])))
    return out


def _poly_mul(a: list[Interval], b: list[Interval]) -> list[Interval]:
    out = [Interval.point(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out
