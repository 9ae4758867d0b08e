"""Digit sets for sliding-window expansions.

A digit set for window width w holds exactly one representative of every
residue class of the lattice modulo the w-th power of the base map,
excluding classes inside the image of the base map itself (those are
represented by the digit zero). Three families are provided:

* minimal-norm: per class, a representative of least embedding norm,
  ties broken by the lexicographically smallest coordinate tuple;
* interval: for integer bases tau, the representatives in the balanced
  half-open interval (-|tau|^w / 2, |tau|^w / 2] not divisible by tau;
* custom: caller-provided representatives, validated.

``Geometry`` owns the working norm and evaluates it with one integer
kernel: per precision level, the Gram matrix over a common denominator
as an integer midpoint matrix and an entrywise half-width matrix, which
bracket the norm of a lattice point in integers. An exact Gram matrix is
the one level without half-widths, where the bracket is the norm itself;
balls are enumerated on the midpoint matrix to a bound inflated by a
certified factor (none when exact). Every norm evaluation, ball and
window bound of the package goes through it, and it caches the
geometric context (packing radius, covering radius, contraction factor
of the inverse map) that the termination and optimality arguments
consume.

``DigitSet`` owns its ``Geometry``, the division map p -> (p - d) / phi
that orbit search and the weight oracle run, the block step p -> (p -
d) / phi^w, and the window walk of expansion, which strips in one step
every digit a point's class modulo phi^K fixes, on the point held in the
Smith coordinates of phi^K. The division step and the block step are
one quotient body read with two matrices: the division step is the block
step of width 1. The digit table is built once, when the set is
validated, and one source template writes the kernel, with the weight
oracle's search over every congruent digit, out for the set's dimension
on its first division or oracle call; the window table and its walk are
built on the first walk. A source of one shape is compiled once
per process.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from functools import cached_property
from math import floor, inf, isqrt, lcm, prod
from operator import index, mul

from . import intmat, lattice, numberfield, quadform
from .errors import (
    BallSizeError,
    ConsistencyError,
    InstanceError,
    MalformedDigitSetError,
    NotExpandingError,
)
from .exactreal import (
    DEFAULT_PRECISION_CAP_BITS,
    CReal,
    Interval,
    PrecisionCapError,
    sqrt_upper,
)
from .record import Record

Point = lattice.Point

FAMILY_MINIMAL_NORM = "minimal-norm"
FAMILY_INTERVAL = "interval"
FAMILY_CUSTOM = "custom"

# the most classes modulo phi^K a window table of DigitSet.walk covers
# (more only when |det|^w itself exceeds it, K being w then)
WINDOW_CLASSES = 256


class Geometry(Record):
    """Working norm of an instance, the contraction factor of the
    inverse base map in that norm, and the precision cap every certified
    comparison on the instance obeys.

    One integer kernel evaluates the norm. At each precision level the
    Gram matrix is held over a common denominator D as an integer
    midpoint matrix M and an entrywise half-width matrix H, and the
    squared norm of an integer vector v lies in (Q_M(v) -+ |v|^T H |v|) / D.
    Entry by entry that is the interval sum of the enclosure: [lo, hi]
    times v_i v_k has the ends mid v_i v_k -+ hw |v_i v_k|. An exact Gram
    matrix is the one level, with no H, where the bracket is a point.
    """

    inst: lattice.LatticeInstance
    nf: numberfield.NumberFieldInstance | None
    gram: quadform.Gram | None
    precision_cap_bits: int

    def __init__(self, inst, nf, gram, precision_cap_bits: int):
        vars(self).update(
            inst=inst, nf=nf, gram=gram, precision_cap_bits=precision_cap_bits,
            _levels={}, _midpoints={},
        )

    def _level(self, bits: int) -> tuple[int, intmat.Matrix, intmat.Matrix | None]:
        """(D, M, H) at the given precision; exact Gram matrices have one
        level, whatever bits is, with H None."""
        key = None if self.gram is not None else bits
        if key not in self._levels:
            if key is None:
                mid, half = self.gram, None
            else:
                enc = numberfield.gram_enclosure(self.nf, bits)
                mid = [[(e.lo + e.hi) / 2 for e in row] for row in enc]
                half = [[(e.hi - e.lo) / 2 for e in row] for row in enc]
            den = lcm(*(v.denominator for a in (mid, half or ()) for row in a for v in row))

            def scaled(a):
                return tuple(tuple(int(v * den) for v in row) for row in a)

            self._levels[key] = (den, scaled(mid), half and scaled(half))
        return self._levels[key]

    def norm_sq_interval(self, p, bits: int = 64) -> tuple[int, int, int]:
        """(lo, hi, den): the squared norm of the integer vector p
        (conjugate pairs counted twice) lies in [lo / den, hi / den], with
        lo == hi when the Gram matrix is exact. den depends on bits only."""
        den, m, h = self._level(bits)
        q = 0
        for vi, row in zip(p, m):
            if vi:
                q += vi * sum(map(mul, row, p))
        if h is None:
            return q, q, den
        a = tuple(map(abs, p))
        e = 0
        for vi, row in zip(a, h):
            if vi:
                e += vi * sum(map(mul, row, a))
        return q - e, q + e, den

    def norm_sq_real(self, p) -> CReal:
        """The squared norm of the integer vector p as a comparable
        certified real: a rational when its bracket is a point."""
        lo, hi, den = self.norm_sq_interval(p)
        if lo == hi:
            return CReal.from_rational(Fraction(lo, den))

        def bracket(bits: int) -> Interval:
            lo, hi, den = self.norm_sq_interval(p, bits)
            return Interval(Fraction(lo, den), Fraction(hi, den))

        return CReal.from_refinable(bracket)

    def enclosure(self, start: int = 64) -> tuple[int, quadform.LDL, Fraction]:
        """(bits, form, kappa) at the first precision start, 2 start, ...
        where the midpoint Gram matrix M / D is positive definite with
        room for the half-widths, form being the integer LDL of M / D kept
        for that level; kappa is 0 for an exact Gram matrix.

        Let eps = max H / D be the largest entry half-width and
        c = n max H. For any vector v, |Q_true(v) - Q_mid(v)| is at most
        eps (sum |v_i|)^2 <= eps n |v|^2 = c |v|^2 / D. M - s I is positive
        definite exactly when every leading pivot of its LDL is positive
        (Sylvester's criterion), and then Q_M(v) > s |v|^2 for v != 0.
        A level is accepted when M - 2c I is positive definite, and
        kappa = 2^-j for the largest j with M - 2^j c I positive definite
        (j >= 1, found by bisection: a diagonal entry of M bounds it).
        Then eps n |v|^2 <= kappa Q_mid(v), so Q_true(v) <= C implies
        Q_mid(v) <= C / (1 - kappa), and enumerating mid to the inflated
        bound provably covers the ball. As M - 2^(j+1) c I is not positive
        definite, lambda_min(M) <= 2^(j+1) c, so kappa is within a factor 2
        of the best such factor eps n / lambda_min(M / D). With no
        half-widths (c = 0) kappa is 0 and M itself must be definite.
        """
        bits = start
        while True:
            key = None if self.gram is not None else bits
            if key not in self._midpoints:
                den, m, h = self._level(bits)
                c = len(m) * max(map(max, h)) if h is not None else 0
                found = None
                if quadform.definite(m, 2 * c):
                    kappa = Fraction(0)
                    if c:
                        least = min(row[i] for i, row in enumerate(m))
                        lo, hi = 1, (least // c).bit_length()
                        while hi - lo > 1:  # M - 2^lo c I definite, M - 2^hi c I not
                            mid = (lo + hi) // 2
                            lo, hi = (mid, hi) if quadform.definite(m, c << mid) else (lo, mid)
                        kappa = Fraction(1, 1 << lo)
                    found = (quadform.ldl(m, den), kappa)
                elif h is None:
                    raise ConsistencyError("the Gram matrix is not positive definite")
                self._midpoints[key] = found
            if self._midpoints[key] is not None:
                return (bits, *self._midpoints[key])
            bits *= 2

    def ball(self, bound_sq: Fraction, cap: int | None = None) -> list[Point]:
        """Lattice points of squared norm at most bound_sq: exactly that
        ball with an exact Gram matrix, a certified superset otherwise.
        Raises BallSizeError once more than cap points are found.

        The enumeration covers every v with Q_M(v) / D <= bound, bound =
        bound_sq / (1 - kappa), at the enclosure's level (D, M). With S
        the sum of the |M_ij|, Q_M(v) <= S |v|_inf^2, so every v with
        |v|_inf <= t = isqrt(floor(bound D / S)) is among them: when the
        (2t + 1)^n points of that box already exceed cap, the error is
        raised before the enumeration starts."""
        bits, form, kappa = self.enclosure()
        bound = Fraction(bound_sq) / (1 - kappa)
        if cap is not None and bound > 0:
            den, m, _ = self._level(bits)
            t = isqrt(floor(bound * den / sum(abs(v) for row in m for v in row)))
            if (2 * t + 1) ** len(m) > cap:
                raise BallSizeError(f"search ball holds more than {cap} points", cap)
        return quadform.enumerate_ball(form, bound, cap)

    @cached_property
    def u(self) -> CReal:
        """Operator norm of the inverse base map in the working norm;
        raises unless it is certified strictly below 1."""
        if self.nf is not None:
            return numberfield.inv_operator_norm_real(self.nf)
        if not lattice.is_expanding(self.inst):
            raise NotExpandingError("the base map is not expanding")
        phi = self.inst.phi
        lam = quadform.min_eigenvalue_real(intmat.mat_mul(intmat.transpose(phi), phi))
        one = CReal.from_rational(Fraction(1))
        if lam.compare(one, self.precision_cap_bits) <= 0:
            raise InstanceError(
                "inverse map is not a contraction in the coordinate norm; "
                "supply the base as a minimal polynomial instead"
            )
        return (one / lam).sqrt()

    def least_window(self, threshold: CReal) -> int:
        """Least window width w with u^w certified below threshold."""
        for w in range(1, 10_001):
            if self.u.pow(w).compare(threshold, self.precision_cap_bits) < 0:
                return w
        raise PrecisionCapError("window bound search did not converge")

    @cached_property
    def norm_context(self) -> NormContext:
        """Packing and covering radii of the working norm.

        The packing radius comes from the shortest nonzero vector, found
        in a ball that provably holds it: the least lower bracket end
        there, at finer precision until positive (exact on an exact Gram
        matrix). The covering radius is exact where quadform computes it
        for an exact Gram matrix; otherwise it is the half-diameter bound
        (rounding coordinates one at a time strays at most half the sum of
        the basis-vector lengths) from the diagonal's upper bracket ends."""
        n = self.inst.n
        units = [tuple(int(i == k) for k in range(n)) for i in range(n)]
        bits = 64
        while True:
            bits, form, kappa = self.enclosure(bits)
            den = form.den
            diag = [Fraction(self.norm_sq_interval(e, bits)[1], den) for e in units]
            ball = quadform.enumerate_ball(form, min(diag) / (1 - kappa))
            r_sq = Fraction(min(self.norm_sq_interval(x, bits)[0] for x in ball if any(x)), den)
            if r_sq > 0:
                break
            bits *= 2
        if self.gram is not None:
            R_sq = quadform.covering_radius_sq_exact(self.gram)
            if R_sq is not None:
                return NormContext(r_sq / 4, R_sq)
        total = sum((sqrt_upper(c, 64) for c in diag), Fraction(0))
        return NormContext(r_sq / 4, total * total / 4)

    @cached_property
    def w0_bound(self) -> int:
        """Least window width at which one inverse step contracts the norm
        below half: the threshold beyond which minimal-norm digit systems
        always terminate."""
        return self.least_window(CReal.from_rational(Fraction(1, 2)))

    @cached_property
    def tiling_w_bound(self) -> int:
        """Least window width with u^w below r / (r + R): the contraction
        regime where every digit set drawn from the covering argument works."""
        return self.least_window(self.norm_context.tiling_ratio)


def geometry(source, precision_cap_bits: int = DEFAULT_PRECISION_CAP_BITS) -> Geometry:
    """Working geometry for a base given as a field instance (embedding
    norm) or a plain matrix instance (coordinate norm, Gram = identity),
    with the precision cap every certified comparison on it obeys."""
    if isinstance(source, numberfield.NumberFieldInstance):
        gram = None
        if source.gram is not None:
            gram = quadform.as_gram(source.gram)
        return Geometry(source.lattice, source, gram, precision_cap_bits)
    if isinstance(source, lattice.LatticeInstance):
        eye = quadform.as_gram(
            [[1 if i == j else 0 for j in range(source.n)] for i in range(source.n)]
        )
        return Geometry(source, None, eye, precision_cap_bits)
    raise TypeError("source must be a field instance or a lattice instance")


def digit_count(source, w: int) -> int:
    """Nonzero digits of a width-w set on a base or Geometry: one per class
    modulo phi^w outside phi Z^n, |det|^w - |det|^(w-1)."""
    geo = source if isinstance(source, Geometry) else geometry(source)
    d = abs(geo.inst.det)
    return d**w - d ** (w - 1)


class DigitSet(Record):
    """Validated digit set; digits are lattice points in coordinates,
    sorted, with the zero digit included.

    Construction validates the digits (one per residue class modulo
    phi^w outside the image of phi) and builds the division kernel's
    tables: the digit d with adj(phi) d and A d per class index modulo
    phi^w, where phi^-w = A / q (``lattice.power_pullback``), and the
    digits grouped by class modulo phi, keyed on adj(phi) d mod det (p - d
    lies in the image of phi exactly when adj(phi) (p - d) is divisible by
    det). One source template writes ``divide``, ``divisions``
    (``_division_lines``) and ``oracle``, the weight oracle's whole search
    (``_oracle_lines``), out for the set's n on its first division or
    oracle call, and ``walk`` (``_window_lines``) with its window table on
    its first walk (a set only built and printed writes none). Sets of one
    shape share one compiled factory of each (``_Template``).

    The block step. A nonzero digit d is congruent to its point p modulo
    phi^w, so p - d = phi^w x with x integral: the next w - 1 division
    steps see the points phi^(w-1) x, ..., phi x, all divisible by phi,
    and give zero digits. One product A (p - d) / q therefore replaces w
    division steps. The table's classes hold this for every point: the
    validated digits fill exactly the classes outside phi Z^n, so a point
    with no table entry is divisible by phi and one with an entry is not.
    ``divide`` is the block step of width 1, the same body read with
    adj(phi) / det and adj(phi) d in place of A / q and A d; the oracle's
    w-NAF loops the block step, and the window table is built with it.

    The window walk, the whole fast path of ``expansion.expand``, goes
    further: one table entry per class modulo phi^K holds every digit that
    class fixes, so one product strips up to K digits, and the point is
    held in the Smith coordinates of phi^K, where its class index is one
    remainder per Smith modulus above 1 (``walk``).
    """

    geo: Geometry
    w: int
    digits: tuple[Point, ...]
    family: str

    def __init__(self, geo: Geometry, w: int, digits: tuple[Point, ...], family: str):
        inst = geo.inst
        adj, det = inst.adjugate, inst.det
        u, diag, _ = lattice.residue_structure(inst, w)
        _, block = lattice.power_pullback(inst, w)
        zero = inst.zero()
        want = digit_count(geo, w)
        got = sum(1 for d in digits if d != zero)
        if got != want:
            raise MalformedDigitSetError(f"expected {want} nonzero digits, got {got}")
        rows = [(row, m, prod(diag[i + 1:])) for i, (row, m) in enumerate(zip(u, diag))]
        table: list = [None] * prod(diag)
        by_class: dict = {}
        for d in digits:
            ad = intmat.mat_vec(adj, d)
            by_class.setdefault(tuple(v % det for v in ad), []).append((d, ad))
            if d == zero:
                continue
            if not any(v % det for v in ad):
                raise MalformedDigitSetError(
                    f"digit {d} lies in the image of the base map"
                )
            i = sum(sum(map(mul, row, d)) % m * s for row, m, s in rows)
            if table[i] is not None:
                raise MalformedDigitSetError(
                    f"digits {table[i][0]} and {d} share a residue class"
                )
            table[i] = (d, ad, intmat.mat_vec(block[0], d))
        vars(self).update(
            geo=geo, w=w, digits=digits, family=family,
            _tables=(adj, det, block, rows, table, by_class, zero),
        )

    @cached_property
    def _kernel(self) -> tuple:
        """(divide, divisions, oracle): one template, one compile."""
        adj, det, (mat, den), rows, table, by_class, zero = self._tables
        src = _Template(
            len(adj), by_class=by_class, zero=zero, den=den,
            steps_per_bit=lambda: self.steps_per_bit, spb=None,
        )
        src.classes(adj, det, rows, table)
        mat_p = [src.dot(f"b{i}_", row) for i, row in enumerate(mat)]
        return src.compile([
            *_division_lines(src),
            *_oracle_lines(src, mat_p, det, table, by_class, self.w),
            "return divide, divisions, oracle",
        ])

    @property
    def inst(self) -> lattice.LatticeInstance:
        return self.geo.inst

    @property
    def nonzero_digits(self) -> tuple[Point, ...]:
        zero = self.inst.zero()
        return tuple(d for d in self.digits if d != zero)

    def divide(self, p: Point) -> tuple[Point, Point]:
        """One division step: (digit, (p - digit) / phi), the digit being
        zero when phi divides p and the one congruent to p modulo phi^w
        otherwise."""
        return self._kernel[0](p)

    def divisions(self, p: Point) -> list[tuple[Point, Point]]:
        """Every (digit, (p - digit) / phi) with the digit congruent to p
        modulo phi, in digit order: the zero digit alone when phi
        divides p."""
        return self._kernel[1](p)

    @cached_property
    def walk(self):
        """The window loop, a plain function walk(p, cap): (point, word) when
        the raw point p reaches zero within cap digits (None: the default
        cap), point being p through ``operator.index`` and word a tuple,
        least significant digit first; else None, as no cycle is checked.
        A bad point raises TypeError or ValueError, a kernel fault what
        ``divide`` does at the point walked: ``expand`` then reruns its
        checks and step loop.

        The first access builds the set's window table over the classes
        modulo phi^K, K the largest k >= w with |det|^k <= WINDOW_CLASSES
        (K = w when |det|^w exceeds it), and writes the loop out for the
        set's shape (``_window_lines``). The digit at position j of p
        depends on p modulo phi^(j + w) only, so the digits at positions 0
        ... K - w are the same for every point of a class modulo phi^K;
        the w - 1 digits after a nonzero one are zero whatever follows. An
        entry holds those s digits, positions 0 ... K - w and then through
        the zeros forced by the last nonzero digit among them (K - w + 1
        <= s <= K), and e = A_s v for their value v, phi^-s = A_s / q_s:
        every point p of the class is v + phi^s x with x = (A_s p - e) /
        q_s. At K = w an entry is the block step: s = 1 on a class inside
        phi Z^n, s = w with the class's digit otherwise.

        The loop runs in the Smith coordinates z = U p of phi^K, U phi^K V
        = diag(m_i) with U unimodular (``lattice.residue_structure``): the
        class index is then the mixed-radix number of the remainders z_i
        mod m_i, one per modulus above 1, and an entry holds G_s = U A_s
        U^-1 and U e, so that a pass is one index and one product (G_s z -
        U e) / q_s = U x. As U is unimodular, that quotient is integral
        exactly when x is, and a fault names the point U^-1 z."""
        adj, det, (mat, den), rows, table, by_class, zero = self._tables
        inst, w = self.inst, self.w
        depth, size = w, abs(det) ** w
        while size * abs(det) <= WINDOW_CLASSES:
            depth, size = depth + 1, size * abs(det)
        u, diag, u_inv = lattice.residue_structure(inst, depth)
        fixed = depth - w + 1
        one, q1 = (adj if det > 0 else tuple(tuple(-v for v in row) for row in adj)), abs(det)
        powers = [intmat.mat_pow(one, fixed)]
        while len(powers) < w:
            powers.append(intmat.mat_mul(powers[-1], one))
        pulls = [None] * fixed + [
            (q1 ** (fixed + t), *(v for row in intmat.mat_mul(intmat.mat_mul(u, a), u_inv) for v in row))
            for t, a in enumerate(powers)
        ]
        src = _Template(
            len(adj), zero=zero, pad=(zero,) * (w - 1), w=w, den=den, index=index, fixed=fixed,
            pulls=pulls, steps_per_bit=lambda: self.steps_per_bit, spb=None,
        )
        src.classes(adj, det, rows, table)
        mat_p = [src.dot(f"b{i}_", row) for i, row in enumerate(mat)]
        moduli = [(m, prod(diag[i + 1:])) for i, m in enumerate(diag)]
        return src.compile([*_window_lines(src, mat_p, moduli, u, u_inv), "return walk"])

    @cached_property
    def oracle(self):
        """oracle(start, states), the zero-one search of
        ``optimality.min_weight_oracle`` in the set's one kernel
        (``_oracle_lines``): the least weight of a digit word of value start
        (a point tuple), or None when no word is found. It evaluates no
        norm, and raises BallSizeError once it holds more than states
        states."""
        return self._kernel[2]

    @cached_property
    def invariant_ball_bound(self) -> Fraction:
        """Rational M with: every orbit of the division map eventually
        enters and never leaves the ball of norm M. One division step maps
        norm b to at most u * (b + max digit norm), so the fixed point is
        u / (1 - u) * (max digit norm), taken with the first upper end of
        u below 1 at 64, 128, ... bits."""
        geo = self.geo
        bits = 64
        while (u_hi := geo.u.interval(bits).hi) >= 1:
            bits *= 2
            if bits > geo.precision_cap_bits:
                raise PrecisionCapError("could not separate the contraction factor from 1")
        md_hi = sqrt_upper(max_digit_norm_sq_upper(self), 64)
        return u_hi * md_hi / (1 - u_hi)

    @cached_property
    def steps_per_bit(self) -> int:
        """Division steps the default step cap allows per coordinate bit:
        max(w, s) for the least s with 4 |adj(phi)^s|_F^2 <= det^(2s), in
        integers from phi alone. adj(phi)^s / det^s is phi^-s and the
        Frobenius norm bounds the spectral one, so s inverse steps at least
        halve the coordinate norm; below w0, w steps need not. No such s
        exists unless phi is expanding, and then this is w.

        The scan is linear: for a non-normal phi, |phi^-s|_F can rise
        again, so the condition need not hold for every s past the least
        one and a bisection could overshoot it. An entry of adj(phi)^s of
        b bits makes the left side at least 2^(2b), which exceeds det^(2s)
        once 2b passes its bit length: the exact sum of squares is formed
        only when that test leaves the comparison open."""
        if not lattice.is_expanding(self.inst):
            return self.w
        adj, det = self.inst.adjugate, self.inst.det
        power, s, sq = adj, 1, det * det
        rhs = sq  # det^(2s)
        while (
            2 * max(v.bit_length() for row in power for v in row) > rhs.bit_length()
            or 4 * sum(v * v for row in power for v in row) > rhs
        ):
            power, s, rhs = intmat.mat_mul(power, adj), s + 1, rhs * sq
        return max(self.w, s)

    @cached_property
    def is_minimal_norm(self) -> bool:
        """Whether every digit minimizes the pulled-back norm in its class
        (the Voronoi-cell membership both certificates rest on)."""
        if self.family == FAMILY_MINIMAL_NORM:
            return True
        if self.geo.gram is None:
            return False
        pw, pullback = lattice.power_pullback(self.inst, self.w)
        return all(d in _minimizers(self.geo, pw, pullback, d) for d in self.nonzero_digits)


def _fault(entry, p) -> MalformedDigitSetError:
    if entry is None or not any(entry[0]):  # the zero digit: a class inside phi Z^n
        return MalformedDigitSetError(f"no digit covers the residue class of {p}")
    return MalformedDigitSetError(f"digit {entry[0]} is not congruent to {p} modulo the base image")


def _overflow(cap):
    raise BallSizeError(f"weight search holds more than {cap} states", cap)


class _Template:
    """Source helpers of one generated kernel for dimension n. The source
    carries only a shape (n, the nonzero pattern of the coefficients, which
    the window walk writes out whole, the Smith moduli above 1): every
    value it reads is a closure cell of the generated factory, so no
    integer is formatted past ``sys.get_int_max_str_digits()``, and sets of
    one shape can share one compiled factory with cells of their own. Its
    one globals dict keeps the interpreter's cached builtin lookups valid
    from set to set."""

    factories: dict = {}  # source text -> factory, the 64 used last

    def __init__(self, n: int, **cells):
        self.n, self.cells = n, cells

    def dot(self, name: str, row, var: str = "x") -> str:
        """row . (var0, ..., var{n-1}): a product per nonzero coefficient,
        each coefficient the cell name{k}."""
        terms = []
        for k, v in enumerate(row):
            if v:
                self.cells[f"{name}{k}"] = v
                terms.append(f"{name}{k} * {var}{k}")
        return " + ".join(terms)

    def tup(self, fmt: str) -> str:
        """A tuple display of fmt for k = 0 ... n - 1."""
        return "(" + "".join(fmt.format(k=k) + ", " for k in range(self.n)) + ")"

    def key(self, rows) -> str:
        """The class index of x0 ... x{n-1}: the mixed-radix sum of (row .
        x) mod m times its stride over the rows (row, m, stride) of a Smith
        form with m > 1, each value a cell."""
        terms = []
        for i, (row, m, stride) in enumerate(rows):
            if m > 1:
                self.cells[f"m{i}"], self.cells[f"s{i}"] = m, stride
                term = f"({self.dot(f'u{i}_', row)}) % m{i}"
                terms.append(f"{term} * s{i}" if stride > 1 else term)
        return " + ".join(terms) or "0"

    def classes(self, adj, det, rows, table) -> None:
        """Readies ``step`` on a set's tables: the class index modulo
        phi^w, and adj_p, the products adj(phi) x."""
        self.cells.update(table=table, det=det, _fault=_fault)
        self.index = self.key(rows)
        self.adj_p = [self.dot(f"a{i}_", row) for i, row in enumerate(adj)]

    def step(self, exprs, dv, slot, point, zero_tail, digit_tail) -> list[str]:
        """The quotient body of ``_division_lines``: x0 ... x{n-1} into
        q0 ... q{n-1}, then zero_tail or digit_tail."""

        def settle(exprs, dv):
            return [
                *(f"q{k}, r{k} = divmod({e}, {dv})" for k, e in enumerate(exprs)),
                f"if {' or '.join(f'r{k}' for k in range(self.n))}:",
                f"    raise _fault(entry, {point})",
            ]

        return [
            f"entry = table[{self.index}]",
            "if entry is None:",
            *(f"    {s}" for s in [*settle(self.adj_p, "det"), *zero_tail]),
            "else:",
            f"    {self.tup('e{k}')} = entry[{slot}]",
            *(f"    {s}" for s in settle([f"{e} - e{k}" for k, e in enumerate(exprs)], dv)),
            *(f"    {s}" for s in digit_tail),
        ]

    def compile(self, lines: list[str]):
        """Runs lines as the body of the factory over the cells."""
        text = f"def factory({', '.join(self.cells)}):\n" + "\n".join(f"    {s}" for s in lines)
        factory = self.factories.pop(text, None)
        if factory is None:
            exec(compile(text, "<kernel>", "exec"), scope := {})
            factory = scope["factory"]
        self.factories[text] = factory
        if len(self.factories) > 64:
            self.factories.pop(next(iter(self.factories)), None)  # the least recently used
        return factory(**self.cells)


def _division_lines(src: _Template) -> list[str]:
    """The lines of divide and divisions in ``DigitSet._kernel``.

    divide, the oracle's w-NAF and the window walk's table build share one
    quotient body, ``_Template.step`` with (mat, den, slot). It reads the
    table entry at the class index of x modulo phi^w, the mixed-radix sum
    of (u_i x) mod m_i times its stride, None standing for the zero digit
    (a class inside phi Z^n): then q = adj(phi) x / det, else q = (mat x -
    entry[slot]) / den, raising ``_fault`` on a nonzero remainder. An
    entry is (d, adj(phi) d, A d) with phi^-w = A / q. divide is
    step(adj(phi), det, 1). divisions looks up the digits congruent to p
    modulo phi in by_class.

    Every coefficient, modulus, stride and divisor is a cell
    (``_Template``) beside table, by_class, zero and ``_fault``.
    """
    n, tup, step = src.n, src.tup, src.step
    q, x = tup("q{k}"), tup("x{k}")
    return [
        "def divide(p):",
        f"    {x} = p",
        *(f"    {s}" for s in step(src.adj_p, "det", 1, "p", [f"return zero, {q}"], [f"return entry[0], {q}"])),
        "def divisions(p):",
        f"    {x} = p",
        *(f"    t{k} = {e}" for k, e in enumerate(src.adj_p)),
        f"    cls = by_class.get({tup('t{k} % det')}, ())",
        f"    return [(d, {tup('(t{k} - e{k}) // det')}) for d, {tup('e{k}')} in cls]",
    ]


def _window_lines(src: _Template, mat_p: list[str], moduli, u, u_inv) -> list[str]:
    """The lines of ``DigitSet.walk``: build(), which writes the window
    table, and walk(p, cap), which reads it.

    Both read the Smith form U phi^K V = diag(m_i) of phi^K: moduli are
    the (m_i, stride_i) of the mixed-radix class index, cells wm and ws
    where m_i > 1, and U and U^-1 are the cells wu and wv, one per entry,
    zero or not, so that the source holds the moduli above 1 and n alone.

    build. Since U U^-1 = I, the point U^-1 k of a key k lies in the class
    of index k, so nested loops over the keys of the moduli above 1 give
    one point y per class, in index order. From y, the block step
    (``_Template.step`` with (A, q, slot 2), the quotient body of divide
    and of the oracle's w-NAF) strips digits until at least fixed = K - w
    + 1 are out: one division step on a class inside phi Z^n, else the
    class's digit and the w - 1 zeros after it. These are the s digits the
    class fixes, and x = phi^-s (y - v) for their value v. With pulls[s] =
    (q_s, the entries of G_s = U A_s U^-1 row by row), phi^-s = A_s / q_s,
    the entry is (digits, cut, q_s, G_s, U e): e = A_s y - q_s x, so U e =
    G_s k - q_s U x, and cut is the zeros after the last nonzero digit.

    walk reads its raw point into locals x0 ... x{n-1} through index, a
    cap None as 64 + spb (8 + x0.bit_length() + ...), and then holds the
    point as z = U x in z0 ... z{n-1}. Each pass reads the entry at the
    index sum (z_i mod m_i) stride_i, sets z to (G_s z - U e) / q_s,
    raising ``_fault`` at x = U^-1 z on a nonzero remainder (or on a None
    entry), and writes the digits. Once z is zero, the last entry's cut
    zeros, those past the point where z reached zero, come off. The cell
    spb is filled from the steps_per_bit callable on the first walk without
    a cap, as the oracle fills its own on its first call: that count can
    take far longer than the walk (16,611 matrix powers for [[2, 10^5000],
    [0, 3]]), and an explicit cap needs none.
    """
    n, tup = src.n, src.tup
    q, x, y, z = tup("q{k}"), tup("x{k}"), tup("y{k}"), tup("z{k}")
    loops = [i for i, (m, _) in enumerate(moduli) if m > 1]
    terms = []
    for i in loops:
        m, stride = moduli[i]
        src.cells[f"wm{i}"], src.cells[f"ws{i}"] = m, stride
        terms.append(f"z{i} % wm{i} * ws{i}" if stride > 1 else f"z{i} % wm{i}")
    coeffs = ", ".join(["dv", *(f"f{i}_{j}" for i in range(n) for j in range(n))])

    for name, a in (("wu", u), ("wv", u_inv)):
        src.cells.update({f"{name}{i}_{j}": v for i, row in enumerate(a) for j, v in enumerate(row)})

    def product(name, var, cols=range(n)):
        """The rows of the matrix name{i}_{j} times (var0, ...), a term
        per column in cols, zero or not."""
        return [" + ".join(f"{name}{i}_{j} * {var}{j}" for j in cols) or "0" for i in range(n)]

    back = "(" + "".join(f"{e}, " for e in product("wv", "z")) + ")"
    return [
        "def build():",
        "    window = []",
        *(f"    {'    ' * depth}for k{i} in range(wm{i}):" for depth, i in enumerate(loops)),
        *(f"    {'    ' * len(loops)}{s}" for s in [
            f"{x} = {y} = {', '.join(product('wv', 'k', loops))},",
            "word = []",
            "size, last = 0, -1",
            "while size < fixed:",
            *(f"    {s}" for s in src.step(mat_p, "den", 2, x, [f"{x} = {q}", "word.append(zero)", "size += 1"], [
                f"{x} = {q}", "word.append(entry[0])", "word += pad", "last = size", "size += w",
            ])),
            f"{coeffs} = pulls[size]",
            f"window.append((tuple(word), size - 1 - last, {coeffs}, "
            + "".join(f"{g} - dv * ({e}), " for g, e in zip(product("f", "k", loops), product("wu", "x")))
            + "))",
        ]),
        "    return window",
        "window = build()",
        "def walk(p, cap):",
        "    nonlocal spb",
        f"    {x} = p",
        f"    {x} = p = {tup('index(x{k})')}",
        "    if cap is None:",
        "        if spb is None:",
        "            spb = steps_per_bit()",
        f"        cap = 64 + spb * (8{''.join(f' + x{k}.bit_length()' for k in range(n))})",
        f"    {z} = {', '.join(product('wu', 'x'))},",
        "    word = []",
        "    cut = 0",
        f"    while {' or '.join(f'z{k}' for k in range(n))}:",
        "        if len(word) >= cap:",
        "            return None",
        f"        entry = window[{' + '.join(terms) or '0'}]",
        "        if entry is None:",
        f"            raise _fault(None, {back})",
        f"        digits, cut, {coeffs}, {', '.join(f'e{k}' for k in range(n))}, = entry",
        *(f"        q{i}, r{i} = divmod({g} - e{i}, dv)" for i, g in enumerate(product("f", "z"))),
        f"        if {' or '.join(f'r{k}' for k in range(n))}:",
        f"            raise _fault(digits, {back})",
        f"        {z} = {q}",
        "        word += digits",
        "    if cut:",
        "        del word[-cut:]",
        "    if len(word) > cap:",
        "        return None",
        "    return p, tuple(word)",
    ]


def _oracle_lines(src: _Template, mat_p: list[str], det, table, by_class, w) -> list[str]:
    """The lines of oracle(start, states) in ``DigitSet._kernel``:
    the zero-one breadth-first search of ``optimality.min_weight_oracle``
    over the states a word of any congruent digits passes through, bounded
    by the w-NAF's weight.

    The incumbent. The kernel first loops the block step
    (``_Template.step``) from start under walk's default cap, 64 + spb (8
    + the coordinate bit lengths), counting nonzero digits: U, the weight
    of the w-NAF, or the cell never (infinity) with no word within the
    cap, as on a cycle. This loop builds no window table: a set's first
    oracle call is often its first use. Taking U from ``walk`` would build
    the window table and compile the walk there: t2w2's first call,
    optimality-sweep's tail sample, took 1.50-1.54 ms that way against
    0.61-0.68 ms (2 cores, Python 3.11.7). The w-NAF is a word of the set
    (every remainder is checked, a fault raising ``_fault`` as in
    divide), so the least weight is at most U, and the search only rules
    out lighter words.

    The search. A popped state sits in locals x0 ... x{n-1}; one popped
    again after a cost-0 edge improved it is in done and skipped. The
    class key adj(phi) x mod det is taken once, as divisions takes it. A
    state in the zero class has one edge, its quotient by phi, of cost 0,
    pushed at the front; any other has one edge of cost 1 per digit of
    its class, (adj(phi) x - adj(phi) d) / det in digit order, pushed at
    the back. As adj(phi) x and adj(phi) d leave the same remainders mod
    det, that edge is adj(phi) x // det - adj(phi) d // det, and steps
    holds the second term per digit: no edge divides. Each pop first
    checks that dist holds at most states states, else the cell overflow
    raises BallSizeError: dist then never holds more than states plus one
    class's digits. No norm is evaluated.

    Termination needs no norm. phi is expanding, so some norm |.| exists
    in which phi^-1 contracts, |phi^-1 v| <= c |v| with c < 1; it is only
    shown to exist (an adapted norm of the Jordan form) and is never
    computed. An edge maps x to (x - d) / phi with d a digit or zero, so
    |next| <= c (|x| + m) for m the largest digit norm, and every state
    reachable from start has norm at most max(|start|, c m / (1 - c)).
    That is a bounded set of lattice points, hence finite: the search
    drains after finitely many pops, the state cap being a resource bound
    and not what stops it.

    The bound. A nonzero state x reaches zero only through a cost-1 edge
    with digit d = x (the quotient of a nonzero state by phi is nonzero),
    so the weight is 1 + the least distance of a state equal to a nonzero
    digit (the frozenset cell digits). reach bounds that distance: U - 1
    at first, then the distance of each closer digit state relaxed.
    Zero-one search pops states in nondecreasing distance, each at its
    true distance, so once a popped distance is >= reach, reach + 1 is
    returned (a zero start at once, U being 0). Until then a cost-0 edge
    relaxes at base < reach, and a pop with base + 1 >= reach takes no
    cost-1 edge: those lead to no lighter word. A drained queue returns
    reach + 1, or None while reach is infinite: no word under the cap.

    Left out of the relaxations of the search run to zero with no bound
    are only states that search would not pop before this one returns,
    and the rest keep their order. That search, on its finite state set,
    pops zero exactly when a word exists: the result is the exact least
    weight, or None when there is no word at all.
    """
    n, tup = src.n, src.tup
    src.cells.update(
        w=w, deque=deque, overflow=_overflow, never=inf,
        steps={key: tuple(tuple(v // det for v in ad) for _, ad in cls) for key, cls in by_class.items()},
        digits=frozenset(e[0] for e in table if e is not None),
    )
    q, x = tup("q{k}"), tup("x{k}")

    def relax(cost, push):
        return [
            f"if seen(nxt, {cost} + 1) > {cost}:",
            "    if nxt in digits:",
            f"        reach = {cost}",
            f"    dist[nxt] = {cost}",
            f"    {push}(nxt)",
        ]

    return [
        "def oracle(start, states):",
        "    nonlocal spb",
        f"    {x} = start",
        "    if spb is None:",
        "        spb = steps_per_bit()",
        f"    cap = 64 + spb * (8{''.join(f' + x{k}.bit_length()' for k in range(n))})",
        "    size = weight = 0",
        f"    while {' or '.join(f'x{k}' for k in range(n))}:",
        "        if size >= cap:",
        "            weight = never",
        "            break",
        *(f"        {s}" for s in src.step(mat_p, "den", 2, x, [f"{x} = {q}", "size += 1"], [
            f"{x} = {q}", "weight += 1", "size += w",
        ])),
        "    reach = weight - 1",
        "    dist = {start: 0}",
        "    queue = deque((start,))",
        "    done = set()",
        "    pop, seen, expanded = queue.popleft, dist.get, done.add",
        "    push, push_zero = queue.append, queue.appendleft",
        "    while queue:",
        "        if len(dist) > states:",
        "            overflow(states)",
        "        cur = pop()",
        "        if cur in done:",
        "            continue",
        "        expanded(cur)",
        "        base = dist[cur]",
        "        if base >= reach:",
        "            return reach + 1",
        f"        {x} = cur",
        *(f"        t{k} = {e}" for k, e in enumerate(src.adj_p)),
        *(f"        q{k}, k{k} = t{k} // det, t{k} % det" for k in range(n)),
        f"        if not ({' or '.join(f'k{k}' for k in range(n))}):",
        f"            nxt = {q}",
        *(f"            {s}" for s in relax("base", "push_zero")),
        "            continue",
        "        cost = base + 1",
        "        if cost >= reach:",
        "            continue",
        f"        for {tup('f{k}')} in steps.get({tup('k{k}')}, ()):",
        f"            nxt = {tup('q{k} - f{k}')}",
        *(f"            {s}" for s in relax("cost", "push")),
        "    return None if reach == never else reach + 1",
    ]


def _expanding_geometry(source, w: int) -> Geometry:
    """The geometry a width-w digit set is built on: source itself when it
    is a Geometry, else the default one of the base. A non-expanding base
    never terminates the division, so the digit system would be vacuous:
    it is rejected before any residue class is formed."""
    if w < 1:
        raise ValueError("window width must be at least 1")
    geo = source if isinstance(source, Geometry) else geometry(source)
    if not lattice.is_expanding(geo.inst):
        raise NotExpandingError(
            "digit sets require an expanding base "
            "(every eigenvalue outside the closed unit disk)"
        )
    return geo


def _finish(geo: Geometry, w: int, nonzero: list[Point], family: str) -> DigitSet:
    return DigitSet(geo, w, tuple(sorted([*nonzero, geo.inst.zero()])), family)


def _minimizers(geo: Geometry, pw: intmat.Matrix, pullback, rep: Point) -> list[Point]:
    """All representatives of rep's class minimizing the norm of the
    class member pulled back through the w-th power of the base: the
    digit candidates with Phi^-w(digit) in the Voronoi cell.

    The pullbacks are t + x with t = Phi^-w(rep) = a / q, (A, q) =
    ``lattice.power_pullback`` and a = A rep, and x integral. Integer
    Fincke-Pohst on the LDL of the midpoint Gram matrix of
    ``Geometry.enclosure`` enumerates them out to the inflated norm of
    the Babai point, which provably contains every minimizer, and they
    are compared by the integer brackets of a + q x = q (t + x).
    Overlapping brackets are compared as certified reals: an exact tie on
    an exact Gram matrix, while on an enclosure a tie between candidates
    that are not mirror images raises the precision cap error.
    """
    adj, q = pullback
    a = intmat.mat_vec(adj, rep)
    bits, form, kappa = geo.enclosure()
    seed = [c + q * x for c, x in zip(a, quadform.babai_point(form, a, q))]
    _, hi, den = geo.norm_sq_interval(seed, bits)
    bound = Fraction(hi, den * q * q) / (1 - kappa)
    cap = geo.precision_cap_bits
    best: list[Point] = []
    for x in quadform.enumerate_with_offset(form, a, q, bound):
        vec = tuple(c + q * b for c, b in zip(a, x))
        if best and tuple(-c for c in vec) in best:
            best.append(vec)
            continue
        lo, hi, _ = geo.norm_sq_interval(vec, bits)
        if not best or hi < best_lo:
            rel = -1
        elif lo > best_hi:
            rel = 1
        else:
            rel = geo.norm_sq_real(vec).compare(geo.norm_sq_real(best[0]), cap)
        if rel < 0:
            best, best_lo, best_hi = [vec], lo, hi
        elif rel == 0:
            best.append(vec)
    digits = []
    for vec in best:
        pt = intmat.mat_vec(pw, vec)
        if any(c % q for c in pt):
            raise ConsistencyError(f"minimizer {pt} / {q} of the class of {rep} is not integral")
        digits.append(tuple(c // q for c in pt))
    return sorted(digits)


def build_minimal_norm(source, w: int) -> DigitSet:
    """One digit of least working norm per admissible residue class."""
    geo = _expanding_geometry(source, w)
    inst = geo.inst
    reps = lattice.residue_system(inst, w)  # checks the class cap first
    pw, pullback = lattice.power_pullback(inst, w)
    nonzero = [
        _minimizers(geo, pw, pullback, rep)[0]
        for rep in reps
        if rep != inst.zero() and lattice.solve_divisibility(inst, rep, 1) is None
    ]
    return _finish(geo, w, nonzero, FAMILY_MINIMAL_NORM)


def build_rational_interval(source, w: int) -> DigitSet:
    """Balanced-interval digits for an integer base (degree 1 only)."""
    geo = _expanding_geometry(source, w)
    inst = geo.inst
    if inst.n != 1:
        raise InstanceError("interval digits require an integer base")
    lattice.residue_structure(inst, w)  # raises before |tau|^w is formed past the cap
    tau = inst.phi[0][0]
    m = abs(tau) ** w
    start = -(m // 2) + (1 if m % 2 == 0 else 0)
    nonzero = [
        (d,) for d in range(start, m // 2 + 1) if d % abs(tau) != 0 and d != 0
    ]
    return _finish(geo, w, nonzero, FAMILY_INTERVAL)


def from_digits(source, w: int, points) -> DigitSet:
    """Validate caller-supplied digits: one representative per residue
    class outside the image of the base map, zero digit optional."""
    geo = _expanding_geometry(source, w)
    inst = geo.inst
    zero = inst.zero()
    nonzero = []
    for p in points:
        pt = intmat.int_tuple(p)
        if len(pt) != inst.n:
            raise MalformedDigitSetError(
                f"digit {pt} has wrong dimension (expected {inst.n})"
            )
        if pt != zero:
            nonzero.append(pt)
    return _finish(geo, w, nonzero, FAMILY_CUSTOM)


def max_digit_norm_sq_upper(ds: DigitSet) -> Fraction:
    """Rational upper bound on the squared working norm of the digits;
    exact for instances with an exact Gram matrix."""
    brackets = [ds.geo.norm_sq_interval(d) for d in ds.nonzero_digits]
    return max((Fraction(hi, den) for _, hi, den in brackets), default=Fraction(0))


class NormContext(Record):
    """Squared packing and covering radius of an instance, as rational
    bounds (see ``Geometry.norm_context``)."""

    r_sq: Fraction
    R_sq: Fraction

    def __init__(self, r_sq: Fraction, R_sq: Fraction):
        vars(self).update(r_sq=r_sq, R_sq=R_sq)

    @property
    def tiling_ratio(self) -> CReal:
        """r / (r + R), the contraction threshold of the tiling argument."""
        ratio = (CReal.from_rational(self.R_sq) / CReal.from_rational(self.r_sq)).sqrt()
        one = CReal.from_rational(Fraction(1))
        return one / (one + ratio)
