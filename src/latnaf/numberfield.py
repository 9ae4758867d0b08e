"""Algebraic-integer bases realized as lattice endomorphisms.

A base is described by its monic integer minimal polynomial. The lattice
is the power basis 1, tau, ..., tau^(n-1) of Z[tau] with multiplication
by tau acting through the companion matrix; the working geometry is the
embedding norm: the sum of |sigma(alpha)|^2 over all field embeddings
into the complex numbers (so each complex conjugate pair counts twice).

The Gram matrix of that quadratic form on the power basis is computed
exactly as rationals whenever the root structure allows it:

* all roots real: entries are power sums of the roots (Newton identities);
* all roots sharing one rational squared modulus m (certified, not
  assumed): entry (i, k) is m^min(i,k) times a power sum;
* otherwise entries are certified interval enclosures built from
  isolated roots, refinable on demand.

Exactness matters because digit-set construction must resolve exact
norm ties; enclosure-only instances fall back to interval comparisons
with a precision cap.

Every instance owns one ``roots.PolyRoots`` for its minimal polynomial
(``NumberFieldInstance.roots``): it isolates once and refines in place,
and every root enclosure of the instance (signature, reducibility,
equal-modulus certificate, Gram enclosure, embedding moduli) comes from
it. Bases of degree at most 2 are settled by their discriminant alone
and make theirs only if the Gram enclosure is asked for.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from math import isqrt

from . import intmat, lattice
from .errors import NotExpandingError
from .exactreal import (
    ComplexBox,
    CReal,
    IndeterminateInterval,
    Interval,
)
from .record import Record

GRAM_POWER_SUMS = "power-sums"
GRAM_EQUAL_MODULUS = "equal-modulus"
GRAM_ENCLOSURE = "enclosure"


class NumberFieldInstance(Record):
    """Immutable description of a base tau and its lattice realization."""

    min_poly: tuple[int, ...]
    s: int
    t: int
    lattice: lattice.LatticeInstance
    gram_kind: str
    gram: tuple[tuple[Fraction, ...], ...] | None
    equal_modulus_sq: Fraction | None
    # the one PolyRoots of the instance, once made (see ``roots``)
    _kernel: list

    def __init__(self, min_poly, s, t, lattice, gram_kind, gram, equal_modulus_sq, _kernel=()):
        vars(self).update(
            min_poly=min_poly, s=s, t=t, lattice=lattice, gram_kind=gram_kind,
            gram=gram, equal_modulus_sq=equal_modulus_sq, _kernel=list(_kernel),
        )

    @property
    def roots(self) -> PolyRoots:
        """The root kernel of the minimal polynomial. ``build`` makes it
        for degree >= 3; below that only the Gram enclosure needs it, and
        it is made on first use."""
        if not self._kernel:
            self._kernel.append(_root_kernel(self.min_poly))
        return self._kernel[0]

    @property
    def degree(self) -> int:
        return len(self.min_poly) - 1


def _root_kernel(coeffs: tuple[int, ...]) -> PolyRoots:
    # imported on first use: roots is the package's largest module, and
    # bases of degree <= 2 need it only for the Gram enclosure
    from .roots import PolyRoots

    return PolyRoots(coeffs)


def _companion(coeffs: tuple[int, ...]) -> intmat.Matrix:
    n = len(coeffs) - 1
    return tuple(
        tuple(
            (-coeffs[i] if j == n - 1 else (1 if i == j + 1 else 0))
            for j in range(n)
        )
        for i in range(n)
    )


def _power_sums(coeffs: tuple[int, ...], upto: int) -> list[int]:
    """Newton identities: sums of k-th powers of all roots, exact."""
    n = len(coeffs) - 1
    e = [0] * (n + 1)
    e[0] = 1
    for k in range(1, n + 1):
        e[k] = (-1) ** k * coeffs[n - k]
    p = [n]
    for k in range(1, upto + 1):
        acc = 0
        for i in range(1, min(k - 1, n) + 1):
            if i < k:
                acc += (-1) ** (i - 1) * e[i] * p[k - i]
        if k <= n:
            acc += (-1) ** (k - 1) * k * e[k]
        p.append(acc)
    return p


def _int_root(x: int, n: int) -> int | None:
    """The integer r with r^n == x (x >= 0), or None when there is none."""
    lo, hi = 0, 1 << (x.bit_length() // n + 1)
    while lo < hi:
        # invariant: lo^n <= x < (hi + 1)^n
        mid = (lo + hi + 1) // 2
        if mid**n <= x:
            lo = mid
        else:
            hi = mid - 1
    return lo if lo**n == x else None


def _equal_modulus_candidate(coeffs: tuple[int, ...]) -> int | None:
    """Rational m with m^n = a0^2 and the reversal identity a0*a_k ==
    a_{n-k} * m^(n-k); necessary for all roots to sit on |z|^2 = m."""
    n = len(coeffs) - 1
    a0 = coeffs[0]
    m = _int_root(a0 * a0, n)
    if m is None or m == 0:
        return None
    for k in range(n + 1):
        if a0 * coeffs[k] != coeffs[n - k] * m ** (n - k):
            return None
    return m


def _certify_equal_modulus(roots: PolyRoots, m: int) -> bool:
    """Certify |root|^2 == m for every root: the map z -> m / conj(z)
    permutes the roots (reversal identity), so if the image of each root
    box meets only that same box, every root is a fixed point."""
    bits = 32
    while bits <= (1 << 14):
        reals, pairs = roots.boxes(bits)
        boxes = [ComplexBox(iv, Interval.point(0)) for iv in reals]
        for box in pairs:
            boxes.append(box)
            boxes.append(box.conj())
        ok = True
        for i, box in enumerate(boxes):
            try:
                image = box.conj().recip().scaled(m)
            except IndeterminateInterval:
                ok = False
                break
            hits = [j for j, other in enumerate(boxes) if image.intersects(other)]
            if hits == [i]:
                continue
            if i not in hits and len(hits) == 1:
                return False
            ok = False
            break
        if ok:
            return True
        bits *= 2
    return False


def _signature(coeffs: tuple[int, ...], roots: PolyRoots | None) -> tuple[int, int]:
    """(s, t): the numbers of real roots and of conjugate pairs. Raises
    on a repeated root and warns when the polynomial is reducible. The
    discriminant decides all three up to degree 2; above, ``PolyRoots``
    has already rejected a repeated root, Sturm counts give s and
    ``proper_factor`` decides reducibility."""
    if len(coeffs) == 2:
        return 1, 0
    if len(coeffs) == 3:
        c, b = coeffs[0], coeffs[1]
        disc = b * b - 4 * c
        if disc == 0:
            raise ValueError("repeated roots degenerate the embedding norm")
        if disc > 0 and isqrt(disc) ** 2 == disc:
            warnings.warn("minimal polynomial is reducible; treating the product ring")
        return (2, 0) if disc > 0 else (0, 1)
    if roots.proper_factor() is not None:
        warnings.warn("minimal polynomial is reducible; treating the product ring")
    return roots.s, roots.t


def build(min_poly) -> NumberFieldInstance:
    """Validate a monic integer minimal polynomial and assemble the instance.

    Coefficients are ascending (constant first). Rejects non-monic input
    and a zero constant term; warns when the polynomial is reducible;
    rejects repeated roots because they degenerate the embedding norm.
    """
    coeffs = intmat.int_tuple(min_poly)
    if len(coeffs) < 2:
        raise ValueError("polynomial must have degree at least 1")
    if coeffs[-1] != 1:
        raise ValueError("minimal polynomial must be monic")
    if coeffs[0] == 0:
        raise ValueError("constant term must be nonzero (the base must be invertible)")
    n = len(coeffs) - 1
    roots = _root_kernel(coeffs) if n >= 3 else None
    s, t = _signature(coeffs, roots)
    inst = lattice.LatticeInstance.from_matrix(_companion(coeffs))

    gram_kind = GRAM_ENCLOSURE
    gram = None
    m_sq: Fraction | None = None
    if t == 0:
        gram_kind = GRAM_POWER_SUMS
        p = _power_sums(coeffs, 2 * n - 2)
        gram = tuple(
            tuple(Fraction(p[i + k]) for k in range(n)) for i in range(n)
        )
    else:
        # a quadratic's conjugate pair has |z|^2 = z * conj(z) = c exactly
        m = _equal_modulus_candidate(coeffs)
        if m is not None and (n == 2 or _certify_equal_modulus(roots, m)):
            gram_kind = GRAM_EQUAL_MODULUS
            m_sq = Fraction(m)
            p = _power_sums(coeffs, n - 1)
            gram = tuple(
                tuple(
                    Fraction(m ** min(i, k) * p[abs(i - k)])
                    for k in range(n)
                )
                for i in range(n)
            )

    return NumberFieldInstance(
        min_poly=coeffs,
        s=s,
        t=t,
        lattice=inst,
        gram_kind=gram_kind,
        gram=gram,
        equal_modulus_sq=m_sq,
        _kernel=[] if roots is None else [roots],
    )


def gram_enclosure(nf: NumberFieldInstance, bits: int) -> list[list[Interval]]:
    """Interval Gram matrix straight from the root enclosures. Works for
    every instance; used as the fallback and as an independent cross-check
    of the exact constructions."""
    n = nf.degree
    reals, pairs = nf.roots.boxes(bits)
    # interval conjugation commutes with products, so conj(z)^k is the
    # conjugate of z^k
    real_pows = [[iv.pow(e) for e in range(2 * n - 1)] for iv in reals]
    pair_pows = [[box.pow(e) for e in range(n)] for box in pairs]
    out = [[Interval.point(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            acc = Interval.point(0)
            for pows in real_pows:
                acc = acc + pows[i + k]
            for pows in pair_pows:
                prod = pows[i] * pows[k].conj()
                acc = acc + prod.re.scaled(2)
            out[i][k] = acc
    return out


def _quadratic_roots(coeffs: tuple[int, ...]) -> tuple[CReal, CReal]:
    """The roots of a monic x^2 + b x + c with real roots: exact radicals
    when trial division settles the discriminant, enclosures otherwise."""
    c, b = coeffs[0], coeffs[1]
    root = CReal.from_rational(b * b - 4 * c).sqrt()
    return (root + b) * Fraction(-1, 2), (root - b) * Fraction(1, 2)


def embedding_moduli_sq(nf: NumberFieldInstance) -> list[CReal]:
    """|sigma_j(tau)|^2 for each embedding (one entry per conjugate pair),
    real embeddings first, in the canonical root order. Exact whenever the
    Gram construction is exact; refinable enclosures otherwise."""
    coeffs = nf.min_poly
    n = nf.degree
    if nf.equal_modulus_sq is not None:
        return [CReal.from_rational(nf.equal_modulus_sq)] * (nf.s + nf.t)
    if n == 1:
        return [CReal.from_rational(Fraction(coeffs[0]) ** 2)]
    if n == 2 and nf.t == 0:
        lo, hi = _quadratic_roots(coeffs)
        return [lo * lo, hi * hi]
    out: list[CReal] = []
    for j in range(nf.s):
        def fn(bits: int, idx: int = j) -> Interval:
            return nf.roots.boxes(bits)[0][idx].sq()

        out.append(CReal.from_refinable(fn))
    for j in range(nf.t):
        def fn(bits: int, idx: int = j) -> Interval:
            return nf.roots.boxes(bits)[1][idx].modulus_sq()

        out.append(CReal.from_refinable(fn))
    return out


def is_expanding_base(nf: NumberFieldInstance) -> bool:
    return lattice.is_expanding(nf.lattice)


def inv_operator_norm_real(nf: NumberFieldInstance) -> CReal:
    """Operator norm of the inverse base map in the embedding geometry:
    the reciprocal of the smallest embedding modulus. Requires an
    expanding base so the value is strictly below 1."""
    if not is_expanding_base(nf):
        raise NotExpandingError(
            "some embedding of the base has modulus at most 1"
        )
    min_mod_sq = CReal.minimum(embedding_moduli_sq(nf))
    return (CReal.from_rational(1) / min_mod_sq).sqrt()
