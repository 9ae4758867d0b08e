"""Integer lattices with an injective endomorphism.

The lattice is always Z^n in coordinates; the endomorphism is a square
integer matrix ``phi`` with nonzero determinant. Everything is exact:
residue systems come from a Smith normal form and the expanding test is
a rational root-locus test on the characteristic polynomial, so there is
no floating point anywhere in this module.

The instance caches its adjugate, whether phi is expanding, and the
Smith data and the pullback of each power phi^k it was asked for, so the
digit sets and window walks of one base share them.
``solve_divisibility`` and ``residue_key`` are the reference that
``DigitSet.divide`` is tested on.
"""

from __future__ import annotations

from functools import cached_property

from . import intmat
from .errors import BallSizeError
from .record import Record

Point = tuple[int, ...]

_RESIDUE_CAP = 2_000_000


class LatticeInstance(Record):
    """Z^n together with the endomorphism matrix and its determinant."""

    n: int
    phi: intmat.Matrix
    det: int

    def __init__(self, n: int, phi: intmat.Matrix, det: int):
        if n != len(phi):
            raise ValueError("dimension does not match matrix size")
        if det == 0:
            raise ValueError("endomorphism must be injective (nonzero determinant)")
        if det != intmat.determinant(phi):
            raise ValueError("stored determinant disagrees with the matrix")
        vars(self).update(n=n, phi=phi, det=det, _smith={}, _pullbacks={})

    @classmethod
    def from_matrix(cls, rows) -> "LatticeInstance":
        phi = intmat.mat_from_rows(rows)
        return cls(n=len(phi), phi=phi, det=intmat.determinant(phi))

    @cached_property
    def adjugate(self) -> intmat.Matrix:
        """adj(phi) = det * phi^-1, an integer matrix."""
        return intmat.adjugate(self.phi)

    @cached_property
    def _expanding(self) -> bool:
        """Whether every eigenvalue of phi has modulus strictly above 1
        (``is_expanding``), decided once."""
        f = intmat.char_poly(self.phi)
        return f[0] != 0 and intmat.all_roots_in_open_unit_disk(f[::-1])

    def zero(self) -> Point:
        return (0,) * self.n

    def check_point(self, p) -> Point:
        p = intmat.int_tuple(p)
        if len(p) != self.n:
            raise ValueError(f"point has length {len(p)}, expected {self.n}")
        return p


def apply_phi(inst: LatticeInstance, p, k: int = 1) -> Point:
    """phi^k applied to p, exactly."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    out = inst.check_point(p)
    for _ in range(k):
        out = intmat.mat_vec(inst.phi, out)
    return out


def solve_divisibility(inst: LatticeInstance, p, k: int = 1) -> Point | None:
    """The unique q with phi^k(q) = p, or None when p is not divisible.

    Works one factor of phi at a time: if p is in the image of phi^k then
    every intermediate preimage is integral, so stepping never loses
    solutions.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    cur = inst.check_point(p)
    adj, det = inst.adjugate, inst.det
    for _ in range(k):
        nxt = intmat.mat_vec(adj, cur)
        if any(v % det for v in nxt):
            return None
        cur = tuple(v // det for v in nxt)
    return cur


def _check_classes(inst: LatticeInstance, k: int) -> None:
    """Raises BallSizeError when the |det|^k classes modulo phi^k exceed
    the cap, before any power of phi is formed."""
    if k < 1:
        raise ValueError("k must be positive")
    d = abs(inst.det)
    # d >= 2 puts d^k past the cap once k reaches the cap's bit length,
    # so the power is only taken of small k
    if d ** min(k, _RESIDUE_CAP.bit_length()) > _RESIDUE_CAP:
        raise BallSizeError(
            f"residue system has {d}^{k} classes, above the cap", _RESIDUE_CAP
        )


def residue_structure(inst: LatticeInstance, k: int):
    """Smith normal form data for Z^n modulo phi^k(Z^n).

    Returns (u, diag, u_inv) with u unimodular and diag the invariant
    factors; the class key of a point p is (u @ p) mod diag, and the
    canonical representative of key e is u_inv @ e. Raises BallSizeError
    before phi^k is formed when its |det|^k classes exceed the cap. The
    instance keeps the data per k, so each power is reduced once.
    """
    _check_classes(inst, k)
    found = inst._smith.get(k)
    if found is None:
        a = inst.phi
        for _ in range(k - 1):
            a = intmat.mat_mul(a, inst.phi)
        u, diag, _v = intmat.smith_normal_form(a)
        found = inst._smith[k] = (u, diag, intmat.unimodular_inverse(u))
    return found


def power_pullback(inst: LatticeInstance, k: int):
    """(phi^k, (A, q)) with phi^-k = A / q and q > 0: one adjugate of
    phi^k, so the pullback of a class representative rep is A rep / q.
    Raises BallSizeError before phi^k is formed, as ``residue_structure``
    does. The instance keeps the pair per k, so each power is formed and
    inverted once."""
    _check_classes(inst, k)
    found = inst._pullbacks.get(k)
    if found is None:
        pw = intmat.mat_pow(inst.phi, k)
        adj, det = intmat.adjugate(pw), intmat.determinant(pw)
        if det < 0:
            adj, det = tuple(tuple(-v for v in row) for row in adj), -det
        found = inst._pullbacks[k] = (pw, (adj, det))
    return found


def residue_key(inst: LatticeInstance, k: int, p) -> tuple[int, ...]:
    """Canonical key of the class of p modulo phi^k(Z^n)."""
    u, diag, _ = residue_structure(inst, k)
    up = intmat.mat_vec(u, inst.check_point(p))
    return tuple(x % d for x, d in zip(up, diag))


def residue_system(inst: LatticeInstance, k: int) -> tuple[Point, ...]:
    """One representative per class of Z^n modulo phi^k(Z^n), in a
    deterministic order (mixed-radix over the invariant factor keys)."""
    u, diag, u_inv = residue_structure(inst, k)
    reps = []
    key = [0] * inst.n
    while True:
        reps.append(intmat.mat_vec(u_inv, tuple(key)))
        i = inst.n - 1
        while i >= 0:
            key[i] += 1
            if key[i] < diag[i]:
                break
            key[i] = 0
            i -= 1
        if i < 0:
            return tuple(reps)


def char_poly(inst: LatticeInstance) -> tuple[int, ...]:
    """det(xI - phi), ascending coefficients, monic."""
    return intmat.char_poly(inst.phi)


def is_expanding(inst: LatticeInstance) -> bool:
    """True iff every eigenvalue of phi has modulus strictly above 1.

    Equivalent to all roots of the reversed characteristic polynomial
    lying strictly inside the unit circle, which the exact Schur-Cohn
    reduction decides; eigenvalues on the circle report False. The
    instance decides it once and keeps the answer.
    """
    return inst._expanding
