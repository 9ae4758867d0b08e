"""Window expansions by backwards division.

Repeatedly strip a digit (the unique one congruent to the point modulo
the w-th power of the base, or zero when the point is divisible) and
apply the inverse base map. ``DigitSet.divide`` does both in one step:
it is the set's block step of width 1 (below), one class index and one
adjugate product over det, written out for the set's dimension.
``digit_of`` and ``step`` are its halves, ``value`` is Horner's rule
back. Words are least significant first.

The digit at position j of a point p depends on p modulo phi^(j + w)
only: it is the digit of the class of T^j(p) modulo phi^w, T being the
division step, and p modulo phi^(j + w) fixes T^j(p) modulo phi^w. So
the digits at positions 0 ... K - w are the same for every point of a
class modulo phi^K. After a nonzero digit d the window form is forced
too: d is congruent to its point modulo phi^w, so the point minus d is
phi^w x with x integral, and the next w - 1 steps see phi^(w-1) x, ...,
phi x, each divisible by the base, and strip zeros. ``expand`` therefore
runs on ``DigitSet.walk``, one kernel call per point that strips, per
pass, the s digits its class modulo phi^K fixes (positions 0 ... K - w,
then through the zeros forced by the last nonzero digit among them,
K - w + 1 <= s <= K) with one table lookup and one product. The point
p of such a class is v + phi^s x for the value v of those digits, x =
(A_s p - e) / q_s with phi^-s = A_s / q_s and e = A_s v. The walk holds
the point in locals in the Smith coordinates z = U p of phi^K (U phi^K V
diagonal, U unimodular), so the lookup is one remainder z_i mod m_i per
Smith modulus above 1, and the product (G_s z - U e) / q_s = U x with G_s
= U A_s U^-1. K is the largest k >= w with |det|^k at most
``digitset.WINDOW_CLASSES`` (w when |det|^w is larger). Once the point is
zero, the zeros of the last pass past it come off. The call checks the
raw point and sizes the default cap itself. Its loop keeps no visited
set: it ends at zero, at the step cap or on a kernel fault. Whenever it
gives no word (a bad point or cap, a cycle, a long word, a kernel fault)
the checks and the step loop on ``DigitSet.divide`` rerun from the start
and report what they find, so both loops give the same Expansion,
CycleReport or error.

The default step cap allows max(w, s) steps per coordinate bit of the
point (``DigitSet.steps_per_bit``), s being the least number of inverse
steps certified in integers to halve the coordinate norm: below w0, w
steps alone need not halve it.
"""

from __future__ import annotations

from operator import mul

from . import lattice
from .digitset import DigitSet
from .errors import ConsistencyError, LatnafError, MalformedDigitSetError
from .record import Record

Point = lattice.Point


class Expansion(Record):
    """A finite digit word for a point, least significant digit first."""

    point: Point
    word: tuple[Point, ...]
    w: int

    def __init__(self, point: Point, word: tuple[Point, ...], w: int):
        # one per expand call: plain stores, no keyword dict
        fields = self.__dict__
        fields["point"], fields["word"], fields["w"] = point, word, w

    @property
    def weight(self) -> int:
        return word_weight(self.word)


class CycleReport(Record):
    """A nonzero orbit cycle of the division map: proof that the digit
    system does not terminate. Rotated so the smallest point comes first."""

    point: Point
    cycle: tuple[Point, ...]

    def __init__(self, point: Point, cycle: tuple[Point, ...]):
        vars(self).update(point=point, cycle=cycle)


def least_rotation(cycle: tuple[Point, ...]) -> tuple[Point, ...]:
    """The cycle rotated to start at its smallest point, as a
    CycleReport holds it."""
    k = min(range(len(cycle)), key=cycle.__getitem__)
    return cycle[k:] + cycle[:k]


def digit_of(ds: DigitSet, p: Point) -> Point:
    """The digit congruent to p: zero when p is divisible by the base,
    the class representative otherwise."""
    return ds.divide(p)[0]


def step(ds: DigitSet, p: Point) -> Point:
    """One backwards-division step: subtract the digit, divide by the base."""
    return ds.divide(p)[1]


def default_step_limit(ds: DigitSet, p) -> int:
    """Generous cap, well above the geometric-decay bound on orbit entry
    into the invariant ball plus the cycle length the ball can hold:
    ``DigitSet.steps_per_bit`` steps per coordinate bit of the integer
    point p (a negative coordinate has the bits of its absolute value),
    as ``DigitSet.walk`` sizes it itself when given no cap."""
    size = sum(map(int.bit_length, p))
    return 64 + ds.steps_per_bit * (8 + size)


def expand(ds: DigitSet, p, max_steps: int | None = None):
    """Full expansion of a point: an Expansion on success, a CycleReport
    when the orbit falls into a nonzero cycle (so no word exists).

    Words of at most max_steps digits come from one ``DigitSet.walk``
    call. Anything else, a bad point or max_steps too, reruns the checks
    and the step loop from the start: orbits are eventually periodic, so
    its cycle detection fires long before the step cap on well-formed
    instances; the cap is a hard abort against hostile configurations.
    """
    p = tuple(p)  # the walk would use up an iterator the step loop rereads
    try:
        found = ds.walk(p, max_steps) if max_steps is None or max_steps >= 1 else None
    except (TypeError, ValueError, MalformedDigitSetError):
        found = None
    if found is not None:
        # Expansion(*found, ds.w) without the __init__ frame: the same stores
        out = object.__new__(Expansion)
        fields = out.__dict__
        fields["point"], fields["word"] = found
        fields["w"] = ds.w
        return out
    start = ds.inst.check_point(p)
    if max_steps is None:
        max_steps = default_step_limit(ds, start)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    zero = ds.inst.zero()
    divide = ds.divide
    seen: dict[Point, int] = {}  # orbit points in visiting order
    cur = start
    digits = []
    quiet = 0
    while cur != zero:
        if cur in seen:
            return CycleReport(start, least_rotation(tuple(seen)[seen[cur]:]))
        if len(seen) >= max_steps:
            raise LatnafError(f"expansion exceeded {max_steps} steps")
        seen[cur] = len(seen)
        d, nxt = divide(cur)
        if d != zero:
            if quiet:
                raise ConsistencyError(
                    f"window property violated during division at {cur}"
                )
            quiet = ds.w - 1
        elif quiet:
            quiet -= 1
        digits.append(d)
        cur = nxt
    return Expansion(start, tuple(digits), ds.w)


def value(inst: lattice.LatticeInstance, word) -> Point:
    """Evaluate a digit word (least significant first) by Horner's rule."""
    phi = inst.phi
    acc = inst.zero()
    for d in reversed(tuple(word)):
        acc = tuple(
            sum(map(mul, row, acc), c) for row, c in zip(phi, inst.check_point(d))
        )
    return acc


def is_window_form(w: int, word) -> bool:
    """True when every w consecutive positions hold at most one nonzero."""
    last = None
    for i, d in enumerate(word):
        if any(v != 0 for v in d):
            if last is not None and i - last < w:
                return False
            last = i
    return True


def is_wnaf(e: Expansion) -> bool:
    return is_window_form(e.w, e.word)


def word_weight(word) -> int:
    """Nonzero digits of a word: a digit counts when a coordinate is nonzero."""
    return sum(map(any, word))
