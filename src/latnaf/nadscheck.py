"""Deciding whether a digit set expands every lattice point.

Two mechanisms, used in order:

* certificates: strict inequalities on the contraction factor u of the
  inverse base map. Either u^w < 1/2 with digits of minimal norm in
  their classes, or u^w < r / (r + R) (packing over packing-plus-covering
  radius), each implying termination for every point.
* exhaustive search: backwards division contracts every orbit into the
  ball of radius M = u / (1 - u) * (max digit norm), and that ball is
  forward invariant. Classifying the finitely many orbits inside it
  decides the property outright; a nonzero cycle is a counterexample.
"""

from __future__ import annotations

from fractions import Fraction

from . import lattice
from .digitset import DigitSet, FAMILY_INTERVAL
from .errors import ConsistencyError
from .exactreal import CReal
from .expansion import CycleReport, least_rotation
from .record import Record

Point = lattice.Point

CERT_MINIMAL_NORM = "minimal-norm-contraction"
CERT_TILING = "tiling-ratio"

STATUS_CERTIFIED = "certified_by_bound"
STATUS_SEARCH = "verified_by_search"
STATUS_COUNTEREXAMPLE = "counterexample"

DEFAULT_BALL_CAP = 5_000_000


class NadsVerdict(Record):
    status: str
    bound_used: str | None
    witness: CycleReport | None
    search_radius: Fraction | None

    def __init__(
        self,
        status: str,
        bound_used: str | None = None,
        witness: CycleReport | None = None,
        search_radius: Fraction | None = None,
    ):
        vars(self).update(
            status=status, bound_used=bound_used, witness=witness, search_radius=search_radius
        )

    @property
    def holds(self) -> bool:
        return self.status != STATUS_COUNTEREXAMPLE


def invariant_ball_bound(ds: DigitSet) -> Fraction:
    """Rational M with: every orbit of the division map eventually enters
    and never leaves the ball of norm M. One division step maps norm b to
    at most u * (b + max digit norm), so the fixed point is
    u / (1 - u) * (max digit norm). Computed once per set
    (``DigitSet.invariant_ball_bound``)."""
    return ds.invariant_ball_bound


def certify(ds: DigitSet) -> NadsVerdict | None:
    """Certificate-only check; None when no certificate applies (which
    says nothing about the property itself).

    Minimal-norm digits terminate once one window of inverse steps
    contracts below a half. The interval family is the tiling
    construction for the balanced interval, whose inradius and
    circumradius agree, so its certificate is the covering-ratio bound.
    """
    geo = ds.geo
    cap = geo.precision_cap_bits
    upow = geo.u.pow(ds.w)
    half = CReal.from_rational(Fraction(1, 2))
    if ds.family == FAMILY_INTERVAL:
        # V is the balanced interval: r = R = half the cell width
        if upow.compare(half, cap) < 0:
            return NadsVerdict(STATUS_CERTIFIED, bound_used=CERT_TILING)
        return None
    if not ds.is_minimal_norm:
        return None
    if upow.compare(half, cap) < 0:
        return NadsVerdict(STATUS_CERTIFIED, bound_used=CERT_MINIMAL_NORM)
    if upow.compare(geo.norm_context.tiling_ratio, cap) < 0:
        return NadsVerdict(STATUS_CERTIFIED, bound_used=CERT_TILING)
    return None


def search(ds: DigitSet, ball_cap: int = DEFAULT_BALL_CAP) -> NadsVerdict:
    """Decide the property by orbit classification over the invariant
    ball. Deterministic: starting points in lexicographic order, first
    nonzero cycle reported, rotated to start at its smallest point. Each
    step is one call of the set's ``DigitSet.divide``. A path that meets
    a cycle returns at once, so every point a finished path passed
    through reaches zero: one set holds them."""
    m_hi = invariant_ball_bound(ds)
    zero = ds.inst.zero()
    starts = ds.geo.ball(m_hi * m_hi, ball_cap)
    divide = ds.divide
    reaches_zero: set[Point] = {zero}
    for start in starts:
        if start in reaches_zero:
            continue
        path: list[Point] = []
        index: dict[Point, int] = {}
        cur = start
        while True:
            if cur in reaches_zero:
                reaches_zero.update(path)
                break
            if cur in index:
                witness = CycleReport(start, least_rotation(tuple(path[index[cur]:])))
                validate_cycle(ds, witness)
                return NadsVerdict(
                    STATUS_COUNTEREXAMPLE,
                    witness=witness,
                    search_radius=m_hi,
                )
            index[cur] = len(path)
            path.append(cur)
            cur = divide(cur)[1]
    return NadsVerdict(STATUS_SEARCH, search_radius=m_hi)


def validate_cycle(ds: DigitSet, report: CycleReport) -> None:
    """Re-check a counterexample step by step: a nonempty cycle of
    nonzero points that the division map closes."""
    cyc = report.cycle
    if not cyc:
        raise ConsistencyError("empty cycle")
    zero = ds.inst.zero()
    divide = ds.divide
    for i, p in enumerate(cyc):
        if p == zero:
            raise ConsistencyError("cycle through zero")
        if divide(p)[1] != cyc[(i + 1) % len(cyc)]:
            raise ConsistencyError(f"cycle does not close at {p}")


def decide(ds: DigitSet, ball_cap: int = DEFAULT_BALL_CAP) -> NadsVerdict:
    """Certificates first, exhaustive orbit search as the fallback."""
    verdict = certify(ds)
    if verdict is not None:
        return verdict
    return search(ds, ball_cap)
