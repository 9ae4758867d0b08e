"""Hamming-weight optimality of window expansions.

Two independent instruments:

* a certificate: four norm-geometry hypotheses (symmetric cell, cell
  inside its image under the base map, contraction below the cell
  ratio, and the window inequality u^w < (r/R - u) / 2) that together
  imply every window expansion has minimum weight among all digit words
  of the same value;
* an oracle: exact shortest-path search over lattice states where a
  step strips any congruent digit (not only the canonical one), edges
  cost 1 for a nonzero digit and 0 otherwise. The oracle realizes the
  true minimum weight over all words and owes nothing to the window
  recoding, so agreement is evidence, not circularity. Its whole search
  is one call of the digit set's generated kernel (``DigitSet.oracle``).
  That kernel starts from the weight U of the point's w-NAF: the w-NAF is
  a word of the set, so the least weight is at most U, and the search
  only rules out lighter words. It takes no edge that can only lead to
  weight U or more, and stops once the least weight is settled.

The oracle checks each state it relaxes against a norm cap, by default
twice the radius of the ball that orbits of the division map enter and
never leave (``nadscheck.invariant_ball_bound``). A state past the cap
raises NormCapError instead of being dropped, so no answer comes from a
search pruned by the cap; the states the bound and the stop leave out
lead only to words no lighter than the answer, so a cap passed only
there does not raise. The empirical sweep's reverse table covers at
least that ball, which forward minimum paths never leave.
"""

from __future__ import annotations

import random
from collections import deque
from fractions import Fraction
from math import floor, inf

from . import intmat, lattice, nadscheck
from .digitset import DigitSet
from .errors import InstanceError, LatnafError, MalformedDigitSetError, NormCapError
from .exactreal import CReal, Interval
from .expansion import CycleReport, default_step_limit, expand
from .record import Record

Point = lattice.Point


class OptimalityCertificate(Record):
    """Outcome of the hypothesis checks, with the enclosures they used."""

    cell_symmetric: bool
    cell_within_base_image: bool
    contraction_below_cell_ratio: bool
    window_inequality: bool
    w: int
    r_sq: Fraction
    R_sq: Fraction
    u_enclosure: Interval

    def __init__(
        self,
        cell_symmetric: bool,
        cell_within_base_image: bool,
        contraction_below_cell_ratio: bool,
        window_inequality: bool,
        w: int,
        r_sq: Fraction,
        R_sq: Fraction,
        u_enclosure: Interval,
    ):
        vars(self).update(
            cell_symmetric=cell_symmetric,
            cell_within_base_image=cell_within_base_image,
            contraction_below_cell_ratio=contraction_below_cell_ratio,
            window_inequality=window_inequality,
            w=w,
            r_sq=r_sq,
            R_sq=R_sq,
            u_enclosure=u_enclosure,
        )

    @property
    def certified(self) -> bool:
        return (
            self.cell_symmetric
            and self.cell_within_base_image
            and self.contraction_below_cell_ratio
            and self.window_inequality
        )

    @property
    def verdict(self) -> str:
        return "certified" if self.certified else "not_certified"


def check_hypotheses(ds: DigitSet) -> OptimalityCertificate:
    """Evaluate the sufficient conditions for weight optimality of the
    minimal-norm digit system.

    The cell is the Voronoi cell of a norm, hence symmetric by
    construction. Cell-inside-image is checked through the sufficient
    inequality u * R <= r. The remaining two are strict certified
    comparisons; failure of any flag is not a refutation of optimality.
    """
    if not ds.is_minimal_norm:
        raise InstanceError(
            "optimality hypotheses apply to minimal-norm digit sets only"
        )
    geo = ds.geo
    cap = geo.precision_cap_bits
    ctx = geo.norm_context
    u = geo.u
    u_sq = u * u
    r_over_R = CReal.from_rational(ctx.r_sq / ctx.R_sq).sqrt()

    # u * R <= r, compared through squares to stay in exact territory
    within = (
        u_sq.compare(CReal.from_rational(ctx.r_sq / ctx.R_sq), cap) <= 0
    )
    below_ratio = u.compare(r_over_R, cap) < 0

    rhs = (r_over_R - u) * CReal.from_rational(Fraction(1, 2))
    window_ok = below_ratio and u.pow(ds.w).compare(rhs, cap) < 0

    return OptimalityCertificate(
        cell_symmetric=True,
        cell_within_base_image=within,
        contraction_below_cell_ratio=below_ratio,
        window_inequality=window_ok,
        w=ds.w,
        r_sq=ctx.r_sq,
        R_sq=ctx.R_sq,
        u_enclosure=u.interval(64),
    )


def default_norm_cap(ds: DigitSet) -> Fraction:
    """Twice the invariant-ball radius: minimum-weight paths provably
    stay inside the ball itself, so the default has slack."""
    return 2 * nadscheck.invariant_ball_bound(ds)


def min_weight_oracle(
    ds: DigitSet, p, norm_cap: Fraction | None = None
) -> int:
    """Minimum weight over ALL digit words with value p (not only window
    forms): zero-one shortest path on lattice states, where a state q
    steps to (q - digit)/base at cost one for a nonzero digit and zero
    for the zero digit. The whole search is one call of the set's
    generated ``DigitSet.oracle``; this function checks the point and
    turns the norm cap into the integer limit that kernel compares the
    lower bracket ends of states with. The point's w-NAF is a word of the
    set, so its weight U bounds the answer: the search takes no edge that
    can only lead to weight U or more (with no w-NAF, as on a cycle, it
    has no bound), and stops once the answer is settled.

    Raises ValueError for a negative or non-finite cap, and NormCapError
    when a state the search relaxes provably exceeds the cap (cap too
    small), only where the search run to zero with no bound raises too:
    where that search returns a weight, this returns the same one, and
    where it escapes, this may return the exact weight. Raises
    LatnafError when no word exists at all.
    """
    inst = ds.inst
    start = inst.check_point(p)
    if norm_cap is not None and not (norm_cap == norm_cap and 0 <= norm_cap < inf):  # nan != nan
        raise ValueError(f"norm cap {norm_cap} is not a finite non-negative number")
    if start == inst.zero():
        return 0
    if norm_cap is None:
        norm_cap = default_norm_cap(ds)
    _, hi, den = ds.geo.norm_sq_interval(start)
    # every bracket shares den: a state escapes once its lower end, an
    # integer over den, exceeds max(cap^2, hi / den); hi is an integer
    limit = max(floor(Fraction(norm_cap) ** 2 * den), hi)

    try:
        weight = ds.oracle(start, limit)
    except NormCapError as e:
        raise NormCapError(f"state {e.state} escapes the norm cap {norm_cap}", e.state) from None
    if weight is None:
        raise LatnafError(f"no digit word represents {start} within the cap")
    return weight


def _distance_table(ds: DigitSet, bound: Fraction) -> dict:
    """Minimum word weight for every lattice point of norm <= bound, by
    one zero-one sweep outward from zero over reversed division steps:
    s is reached from p = base * s + digit at cost one for a nonzero
    digit and zero otherwise. Restricting states to the ball is complete
    because forward minimum paths never leave it.

    The cost-one edges come from the forward division of each ball point
    (only digits congruent to it can strip it), recorded as references
    to the ball's own tuples; the single cost-zero edge, base * s, is
    computed when s is reached."""
    inst = ds.inst
    phi = inst.phi
    zero = inst.zero()
    points = ds.geo.ball(Fraction(bound) ** 2, nadscheck.DEFAULT_BALL_CAP)
    own = {p: p for p in points}
    preds: dict[Point, list[Point]] = {}
    for p in points:
        for d, q in ds.divisions(p):
            if d != zero and (q := own.get(q)) is not None:
                preds.setdefault(q, []).append(p)
    dist: dict[Point, int] = {zero: 0}
    queue: deque[Point] = deque([zero])
    while queue:
        cur = queue.popleft()
        base = dist[cur]
        pred = own.get(intmat.mat_vec(phi, cur))
        if pred is not None and dist.get(pred, base + 1) > base:
            dist[pred] = base
            queue.appendleft(pred)
        for pred in preds.get(cur, ()):
            if dist.get(pred, base + 2) > base + 1:
                dist[pred] = base + 1
                queue.append(pred)
    return dist


def _known_word_weight(ds: DigitSet, words: dict, p: Point) -> int | None:
    """Weight of expand(ds, p), computed by walking the orbit of p only
    up to the first point whose word is known: word(p) = digit .
    word(quotient). words maps each point walked to the weight, length
    and leading zero digits of its word, zero to (0, 0, w - 1) since any
    digit may precede the empty word; every point of the walk is added.

    Returns None wherever expand would not return an Expansion, so the
    caller runs expand to report the fault: no known word within the
    step cap (a cycle among others), a class no digit covers, a nonzero
    digit whose quotient's word starts with fewer than w - 1 zeros, or a
    word longer than the cap."""
    limit = default_step_limit(ds, p)
    zero = (0,) * len(p)
    path = []
    cur = p
    try:
        while cur not in words:
            if len(path) >= limit:
                return None
            d, nxt = ds.divide(cur)
            path.append((cur, d != zero))
            cur = nxt
    except MalformedDigitSetError:
        return None
    weight, length, lead = words[cur]
    for x, nonzero in reversed(path):
        if nonzero:
            if lead < ds.w - 1:
                return None
            weight, lead = weight + 1, 0
        else:
            lead += 1
        length += 1
        words[x] = (weight, length, lead)
    return weight if length <= limit else None


class VerifyReport(Record):
    """Outcome of an empirical optimality sweep."""

    points_checked: int
    violations: tuple
    sampled: bool

    def __init__(self, points_checked: int, violations: tuple = (), sampled: bool = False):
        vars(self).update(points_checked=points_checked, violations=violations, sampled=sampled)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_empirically(
    ds: DigitSet,
    radius,
    seed: int = 0,
    sample_threshold: int = 1_000_000,
) -> VerifyReport:
    """Compare the window expansion's weight against the oracle on every
    lattice point of norm up to radius (or a seeded sample when the ball
    is larger than sample_threshold). Zero violations is the certified
    expectation whenever check_hypotheses passes."""
    geo = ds.geo
    radius = Fraction(radius)
    if radius < 0:
        return VerifyReport(0)
    r_sq = radius * radius
    pts = geo.ball(r_sq, nadscheck.DEFAULT_BALL_CAP)
    if geo.gram is None:  # an enclosure ball is a superset: trim it
        brackets = map(geo.norm_sq_interval, pts)
        pts = [p for p, (_, hi, den) in zip(pts, brackets) if hi <= r_sq * den]
    sampled = False
    if len(pts) > sample_threshold:
        rng = random.Random(seed)
        pts = sorted(rng.sample(pts, sample_threshold))
        sampled = True
    sweep_bound = max(radius, nadscheck.invariant_ball_bound(ds))
    table = _distance_table(ds, sweep_bound)
    words = {ds.inst.zero(): (0, 0, ds.w - 1)}
    violations = []
    for p in pts:
        weight = _known_word_weight(ds, words, p)
        if weight is None:
            result = expand(ds, p)
            if isinstance(result, CycleReport):
                raise LatnafError(
                    f"digit system is not terminating at {p}; "
                    "verify requires a decided instance"
                )
            weight = result.weight
        if p not in table:
            raise LatnafError(f"oracle found no digit word for {p}")
        if weight != table[p]:
            violations.append((p, weight, table[p]))
    return VerifyReport(len(pts), tuple(violations), sampled)
