import random
import sys
from collections import deque
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from math import floor

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import lattice
from latnaf import nadscheck as ncm
from latnaf import numberfield as nfm
from latnaf import optimality as om
from latnaf import quadform as qf
from latnaf.errors import (
    BallSizeError,
    ConsistencyError,
    InstanceError,
    LatnafError,
    MalformedDigitSetError,
)
from latnaf.exactreal import sqrt_upper


def ds_int(tau, w):
    return dsm.build_minimal_norm(nfm.build([-tau, 1]), w)


def test_certificate_base_three_window_two():
    cert = om.check_hypotheses(ds_int(3, 2))
    assert cert.cell_symmetric
    assert cert.cell_within_base_image
    assert cert.contraction_below_cell_ratio
    assert cert.window_inequality
    assert cert.certified
    assert cert.verdict == "certified"


def test_certificate_base_two_window_two_boundary():
    """u^w = 1/4 equals the threshold exactly, so the strict window
    inequality fails and no certificate is issued."""
    cert = om.check_hypotheses(ds_int(2, 2))
    assert cert.cell_symmetric
    assert cert.cell_within_base_image
    assert cert.contraction_below_cell_ratio
    assert not cert.window_inequality
    assert cert.verdict == "not_certified"


def test_certificate_gaussian_like_base():
    source = nfm.build([5, -4, 1])  # base 2 + i
    cert = om.check_hypotheses(dsm.build_minimal_norm(source, 3))
    assert cert.certified


def test_certificate_requires_minimal_digits():
    source = nfm.build([-2, 1])
    custom = dsm.from_digits(source, 2, [(0,), (1,), (3,)])
    with pytest.raises(InstanceError):
        om.check_hypotheses(custom)


def test_oracle_examples():
    ds = ds_int(2, 2)
    assert om.min_weight_oracle(ds, (0,)) == 0
    assert om.min_weight_oracle(ds, (7,)) == 2
    for k in range(11):
        assert om.min_weight_oracle(ds, (2**k,)) == 1
    assert om.min_weight_oracle(ds, (-(2**6),)) == 1


def test_oracle_weight_one_singletons():
    for ds in (ds_int(2, 2), ds_int(3, 2)):
        inst = ds.inst
        for d in ds.nonzero_digits:
            for k in range(6):
                p = em.lattice.apply_phi(inst, d, k)
                assert om.min_weight_oracle(ds, p) == 1, (d, k)


def test_oracle_never_exceeds_expansion_weight():
    rng = random.Random(21)
    for tau, w in ((2, 2), (2, 3), (3, 2)):
        ds = ds_int(tau, w)
        for _ in range(60):
            p = (rng.randint(-500, 500),)
            e = em.expand(ds, p)
            assert om.min_weight_oracle(ds, p) <= e.weight


def test_oracle_matches_exhaustive_word_search():
    """Min weight over every digit word of bounded length, compared
    against the oracle on all small values."""
    ds = ds_int(2, 2)
    inst = ds.inst
    best: dict[int, int] = {}
    digits = [d[0] for d in ds.digits]
    max_len = 8

    def walk(pos, value, weight):
        if pos == max_len:
            return
        for d in digits:
            v = value + d * 2**pos
            wt = weight + (1 if d else 0)
            if v not in best or wt < best[v]:
                best[v] = wt
            walk(pos + 1, v, wt)

    walk(0, 0, 0)
    best[0] = 0
    for v in range(-30, 31):
        assert om.min_weight_oracle(ds, (v,)) == best[v], v


def test_oracle_quadratic_field():
    source = nfm.build([2, -1, 1])
    ds = dsm.build_minimal_norm(source, 2)
    assert om.min_weight_oracle(ds, (0, 0)) == 0
    for d in ds.nonzero_digits:
        assert om.min_weight_oracle(ds, d) == 1
    rng = random.Random(4)
    for _ in range(25):
        p = (rng.randint(-20, 20), rng.randint(-20, 20))
        e = em.expand(ds, p)
        assert om.min_weight_oracle(ds, p) <= e.weight


def test_oracle_norm_cap_escape():
    # digits pushed far from the origin force the search outward: the
    # reference bounded by a tiny norm cap escapes, and the norm-free
    # oracle follows the search out and finds, as the reference under a
    # wide cap does, that 1 has no word (it falls into the cycle -1, -3)
    ds = dsm.from_digits(nfm.build([-3, 1]), 1, [(0,), (7,), (8,)])
    with pytest.raises(_Escaped):
        _reference_oracle(ds, (1,), 1)
    want = _oracle_outcome(_full_reference_oracle, ds, (1,), 10**6)
    assert want[0] is LatnafError and "no digit word" in want[1]
    assert _oracle_outcome(om.min_weight_oracle, ds, (1,)) == want


def test_oracle_accepts_a_zero_or_float_cap():
    # the reference's bound is never below the start's norm, and on t3w2
    # no state of 7 passes it: a zero or a float cap gives the oracle's weight
    ds = ds_int(3, 2)
    assert om.min_weight_oracle(ds, (7,)) == _reference_oracle(ds, (7,), 0)
    assert om.min_weight_oracle(ds, (7,)) == _reference_oracle(ds, (7,), 2.5)


def test_oracle_unreachable_point_raises():
    # {0, 1, 3} at base 2 never reaches 0 from -1, and the reachable set
    # is finite, so the search must report failure rather than loop
    bad = dsm.from_digits(nfm.build([-2, 1]), 2, [(0,), (1,), (3,)])
    with pytest.raises(LatnafError):
        om.min_weight_oracle(bad, (-1,))


def test_default_norm_cap_generous():
    """The oracle has no norm cap: wherever the reference under a cap
    gives a weight, twice the invariant ball among them, the oracle gives
    the same one, and where the capped reference escapes, the oracle still
    answers. custom541's moved digit pulls the search past a zero cap."""
    escaped = 0
    for ds, p in [(ds_int(3, 2), (7,)), (ds_int(3, 2), (-40,)), (ds_int(3, 2), (1000,)),
                  (oracle_system("custom541"), (-6, -11)), (oracle_system("custom541"), (14, -37))]:
        got = om.min_weight_oracle(ds, p)
        for cap in (0, 1, 4, _default_cap(ds), 10**6):
            want = _oracle_outcome(_reference_oracle, ds, p, cap)
            if got != want:
                assert want[0] is _Escaped, (p, cap)
                escaped += 1
    assert escaped


def test_verify_base_three_no_violations():
    ds = ds_int(3, 2)
    report = om.verify_empirically(ds, 100)
    assert report.ok
    assert report.points_checked == 201
    assert not report.sampled
    assert report.violations == ()


def test_verify_gaussian_no_violations():
    source = nfm.build([5, -4, 1])
    ds = dsm.build_minimal_norm(source, 3)
    report = om.verify_empirically(ds, 12)
    assert report.ok
    assert report.points_checked > 100


def test_verify_uncertified_base_two_still_optimal():
    # the certificate fails on the boundary here, yet no violation exists
    ds = ds_int(2, 2)
    report = om.verify_empirically(ds, 300)
    assert report.ok


def test_verify_negative_radius_vacuous():
    for radius in (-1, -0.5, Fraction(-1, 3), Decimal("-2.5"), -10**400):
        report = om.verify_empirically(ds_int(3, 2), radius)
        assert report.ok and report.points_checked == 0


@pytest.mark.parametrize("radius", [
    float("inf"), float("-inf"), float("nan"), Decimal("Infinity"), Decimal("-Infinity"),
    Decimal("NaN"), Decimal("sNaN"),
])
def test_verify_refuses_a_non_finite_radius(radius):
    # inf has no integer ratio, as for the oracle's norm cap
    with pytest.raises(ValueError, match="radius .* is not a finite number"):
        om.verify_empirically(ds_int(3, 2), radius)


@pytest.mark.parametrize("base, w, radius", [([-3, 1], 2, 40), ([5, -4, 1], 3, 6)])
def test_balls_go_through_the_module_level_enumerator(monkeypatch, base, w, radius):
    """verify_empirically enumerates exactly two balls (the swept points
    and the table) and Geometry.ball one, each through the module-level
    name quadform.enumerate_ball: perfbench's tracer counts ball points by
    wrapping that name, and its self-test checks for two balls per sweep."""
    ds = dsm.build_minimal_norm(nfm.build(base), w)
    calls = []
    real = qf.enumerate_ball

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qf, "enumerate_ball", counted)
    om.verify_empirically(ds, radius)
    assert len(calls) == 2
    calls.clear()
    ds.geo.ball(Fraction(radius))
    assert len(calls) == 1


def test_verify_sampling_deterministic():
    ds = ds_int(3, 2)
    a = om.verify_empirically(ds, 400, seed=5, sample_threshold=50)
    b = om.verify_empirically(ds, 400, seed=5, sample_threshold=50)
    assert a.sampled and b.sampled
    assert a.points_checked == b.points_checked == 50
    assert a == b
    c = om.verify_empirically(ds, 400, seed=6, sample_threshold=50)
    assert c.ok


# --- forward oracle vs reverse table, and the sweep vs its reference loop ---


def _reference_distance_table(ds, bound):
    """Reference: the reverse zero-one BFS that tries every digit from
    every state, pred = base * cur + digit, kept inside the ball."""
    inst = ds.inst
    zero = inst.zero()
    inside = set(ds.geo.ball(Fraction(bound) ** 2))
    dist = {zero: 0}
    queue = deque([zero])
    while queue:
        cur = queue.popleft()
        base = dist[cur]
        phi_cur = em.lattice.apply_phi(inst, cur)
        for d in ds.digits:
            pred = tuple(a + b for a, b in zip(phi_cur, d))
            if pred not in inside:
                continue
            cost = 0 if d == zero else 1
            if pred in dist and dist[pred] <= base + cost:
                continue
            dist[pred] = base + cost
            if cost == 0:
                queue.appendleft(pred)
            else:
                queue.append(pred)
    return dist


def _reference_sweep(ds, radius):
    """Reference: the sweep with one full expand per point, in ball order."""
    geo = ds.geo
    radius = Fraction(radius)
    pts = geo.ball(radius * radius)
    if geo.gram is None:
        pts = [p for p in pts if Fraction(*geo.norm_sq_interval(p)[1:]) <= radius * radius]
    table = _reference_distance_table(ds, max(radius, ncm.invariant_ball_bound(ds)))
    violations = []
    for p in pts:
        result = em.expand(ds, p)
        if isinstance(result, em.CycleReport):
            raise LatnafError(
                f"digit system is not terminating at {p}; "
                "verify requires a decided instance"
            )
        if p not in table:
            raise LatnafError(f"oracle found no digit word for {p}")
        if result.weight != table[p]:
            violations.append((p, result.weight, table[p]))
    return om.VerifyReport(len(pts), tuple(violations), False)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatnafError as e:
        return type(e), str(e)


def _moved_digit_set(coeffs, w, old, shift, c):
    """The minimal-norm set with digit old moved to old + c * shift, shift
    a multiple of base^w: same classes, a digit farther out."""
    source = nfm.build(list(coeffs))
    base = dsm.build_minimal_norm(source, w)
    new = tuple(a + c * b for a, b in zip(old, shift))
    return dsm.from_digits(source, w, [new if d == old else d for d in base.digits])


DIFFERENTIAL = {
    "t3w2": (lambda: ds_int(3, 2), 12),
    "q541w3": (lambda: dsm.build_minimal_norm(nfm.build([5, -4, 1]), 3), 6),
    "c3101w4": (lambda: dsm.build_minimal_norm(nfm.build([3, 1, 0, 1]), 4), 4),
    "custom541": (lambda: _moved_digit_set((5, -4, 1), 2, (-6, 3), (-75, 45), 2), 6),
}


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_table_matches_oracle_and_reference_bfs(name):
    build, radius = DIFFERENTIAL[name]
    ds = build()
    bound = max(Fraction(radius), ncm.invariant_ball_bound(ds))
    table = om._distance_table(ds, bound)
    assert table == _reference_distance_table(ds, bound)
    small = ds.geo.ball(Fraction(radius) ** 2)
    assert len(small) >= 13
    for p in small:
        assert table[p] == om.min_weight_oracle(ds, p), p


# the enclosure cubic's tables are compared above; its sweep adds 5 s
@pytest.mark.parametrize("name", sorted(set(DIFFERENTIAL) - {"c3101w4"}))
def test_sweep_matches_reference_sweep(name):
    build, radius = DIFFERENTIAL[name]
    ds = build()
    got = om.verify_empirically(ds, radius)
    assert got == _reference_sweep(ds, radius)
    assert got.ok == (name != "custom541")


def test_sweep_non_terminating_set_raises_as_reference():
    # (-1, 1) -> (-1, 1) + 3 * (0, 12) leaves a nonzero cycle
    ds = _moved_digit_set((2, -1, 1), 3, (-1, 1), (0, 12), 3)
    want = _outcome(_reference_sweep, ds, 20)
    assert want[0] is LatnafError and "not terminating" in want[1]
    assert _outcome(om.verify_empirically, ds, 20) == want


def test_sweep_step_cap_raises_at_the_reference_point(monkeypatch):
    """A cap of 3 steps at 27 alone: its word 0001 is four long. The
    sweep takes 27's word from one walk with the default cap, planted
    there as 3, so the walk gives no word; expand sizes its default cap
    inside DigitSet.walk, so both expands are handed the cap and raise it
    from their step loops."""
    real_walk = dsm.DigitSet.walk
    expand = em.expand

    def limit(p, cap):
        return 3 if cap is None and p == (27,) else cap

    def capped_walk(self):
        kernel = real_walk.__get__(self, dsm.DigitSet)
        return lambda p, cap: kernel(p, limit(p, cap))

    def capped(ds, p, max_steps=None):
        return expand(ds, p, limit(p, max_steps))

    monkeypatch.setattr(dsm.DigitSet, "walk", property(capped_walk))
    monkeypatch.setattr(em, "expand", capped)
    monkeypatch.setattr(om, "expand", capped)
    ds = ds_int(3, 2)
    want = _outcome(_reference_sweep, ds, 40)
    assert want == (LatnafError, "expansion exceeded 3 steps")
    assert _outcome(om.verify_empirically, ds, 40) == want


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL))
def test_sweep_takes_each_word_from_one_walk(monkeypatch, name):
    """The sweep divides no point with DigitSet.divide: each swept
    point's w-NAF comes from the set's window walk, built at most once."""
    divides, built = [], []
    divide, lines = dsm.DigitSet.divide, dsm._window_lines
    monkeypatch.setattr(dsm.DigitSet, "divide", lambda self, p: divides.append(p) or divide(self, p))
    monkeypatch.setattr(dsm, "_window_lines", lambda *args: built.append(args) or lines(*args))
    build, radius = DIFFERENTIAL[name]
    ds = build()
    assert om.verify_empirically(ds, radius).points_checked >= 13
    assert divides == [] and len(built) <= 1


@pytest.mark.parametrize(
    "broken, fault", [((-30,), MalformedDigitSetError), ((35,), ConsistencyError)]
)
def test_sweep_kernel_faults_raise_at_the_reference_point(monkeypatch, broken, fault):
    """Two faults planted in the division: a nonzero digit reported at 9
    breaks the window of every word reaching 9 through a nonzero digit
    (first swept: 23), and a failure at the broken point stops every orbit
    through it. The fault met first in sweep order is the one raised.
    expand takes its block steps in DigitSet.walk, which never calls
    divide; a walk that always faults makes it rerun its step loop, so
    both sweeps meet the planted faults through divide."""
    ds = ds_int(3, 2)
    divide = dsm.DigitSet.divide

    def faulty(self, p):
        if p == broken:
            raise MalformedDigitSetError(f"no digit covers the residue class of {p}")
        d, q = divide(self, p)
        return ((1,), q) if p == (9,) else (d, q)

    def deferring_walk(p, cap):
        raise MalformedDigitSetError(f"block step deferred at {p}")

    monkeypatch.setattr(dsm.DigitSet, "divide", faulty)
    monkeypatch.setattr(dsm.DigitSet, "walk", property(lambda self: deferring_walk))
    want = _outcome(_reference_sweep, ds, 40)
    assert want[0] is fault
    assert _outcome(om.verify_empirically, ds, 40) == want


def test_oracle_refuses_a_non_integer_point():
    # int() would answer for 2
    with pytest.raises(ValueError, match="not an integer: 2.9"):
        om.min_weight_oracle(ds_int(2, 2), (2.9,))


# --- the oracle kernel vs the step-by-step search it replaced ---


def _default_cap(ds):
    """The references' default norm cap: twice the invariant-ball bound,
    which minimum-weight paths provably never leave."""
    return 2 * ncm.invariant_ball_bound(ds)


class _Escaped(LatnafError):
    """A reference search passed its norm cap; carries the state."""

    def __init__(self, message, state):
        super().__init__(message)
        self.state = state


def _reference_oracle(ds, p, norm_cap=None, settle=True):
    """Reference: min_weight_oracle as a Python zero-one BFS, one
    divisions call per state and one norm bracket per new state. best is
    the least weight known: with settle, first that of expand(ds, p),
    then 1 + the least distance at which a relaxed state equals a nonzero
    digit, the only states with an edge to zero. With settle, the search
    takes no cost-1 edge that can only lead to weight best or more, and
    returns best once a popped state is at distance best - 1 or more or
    the queue drains; without, it starts with no bound and runs on until
    it pops zero."""
    inst = ds.inst
    start = inst.check_point(p)
    zero = inst.zero()
    if start == zero:
        return 0
    geo = ds.geo
    if norm_cap is None:
        norm_cap = _default_cap(ds)
    _, hi, den = geo.norm_sq_interval(start)
    limit = floor(max(Fraction(norm_cap) ** 2, Fraction(hi, den)) * den)
    digits = set(ds.nonzero_digits)
    best = None
    if settle:
        try:
            found = em.expand(ds, start)
        except LatnafError:  # no word within the step cap
            found = None
        if isinstance(found, em.Expansion):
            best = found.weight
    dist = {start: 0}
    queue = deque([start])
    while queue:
        cur = queue.popleft()
        base = dist[cur]
        if settle and best is not None and base >= best - 1:
            return best
        if cur == zero:
            return base
        for d, nxt in ds.divisions(cur):
            cost = 0 if d == zero else 1
            if settle and cost and best is not None and base + 2 >= best:
                continue
            if nxt in dist and dist[nxt] <= base + cost:
                continue
            if geo.norm_sq_interval(nxt)[0] > limit:
                raise _Escaped(f"state {nxt} escapes the norm cap {norm_cap}", nxt)
            dist[nxt] = base + cost
            if nxt in digits and (best is None or base + cost + 1 < best):
                best = base + cost + 1
            if cost == 0:
                queue.appendleft(nxt)
            else:
                queue.append(nxt)
    if best is not None:
        return best
    raise LatnafError(f"no digit word represents {start} within the cap")


def _full_reference_oracle(ds, p, norm_cap=None):
    """Reference: the same search run on until it pops zero."""
    return _reference_oracle(ds, p, norm_cap, settle=False)


def _oracle_outcome(oracle, ds, p, *cap):
    """The weight, or the exception's type, message, args and state; a
    reference takes an optional norm cap."""
    try:
        return oracle(ds, p, *cap)
    except (LatnafError, ValueError) as e:
        return type(e), str(e), e.args, getattr(e, "state", None)


ORACLE_SYSTEMS = {  # name: (build, coordinate bound of the drawn points)
    "t2w2": (lambda: ds_int(2, 2), 10**6),
    "t3w2": (DIFFERENTIAL["t3w2"][0], 10**6),
    "q541w3": (DIFFERENTIAL["q541w3"][0], 1000),
    "m31w2": (
        lambda: dsm.build_minimal_norm(lattice.LatticeInstance.from_matrix([[3, 1], [-1, 3]]), 2),
        300,
    ),
    "c3101w4": (DIFFERENTIAL["c3101w4"][0], 12),
    "custom541": (DIFFERENTIAL["custom541"][0], 300),
    "far78": (lambda: dsm.from_digits(nfm.build([-3, 1]), 1, [(0,), (7,), (8,)]), 300),
    "unreachable013": (lambda: dsm.from_digits(nfm.build([-2, 1]), 2, [(0,), (1,), (3,)]), 300),
}
CUSTOM_ORACLE = ("custom541", "far78", "unreachable013")
DECIDED_ORACLE = sorted(set(ORACLE_SYSTEMS) - set(CUSTOM_ORACLE))


@lru_cache(maxsize=None)
def oracle_system(name):
    return ORACLE_SYSTEMS[name][0]()


def _drawn_point(name):
    bound = ORACLE_SYSTEMS[name][1]
    n = oracle_system(name).inst.n
    return st.tuples(*[st.integers(-bound, bound)] * n)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(DECIDED_ORACLE).flatmap(
    lambda name: st.tuples(st.just(name), _drawn_point(name))
))
def test_oracle_kernel_matches_reference_bfs(case):
    name, p = case
    ds = oracle_system(name)
    want = _oracle_outcome(_reference_oracle, ds, p)
    assert _oracle_outcome(om.min_weight_oracle, ds, p) == want


@pytest.mark.parametrize("name", CUSTOM_ORACLE)
def test_oracle_kernel_matches_reference_bfs_on_custom_sets(name):
    """A moved digit, and two sets of positive digits, {7, 8} at base 3
    and {1, 3} at base 2, from which every step of a negative point stays
    negative, so it reaches no word. The same weights and the same
    LatnafError."""
    ds = oracle_system(name)
    rng = random.Random(f"oracle-custom/{name}")
    pts = [tuple(rng.randint(-300, 300) for _ in range(ds.inst.n)) for _ in range(30)]
    pts += [tuple(v for _ in range(ds.inst.n)) for v in range(-4, 5)]
    outcomes = []
    for p in pts:
        want = _oracle_outcome(_reference_oracle, ds, p)
        assert _oracle_outcome(om.min_weight_oracle, ds, p) == want, p
        outcomes.append(want)
    raised = [o for o in outcomes if isinstance(o, tuple)]
    assert bool(raised) == (name != "custom541")
    assert all(o[0] is LatnafError and "no digit word" in o[1] for o in raised)


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_oracle_kernel_matches_reference_bfs_under_small_caps(name):
    """The reference under explicit caps from 1 up: where it gives a
    weight or raises no word, the oracle gives the same outcome, and where
    it escapes, the oracle gives the outcome of the search run to zero
    under a wide cap. Against the search run to zero under the same cap,
    the reference's outcome is the same, or the wide weight where that
    search escapes."""
    ds = oracle_system(name)
    rng = random.Random(f"oracle-caps/{name}")
    bound = min(ORACLE_SYSTEMS[name][1], 40)
    kinds = set()
    n = ds.inst.n
    for cap in (1, 2, Fraction(7, 2), 6, 12, 30):
        pts = [(1,) * n, (-2,) + (1,) * (n - 1)]
        pts += [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(5)]
        for p in pts:
            want = _oracle_outcome(_reference_oracle, ds, p, cap)
            got = _oracle_outcome(om.min_weight_oracle, ds, p)
            kinds.add(want[0] if isinstance(want, tuple) else int)
            if isinstance(want, tuple) and want[0] is _Escaped:
                assert got == _oracle_outcome(_full_reference_oracle, ds, p, 10**6), (p, cap)
            else:
                assert got == want, (p, cap)
            full = _oracle_outcome(_full_reference_oracle, ds, p, cap)
            if want != full:
                assert full[0] is _Escaped, (p, cap)
                assert want == _full_reference_oracle(ds, p, 10**6), (p, cap)
    # on t2w2, t3w2 and {0, 1, 3} the states of these points stay within
    # the start's norm, which the cap never goes below; on m31w2, q541w3
    # and c3101w4 the w-NAF's weight settles every escape of the search
    # run to zero before the escaping state is relaxed
    assert int in kinds
    assert (_Escaped in kinds) == (name in ("custom541", "far78"))


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_stopped_oracle_against_the_search_run_to_zero(name):
    """The stopped kernel against the full reference search under every
    cap: the same weight, or the same no-word error, wherever the full
    search gives one; where the full search escapes, the outcome under the
    default cap (twice the invariant ball, which minimum paths never
    leave)."""
    ds = oracle_system(name)
    n = ds.inst.n
    rng = random.Random(f"oracle-settled/{name}")
    bound = min(ORACLE_SYSTEMS[name][1], 40)
    pts = [(1,) * n, (-2,) + (1,) * (n - 1)]
    pts += [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(12)]
    early = []
    for p in pts:
        got = _oracle_outcome(om.min_weight_oracle, ds, p)
        for cap in (None, 1, 2, Fraction(7, 2), 6, 12, 30):
            full = _oracle_outcome(_full_reference_oracle, ds, p, cap)
            if got == full:
                continue
            assert full[0] is _Escaped, (p, cap)
            assert got == _oracle_outcome(_full_reference_oracle, ds, p), (p, cap)
            early.append((p, cap))
    # on t2w2, t3w2 and {0, 1, 3} no state passes the start's norm
    assert bool(early) == (name in ("c3101w4", "custom541", "far78", "m31w2", "q541w3"))


@settings(derandomize=True, deadline=None, max_examples=80)
@given(st.sampled_from(DECIDED_ORACLE).flatmap(lambda name: st.tuples(
    st.just(name),
    st.integers(0, len(oracle_system(name).nonzero_digits) - 1),
    st.integers(0, 6),
    _drawn_point(name),
)))
def test_oracle_weight_one_on_shifted_digits_and_at_most_the_expansion(case):
    """phi^k d has the word of k zeros then d, so weight 1: at k = 0 the
    start is itself a digit and the search settles before it relaxes a
    state. At any point the oracle weighs no more than the w-NAF."""
    name, i, k, p = case
    ds = oracle_system(name)
    d = ds.nonzero_digits[i]
    assert om.min_weight_oracle(ds, lattice.apply_phi(ds.inst, d, k)) == 1
    assert om.min_weight_oracle(ds, p) <= em.expand(ds, p).weight


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_oracle_kernel_matches_reference_bfs_on_bad_and_zero_points(name):
    ds = oracle_system(name)
    n = ds.inst.n
    for p in [(0,) * n, (2.9,) + (1,) * (n - 1), (1,) * (n + 1)]:
        want = _oracle_outcome(_reference_oracle, ds, p)
        assert _oracle_outcome(om.min_weight_oracle, ds, p) == want, p
    assert om.min_weight_oracle(ds, (0,) * n) == 0


def _counting_compiles(monkeypatch):
    """The lines of every kernel a set builds, by ``_Template.compile``."""
    built, real = [], dsm._Template.compile
    monkeypatch.setattr(dsm._Template, "compile", lambda self, lines: built.append(lines) or real(self, lines))
    return built


def test_an_oracle_call_is_one_kernel_call(monkeypatch):
    """min_weight_oracle hands the search to the generated kernel
    without a norm bracket: no divisions call and no bracket,
    whatever the number of states. After a division, the set's one
    kernel is built, so an oracle call builds nothing."""
    divisions, brackets = [], []

    def counting(calls, fn):
        return lambda *args: calls.append(args[-1]) or fn(*args)

    monkeypatch.setattr(dsm.DigitSet, "divisions", counting(divisions, dsm.DigitSet.divisions))
    monkeypatch.setattr(
        dsm.Geometry, "norm_sq_interval", counting(brackets, dsm.Geometry.norm_sq_interval)
    )
    built = _counting_compiles(monkeypatch)
    for name in ("t2w2", "t3w2", "q541w3", "m31w2", "c3101w4"):
        ds = ORACLE_SYSTEMS[name][0]()
        n = ds.inst.n
        ds.divide((7,) * n)
        assert len(built) == 1
        built.clear()
        ncm.invariant_ball_bound(ds)  # the reference's cap brackets every digit, once per set
        for p in [(5,) * n, (-9,) + (4,) * (n - 1), (11,) * n]:
            divisions.clear()
            brackets.clear()
            assert om.min_weight_oracle(ds, p) == _full_reference_oracle(ds, p)
            assert brackets[0] == p and len(brackets) > 1 and divisions  # the reference
            divisions.clear()
            brackets.clear()
            om.min_weight_oracle(ds, p)
            assert divisions == [] and brackets == []
        assert built == []


def test_an_oracle_call_builds_the_one_kernel(monkeypatch):
    """The kernel takes the w-NAF's weight with its own copy of walk's
    block step: on a fresh set, an oracle call builds the set's one
    kernel, once, and makes no divisions or walk call."""
    divisions, real_divisions = [], dsm.DigitSet.divisions
    monkeypatch.setattr(
        dsm.DigitSet, "divisions", lambda self, p: divisions.append(p) or real_divisions(self, p)
    )
    built = _counting_compiles(monkeypatch)
    for name in sorted(ORACLE_SYSTEMS):
        ds = ORACLE_SYSTEMS[name][0]()
        n = ds.inst.n
        for p in [(5,) * n, (-9,) + (4,) * (n - 1), (1,) * n]:
            _oracle_outcome(om.min_weight_oracle, ds, p)
        assert len(built) == 1 and ds.oracle is ds._kernel[2], name
        assert "walk" not in vars(ds) and divisions == [], name
        built.clear()


def test_a_first_division_computes_no_step_count_or_enclosure(monkeypatch):
    """steps_per_bit is a lazy cell of the kernel, read by walk without
    a cap and by the oracle: a set's first divisions compute none. A
    kernel build reads no geometry, so no first division computes a Gram
    enclosure, not even that of a custom set on an enclosure base, which
    its build never needed."""
    enclosures, real = [], nfm.gram_enclosure
    monkeypatch.setattr(nfm, "gram_enclosure", lambda nf, bits: enclosures.append(bits) or real(nf, bits))
    for name in sorted(ORACLE_SYSTEMS):
        ds = ORACLE_SYSTEMS[name][0]()
        p = (5,) * ds.inst.n
        enclosures.clear()
        ds.divide(p), ds.divisions(p), ds.walk(p, 40)
        assert "steps_per_bit" not in vars(ds), name
        assert enclosures == [], name
        _oracle_outcome(om.min_weight_oracle, ds, p)
        assert "steps_per_bit" in vars(ds), name
    custom = dsm.from_digits(nfm.build([3, 1, 0, 1]), 4, oracle_system("c3101w4").digits)
    assert custom.geo.gram is None
    enclosures.clear()
    custom.divide((5, 5, 5))
    custom.walk((6, 5, 5), None)
    assert enclosures == []


def test_oracle_without_a_w_naf_runs_the_unbounded_search():
    """c3101w3 ([3, 1, 0, 1] at w = 3) has the six-point cycle of the
    division map, so these points have no w-NAF and the search starts
    with no bound. Every cycle point still has a word of weight 2."""
    ds = dsm.build_minimal_norm(nfm.build([3, 1, 0, 1]), 3)
    cycle = [(-3, 1, -1), (2, -1, 1), (-3, 2, -1), (3, -1, 1), (-2, 1, -1), (3, -2, 1)]
    rng = random.Random("oracle-cycle/c3101w3")
    pts = cycle + [tuple(rng.randint(-12, 12) for _ in range(3)) for _ in range(40)]
    pts = [p for p in pts if isinstance(em.expand(ds, p), em.CycleReport)]
    assert len(pts) > len(cycle)
    for p in pts:
        assert ds.walk(p, None) is None
        got = _oracle_outcome(om.min_weight_oracle, ds, p)
        assert got == _oracle_outcome(_full_reference_oracle, ds, p), p
        for cap in (1, 3):
            want = _oracle_outcome(_reference_oracle, ds, p, cap)
            assert got == want or want[0] is _Escaped, (p, cap)
    assert [om.min_weight_oracle(ds, p) for p in cycle] == [2] * 6


def _reference_ball_bound(ds):
    """Reference: the invariant-ball bound as nadscheck computed it per call."""
    bits = 64
    while (u_hi := ds.geo.u.interval(bits).hi) >= 1:
        bits *= 2
    md_hi = sqrt_upper(dsm.max_digit_norm_sq_upper(ds), 64)
    return u_hi * md_hi / (1 - u_hi)


def test_the_invariant_ball_bound_is_computed_once_per_set(monkeypatch):
    sets = [ORACLE_SYSTEMS[name][0]() for name in ("t2w2", "q541w3", "m31w2", "custom541")]
    want = [_reference_ball_bound(ds) for ds in sets]
    calls = []
    real = dsm.max_digit_norm_sq_upper
    monkeypatch.setattr(dsm, "max_digit_norm_sq_upper", lambda ds: calls.append(ds) or real(ds))
    for ds, bound in zip(sets, want):
        for _ in range(3):
            assert ncm.invariant_ball_bound(ds) == bound
        assert _default_cap(ds) == 2 * bound
        om.min_weight_oracle(ds, (3,) * ds.inst.n)
        om.verify_empirically(ds, 3)
    assert calls == sets


def test_the_default_cap_is_one_cached_integer_limit(monkeypatch):
    """The oracle is norm-free: it hands the kernel the state cap
    nadscheck.DEFAULT_BALL_CAP alone, computes no invariant ball and no
    integer limit (the set has no default_norm_limit), and on every set
    returns what the reference under a cap of twice the invariant ball
    returns, or the exact weight where that search escapes."""
    for name in sorted(ORACLE_SYSTEMS):
        ds = ORACLE_SYSTEMS[name][0]()
        n = ds.inst.n
        calls, real = [], ds.oracle
        vars(ds)["oracle"] = lambda *args: calls.append(args[1:]) or real(*args)
        points = [(5,) * n, (-9,) + (4,) * (n - 1), (1,) * n]
        got = [_oracle_outcome(om.min_weight_oracle, ds, p) for p in points]
        assert calls and set(calls) == {(ncm.DEFAULT_BALL_CAP,)}, name
        assert "invariant_ball_bound" not in vars(ds), name
        assert not hasattr(ds, "default_norm_limit"), name
        capped = [_oracle_outcome(_reference_oracle, ds, p, _default_cap(ds)) for p in points]
        for p, g, c in zip(points, got, capped):
            assert g == c or (isinstance(g, int) and c[0] is _Escaped), (name, p)


# --- the norm-free default ---


def _readme_matrix_set():
    """README's matrix base [[0, -2], [1, 1]] at w = 2: expanding, but
    phi^-1 is no contraction in the coordinate norm, so it has no u."""
    return dsm.build_minimal_norm(lattice.LatticeInstance.from_matrix([[0, -2], [1, 1]]), 2)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.sampled_from(DECIDED_ORACLE).flatmap(
    lambda name: st.tuples(st.just(name), _drawn_point(name))
))
def test_norm_free_oracle_matches_the_oracle_under_twice_the_invariant_ball(case):
    """Against the search run to zero with no w-NAF bound, under twice the
    invariant ball: the same weight, or the exact weight where it escapes."""
    name, p = case
    ds = oracle_system(name)
    want = _oracle_outcome(_full_reference_oracle, ds, p, _default_cap(ds))
    got = _oracle_outcome(om.min_weight_oracle, ds, p)
    assert got == want or (isinstance(got, int) and want[0] is _Escaped)


def test_norm_free_oracle_answers_on_the_readme_matrix_base():
    ds = _readme_matrix_set()
    with pytest.raises(InstanceError):
        ds.geo.u
    rng = random.Random("oracle-readme-matrix")
    pts = [(5, 3), (17, -9), (40, 41)]
    pts += [(rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(30)]
    got = [om.min_weight_oracle(ds, p) for p in pts]
    assert got[:3] == [4, 4, 5]
    assert got == [_reference_oracle(ds, p, 10**4) for p in pts]
    assert all(w <= em.expand(ds, p).weight for p, w in zip(pts, got))


def test_the_default_oracle_reads_no_norm(monkeypatch):
    """Fresh sets, README's matrix base among them: the oracle brackets
    no norm and reads no contraction factor."""
    sets = [ORACLE_SYSTEMS[name][0]() for name in sorted(ORACLE_SYSTEMS)] + [_readme_matrix_set()]

    def refuse(*args):
        raise AssertionError("the default oracle read a norm")

    monkeypatch.setattr(dsm.Geometry, "norm_sq_interval", refuse)
    monkeypatch.setattr(dsm.Geometry, "u", property(refuse))
    for ds in sets:
        n = ds.inst.n
        for p in [(5,) * n, (-9,) + (4,) * (n - 1), (1,) * n]:
            outcome = _oracle_outcome(om.min_weight_oracle, ds, p)
            assert isinstance(outcome, int) or "no digit word" in outcome[1], (ds, p)


def _most_states(call):
    """(the outcome of call(), the most states the oracle kernel's dist
    held during it), read by a trace of the kernel's frames."""
    most = 0

    def local(frame, event, arg):
        nonlocal most
        dist = frame.f_locals.get("dist")
        if dist is not None:
            most = max(most, len(dist))
        return local

    def enter(frame, event, arg):
        code = frame.f_code
        return local if code.co_name == "oracle" and code.co_filename == "<kernel>" else None

    sys.settrace(enter)
    try:
        try:
            outcome = call()
        except LatnafError as e:
            outcome = (type(e), str(e), getattr(e, "cap", None))
    finally:
        sys.settrace(None)
    return outcome, most


@pytest.mark.parametrize("build, points, cap", [
    # the six cycle points of c3101w3 have no w-NAF, so U is infinite
    (lambda: dsm.build_minimal_norm(nfm.build([3, 1, 0, 1]), 3),
     [(-3, 1, -1), (2, -1, 1), (-3, 2, -1), (3, -1, 1), (-2, 1, -1), (3, -2, 1)], 4),
    # a far negative point of {0, 1, 3} at base 2 has no word at all
    (lambda: dsm.from_digits(nfm.build([-2, 1]), 2, [(0,), (1,), (3,)]), [(-10**6,)], 8),
], ids=["c3101w3-cycle", "unreachable013-far"])
def test_the_state_cap_stops_a_larger_search(monkeypatch, build, points, cap):
    """With the state cap small, a search whose reachable set is larger
    raises BallSizeError, and its dist never held more than the cap plus
    one class's digits; the real cap gives the answer."""
    ds = build()
    widest = max(len(ds.divisions(d)) for d in ds.digits)
    for p in points:
        answer, held = _most_states(lambda: om.min_weight_oracle(ds, p))
        assert held > cap, p
        monkeypatch.setattr(ncm, "DEFAULT_BALL_CAP", cap)
        outcome, held = _most_states(lambda: om.min_weight_oracle(ds, p))
        monkeypatch.undo()
        assert outcome == (BallSizeError, f"weight search holds more than {cap} states", cap), p
        assert cap < held <= cap + widest, p
        assert om.min_weight_oracle(ds, p) == answer if isinstance(answer, int) else answer[0] is LatnafError


# states the search holds, the start included, at points where taking
# cost-1 edges at cost == reach, or expanding pops at base == reach,
# would hold more; both give the same weights
HELD = [
    ("t2w2", (27,), 3, 4),
    ("t3w2", (-9,), 1, 1),
    ("q541w3", (5, 5), 2, 2),
    ("m31w2", (-20, 20), 2, 2),
    ("c3101w4", (-2, 6, -7), 3, 167),
    ("c3101w4", (3, -5, 0), 2, 30),
    ("custom541", (-9, 23), 4, 36),
]


@pytest.mark.parametrize("name, p, weight, held", HELD)
def test_the_state_cap_is_the_most_states_held(name, p, weight, held):
    """The kernel answers under a state cap equal to the states its search
    holds and raises BallSizeError one below, as the message says: the cap
    bounds the states held. The counts are pinned, so a search that holds
    more states for the same weight (a looser prune or a later stop) fails
    here and not only in the benchmark."""
    ds = oracle_system(name)
    assert _oracle_outcome(_reference_oracle, ds, p) == weight
    assert _most_states(lambda: ds.oracle(p, held)) == (weight, held)
    with pytest.raises(BallSizeError, match=f"^weight search holds more than {held - 1} states$"):
        ds.oracle(p, held - 1)


@pytest.mark.parametrize("poly, w", [
    ([-6, -4, 1], 4),  # x^2 - 4x - 6
    ([3] + [0] * 10 + [1], 2),  # x^11 + 3
    ([2, 1, 0, 0, 0, 0, 1], 3),
], ids=["x2-4x-6w4", "x11+3w2", "deg6w3"])
def test_an_oversized_ball_is_refused_before_enumeration(monkeypatch, poly, w):
    """A box inside the search ball already holds more than the cap, so
    search raises the enumeration's BallSizeError without enumerating."""
    ds = dsm.build_minimal_norm(nfm.build(poly), w)

    def refuse(*args):
        raise AssertionError("the ball was enumerated")

    monkeypatch.setattr(qf, "enumerate_with_offset", refuse)
    with pytest.raises(BallSizeError) as caught:
        ncm.search(ds)
    assert str(caught.value) == f"search ball holds more than {ncm.DEFAULT_BALL_CAP} points"
    assert caught.value.cap == ncm.DEFAULT_BALL_CAP
