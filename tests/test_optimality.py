import random
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
    ConsistencyError,
    InstanceError,
    LatnafError,
    MalformedDigitSetError,
    NormCapError,
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
    # digits pushed far from the origin force the search outward, and a
    # tiny cap must turn that into a hard error instead of a wrong answer
    ds = dsm.from_digits(nfm.build([-3, 1]), 1, [(0,), (7,), (8,)])
    with pytest.raises(NormCapError):
        om.min_weight_oracle(ds, (1,), norm_cap=1)


@pytest.mark.parametrize("cap", [
    -30, -1, Fraction(-1, 2), -0.5, float("inf"), float("-inf"), float("nan"), Decimal("NaN"),
    Decimal("Infinity"),
])
def test_oracle_refuses_a_negative_or_non_finite_cap(cap):
    # a negative cap would act as its absolute value once squared, and
    # inf has no integer ratio; the zero start is checked too
    ds = ds_int(3, 2)
    for p in [(7,), (0,)]:
        with pytest.raises(ValueError, match="norm cap"):
            om.min_weight_oracle(ds, p, norm_cap=cap)


def test_oracle_accepts_a_zero_or_float_cap():
    ds = ds_int(3, 2)
    assert om.min_weight_oracle(ds, (7,), norm_cap=0) == om.min_weight_oracle(ds, (7,))
    assert om.min_weight_oracle(ds, (7,), norm_cap=2.5) == om.min_weight_oracle(ds, (7,))


def test_oracle_unreachable_point_raises():
    # {0, 1, 3} at base 2 never reaches 0 from -1, and the reachable set
    # is finite, so the search must report failure rather than loop
    bad = dsm.from_digits(nfm.build([-2, 1]), 2, [(0,), (1,), (3,)])
    with pytest.raises(LatnafError):
        om.min_weight_oracle(bad, (-1,))


def test_default_norm_cap_generous():
    ds = ds_int(3, 2)
    cap = om.default_norm_cap(ds)
    assert cap >= 2 * ncm.invariant_ball_bound(ds)


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
    report = om.verify_empirically(ds_int(3, 2), -1)
    assert report.ok and report.points_checked == 0


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
    """A cap of 3 steps at 27 alone: its word 0001 is four long, and all
    but its first step is already known when the sweep reaches it. The
    sweep's own walk reads default_step_limit; expand sizes its default
    cap inside DigitSet.walk, so both expands are handed the cap."""
    default = em.default_step_limit
    expand = em.expand

    def limit(ds, p):
        return 3 if p == (27,) else default(ds, p)

    def capped(ds, p, max_steps=None):
        return expand(ds, p, limit(ds, p) if max_steps is None else max_steps)

    monkeypatch.setattr(om, "default_step_limit", limit)
    monkeypatch.setattr(em, "expand", capped)
    monkeypatch.setattr(om, "expand", capped)
    ds = ds_int(3, 2)
    want = _outcome(_reference_sweep, ds, 40)
    assert want == (LatnafError, "expansion exceeded 3 steps")
    assert _outcome(om.verify_empirically, ds, 40) == want


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
        norm_cap = om.default_norm_cap(ds)
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
                raise NormCapError(f"state {nxt} escapes the norm cap {norm_cap}", nxt)
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


def _oracle_outcome(oracle, ds, p, norm_cap=None):
    """The weight, or the exception's type, message, args and state."""
    try:
        return oracle(ds, p, norm_cap)
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
    """Explicit caps from 1 up: the same weight, or a NormCapError on the
    same state with the same message. Against the search run to zero, the
    outcome is the same, or the exact weight where that search escapes."""
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
            assert _oracle_outcome(om.min_weight_oracle, ds, p, cap) == want, (p, cap)
            kinds.add(want[0] if isinstance(want, tuple) else int)
            full = _oracle_outcome(_full_reference_oracle, ds, p, cap)
            if want != full:
                assert full[0] is NormCapError, (p, cap)
                assert want == _full_reference_oracle(ds, p, 10**6), (p, cap)
    # on t2w2, t3w2 and {0, 1, 3} the states of these points stay within
    # the start's norm, which the cap never goes below; on m31w2, q541w3
    # and c3101w4 the w-NAF's weight settles every escape of the search
    # run to zero before the escaping state is relaxed
    assert int in kinds
    assert (NormCapError in kinds) == (name in ("custom541", "far78"))


@pytest.mark.parametrize("name", sorted(ORACLE_SYSTEMS))
def test_stopped_oracle_against_the_search_run_to_zero(name):
    """The stopped kernel against the full search under every cap: the
    same weight wherever the full search returns one; a NormCapError only
    where the full search raises the same one on the same state; and
    where only the full search escapes, the weight under the default cap
    (twice the invariant ball, which minimum paths never leave)."""
    ds = oracle_system(name)
    n = ds.inst.n
    rng = random.Random(f"oracle-settled/{name}")
    bound = min(ORACLE_SYSTEMS[name][1], 40)
    pts = [(1,) * n, (-2,) + (1,) * (n - 1)]
    pts += [tuple(rng.randint(-bound, bound) for _ in range(n)) for _ in range(12)]
    early = []
    for cap in (None, 1, 2, Fraction(7, 2), 6, 12, 30):
        for p in pts:
            got = _oracle_outcome(om.min_weight_oracle, ds, p, cap)
            full = _oracle_outcome(_full_reference_oracle, ds, p, cap)
            if got == full:
                continue
            assert isinstance(got, int) and full[0] is NormCapError, (p, cap)
            assert got == _full_reference_oracle(ds, p), (p, cap)
            early.append((p, cap))
    # on t2w2, t3w2 and {0, 1, 3} no state passes the start's norm, and
    # on {7, 8} every escape comes before the weight is settled
    assert bool(early) == (name in ("c3101w4", "custom541", "m31w2", "q541w3"))


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


def test_an_oracle_call_is_one_kernel_call(monkeypatch):
    """min_weight_oracle brackets the start point's norm and hands the
    search to the generated kernel: no divisions call and no further
    norm bracket, whatever the number of states. The kernel is compiled
    on a set's first oracle call, and expansion, orbit search and the
    sweep never compile it."""
    divisions, brackets, compiled = [], [], []

    def counting(calls, fn):
        return lambda *args: calls.append(args[-1]) or fn(*args)

    monkeypatch.setattr(dsm.DigitSet, "divisions", counting(divisions, dsm.DigitSet.divisions))
    monkeypatch.setattr(
        dsm.Geometry, "norm_sq_interval", counting(brackets, dsm.Geometry.norm_sq_interval)
    )
    monkeypatch.setattr(dsm, "_oracle_kernel", counting(compiled, dsm._oracle_kernel))
    for name in ("t2w2", "t3w2", "q541w3", "m31w2", "c3101w4"):
        ds = ORACLE_SYSTEMS[name][0]()
        n = ds.inst.n
        em.expand(ds, (7,) * n)
        ncm.invariant_ball_bound(ds)  # brackets every digit, once per set
        assert compiled == []
        for p in [(5,) * n, (-9,) + (4,) * (n - 1), (11,) * n]:
            divisions.clear()
            brackets.clear()
            assert om.min_weight_oracle(ds, p) == _full_reference_oracle(ds, p)
            assert brackets[0] == p and len(brackets) > 1 and divisions  # the reference
            divisions.clear()
            brackets.clear()
            om.min_weight_oracle(ds, p)
            assert divisions == [] and brackets == [p]
        assert len(compiled) == 1
        compiled.clear()
    ds = ds_int(3, 2)
    ncm.decide(ds)
    om.verify_empirically(ds, 30)
    assert compiled == []


def test_an_oracle_call_compiles_no_division_kernel(monkeypatch):
    """The kernel takes the w-NAF's weight with its own copy of walk's
    block step: on a fresh set, an oracle call compiles no division
    kernel and makes no divisions or walk call."""
    compiled, divisions = [], []
    real_kernel, real_divisions = dsm._division_kernel, dsm.DigitSet.divisions
    monkeypatch.setattr(dsm, "_division_kernel", lambda *a: compiled.append(a) or real_kernel(*a))
    monkeypatch.setattr(
        dsm.DigitSet, "divisions", lambda self, p: divisions.append(p) or real_divisions(self, p)
    )
    for name in sorted(ORACLE_SYSTEMS):
        ds = ORACLE_SYSTEMS[name][0]()
        n = ds.inst.n
        for p in [(5,) * n, (-9,) + (4,) * (n - 1), (1,) * n]:
            _oracle_outcome(om.min_weight_oracle, ds, p)
        assert "_kernel" not in vars(ds) and "walk" not in vars(ds), name
        assert compiled == [] and divisions == [], name


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
        want = _oracle_outcome(_full_reference_oracle, ds, p)
        assert _oracle_outcome(om.min_weight_oracle, ds, p) == want, p
        for cap in (1, 3):
            want = _oracle_outcome(_reference_oracle, ds, p, cap)
            assert _oracle_outcome(om.min_weight_oracle, ds, p, cap) == want, (p, cap)
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
        assert om.default_norm_cap(ds) == 2 * bound
        om.min_weight_oracle(ds, (3,) * ds.inst.n)
        om.verify_empirically(ds, 3)
    assert calls == sets
