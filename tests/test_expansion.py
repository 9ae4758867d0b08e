import random
from fractions import Fraction

import pytest

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import intmat, lattice
from latnaf import numberfield as nfm
from latnaf.errors import LatnafError

from test_kernel import SYSTEMS as KERNEL_SYSTEMS
from test_kernel import system as kernel_system


def ds_int(tau, w, family="minimal-norm"):
    source = nfm.build([-tau, 1])
    if family == "minimal-norm":
        return dsm.build_minimal_norm(source, w)
    return dsm.build_rational_interval(source, w)


def test_digit_and_step_examples():
    ds = ds_int(2, 2)
    assert em.digit_of(ds, (7,)) == (-1,)
    assert em.step(ds, (7,)) == (4,)
    assert em.digit_of(ds, (4,)) == (0,)
    assert em.step(ds, (4,)) == (2,)
    assert em.digit_of(ds, (0,)) == (0,)


def test_expand_seven_base_two():
    ds = ds_int(2, 2)
    e = em.expand(ds, (7,))
    assert isinstance(e, em.Expansion)
    assert e.word == ((-1,), (0,), (0,), (1,))
    assert e.weight == 2
    assert em.value(ds.inst, e.word) == (7,)
    # wider window, same expansion for this point
    e3 = em.expand(ds_int(2, 3), (7,))
    assert e3.word == ((-1,), (0,), (0,), (1,))


def test_expand_zero_is_empty():
    ds = ds_int(2, 2)
    e = em.expand(ds, (0,))
    assert e.word == ()
    assert e.weight == 0
    assert em.value(ds.inst, ()) == (0,)


def test_value_horner():
    ds = ds_int(2, 2)
    assert em.value(ds.inst, ((-1,), (0,), (0,), (1,))) == (7,)
    assert em.value(ds.inst, ((1,),)) == (1,)
    assert em.value(ds.inst, ((0,), (1,))) == (2,)


def test_window_predicates():
    assert em.is_window_form(2, ((1,), (0,), (1,)))
    assert not em.is_window_form(2, ((1,), (1,)))
    assert not em.is_window_form(3, ((1,), (0,), (1,)))
    assert em.is_window_form(3, ((1,), (0,), (0,), (1,)))
    assert em.is_window_form(5, ())


def test_expansions_satisfy_window_and_roundtrip():
    rng = random.Random(99)
    for tau, w in ((2, 2), (2, 3), (3, 1), (3, 2), (5, 2)):
        ds = ds_int(tau, w)
        for _ in range(150):
            p = (rng.randint(-4000, 4000),)
            e = em.expand(ds, p)
            assert isinstance(e, em.Expansion), (tau, w, p)
            assert em.is_wnaf(e)
            assert em.value(ds.inst, e.word) == p
            if e.word:
                assert e.word[-1] != (0,)  # no leading zero digit


def test_expansion_quadratic_field():
    source = nfm.build([2, -1, 1])
    ds = dsm.build_minimal_norm(source, 3)
    rng = random.Random(7)
    for _ in range(100):
        p = (rng.randint(-50, 50), rng.randint(-50, 50))
        e = em.expand(ds, p)
        assert isinstance(e, em.Expansion)
        assert em.is_wnaf(e)
        assert em.value(ds.inst, e.word) == p


def test_nonadjacency_is_structural():
    """After a nonzero digit the next w-1 digits are forced to zero by
    the congruence, not by luck."""
    ds = ds_int(3, 2)
    rng = random.Random(3)
    for _ in range(200):
        p = (rng.randint(-2000, 2000),)
        if p == (0,):
            continue
        cur = p
        word = []
        for _ in range(40):
            if cur == (0,):
                break
            d = em.digit_of(ds, cur)
            word.append(d)
            cur = em.step(ds, cur)
            if d != (0,):
                nxt = em.digit_of(ds, cur)
                assert nxt == (0,) or cur == (0,)


def test_cycle_detection_reports_minimal_rotation():
    source = nfm.build([-2, 1])
    bad = dsm.from_digits(source, 2, [(0,), (1,), (3,)])
    rep = em.expand(bad, (-1,))
    assert isinstance(rep, em.CycleReport)
    assert rep.cycle == ((-2,), (-1,))
    rep2 = em.expand(bad, (-2,))
    assert rep2.cycle == ((-2,), (-1,))
    # points that do terminate still get words
    ok = em.expand(bad, (1,))
    assert isinstance(ok, em.Expansion)


def test_max_steps_guard():
    ds = ds_int(2, 2)
    with pytest.raises(ValueError):
        em.expand(ds, (7,), max_steps=0)
    with pytest.raises(LatnafError):
        em.expand(ds, (10**6,), max_steps=2)


def test_default_step_limit_monotone():
    ds = ds_int(2, 2)
    small = em.default_step_limit(ds, (7,))
    large = em.default_step_limit(ds, (7 * 2**40,))
    assert small > 4
    assert large > small
    # the cap allows steps_per_bit = max(w, s) steps per bit, never fewer than w
    for name in KERNEL_SYSTEMS + ["cycle211w3"]:
        ds = kernel_system(name)
        for p in [ds.inst.zero(), (7,) * ds.inst.n, (-(10**60),) + (3,) * (ds.inst.n - 1)]:
            size = sum(abs(v).bit_length() for v in p)
            assert em.default_step_limit(ds, p) >= 64 + ds.w * (8 + size)


def test_long_word_below_w0_fits_the_default_cap():
    """x^2 + x - 3 at w = 2 is below its w0 = 3, where w division steps
    need not halve a point: (2^1000, 0) has a 2,621-digit word, past the
    2,082 steps of a cap of w steps per bit."""
    ds = dsm.build_minimal_norm(nfm.build([-3, 1, 1]), 2)
    assert ds.steps_per_bit == 4
    p = (2**1000, 0)
    e = em.expand(ds, p)
    assert isinstance(e, em.Expansion)
    assert len(e.word) == 2621
    assert em.value(ds.inst, e.word) == p
    assert em.is_wnaf(e)


def _reference_steps_per_bit(ds):
    """Reference: the least s with 4 |adj(phi)^s|_F^2 <= det^(2s) by a
    linear scan forming every sum of squares and every power of det."""
    if not lattice.is_expanding(ds.inst):
        return ds.w
    adj, det = ds.inst.adjugate, ds.inst.det
    power, s = adj, 1
    while 4 * sum(v * v for row in power for v in row) > det ** (2 * s):
        power, s = intmat.mat_mul(power, adj), s + 1
    return max(ds.w, s)


@pytest.mark.parametrize("rows, want", [
    ([[2, 10], [0, -2]], 2),
    ([[2, 10**40], [0, -2]], 2),
    ([[2, 10**300], [0, 3]], 998),
    ([[1, -1], [1, 1]], 3),
    ([[3, 1], [-1, 3]], 1),
    ([[2, 7, 1], [0, 3, 5], [0, 0, -2]], 5),
])
def test_steps_per_bit_matches_the_reference_scan(rows, want):
    """[[2, b], [0, -2]] is not normal: phi^-s is 2^-s I for even s and
    has a corner b 2^-(s+1) for odd s, so |phi^-s|_F falls and rises
    again and the condition holds at s = 2 but fails at s = 3."""
    ds = dsm.build_minimal_norm(lattice.LatticeInstance.from_matrix(rows), 1)
    assert ds.steps_per_bit == _reference_steps_per_bit(ds) == want
    if rows[1][1] == -2:
        adj, det = ds.inst.adjugate, ds.inst.det
        holds = []
        power = adj
        for s in range(1, 4):
            holds.append(4 * sum(v * v for row in power for v in row) <= det ** (2 * s))
            power = intmat.mat_mul(power, adj)
        assert holds == [False, True, False]


def test_hand_built_set_on_a_non_expanding_base_reports_its_cycle():
    """diag(1, 2) halves no point, so no halving count s exists: the
    cap stays at w steps per bit and expand finds the fixed point (5, 0)."""
    geo = dsm.geometry(lattice.LatticeInstance.from_matrix([[1, 0], [0, 2]]))
    ds = dsm.DigitSet(geo, 1, ((0, 0), (0, 1)), dsm.FAMILY_CUSTOM)
    assert ds.steps_per_bit == 1
    assert em.expand(ds, (5, 1)) == em.CycleReport((5, 1), ((5, 0),))


def test_word_weight():
    assert em.word_weight(()) == 0
    assert em.word_weight(((0,), (1,), (-1,))) == 2


@pytest.mark.parametrize(
    "coeffs, w", [([-2, 1], 2), ([-2, 1], 4), ([-3, 1], 3), ([5, -4, 1], 3), ([2, -1, 1], 3)]
)
def test_nonzero_digit_density(coeffs, w):
    """Nonzero digits make up 1 / (w + 1 / (|det| - 1)) of a long width-w
    expansion: 1 / (w + 1) for base 2 (Muir-Stinson), the same closed form
    for imaginary quadratic bases (Heuberger-Krenn)."""
    ds = dsm.build_minimal_norm(nfm.build(coeffs), w)
    rng = random.Random(f"density/{coeffs}/{w}")
    nonzero = steps = 0
    for _ in range(40):
        p = tuple(rng.randint(-(10**200), 10**200) for _ in range(ds.inst.n))
        e = em.expand(ds, p)
        nonzero += e.weight
        steps += len(e.word)
    want = 1 / (w + Fraction(1, abs(ds.inst.det) - 1))
    assert abs(Fraction(nonzero, steps) - want) <= Fraction(1, 100)


def test_expand_refuses_a_non_integer_point():
    # int() would expand 0 instead
    ds = dsm.build_minimal_norm(nfm.build([-2, 1]), 2)
    with pytest.raises(ValueError, match="not an integer: 0.5"):
        em.expand(ds, (0.5,))


@pytest.mark.parametrize("name", KERNEL_SYSTEMS)
def test_the_walked_expansion_is_the_constructed_one(name):
    """expand builds a walked Expansion without calling its __init__: the
    object is equal, hash-equal and repr-equal to Expansion(point, word,
    w), carries the same fields, and refuses assignment and deletion."""
    ds = kernel_system(name)
    for p in [(0,) * ds.inst.n, (7,) * ds.inst.n, (-10**30,) * ds.inst.n]:
        found = ds.walk(p, None)
        e = em.expand(ds, p)
        made = em.Expansion(*found, ds.w)
        assert type(e) is em.Expansion and vars(e) == vars(made)
        assert e == made and hash(e) == hash(made) and repr(e) == repr(made)
        for field in ("point", "word", "w", "weight"):
            with pytest.raises(AttributeError):
                setattr(e, field, None)
            with pytest.raises(AttributeError):
                delattr(e, field)
