"""Property tests of the division kernel ``DigitSet.divide`` /
``DigitSet.divisions`` against the reference path of ``lattice``
(``solve_divisibility`` and ``residue_key``), of the window walk
``DigitSet.walk`` against the step loop on ``divide`` (every digit a
point's class modulo phi^K fixes per pass), of the expansions and
weights built on it, and of the integer norm brackets against
``quadform_reference.eval_quadratic`` on the midpoint Gram matrix. The
systems cover the kernel written out for n = 1, 2, 3 and 4, with cyclic
and non-cyclic Z^n / phi^w Z^n."""

import inspect
import itertools
import random
import re
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import intmat, lattice
from latnaf import numberfield as nfm
from latnaf import optimality as om
from latnaf import quadform as qf
from latnaf.errors import LatnafError, MalformedDigitSetError

import quadform_reference as ref

SETTINGS = settings(derandomize=True, deadline=None)

# a minimal-norm digit moved within its class modulo phi^w: d -> d + 2 * (-75, 45)
CUSTOM = ((5, -4, 1), 2, (-6, 3), (-156, 93))

# Z^n / phi^w Z^n: m31w2 is Z/2 x Z/50, m3w3 (Z[i] times 2Z) is Z/2 x Z/4 x
# Z/8 and m4w3 (two copies of Z[i] with base 1+i) is (Z/2 x Z/4)^2; the
# others are cyclic
MATRICES = {
    "m31w2": ([[3, 1], [-1, 3]], 2),
    "m23w2": ([[2, 0], [0, 3]], 2),
    "m3w3": ([[1, -1, 0], [1, 1, 0], [0, 0, 2]], 3),
    "m4w3": ([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]], 3),
    "m4w1": ([[1, -1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, 1, 1]], 1),
}

SYSTEMS = [
    "t2w2", "t3w3", "q541w3", "m31w2", "c3101w4", "custom541", "interval3w2", "m3w3", "m4w3",
]


def _custom_digits():
    coeffs, w, old, new = CUSTOM
    base = dsm.build_minimal_norm(nfm.build(list(coeffs)), w)
    return [new if d == old else d for d in base.digits]


# the custom sets of the CLI benchmark corpus: (minimal polynomial, w,
# the minimal-norm digit d moved to d + c * shift, shift, c)
CLI_CUSTOM = {
    "custom541c2": ((5, -4, 1), 2, (-6, 3), (-75, 45), 2),
    "custom541c3": ((5, -4, 1), 2, (-6, 3), (-75, 45), 3),
    "custom211c2": ((2, -1, 1), 3, (-1, 1), (0, 12), 2),
    "custom211c3": ((2, -1, 1), 3, (-1, 1), (0, 12), 3),
}


@lru_cache(maxsize=None)
def system(name):
    if name in CLI_CUSTOM:
        coeffs, w, old, shift, c = CLI_CUSTOM[name]
        source = nfm.build(list(coeffs))
        new = tuple(a + c * b for a, b in zip(old, shift))
        digits = dsm.build_minimal_norm(source, w).digits
        return dsm.from_digits(source, w, [new if d == old else d for d in digits])
    if name in MATRICES:
        rows, w = MATRICES[name]
        return dsm.build_minimal_norm(lattice.LatticeInstance.from_matrix(rows), w)
    if name == "custom541":
        return dsm.from_digits(nfm.build(list(CUSTOM[0])), CUSTOM[1], _custom_digits())
    if name == "interval3w2":
        return dsm.build_rational_interval(nfm.build([-3, 1]), 2)
    if name == "cycle211w3":
        # [2,-1,1] w3 with the digit (-1, 1) moved to (-1, 1) + 3 * (0, 12):
        # the orbit of (5, 8) closes the cycle (-26, -3), (-16, 13), (5, 8)
        source = nfm.build([2, -1, 1])
        digits = dsm.build_minimal_norm(source, 3).digits
        return dsm.from_digits(source, 3, [(-1, 37) if d == (-1, 1) else d for d in digits])
    coeffs, w = {
        "t2w2": ([-2, 1], 2),
        "t3w3": ([-3, 1], 3),
        "q541w3": ([5, -4, 1], 3),
        "c3101w4": ([3, 1, 0, 1], 4),
        "t3w1": ([-3, 1], 1),
        "q541w1": ([5, -4, 1], 1),
        "c3101w1": ([3, 1, 0, 1], 1),
        "t17w2": ([-17, 1], 2),
    }[name]
    return dsm.build_minimal_norm(nfm.build(coeffs), w)


def points(bound, names=SYSTEMS):
    """Strategy: (system name, point with coordinates of absolute value
    at most bound)."""
    return st.sampled_from(names).flatmap(
        lambda name: st.tuples(
            st.just(name),
            st.lists(
                st.integers(-bound, bound),
                min_size=system(name).inst.n,
                max_size=system(name).inst.n,
            ).map(tuple),
        )
    )


COORDS = st.one_of(points(10**6), points(10**60))


@lru_cache(maxsize=None)
def _reference_keys(ds):
    return [(lattice.residue_key(ds.inst, ds.w, e), e) for e in ds.nonzero_digits]


def _reference_divide(ds, p):
    inst = ds.inst
    if lattice.solve_divisibility(inst, p, 1) is not None:
        d = inst.zero()
    else:
        key = lattice.residue_key(inst, ds.w, p)
        (d,) = [e for k, e in _reference_keys(ds) if k == key]
    return d, lattice.solve_divisibility(inst, tuple(a - b for a, b in zip(p, d)), 1)


def _reference_divisions(ds, p):
    want = []
    for d in ds.digits:
        q = lattice.solve_divisibility(ds.inst, tuple(a - b for a, b in zip(p, d)), 1)
        if q is not None:
            want.append((d, q))
    return want


def _reference_expand(ds, p, max_steps, divide=_reference_divide):
    """expand one division step at a time, through _reference_divide
    unless another divide(ds, p) is given: the word, the nonzero cycle the
    orbit closes (rotated to its smallest point), or the step-cap error."""
    if max_steps is None:
        max_steps = em.default_step_limit(ds, p)
    zero = ds.inst.zero()
    path, digits, cur = [], [], p
    while cur != zero:
        if cur in path:
            cyc = path[path.index(cur):]
            k = cyc.index(min(cyc))
            return em.CycleReport(p, tuple(cyc[k:] + cyc[:k]))
        if len(path) >= max_steps:
            return LatnafError, f"expansion exceeded {max_steps} steps"
        path.append(cur)
        d, cur = divide(ds, cur)
        digits.append(d)
    return em.Expansion(p, tuple(digits), ds.w)


@SETTINGS
@given(COORDS)
def test_divide_matches_reference(case):
    name, p = case
    ds = system(name)
    assert ds.divide(p) == _reference_divide(ds, p)
    assert (em.digit_of(ds, p), em.step(ds, p)) == ds.divide(p)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except LatnafError as exc:
        return type(exc), str(exc)


def _step_word(ds, p, cap):
    """The word of the step loop on ``DigitSet.divide`` within cap
    digits as a tuple, or None where that loop finds a cycle or the cap."""
    out = _reference_expand(ds, p, cap, dsm.DigitSet.divide)
    return out.word if isinstance(out, em.Expansion) else None


def _check_walk(ds, p, cap):
    """walk(p, cap) is (p, the step loop's word), None without a word,
    and a cap of None is default_step_limit; when there is a word, the
    block structure holds (w - 1 zeros after each nonzero digit but the
    last) and the word needs a cap of exactly its length."""
    want = _step_word(ds, p, cap)
    assert ds.walk(p, cap) == (want if want is None else (p, want))
    if cap == em.default_step_limit(ds, p):
        assert ds.walk(p, None) == ds.walk(p, cap)
    if want:
        zero = ds.inst.zero()
        for i, d in enumerate(want[:-1]):
            if d != zero:
                assert want[i + 1:i + ds.w] == (zero,) * (ds.w - 1)
        assert ds.walk(p, len(want)) == (p, want)
        assert ds.walk(p, len(want) - 1) is None


def _window(ds):
    """The window table ``DigitSet.walk`` reads, built on first access."""
    return inspect.getclosurevars(ds.walk).nonlocals["window"]


def _depth(ds):
    """K: the window table covers the classes modulo phi^K."""
    k, size = ds.w, abs(ds.inst.det) ** ds.w
    while size < len(_window(ds)):
        k, size = k + 1, size * abs(ds.inst.det)
    return k


def _window_index(ds, p):
    """The index of p's class modulo phi^K in the window table: the
    mixed-radix number of its residue key."""
    _, diag, _ = lattice.residue_structure(ds.inst, _depth(ds))
    index = 0
    for key, m in zip(lattice.residue_key(ds.inst, _depth(ds), p), diag):
        index = index * m + key
    return index


WALKED = SYSTEMS + ["m23w2", "cycle211w3"]
WIDTH_ONE = ["t3w1", "q541w1", "c3101w1", "m4w1"]
WINDOWED = WALKED + WIDTH_ONE + list(CLI_CUSTOM)


@SETTINGS
@given(
    st.one_of(points(10**6, WINDOWED), points(10**60, WINDOWED)),
    st.one_of(st.none(), st.integers(1, 40)),
)
@example(("q541w3", (-16, 6)), None)
@example(("m4w3", (-2, 0, -1, 0)), None)
@example(("cycle211w3", (5, 8)), None)  # on the cycle
@example(("cycle211w3", (5, -29)), None)  # enters the cycle mid-block
@example(("cycle211w3", (5, -29)), 40)
@example(("t3w3", (1000,)), 7)  # the word 1 0 0 10 0 0 1: the cap at its length
@example(("t3w3", (1000,)), 5)  # the cap inside the zero run after 10
@example(("t3w3", (0,)), 1)  # the empty word
@example(("t3w1", (0,)), None)
@example(("t2w2", (1000,)), 3)  # the cap inside the first entry's digits
@example(("t2w2", (1000,)), 10)  # the word 0 0 0 1 0 -1 0 0 0 0 1 is one digit longer
@example(("t2w2", (1000,)), 11)  # and ends inside its second entry
@example(("t3w3", (5,)), None)  # the word 5 ends inside its entry 5 0 0
@example(("custom541c3", (10**60, -10**60)), None)
def test_walk_matches_the_step_loop(case, cap):
    """One walk call gives the word of the division steps on divide,
    whatever the cap: on the systems above, at width one and on the
    custom sets of the CLI corpus. Every pass strips the digits the
    point's class modulo phi^K fixes, after a nonzero digit the w - 1
    zeros between, and no word (a cycle, the cap) is None."""
    name, p = case
    ds = system(name)
    _check_walk(ds, p, em.default_step_limit(ds, p) if cap is None else cap)


@SETTINGS
@given(
    st.one_of(points(10**6, WIDTH_ONE), points(10**60, WIDTH_ONE)),
    st.one_of(st.none(), st.integers(1, 40)),
)
def test_walk_is_the_step_loop_at_width_one(case, cap):
    """At w = 1 no digit forces a zero, so every window entry holds
    exactly the K digits its class modulo phi^K fixes, and walk gives the
    divide loop's word digit for digit for every n."""
    name, p = case
    ds = system(name)
    window = _window(ds)
    assert {len(entry[0]) for entry in window} == {_depth(ds)}
    _check_walk(ds, p, em.default_step_limit(ds, p) if cap is None else cap)


def test_the_examples_reach_inside_an_entry():
    """The examples of test_walk_matches_the_step_loop test what they
    say: t2w2's entries hold 7 or 8 digits (K = 8), so a cap of 3 falls
    inside the first entry of 1000, and its word of 11 digits ends inside
    the second entry; t3w3's entries hold 3 to 5 digits (K = 5), and the
    word of 5, one digit, ends inside its entry, whose last two digits
    walk cuts."""
    t2w2, t3w3 = system("t2w2"), system("t3w3")
    assert (_depth(t2w2), _depth(t3w3)) == (8, 5)
    zero = (0,)
    word = t2w2.walk((1000,), None)[1]
    first = _window(t2w2)[_window_index(t2w2, (1000,))][0]
    assert 3 < len(first) < len(word) < 2 * len(first)
    assert word[:len(first)] == first and word[-1] != zero
    assert t2w2.walk((1000,), 10) is None and t2w2.walk((1000,), 3) is None
    entry = _window(t3w3)[_window_index(t3w3, (5,))]
    assert t3w3.walk((5,), None) == ((5,), ((5,),))
    assert entry[:2] == (((5,), zero, zero), 2)


def test_only_a_walk_builds_the_window_table(monkeypatch):
    """Building a set, divide, divisions and the oracle write no window
    walk and build no window table. A set's first walk builds both, once:
    the table covers the classes modulo phi^K for the largest K >= w with
    |det|^K <= WINDOW_CLASSES, or K = w when |det|^w exceeds it (t17w2's
    289 classes), so it has at most max(WINDOW_CLASSES, |det|^w) entries."""
    built, real = [], dsm._window_lines
    monkeypatch.setattr(dsm, "_window_lines", lambda *args: built.append(args) or real(*args))
    fresh = {name: (lambda name=name: _fresh(name)) for name in SHAPES}
    fresh["c3101w4"] = lambda: dsm.build_minimal_norm(nfm.build([3, 1, 0, 1]), 4)
    fresh["t17w2"] = lambda: dsm.build_minimal_norm(nfm.build([-17, 1]), 2)
    for name, make in fresh.items():
        ds = make()
        n, d, w = ds.inst.n, abs(ds.inst.det), ds.w
        for p in [(5,) * n, (-9,) + (4,) * (n - 1)]:
            ds.divide(p)
            ds.divisions(p)
            om.min_weight_oracle(ds, p)
        assert built == [] and "walk" not in vars(ds), name
        for p in [(5,) * n, (0,) * n, (10**40,) * n]:
            assert em.value(ds.inst, em.expand(ds, p).word) == p
            want = _step_word(ds, p, 3)
            assert ds.walk(p, 3) == (want if want is None else (p, want))
        assert len(built) == 1, name
        built.clear()
        k, size = _depth(ds), len(_window(ds))
        assert k >= w and size == d**k <= max(dsm.WINDOW_CLASSES, d**w), name
        assert k == w or d ** (k + 1) > dsm.WINDOW_CLASSES >= d**k, name


def _long_points(n, count, seed):
    """Seeded points with coordinates of 300 digits, either sign."""
    rng = random.Random(seed)
    return [tuple(rng.choice((-1, 1)) * rng.randrange(10**299, 10**300) for _ in range(n)) for _ in range(count)]


@pytest.mark.parametrize("name", ["t17w2", *WALKED])
def test_the_smith_walk_is_the_step_loop(name):
    """walk keeps its point in the Smith coordinates of phi^K and gives
    the step loop's word, and None at a cap one digit short of it, where
    the index has two remainders (m31w2: phi^2 has the moduli 2 and 50),
    where K = w because |det|^w exceeds WINDOW_CLASSES (x - 17 at w = 2,
    289 classes), and on points with 300-digit coordinates.
    test_kernel_constants_past_the_int_string_limit checks the same on
    [[2, 10^5000], [0, 3]], whose G_s = U A_s U^-1 hold entries past the
    int string limit."""
    ds = system(name)
    n, k = ds.inst.n, _depth(ds)
    _, diag, _ = lattice.residue_structure(ds.inst, k)
    if name == "m31w2":
        assert diag == (2, 50)
    if name == "t17w2":
        assert k == ds.w and len(_window(ds)) == 17**2 > dsm.WINDOW_CLASSES
    for p in [(7,) * n, tuple(10**6 - 3 * i for i in range(n)), *_long_points(n, 4, name)]:
        want = _step_word(ds, p, 10**5)
        assert want is not None
        assert ds.walk(p, None) == ds.walk(p, len(want)) == (p, want)
        assert ds.walk(p, len(want) - 1) is None


def _reference_walk(ds, window, p, cap):
    """walk(p, cap) read off a window table through the digits of its
    entries alone, in lattice coordinates: the entry of x's class modulo
    phi^K (``_window_index``), its digits' value v, and x - v divided by
    phi^s with ``lattice.solve_divisibility``, a fault raised as
    ``digitset`` words it at x. This is the walk's meaning whatever
    coordinates the kernel keeps its point in."""
    inst, zero = ds.inst, ds.inst.zero()
    word, cut, x = [], 0, p
    while x != zero:
        if len(word) >= cap:
            return None
        entry = window[_window_index(ds, x)]
        if entry is None:
            return MalformedDigitSetError, f"no digit covers the residue class of {x}"
        digits, cut = entry[:2]
        v = em.value(inst, digits)
        nxt = lattice.solve_divisibility(inst, tuple(a - b for a, b in zip(x, v)), len(digits))
        if nxt is None:
            if any(digits[0]):
                return MalformedDigitSetError, f"digit {digits[0]} is not congruent to {x} modulo the base image"
            return MalformedDigitSetError, f"no digit covers the residue class of {x}"
        word += digits
        x = nxt
    if cut:
        del word[-cut:]
    return None if len(word) > cap else (p, tuple(word))


@pytest.mark.parametrize("name", ["t2w2", "t3w3", "q541w3", "m31w2", "c3101w4", "m3w3", "m23w2"])
def test_a_corrupted_window_faults_where_the_lattice_walk_does(name):
    """With window entries emptied, swapped or copied over others, walk
    gives what a walk in lattice coordinates over the same entries gives:
    the same word, or a fault at the same point of the walk, not only its
    start, with the same message, and None at the cap."""
    ds = system(name)
    ds = dsm.DigitSet(ds.geo, ds.w, ds.digits, ds.family)  # a window of its own
    window = _window(ds)
    whole = list(window)
    n, rng = ds.inst.n, random.Random(name)
    pts = [(7,) * n, (-123456,) * n, *_long_points(n, 1, name)]
    inside = 0
    for trial in range(15):
        window[:] = whole
        i, j = rng.randrange(len(whole)), rng.randrange(len(whole))
        if trial % 3 == 0:
            window[i] = None
        elif trial % 3 == 1:
            window[i], window[j] = whole[j], whole[i]
        else:
            window[i] = whole[j]
        for p in pts:
            cap = em.default_step_limit(ds, p)
            want = _reference_walk(ds, window, p, cap)
            assert _outcome(ds.walk, p, cap) == _outcome(ds.walk, p, None) == want
            if want is not None and want[0] is MalformedDigitSetError and str(p) not in want[1]:
                inside += 1
    assert inside > 0


def _matrix_sets():
    """Strategy: a minimal-norm set of width w on an expanding 2 x 2 or
    3 x 3 integer matrix with entries of absolute value at most 4 and at
    most 512 classes modulo phi^w."""

    def make(shape):
        n, w = shape
        return st.lists(st.integers(-4, 4), min_size=n * n, max_size=n * n).map(
            lambda flat: (tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n)), w)
        )

    return st.tuples(st.sampled_from([2, 3]), st.integers(1, 3)).flatmap(make)


@lru_cache(maxsize=None)
def _matrix_set(rows, w):
    det = intmat.determinant(rows)
    if det == 0 or abs(det) ** w > 512:
        return None
    inst = lattice.LatticeInstance.from_matrix(rows)
    return dsm.build_minimal_norm(inst, w) if lattice.is_expanding(inst) else None


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    _matrix_sets(),
    st.lists(st.one_of(st.integers(-10**6, 10**6), st.integers(-10**60, 10**60)), min_size=3, max_size=3),
    st.one_of(st.none(), st.integers(1, 40)),
)
def test_walk_on_random_expanding_matrices(rows_w, coords, cap):
    """On random expanding matrix bases, the Smith walk gives the step
    loop's word, whatever the Smith form of phi^K: cyclic or not, moduli
    above 1 in any position, any unimodular U. Non-expanding draws are
    skipped."""
    ds = _matrix_set(*rows_w)
    assume(ds is not None)
    p = tuple(coords[:ds.inst.n])
    _check_walk(ds, p, em.default_step_limit(ds, p) if cap is None else cap)


@SETTINGS
@given(COORDS)
def test_divisions_filter_all_digits(case):
    name, p = case
    ds = system(name)
    assert ds.divisions(p) == _reference_divisions(ds, p)


@SETTINGS
@given(COORDS)
def test_expansion_is_a_wnaf_of_its_point(case):
    name, p = case
    ds = system(name)
    e = em.expand(ds, p)
    assert isinstance(e, em.Expansion)
    assert em.value(ds.inst, e.word) == p
    assert em.is_wnaf(e)


@SETTINGS
@given(points(10**6, SYSTEMS + ["cycle211w3"] * 3), st.one_of(st.none(), st.integers(1, 40)))
@example(("cycle211w3", (5, 8)), None)
@example(("cycle211w3", (-16, 13)), 3)
@example(("cycle211w3", (-16, 13)), 2)
@example(("cycle211w3", (5, -29)), None)  # enters the cycle mid-block, at (-26, -3)
@example(("q541w3", (-16, 6)), None)  # a nonzero digit: the word ends at it
@example(("t3w3", (1000,)), 7)  # the word 1 0 0 10 0 0 1: the cap at its length
@example(("t3w3", (1000,)), 6)  # and one below
@example(("t3w3", (1000,)), 5)  # the cap inside the zero run after 10
def test_expand_matches_reference_loop(case, max_steps):
    name, p = case
    ds = system(name)
    assert _outcome(em.expand, ds, p, max_steps) == _reference_expand(ds, p, max_steps)


def test_a_terminating_point_takes_one_walk_call(monkeypatch):
    """expand calls the kernel once per point: one walk call, and no call
    to LatticeInstance.check_point, expansion.default_step_limit or
    DigitSet.divide unless the walk finds no word (a cycle here), when
    the step loop checks the point, sizes the cap and divides."""
    walks, checks, limits, divides = [], [], [], []

    real_walk = dsm.DigitSet.walk

    def counting_walk(self):
        kernel = real_walk.__get__(self, dsm.DigitSet)
        return lambda p, cap: walks.append(p) or kernel(p, cap)

    def counting(calls, fn):
        return lambda *args: calls.append(args[-1]) or fn(*args)

    monkeypatch.setattr(dsm.DigitSet, "walk", property(counting_walk))
    monkeypatch.setattr(dsm.DigitSet, "divide", counting(divides, dsm.DigitSet.divide))
    check_point = lattice.LatticeInstance.check_point
    monkeypatch.setattr(lattice.LatticeInstance, "check_point", counting(checks, check_point))
    monkeypatch.setattr(em, "default_step_limit", counting(limits, em.default_step_limit))
    for name in SYSTEMS:
        ds = system(name)
        n = ds.inst.n
        for p in [(0,) * n, (7,) * n, tuple(10**6 - 3 * i for i in range(n)), (-10**100,) * n]:
            walks.clear()
            e = em.expand(ds, p)
            assert walks == [p] and checks == limits == divides == []
            assert em.value(ds.inst, e.word) == p
            checks.clear()  # value checks every digit
    e = em.expand(system("cycle211w3"), (5, 8))
    assert isinstance(e, em.CycleReport) and walks[-1] == (5, 8)
    assert checks == limits == [(5, 8)] and len(divides) == 3


# a fresh set, so its steps_per_bit can be planted before the first division
BOUNDARY = (((1, -1), (1, 1)), 2)


def test_the_default_cap_is_default_step_limit_at_its_boundary():
    """With steps_per_bit planted at 1 before the set's first division,
    the default cap, 64 + (8 + the point's coordinate bits), is short
    enough to reach: base 1 + i needs about two digits per bit of
    (2^k, 4). The word of (2^71, 4) is as long as that cap, the one of
    (2^71 - 3, 4) one digit longer: walk without a cap gives the first
    and not the second, and expand raises the cap of default_step_limit."""
    rows, w = BOUNDARY
    ds = dsm.build_minimal_norm(lattice.LatticeInstance.from_matrix(rows), w)
    assert "_kernel" not in vars(ds) and ds.steps_per_bit == 3
    vars(ds)["steps_per_bit"] = 1
    at, past = (2**71, 4), (2**71 - 3, 4)
    assert em.default_step_limit(ds, at) == 64 + 8 + 72 + 3
    words = {p: em.expand(ds, p, 10**4).word for p in (at, past)}
    assert len(words[at]) == em.default_step_limit(ds, at)
    assert len(words[past]) == em.default_step_limit(ds, past) + 1
    assert ds.walk(at, None) == (at, words[at])
    assert ds.walk(past, None) is None
    assert em.expand(ds, at) == em.Expansion(at, words[at], w)
    limit = em.default_step_limit(ds, past)
    with pytest.raises(LatnafError, match=f"^expansion exceeded {limit} steps$"):
        em.expand(ds, past)


class _Int(int):
    """An int subclass that shows in a repr, were it kept."""

    def __repr__(self):
        return f"_Int({int(self)})"


def _checked_entry(ds, p, max_steps):
    """expand entered through check_point: the point checked, then the
    default cap sized and max_steps checked, then the reference loop."""
    start = ds.inst.check_point(p)
    if max_steps is None:
        max_steps = em.default_step_limit(ds, start)
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    return _reference_expand(ds, start, max_steps, dsm.DigitSet.divide)


def _entry_outcome(fn, *args):
    """The repr of an Expansion or CycleReport, or (error type, message)."""
    try:
        out = fn(*args)
    except (TypeError, ValueError, LatnafError) as exc:
        return type(exc), str(exc)
    return out if isinstance(out, tuple) else repr(out)


def raw_points(names):
    """Strategy: (system name, a point as a caller may pass it): a list or
    tuple of ints, bools and int subclasses, now and then a coordinate
    too many or too few, a float or a Fraction, or a bare int."""
    good = st.one_of(st.integers(-10**6, 10**6), st.booleans(), st.integers(-10**6, 10**6).map(_Int))
    bad = st.one_of(st.floats(), st.fractions())

    def forms(name):
        n = system(name).inst.n
        coords = st.lists(good, min_size=n, max_size=n) | st.lists(
            good | bad, min_size=max(n - 1, 0), max_size=n + 1
        )
        return st.tuples(st.just(name), coords | coords.map(tuple) | st.integers())

    return st.sampled_from(names).flatmap(forms)


@SETTINGS
@given(raw_points(SYSTEMS + ["cycle211w3"]), st.one_of(st.none(), st.integers(-1, 40)))
@example(("q541w3", [7, -3]), None)
@example(("q541w3", (True, False)), None)
@example(("m4w3", (_Int(5), True, -2, _Int(-9))), 3)
@example(("cycle211w3", [5, 8]), None)  # a cycle entered through a list
@example(("q541w3", (1, 2, 3)), None)  # wrong length
@example(("q541w3", [1]), 5)
@example(("t2w2", (0.5,)), None)
@example(("t2w2", (2.0,)), 10)
@example(("q541w3", (1, Fraction(1, 2))), None)
@example(("q541w3", (Fraction(4, 1), 1)), 10)
@example(("t2w2", 5), None)  # not iterable
@example(("t2w2", (7,)), 0)  # max_steps below 1
@example(("t2w2", (0,)), -1)
@example(("t2w2", (0.5,)), 0)  # the point's error comes first
@example(("q541w3", (1, 2, 3)), 0)
@example(("t2w2", 5), 0)
def test_expand_entry_matches_the_check_point_path(case, max_steps):
    """expand hands the raw point to walk and reruns the checks only when
    the walk gives no word: the Expansion, CycleReport, error type,
    message and precedence are those of checking the point first."""
    name, p = case
    ds = system(name)
    want = _entry_outcome(_checked_entry, ds, p, max_steps)
    assert _entry_outcome(em.expand, ds, p, max_steps) == want


@pytest.mark.parametrize("name, p", [
    ("q541w3", (7, -3)), ("cycle211w3", (5, 8)), ("q541w3", (1, 2, 3)), ("t2w2", (0.5,)), ("t2w2", ()),
])
def test_expand_reads_an_iterator_point_once(name, p):
    """An iterator is used up by its first reading: expand reads it once,
    so a cycle, a wrong length or a non-integer is reported on the point
    the caller passed."""
    ds = system(name)
    want = _entry_outcome(_checked_entry, ds, iter(p), None)
    assert _entry_outcome(em.expand, ds, iter(p), None) == want == _entry_outcome(em.expand, ds, p, None)


@pytest.mark.parametrize("name", SYSTEMS + ["m23w2"])
def test_divide_on_a_corrupted_table_raises(name):
    """Every digit's class emptied, and every class inside phi Z^n given
    that digit: each remainder coordinate of adj(phi) (p - digit) mod det
    is checked (m23w2 has digits whose first coordinate divides and whose
    second does not). The window table walk reads is corrupted alike: the
    entry of the digit's class emptied or given the zero class's entry,
    and every entry whose first digit is zero given the entry of the
    digit's class. walk raises what divide raises, at the point walked;
    expand meets the fault in its walk, reruns its step loop and raises
    what that loop on divide raises."""
    ds = system(name)
    ds = dsm.DigitSet(ds.geo, ds.w, ds.digits, ds.family)  # tables of its own
    table = inspect.getclosurevars(ds._kernel[0]).nonlocals["table"]
    window = _window(ds)
    intact, whole = list(table), list(window)
    p = intmat.mat_vec(ds.inst.phi, (1,) + (0,) * (ds.inst.n - 1))
    walk = lambda x: ds.walk(x, em.default_step_limit(ds, x))  # noqa: E731
    default_walk = lambda x: ds.walk(x, None)  # noqa: E731
    for i, entry in enumerate(intact):
        if entry is None:
            continue
        d = entry[0]
        table[:], window[:] = intact, whole
        table[i] = None
        for corrupt in (None, whole[_window_index(ds, ds.inst.zero())]):
            window[_window_index(ds, d)] = corrupt
            for division in (ds.divide, walk, default_walk):
                with pytest.raises(MalformedDigitSetError, match=re.escape(
                    f"no digit covers the residue class of {d}"
                )):
                    division(d)
        want = _outcome(_reference_expand, ds, d, None, dsm.DigitSet.divide)
        assert want[0] is MalformedDigitSetError
        assert _outcome(em.expand, ds, d) == want
        table[:] = [e or entry for e in intact]
        moved = whole[_window_index(ds, d)]
        window[:] = [e if any(e[0][0]) else moved for e in whole]
        for division in (ds.divide, walk, default_walk):
            with pytest.raises(MalformedDigitSetError, match=re.escape(
                f"digit {d} is not congruent to {p} modulo the base image"
            )):
                division(p)
        want = _outcome(_reference_expand, ds, p, None, dsm.DigitSet.divide)
        assert want[0] is MalformedDigitSetError
        assert _outcome(em.expand, ds, p) == want


@pytest.mark.parametrize("name", SYSTEMS)
def test_points_of_the_wrong_dimension_raise(name):
    ds = system(name)
    for p in [(1,) * (ds.inst.n - 1), (1,) * (ds.inst.n + 1)]:
        for division in (ds.divide, ds.divisions, lambda x: ds.walk(x, 100), lambda x: ds.walk(x, None)):
            with pytest.raises(ValueError):
                division(p)


def test_expand_makes_no_generic_matrix_products(monkeypatch):
    """The five systems of the expand-stream benchmark and the 4 x 4 m4w3
    expand, divide, walk and list their divisions without a single
    intmat.mat_vec call: every n runs the written-out kernel."""
    names = ("t2w2", "t3w3", "q541w3", "m31w2", "c3101w4", "m4w3")
    systems = [system(name) for name in names]
    calls = []
    mat_vec = intmat.mat_vec
    monkeypatch.setattr(intmat, "mat_vec", lambda a, v: calls.append(v) or mat_vec(a, v))
    for ds in systems:
        n = ds.inst.n
        for p in [(7,) * n, tuple(10**6 - 3 * i for i in range(n)), (10**100 + 1,) * n]:
            word = em.expand(ds, p).word
            assert em.value(ds.inst, word) == p
            ds.divide(p)
            assert ds.walk(p, em.default_step_limit(ds, p)) == ds.walk(p, None) == (p, word)
            ds.divisions(p)
    assert calls == []
    lattice.solve_divisibility(systems[0].inst, (7,))  # the counter sees module calls
    assert calls == [(7,)]


@pytest.mark.parametrize("w", [1, 2])
def test_kernel_constants_past_the_int_string_limit(w):
    """adj(phi) of [[2, 10^5000], [0, 3]] holds -10^5000, past the 4,300
    digits an int may be formatted to by default: the kernel takes it
    from a closure cell, not from its source. divide and divisions agree
    with solve_divisibility on seeded random points. A random point's
    word here runs to tens of thousands of digits (phi^-1 maps it to
    about 10^5000), so walk is checked on the values of seeded random
    w-NAF words of up to 40 digits instead: it returns the word itself,
    which division gives by uniqueness (each nonzero digit is the one
    of its point's class modulo phi^w), and the step loop's word. The walk
    holds such points in the Smith coordinates of phi^K, whose matrices
    G_s = U A_s U^-1 hold entries past the int string limit too.
    """
    inst = lattice.LatticeInstance.from_matrix([[2, 10**5000], [0, 3]])
    reps = lattice.residue_system(inst, w)
    digits = [r for r in reps if lattice.solve_divisibility(inst, r, 1) is None]
    ds = dsm.from_digits(inst, w, digits)
    zero = inst.zero()
    rng = random.Random(w)
    for bound in [10**6] * 60 + [10**6000] * 20:
        p = (rng.randrange(-bound, bound), rng.randrange(-bound, bound))
        d, q = _reference_divide(ds, p)
        assert ds.divide(p) == (d, q)
        assert ds.divisions(p) == _reference_divisions(ds, p)
    for length in range(1, 41):
        word = []
        while len(word) < length - 1:
            d = rng.choice(ds.digits)
            block = [d] if d == zero else [d, *[zero] * (w - 1)]
            word += block if len(word) + len(block) < length else [zero]
        word.append(rng.choice(ds.nonzero_digits))
        p = em.value(inst, word)
        assert ds.walk(p, length) == (p, tuple(word)) == (p, _step_word(ds, p, length))
        assert ds.walk(p, length - 1) is None
    assert "steps_per_bit" not in vars(ds)  # 16,611 matrix powers, read only without a cap


# a Gram matrix with denominators, so the common-denominator scaling shows
RATIONAL_GEO = dsm.Geometry(
    lattice.LatticeInstance.from_matrix([[2, 1], [0, 3]]),
    None,
    qf.as_gram([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(5, 4)]]),
    64,
)


@SETTINGS
@given(st.one_of(COORDS, st.tuples(st.just("rational"), st.tuples(*[st.integers(-10**30, 10**30)] * 2))))
def test_integer_scaled_norm_matches_rational_form(case):
    name, p = case
    geo = RATIONAL_GEO if name == "rational" else system(name).geo
    # an exact Gram matrix is its own midpoint, and its bracket a point
    bits, _, _ = geo.enclosure()
    lo, hi, den = geo.norm_sq_interval(p, bits)
    mid = [[Fraction(v, den) for v in row] for row in geo._level(bits)[1]]
    want = ref.eval_quadratic(mid, p)
    if geo.gram is None:
        assert Fraction(lo, den) <= want <= Fraction(hi, den)
    else:
        assert Fraction(lo, den) == Fraction(hi, den) == want


@settings(derandomize=True, deadline=None, max_examples=40)
@given(points(40))
def test_oracle_weight_at_most_expansion_weight(case):
    name, p = case
    ds = system(name)
    assert om.min_weight_oracle(ds, p) <= em.expand(ds, p).weight


@pytest.fixture(scope="module")
def twins():
    nf = nfm.build(list(CUSTOM[0]))
    companion = lattice.LatticeInstance.from_matrix(nf.lattice.phi)
    digits = _custom_digits()
    return dsm.from_digits(nf, CUSTOM[1], digits), dsm.from_digits(companion, CUSTOM[1], digits)


@SETTINGS
@given(st.tuples(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30)))
def test_companion_matrix_twin_gives_identical_words(twins, p):
    field_ds, matrix_ds = twins
    assert matrix_ds.geo.nf is None and field_ds.geo.nf is not None
    assert em.expand(field_ds, p) == em.expand(matrix_ds, p)


# sets by kernel shape: the n = 1 sets have one Smith modulus and one
# coefficient per matrix; q541w3 and [2, -1, 1] at w = 3 are cyclic, with
# every coefficient nonzero; m31w2 (Z/2 x Z/50) has a shape of its own.
# Their window walks fall into the same three shapes (modulo phi^K, the
# n = 1 groups and those of q541w3 and [2, -1, 1] are cyclic, and m31w2's
# is Z/10 x Z/10)
SHAPES = {"t2w2": 1, "t3w2": 1, "t3w3": 1, "q541w3": 2, "q211w3": 2, "m31w2": 3}
KERNEL = ("divide", "divisions", "oracle", "walk")


def _functions(ds):
    """The set's generated functions, in KERNEL order: the kernel's three
    and the window walk."""
    return (*ds._kernel, ds.walk)


def _fresh(name):
    """A new set, with a kernel not yet built."""
    if name == "m31w2":
        return dsm.build_minimal_norm(lattice.LatticeInstance.from_matrix(MATRICES[name][0]), 2)
    coeffs, w = {"t2w2": ([-2, 1], 2), "t3w2": ([-3, 1], 2), "t3w3": ([-3, 1], 3),
                 "q541w3": ([5, -4, 1], 3), "q211w3": ([2, -1, 1], 3)}[name]
    return dsm.build_minimal_norm(nfm.build(coeffs), w)


@pytest.mark.parametrize("order", [
    ("t2w2", "t3w2", "t3w3", "q541w3", "q211w3", "m31w2"),
    ("m31w2", "q211w3", "t3w3", "q541w3", "t3w2", "t2w2"),
    ("t3w3", "q541w3", "m31w2", "t2w2", "q211w3", "t3w2"),
])
def test_sets_of_one_shape_share_code_and_never_cells(order):
    """Whichever set comes first, every kernel function and the window
    walk of a later set of its shape run the same code object under the
    same globals dict (one per shape, so the interpreter's cached global
    lookups hold when calls alternate between the sets), and no other
    shape's; no two sets share a closure cell. The kernel and the walk are
    two factories per shape."""
    dsm._Template.factories.clear()
    sets = {name: _fresh(name) for name in order}
    for ds in sets.values():
        ds.divide((1,) * ds.inst.n)
        ds.walk((1,) * ds.inst.n, None)
    for a, b in itertools.combinations(order, 2):
        for fn, fa, fb in zip(KERNEL, _functions(sets[a]), _functions(sets[b])):
            same = SHAPES[a] == SHAPES[b]
            assert (fa.__code__ is fb.__code__) == same == (fa.__globals__ is fb.__globals__), (a, b, fn)
            assert not set(map(id, fa.__closure__)) & set(map(id, fb.__closure__)), (a, b, fn)
    assert len(dsm._Template.factories) == 6


@lru_cache(maxsize=None)
def _shared_and_fresh():
    """Each set of SHAPES twice: built in turn, so that a set reuses the
    factory of the first of its shape, and on its own, compiled after the
    cache of factories was emptied."""
    shared = {name: _fresh(name) for name in SHAPES}
    for ds in shared.values():
        ds.divide((0,) * ds.inst.n)  # builds the kernel
        ds.walk  # and the window walk
    fresh = {}
    for name in SHAPES:
        dsm._Template.factories.clear()
        fresh[name] = ds = _fresh(name)
        ds.divide((0,) * ds.inst.n)
        for fa, fb in zip(_functions(ds), _functions(shared[name])):
            assert fa.__code__ is not fb.__code__
    return shared, fresh


def _raised(fn, *args):
    try:
        return fn(*args)
    except LatnafError as exc:
        return type(exc), str(exc)


@SETTINGS
@given(
    st.sampled_from(sorted(SHAPES)).flatmap(lambda name: st.tuples(
        st.just(name), st.tuples(*[st.integers(-500, 500)] * (1 if SHAPES[name] == 1 else 2)),
    )),
    st.one_of(st.none(), st.integers(1, 40)),
)
def test_shared_code_returns_what_fresh_code_returns(case, cap):
    """divide, divisions, walk and oracle of a set that runs the code of
    another set of its shape return, or raise, what the same functions
    compiled for the set alone do."""
    name, p = case
    shared, fresh = _shared_and_fresh()
    for fn, args in zip(KERNEL, ((p,), (p,), (p, 10**6), (p, cap))):
        assert _raised(getattr(shared[name], fn), *args) == _raised(getattr(fresh[name], fn), *args)
