"""End-to-end acceptance gates.

Each test covers one gate and prints a single PASS line when it holds;
a failure shows up as the usual pytest failure for that gate.
"""

import random
import time

import pytest

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import lattice
from latnaf import nadscheck as ncm
from latnaf import numberfield as nfm
from latnaf import optimality as om
from latnaf.errors import NotExpandingError


def ds_int(tau, w):
    return dsm.build_minimal_norm(nfm.build([-tau, 1]), w)


def report(name):
    print(f"\nacceptance [{name}]: PASS")


def test_gate_1_base2_window2_full_range():
    """Every |z| <= 4096 at base 2, width 2: the expansion exists, obeys
    the window rule, reproduces z, and matches the min-weight oracle."""
    t0 = time.monotonic()
    ds = ds_int(2, 2)
    assert ds.digits == ((-1,), (0,), (1,))
    # weight agreement for the whole range through the bulk table
    sweep = om.verify_empirically(ds, 4096)
    assert sweep.ok and sweep.points_checked == 8193 and not sweep.sampled
    # independent per-point spot checks with the forward search
    rng = random.Random(1)
    spots = [rng.randint(-4096, 4096) for _ in range(150)]
    for z in spots:
        e = em.expand(ds, (z,))
        assert isinstance(e, em.Expansion)
        assert em.is_wnaf(e)
        assert em.value(ds.inst, e.word) == (z,)
        assert e.weight == om.min_weight_oracle(ds, (z,))
    # structural sweep: window + roundtrip everywhere
    for z in range(-4096, 4097):
        e = em.expand(ds, (z,))
        assert isinstance(e, em.Expansion)
        assert em.is_wnaf(e)
        assert em.value(ds.inst, e.word) == (z,)
    elapsed = time.monotonic() - t0
    assert elapsed < 10, f"took {elapsed:.1f}s"
    report("base-2 full range")


def test_gate_2_quadratic_window_threshold():
    """x^2 - x + 2: the contraction threshold is exactly 3; wider windows
    certify outright and width 2 still verifies by search."""
    t0 = time.monotonic()
    source = nfm.build([2, -1, 1])
    assert dsm.geometry(source).w0_bound == 3
    for w in (3, 4, 5, 6):
        v = ncm.certify(dsm.build_minimal_norm(source, w))
        assert v is not None and v.status == ncm.STATUS_CERTIFIED, w
    ds2 = dsm.build_minimal_norm(source, 2)
    assert ncm.certify(ds2) is None
    v2 = ncm.search(ds2)
    assert v2.status == ncm.STATUS_SEARCH
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"took {elapsed:.1f}s"
    report("quadratic threshold")


CORPUS = [
    *[([-tau, 1], w) for tau in (2, 3, 4, 5) for w in (1, 2, 3)],
    *[(coeffs, w) for coeffs in ([2, -1, 1], [2, -2, 1], [5, -4, 1], [2, 0, 1])
      for w in (1, 2, 3)],
]


def test_gate_3_corpus_decisions_consistent():
    """24 instances: certificates and search agree, and every verified
    instance expands a thousand random points correctly."""
    assert len(CORPUS) >= 20
    for coeffs, w in CORPUS:
        source = nfm.build(coeffs)
        ds = dsm.build_minimal_norm(source, w)
        verdict = ncm.decide(ds)
        if verdict.status == ncm.STATUS_CERTIFIED:
            assert ncm.search(ds).status == ncm.STATUS_SEARCH, (coeffs, w)
        if verdict.holds:
            rng = random.Random(1000 * w + sum(abs(c) for c in coeffs))
            span = 10**6 if ds.inst.n == 1 else 1000
            for _ in range(1000):
                p = tuple(rng.randint(-span, span) for _ in range(ds.inst.n))
                e = em.expand(ds, p)
                assert isinstance(e, em.Expansion), (coeffs, w, p)
                assert em.is_wnaf(e)
                assert em.value(ds.inst, e.word) == p
        else:
            cyc = verdict.witness.cycle
            assert all(q != ds.inst.zero() for q in cyc)
            for i, q in enumerate(cyc):
                assert em.step(ds, q) == cyc[(i + 1) % len(cyc)]
    report("corpus consistency")


def test_gate_4_optimality_certified_and_swept():
    """Certified-optimal instances show zero weight violations out to
    norm 200."""
    t0 = time.monotonic()
    ds3 = ds_int(3, 2)
    assert om.check_hypotheses(ds3).certified
    rep3 = om.verify_empirically(ds3, 200)
    assert rep3.ok and rep3.points_checked == 401 and rep3.violations == ()

    source = nfm.build([5, -4, 1])
    ds5 = dsm.build_minimal_norm(source, 3)
    assert om.check_hypotheses(ds5).certified
    rep5 = om.verify_empirically(ds5, 200)
    assert rep5.ok and rep5.violations == ()
    assert rep5.points_checked > 50_000
    elapsed = time.monotonic() - t0
    assert elapsed < 300, f"took {elapsed:.1f}s"
    report("optimality sweeps")


def test_gate_5_negative_controls():
    """Non-expanding bases are rejected; a corrupted digit set yields a
    machine-validated counterexample cycle."""
    ident = lattice.LatticeInstance.from_matrix([[1, 0], [0, 1]])
    assert not lattice.is_expanding(ident)
    with pytest.raises(NotExpandingError):
        dsm.build_minimal_norm(ident, 2)
    comp = lattice.LatticeInstance.from_matrix([[0, 1], [1, 0]])  # x^2 - 1
    assert not lattice.is_expanding(comp)
    with pytest.raises(NotExpandingError):
        dsm.build_minimal_norm(comp, 2)

    bad = dsm.from_digits(nfm.build([-2, 1]), 2, [(0,), (1,), (3,)])
    verdict = ncm.decide(bad)
    assert verdict.status == ncm.STATUS_COUNTEREXAMPLE
    cyc = verdict.witness.cycle
    assert len(cyc) >= 1 and all(q != (0,) for q in cyc)
    for i, q in enumerate(cyc):
        nxt = em.step(bad, q)
        assert nxt == cyc[(i + 1) % len(cyc)]
        assert em.digit_of(bad, q) in bad.digits
    report("negative controls")


def test_gate_6_word_values_distinct():
    """At base 2 every window-valid word of length <= 10 (nonzero top
    digit) names its own integer: zero collisions."""
    for w in (2, 3):
        ds = ds_int(2, w)
        nonzero = [d[0] for d in ds.nonzero_digits]
        seen: dict[int, tuple] = {}
        collisions = 0

        def walk(word, value, zeros_needed):
            nonlocal collisions
            if len(word) == 10:
                return
            for d in nonzero if zeros_needed == 0 else []:
                nw = word + (d,)
                v = value + d * 2 ** len(word)
                if v in seen and seen[v] != nw:
                    collisions += 1
                else:
                    seen[v] = nw
                walk(nw, v, w - 1)
            walk(word + (0,), value, max(0, zeros_needed - 1))

        walk((), 0, 0)
        assert collisions == 0, w
        # sanity: the enumeration really produced stripped words
        assert seen and all(wd[-1] != 0 for wd in seen.values())
    report("word value injectivity")
