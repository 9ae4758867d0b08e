from fractions import Fraction

import pytest

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import nadscheck as ncm
from latnaf import numberfield as nfm
from latnaf.errors import BallSizeError


def ds_int(tau, w, family="minimal-norm"):
    source = nfm.build([-tau, 1])
    if family == "minimal-norm":
        return dsm.build_minimal_norm(source, w)
    return dsm.build_rational_interval(source, w)


def test_certify_minimal_norm_family():
    v = ncm.certify(ds_int(3, 2))
    assert v is not None
    assert v.status == ncm.STATUS_CERTIFIED
    assert v.bound_used == ncm.CERT_MINIMAL_NORM
    assert v.holds


def test_certify_interval_family_uses_tiling_bound():
    v = ncm.certify(ds_int(4, 1, family="rational-interval"))
    assert v is not None
    assert v.bound_used == ncm.CERT_TILING
    vm = ncm.certify(ds_int(4, 1))
    assert vm is not None and vm.bound_used == ncm.CERT_MINIMAL_NORM


def test_certify_declines_when_contraction_too_weak():
    # tau = 2, w = 1: u^w = 1/2 is not below 1/2
    assert ncm.certify(ds_int(2, 1)) is None


def test_certify_quadratic_window_three():
    source = nfm.build([2, -1, 1])
    v = ncm.certify(dsm.build_minimal_norm(source, 3))
    assert v is not None and v.status == ncm.STATUS_CERTIFIED


def test_search_finds_fixed_point_counterexample():
    v = ncm.search(ds_int(2, 1))
    assert v.status == ncm.STATUS_COUNTEREXAMPLE
    assert not v.holds
    assert v.witness is not None
    assert v.witness.cycle == ((1,),)
    assert v.search_radius is not None and v.search_radius >= 1


def test_search_validates_reported_cycle():
    source = nfm.build([-2, 1])
    bad = dsm.from_digits(source, 2, [(0,), (1,), (3,)])
    v = ncm.decide(bad)
    assert v.status == ncm.STATUS_COUNTEREXAMPLE
    cyc = v.witness.cycle
    assert cyc == ((-2,), (-1,))
    # machine-check the cycle closes under the division step
    for i, p in enumerate(cyc):
        assert em.step(bad, p) == cyc[(i + 1) % len(cyc)]
    assert all(p != (0,) for p in cyc)


def test_search_verifies_small_windows_of_quadratic():
    source = nfm.build([2, -1, 1])
    for w in (1, 2):
        ds = dsm.build_minimal_norm(source, w)
        assert ncm.certify(ds) is None
        v = ncm.search(ds)
        assert v.status == ncm.STATUS_SEARCH, w
        assert v.holds


def test_decide_prefers_certificate():
    ds = ds_int(3, 2)
    v = ncm.decide(ds)
    assert v.status == ncm.STATUS_CERTIFIED
    v2 = ncm.decide(ds_int(2, 2))
    assert v2.status in (ncm.STATUS_CERTIFIED, ncm.STATUS_SEARCH)
    assert v2.holds


def test_certified_instances_pass_search_too():
    for tau, w in ((3, 2), (4, 1), (5, 2)):
        ds = ds_int(tau, w)
        if ncm.certify(ds) is None:
            continue
        assert ncm.search(ds).status == ncm.STATUS_SEARCH


def _norm_sq(geo, p):
    lo, hi, den = geo.norm_sq_interval(p)
    assert lo == hi
    return Fraction(lo, den)


def test_invariant_ball_is_forward_invariant():
    for tau, w in ((2, 2), (3, 1), (3, 2)):
        ds = ds_int(tau, w)
        m = ncm.invariant_ball_bound(ds)
        m_sq = m * m
        geo = ds.geo
        bound = int(m) + 1
        for x in range(-bound, bound + 1):
            p = (x,)
            if _norm_sq(geo, p) > m_sq:
                continue
            q = em.step(ds, p)
            assert _norm_sq(geo, q) <= m_sq, (tau, w, p)


def test_search_ball_cap_enforced():
    with pytest.raises(BallSizeError):
        ncm.search(ds_int(5, 3), ball_cap=3)


def test_decide_deterministic():
    a = ncm.decide(ds_int(2, 2))
    b = ncm.decide(ds_int(2, 2))
    assert a == b


def test_verdict_fields_on_search():
    v = ncm.search(ds_int(2, 2))
    assert v.status == ncm.STATUS_SEARCH
    assert v.bound_used is None
    assert v.witness is None
    assert isinstance(v.search_radius, Fraction)


def test_validate_cycle_raises_under_optimize_flag():
    """Counterexample validation must not rest on assert: python -O
    strips asserts, and a forged cycle must still be rejected."""
    import subprocess
    import sys

    code = (
        "from latnaf import digitset as dsm, numberfield as nfm\n"
        "from latnaf.errors import ConsistencyError\n"
        "from latnaf.expansion import CycleReport\n"
        "from latnaf.nadscheck import validate_cycle\n"
        "ds = dsm.build_minimal_norm(nfm.build([-3, 1]), 2)\n"
        "try:\n"
        "    validate_cycle(ds, CycleReport((1,), ((1,), (2,))))\n"
        "except ConsistencyError:\n"
        "    print('rejected')\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "rejected"


def test_search_ball_cap_checked_during_enumeration():
    # the invariant ball holds about 5e5 points; the cap must stop the
    # enumeration long before they are materialised
    import tracemalloc

    ds = dsm.from_digits(nfm.build([-2, 1]), 1, [(2**18 + 1,)])
    tracemalloc.start()
    try:
        with pytest.raises(BallSizeError):
            ncm.search(ds, ball_cap=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20
