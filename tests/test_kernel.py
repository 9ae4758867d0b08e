"""Property tests of the division kernel ``DigitSet.divide`` /
``DigitSet.divisions`` against the reference path of ``lattice``
(``solve_divisibility`` and ``residue_key``), of the expansions and
weights built on it, and of the integer-scaled exact norm against
``quadform.eval_quadratic``."""

from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import lattice
from latnaf import numberfield as nfm
from latnaf import optimality as om
from latnaf import quadform as qf

SETTINGS = settings(derandomize=True, deadline=None)

# a minimal-norm digit moved within its class modulo phi^w: d -> d + 2 * (-75, 45)
CUSTOM = ((5, -4, 1), 2, (-6, 3), (-156, 93))

SYSTEMS = ["t2w2", "t3w3", "q541w3", "m31w2", "c3101w4", "custom541", "interval3w2"]


def _custom_digits():
    coeffs, w, old, new = CUSTOM
    base = dsm.build_minimal_norm(nfm.build(list(coeffs)), w)
    return [new if d == old else d for d in base.digits]


@lru_cache(maxsize=None)
def system(name):
    if name == "m31w2":
        return dsm.build_minimal_norm(lattice.LatticeInstance.from_matrix([[3, 1], [-1, 3]]), 2)
    if name == "custom541":
        return dsm.from_digits(nfm.build(list(CUSTOM[0])), CUSTOM[1], _custom_digits())
    if name == "interval3w2":
        return dsm.build_rational_interval(nfm.build([-3, 1]), 2)
    coeffs, w = {
        "t2w2": ([-2, 1], 2),
        "t3w3": ([-3, 1], 3),
        "q541w3": ([5, -4, 1], 3),
        "c3101w4": ([3, 1, 0, 1], 4),
    }[name]
    return dsm.build_minimal_norm(nfm.build(coeffs), w)


def points(bound):
    """Strategy: (system name, point with coordinates of absolute value
    at most bound)."""
    return st.sampled_from(SYSTEMS).flatmap(
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


def _reference_divide(ds, p):
    inst = ds.inst
    if lattice.solve_divisibility(inst, p, 1) is not None:
        d = inst.zero()
    else:
        key = lattice.residue_key(inst, ds.w, p)
        (d,) = [e for e in ds.nonzero_digits if lattice.residue_key(inst, ds.w, e) == key]
    return d, lattice.solve_divisibility(inst, tuple(a - b for a, b in zip(p, d)), 1)


@SETTINGS
@given(COORDS)
def test_divide_matches_reference(case):
    name, p = case
    ds = system(name)
    assert ds.divide(p) == _reference_divide(ds, p)
    assert (em.digit_of(ds, p), em.step(ds, p)) == ds.divide(p)


@SETTINGS
@given(COORDS)
def test_divisions_filter_all_digits(case):
    name, p = case
    ds = system(name)
    want = []
    for d in ds.digits:
        q = lattice.solve_divisibility(ds.inst, tuple(a - b for a, b in zip(p, d)), 1)
        if q is not None:
            want.append((d, q))
    assert ds.divisions(p) == want


@SETTINGS
@given(COORDS)
def test_expansion_is_a_wnaf_of_its_point(case):
    name, p = case
    ds = system(name)
    e = em.expand(ds, p)
    assert isinstance(e, em.Expansion)
    assert em.value(ds.inst, e.word) == p
    assert em.is_wnaf(e)


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
    if geo.gram is None:
        assert geo.norm_sq_exact(p) is None
    else:
        assert geo.norm_sq_exact(p) == qf.eval_quadratic(geo.gram, p)


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
