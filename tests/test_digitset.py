from fractions import Fraction

import pytest

from latnaf import digitset as dsm
from latnaf import lattice, numberfield as nfm
from latnaf.errors import InstanceError, MalformedDigitSetError

import quadform_reference as ref


def nf(coeffs):
    return nfm.build(coeffs)


def d1(*vals):
    return tuple((v,) for v in vals)


def test_digit_count():
    assert dsm.digit_count(nf([-2, 1]), 1) == 1
    assert dsm.digit_count(nf([-2, 1]), 2) == 2
    assert dsm.digit_count(nf([-3, 1]), 2) == 6
    assert dsm.digit_count(nf([2, -1, 1]), 3) == 4
    # a Geometry stands for its base, as in every builder
    assert dsm.digit_count(dsm.geometry(nf([5, -4, 1])), 3) == dsm.digit_count(nf([5, -4, 1]), 3) == 100


def test_minimal_digits_one_dim():
    assert dsm.build_minimal_norm(nf([-2, 1]), 2).digits == d1(-1, 0, 1)
    assert dsm.build_minimal_norm(nf([-2, 1]), 1).digits == d1(-1, 0)
    assert dsm.build_minimal_norm(nf([-3, 1]), 2).digits == d1(
        -4, -2, -1, 0, 1, 2, 4
    )
    assert dsm.build_minimal_norm(nf([-4, 1]), 1).digits == d1(-2, -1, 0, 1)


def test_interval_digits_one_dim():
    assert dsm.build_rational_interval(nf([-2, 1]), 2).digits == d1(-1, 0, 1)
    assert dsm.build_rational_interval(nf([-4, 1]), 1).digits == d1(-1, 0, 1, 2)
    assert dsm.build_rational_interval(nf([-3, 1]), 2).digits == d1(
        -4, -2, -1, 0, 1, 2, 4
    )


def test_interval_rejects_higher_degree():
    with pytest.raises(InstanceError):
        dsm.build_rational_interval(nf([2, -1, 1]), 2)


def test_families_agree_without_boundary_ties():
    # odd determinant: the interval midpoint is never hit
    for w in (1, 2, 3):
        a = dsm.build_minimal_norm(nf([-3, 1]), w)
        b = dsm.build_rational_interval(nf([-3, 1]), w)
        assert a.digits == b.digits


def test_families_differ_exactly_at_ties():
    a = dsm.build_minimal_norm(nf([-4, 1]), 1)
    b = dsm.build_rational_interval(nf([-4, 1]), 1)
    only_a = set(a.digits) - set(b.digits)
    only_b = set(b.digits) - set(a.digits)
    assert only_a == {(-2,)}
    assert only_b == {(2,)}
    # the swapped digits sit exactly on the tie boundary |d| = det/2
    assert all(abs(d[0]) * 2 == 4 for d in only_a | only_b)


def test_minimal_digits_gaussian_like():
    ds = dsm.build_minimal_norm(nf([2, -2, 1]), 2)
    assert ds.digits == ((-1, 0), (-1, 1), (0, 0))


def test_minimal_digits_are_congruence_reps():
    for coeffs, w in (([2, -1, 1], 2), ([5, -5, 1], 2), ([-3, 1], 3)):
        source = nf(coeffs)
        ds = dsm.build_minimal_norm(source, w)
        inst = ds.inst
        keys = set()
        for d in ds.nonzero_digits:
            assert lattice.solve_divisibility(inst, d) is None
            keys.add(lattice.residue_key(inst, w, d))
        assert len(keys) == len(ds.nonzero_digits)
        assert len(ds.nonzero_digits) == dsm.digit_count(source, w)


def test_minimal_digits_minimize_preimage_norm():
    """Each digit must beat every other representative of its class in
    the norm of the w-fold preimage."""
    source = nf([2, -1, 1])
    w = 2
    ds = dsm.build_minimal_norm(source, w)
    inst = ds.inst
    for d in ds.nonzero_digits:
        dn = ref.eval_quadratic(ds.geo.gram, dsm_preimage(source, w, d))
        for shift in lattice.residue_system(inst, 1):
            # walk a few other members of the class
            for mul in (-2, -1, 1, 2):
                other = tuple(
                    a + mul * b
                    for a, b in zip(d, lattice.apply_phi(inst, shift, w))
                )
                if other == d:
                    continue
                on = ref.eval_quadratic(ds.geo.gram, dsm_preimage(source, w, other))
                assert dn <= on


def dsm_preimage(source, w, p):
    """Rational coordinates of the w-fold preimage of p."""
    from latnaf import intmat

    inst = dsm.geometry(source).inst
    pw = intmat.mat_pow(inst.phi, w)
    return ref.solve_exact(pw, p)


def test_totally_real_tie_break_uses_preimage_norm():
    # x^2 - 5x + 5: the embedding norms of a digit and of its preimage
    # order candidates differently, so this pins the functional used.
    source = nf([5, -5, 1])
    ds = dsm.build_minimal_norm(source, 1)
    assert len(ds.nonzero_digits) == 4
    for d in ds.nonzero_digits:
        dn = ref.eval_quadratic(ds.geo.gram, dsm_preimage(source, 1, d))
        for shift in ((1, 0), (0, 1), (1, 1), (-1, 2)):
            base = lattice.apply_phi(ds.inst, shift, 1)
            for mul in (-2, -1, 1, 2):
                other = tuple(a + mul * b for a, b in zip(d, base))
                on = ref.eval_quadratic(ds.geo.gram, dsm_preimage(source, 1, other))
                assert dn <= on


def test_from_digits_validation():
    source = nf([-2, 1])
    ok = dsm.from_digits(source, 2, [(0,), (1,), (3,)])
    assert ok.digits == d1(0, 1, 3)
    with pytest.raises(MalformedDigitSetError):
        dsm.from_digits(source, 2, [(0,), (1,)])  # wrong count
    with pytest.raises(MalformedDigitSetError):
        dsm.from_digits(source, 2, [(0,), (1,), (5,)])  # 1 and 5 collide
    with pytest.raises(MalformedDigitSetError):
        dsm.from_digits(source, 2, [(0,), (1,), (2,)])  # 2 is divisible
    # the zero digit is implied when omitted
    assert dsm.from_digits(source, 2, [(1,), (3,)]).digits == d1(0, 1, 3)


def test_matrix_source_geometry():
    inst = lattice.LatticeInstance.from_matrix([[0, -2], [1, 1]])
    ds = dsm.build_minimal_norm(inst, 2)
    assert len(ds.nonzero_digits) == 2
    geo = dsm.geometry(inst)
    assert geo.nf is None
    # identity working norm
    assert geo.norm_sq_interval((3, -4)) == (25, 25, 1)


def test_matrix_source_requires_coordinate_contraction():
    # expanding spectrum but no contraction in the plain coordinate norm
    stretch = lattice.LatticeInstance.from_matrix([[2, 3], [0, 2]])
    assert lattice.is_expanding(stretch)
    with pytest.raises(InstanceError):
        dsm.geometry(stretch).u


def test_w0_values():
    assert dsm.geometry(nf([-2, 1])).w0_bound == 2
    assert dsm.geometry(nf([-3, 1])).w0_bound == 1
    assert dsm.geometry(nf([2, -1, 1])).w0_bound == 3
    assert dsm.geometry(nf([2, -1, 1])).tiling_w_bound == 3


def test_norm_context_values():
    ctx = dsm.geometry(nf([2, -1, 1])).norm_context
    assert ctx.r_sq == Fraction(1, 2)
    assert ctx.R_sq == Fraction(8, 7)
    ctx2 = dsm.geometry(nf([2, -2, 1])).norm_context
    assert ctx2.r_sq == Fraction(1, 2)
    assert ctx2.R_sq == 1
    ctx1 = dsm.geometry(nf([-2, 1])).norm_context
    assert ctx1.r_sq == Fraction(1, 4)
    assert ctx1.R_sq == Fraction(1, 4)


def test_norm_context_enclosure_brackets():
    geo = dsm.geometry(nf([-2, 0, 0, 0, 1]))  # x^4 - 2
    assert geo.gram is None
    ctx = geo.norm_context
    assert ctx.r_sq > 0
    assert ctx.R_sq >= ctx.r_sq


def test_max_digit_norm_upper():
    source = nf([2, -1, 1])
    ds = dsm.build_minimal_norm(source, 2)
    bound = dsm.max_digit_norm_sq_upper(ds)
    norms = []
    for d in ds.digits:
        lo, hi, den = ds.geo.norm_sq_interval(d)
        assert lo == hi
        norms.append(Fraction(lo, den))
    assert max(norms) == bound


def test_digit_set_frozen_and_ordered():
    ds = dsm.build_minimal_norm(nf([-3, 1]), 2)
    assert ds.digits == tuple(sorted(ds.digits))
    with pytest.raises(Exception):
        ds.digits = ()


def test_from_digits_refuses_non_integer_coordinates():
    # int() would keep 1.9 as the digit 1
    with pytest.raises(ValueError, match="not an integer: 1.9"):
        dsm.from_digits(nfm.build([-2, 1]), 2, [(1.9,), (-1,)])
