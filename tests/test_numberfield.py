import warnings
from fractions import Fraction

import pytest

from latnaf import numberfield as nfm
from latnaf.digitset import build_minimal_norm, geometry
from latnaf.errors import NotExpandingError
from latnaf.exactreal import DEFAULT_PRECISION_CAP_BITS


def test_build_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        nfm.build([2])  # constant
    with pytest.raises(ValueError):
        nfm.build([2, 2])  # not monic
    with pytest.raises(ValueError):
        nfm.build([0, 1])  # zero constant term, not invertible
    with pytest.raises(ValueError):
        nfm.build([1, -2, 1])  # (x-1)^2, repeated root


def test_build_warns_on_reducible():
    with pytest.warns(UserWarning):
        nfm.build([-1, 0, 1])  # (x-1)(x+1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nfm.build([2, -1, 1])  # irreducible, no warning


def test_accepts_huge_coefficients():
    nf = nfm.build([10**40, 0, 1])
    assert nf.degree == 2
    assert nfm.is_expanding_base(nf)


def test_gram_kind_selection():
    assert nfm.build([-2, 1]).gram_kind == nfm.GRAM_POWER_SUMS
    assert nfm.build([5, -5, 1]).gram_kind == nfm.GRAM_POWER_SUMS
    assert nfm.build([2, -1, 1]).gram_kind == nfm.GRAM_EQUAL_MODULUS
    assert nfm.build([2, -2, 1]).gram_kind == nfm.GRAM_EQUAL_MODULUS
    assert nfm.build([-2, 0, 0, 0, 1]).gram_kind == nfm.GRAM_ENCLOSURE


def test_equal_modulus_certifier_rejects_mixed_moduli():
    # (x^2+1)(x^2+4): constant 4 offers the integer candidate m = 2,
    # but the root moduli are 1 and 2, so the certificate must fail.
    with pytest.warns(UserWarning):
        nf = nfm.build([4, 0, 5, 0, 1])
    assert nf.gram_kind == nfm.GRAM_ENCLOSURE


def test_gram_values_totally_real():
    nf = nfm.build([5, -5, 1])
    g = nf.gram
    # power sums of x^2 - 5x + 5: p0 = 2, p1 = 5, p2 = 15
    assert g == ((Fraction(2), Fraction(5)), (Fraction(5), Fraction(15)))


def test_gram_values_equal_modulus():
    nf = nfm.build([2, -1, 1])
    assert nf.equal_modulus_sq == 2
    assert nf.gram == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(4)))
    nf2 = nfm.build([2, -2, 1])
    assert nf2.gram == ((Fraction(2), Fraction(2)), (Fraction(2), Fraction(4)))


def test_minkowski_norm_examples():
    geo = geometry(nfm.build([2, -1, 1]))
    assert geo.norm_sq_interval((1, 0)) == (2, 2, 1)
    assert geo.norm_sq_interval((0, 1)) == (4, 4, 1)
    assert geo.norm_sq_interval((1, 1)) == (8, 8, 1)
    assert geometry(nfm.build([-2, 1])).norm_sq_interval((3,)) == (9, 9, 1)


def test_norm_enclosure_contains_exact():
    nf = nfm.build([2, -1, 1])
    g_enc = nfm.gram_enclosure(nf, 64)
    for i in range(2):
        for k in range(2):
            assert g_enc[i][k].contains(nf.gram[i][k])


def test_enclosure_instance_norm_brackets():
    geo = geometry(nfm.build([-2, 0, 0, 0, 1]))  # x^4 - 2
    # |1|^2 summed over the four embeddings is exactly 4
    v = geo.norm_sq_real((1, 0, 0, 0))
    iv = v.interval(128)
    assert iv.contains(4)
    # |tau|^2 = sqrt(2) per embedding, 4*sqrt(2) total
    from latnaf.exactreal import sqrt_lower, sqrt_upper

    t = geo.norm_sq_real((0, 1, 0, 0)).interval(128)
    assert t.lo <= 4 * sqrt_upper(Fraction(2), 128)
    assert t.hi >= 4 * sqrt_lower(Fraction(2), 128)
    assert t.width() < Fraction(1, 2**64)


def test_embedding_moduli():
    nf = nfm.build([2, -1, 1])
    mods = nfm.embedding_moduli_sq(nf)
    assert len(mods) == 1
    assert mods[0].compare(2) == 0
    lin = nfm.build([-3, 1])
    assert nfm.embedding_moduli_sq(lin)[0].compare(9) == 0
    quartic = nfm.build([-2, 0, 0, 0, 1])
    mods4 = nfm.embedding_moduli_sq(quartic)
    assert len(mods4) == 3  # two real embeddings, one conjugate pair
    for m in mods4:
        iv = m.interval(96)
        assert iv.lo < Fraction(1414213562373095, 10**15) + Fraction(1, 10**6)
        assert iv.hi > Fraction(1414213562373095, 10**15) - Fraction(1, 10**6)


def test_expanding_predicate_and_inv_norm():
    assert nfm.is_expanding_base(nfm.build([-2, 1]))
    assert nfm.is_expanding_base(nfm.build([2, -1, 1]))
    assert not nfm.is_expanding_base(nfm.build([-1, 1]))  # tau = 1
    nf = nfm.build([2, -1, 1])
    u = nfm.inv_operator_norm_real(nf)
    assert u.pow(2).compare(Fraction(1, 2)) == 0
    with pytest.raises(NotExpandingError):
        nfm.inv_operator_norm_real(nfm.build([-1, 1]))


def test_precision_cap_threading():
    nf = nfm.build([2, -1, 1])
    assert geometry(nf).precision_cap_bits == DEFAULT_PRECISION_CAP_BITS
    assert geometry(nf, 512).precision_cap_bits == 512
    assert geometry(nf.lattice, 1024).precision_cap_bits == 1024
    # the builders take the Geometry, and with it its cap
    assert build_minimal_norm(geometry(nf, 1024), 2).geo.precision_cap_bits == 1024
    assert not hasattr(nf, "precision_cap_bits")


def test_weights_partition_degree():
    for coeffs in ([-2, 1], [2, -1, 1], [5, -5, 1], [-2, 0, 0, 0, 1]):
        nf = nfm.build(coeffs)
        assert nf.s + 2 * nf.t == nf.degree


def test_build_refuses_non_integer_coefficients():
    with pytest.raises(ValueError, match="not an integer: 2.7"):
        nfm.build([2.7, 1])
