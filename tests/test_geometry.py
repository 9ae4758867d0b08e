"""The certified enclosure path of Geometry, forced on bases whose Gram
matrix is exact, against the exact path as the reference."""

from fractions import Fraction

import pytest

from latnaf import intmat, lattice
from latnaf import digitset as dsm
from latnaf import numberfield as nfm

BASES = [[5, -5, 1], [2, -1, 1], [5, -4, 1]]  # power sums, equal modulus twice


def _pair(coeffs):
    nf = nfm.build(coeffs)
    assert nf.gram is not None
    exact = dsm.geometry(nf)
    forced = dsm.Geometry(nf.lattice, nf, None, nf.precision_cap_bits)
    return exact, forced


@pytest.mark.parametrize("coeffs", BASES)
def test_enclosure_ball_contains_exact_ball(coeffs):
    exact, forced = _pair(coeffs)
    # bounds on exact norms put lattice points on the boundary sphere
    norms = sorted({exact.norm_sq_exact(p) for p in exact.ball(Fraction(40))})
    for bound in [Fraction(7, 2), *norms[:8]]:
        inner = exact.ball(bound)
        assert set(inner) <= set(forced.ball(bound)), bound
        assert inner == sorted(inner)


@pytest.mark.parametrize("coeffs", BASES)
def test_enclosure_norm_brackets_exact_norm(coeffs):
    exact, forced = _pair(coeffs)
    for p in exact.ball(Fraction(30)):
        want = exact.norm_sq_exact(p)
        for bits in (64, 256):
            assert forced.norm_sq_interval(p, bits).contains(want), (p, bits)
        assert forced.norm_sq_interval(p, 256).width() < Fraction(1, 2**100)


def _mirror_ties_only(pre):
    return len(pre) == 1 or (len(pre) == 2 and pre[1] == tuple(-c for c in pre[0]))


@pytest.mark.parametrize("coeffs, w", [(BASES[0], 2), (BASES[1], 4), (BASES[2], 2)])
def test_enclosure_minimizers_match_exact(coeffs, w):
    exact, forced = _pair(coeffs)
    inst = exact.inst
    pw = intmat.mat_pow(inst.phi, w)
    compared = 0
    for rep in lattice.residue_system(inst, w):
        if rep == inst.zero() or lattice.solve_divisibility(inst, rep, 1) is not None:
            continue
        want = dsm._minimizers_exact(exact, pw, rep)
        pre = [intmat.solve_exact(pw, d) for d in want]
        if not _mirror_ties_only(pre):
            continue  # a non-mirror tie cannot be separated by enclosures
        assert dsm._minimizers_enclosure(forced, pw, rep) == want, rep
        compared += 1
    assert compared >= 3
