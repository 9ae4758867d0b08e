import random

import mpmath
import pytest

from latnaf import digitset as dsm
from latnaf import expansion as em
from latnaf import intmat, lattice
from latnaf import numberfield as nfm
from latnaf import optimality as om
from latnaf.errors import BallSizeError


def _inst(rows):
    return lattice.LatticeInstance.from_matrix(rows)


def test_instance_validation():
    with pytest.raises(ValueError):
        _inst([[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        lattice.LatticeInstance(n=2, phi=((2,),), det=2)
    with pytest.raises(ValueError):
        lattice.LatticeInstance(n=1, phi=((2,),), det=3)


def test_apply_phi_and_powers():
    inst = _inst([[0, -2], [1, 1]])
    assert lattice.apply_phi(inst, (1, 0)) == (0, 1)
    assert lattice.apply_phi(inst, (0, 1)) == (-2, 1)
    assert lattice.apply_phi(inst, (1, 0), 2) == (-2, 1)
    assert lattice.apply_phi(inst, (3, -1), 0) == (3, -1)


def test_solve_divisibility_roundtrip():
    inst = _inst([[0, -2], [1, 1]])
    rng = random.Random(5)
    for _ in range(200):
        q = (rng.randint(-9, 9), rng.randint(-9, 9))
        for k in (1, 2, 3):
            p = lattice.apply_phi(inst, q, k)
            assert lattice.solve_divisibility(inst, p, k) == q
    # points outside the image come back as None
    assert lattice.solve_divisibility(inst, (1, 0)) is None
    assert lattice.solve_divisibility(inst, (0, 1)) is not None


def test_residue_system_size_and_distinctness():
    inst = _inst([[0, -2], [1, 1]])
    for k in (1, 2, 3):
        reps = lattice.residue_system(inst, k)
        assert len(reps) == 2**k
        keys = {lattice.residue_key(inst, k, p) for p in reps}
        assert len(keys) == len(reps)


def test_residue_key_constant_on_classes():
    inst = _inst([[0, -2], [1, 1]])
    rng = random.Random(13)
    for _ in range(100):
        p = (rng.randint(-20, 20), rng.randint(-20, 20))
        shift = lattice.apply_phi(inst, (rng.randint(-3, 3), rng.randint(-3, 3)), 2)
        q = tuple(a + b for a, b in zip(p, shift))
        assert lattice.residue_key(inst, 2, p) == lattice.residue_key(inst, 2, q)


def test_residue_system_one_dim():
    inst = _inst([[3]])
    reps = lattice.residue_system(inst, 2)
    assert len(reps) == 9
    assert len({p[0] % 9 for p in reps}) == 9


def test_char_poly_examples():
    assert lattice.char_poly(_inst([[2]])) == (-2, 1)
    assert lattice.char_poly(_inst([[0, -2], [1, 1]])) == (2, -1, 1)


def test_is_expanding_examples():
    assert lattice.is_expanding(_inst([[2]]))
    assert lattice.is_expanding(_inst([[0, -2], [1, 1]]))
    assert not lattice.is_expanding(_inst([[1]]))
    # companion of x^2 - 1: eigenvalues on the unit circle
    assert not lattice.is_expanding(_inst([[0, 1], [1, 0]]))
    # rotation-like matrix with det 1, eigenvalues on the circle
    assert not lattice.is_expanding(_inst([[0, -1], [1, 0]]))


def test_is_expanding_against_numeric_roots():
    """Exact spectral test vs floating root finding on a random corpus."""
    rng = random.Random(2024)
    checked = 0
    while checked < 60:
        n = rng.randint(1, 4)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = intmat.mat_from_rows(rows)
        if intmat.determinant(m) == 0:
            continue
        cp = intmat.char_poly(m)
        roots = mpmath.polyroots([mpmath.mpf(c) for c in reversed(cp)], maxsteps=200)
        min_mod = min(abs(r) for r in roots)
        if abs(min_mod - 1) < 1e-9:
            continue  # too close to the circle for floats to referee
        inst = _inst(rows)
        assert lattice.is_expanding(inst) == (min_mod > 1), rows
        checked += 1


def test_check_point_length():
    inst = _inst([[0, -2], [1, 1]])
    with pytest.raises(ValueError):
        inst.check_point((1, 2, 3))
    assert inst.check_point([1, 2]) == (1, 2)


def test_non_integer_entries_are_refused_not_truncated():
    with pytest.raises(ValueError, match="not an integer: 2.5"):
        lattice.LatticeInstance.from_matrix([[2.5]])
    with pytest.raises(ValueError, match="not an integer: 0.5"):
        lattice.apply_phi(_inst([[2]]), (0.5,))


def test_smith_data_are_reduced_once_per_power(monkeypatch):
    """Two sets of different w on one base, each built and walked, share
    the base's Smith data: smith_normal_form runs once per power phi^k
    asked for (k = 2 and 3 for q541w2 and q541w3, whose window walks both
    read phi^3), and a repeat call hands back the same tuple."""
    reduced, real = [], intmat.smith_normal_form
    monkeypatch.setattr(intmat, "smith_normal_form", lambda a: reduced.append(intmat.determinant(a)) or real(a))
    inst = _inst([[0, -5], [1, 4]])
    for w in (2, 3):
        ds = dsm.build_minimal_norm(inst, w)
        for p in [(7, -3), (10**40, 1)]:
            point, word = ds.walk(p, None)
            assert point == p == em.value(inst, word)
    assert sorted(reduced) == [25, 125]
    assert lattice.residue_structure(inst, 3) is lattice.residue_structure(inst, 3)
    assert len(reduced) == 2


def test_the_class_cap_fires_before_the_cache(monkeypatch):
    """A power past the residue cap raises BallSizeError before phi^k is
    formed, on a base whose smaller powers are already kept, for its Smith
    data and for its pullback alike."""
    inst = _inst([[0, -5], [1, 4]])
    lattice.residue_structure(inst, 2)
    lattice.power_pullback(inst, 2)
    monkeypatch.setattr(intmat, "mat_mul", lambda *args: pytest.fail("phi^k formed"))
    for k in (10, 10**6):
        for data in (lattice.residue_structure, lattice.power_pullback):
            with pytest.raises(BallSizeError, match=f"^residue system has 5\\^{k} classes, above the cap$"):
                data(inst, k)


def test_the_power_and_its_pullback_are_formed_once_per_w(monkeypatch):
    """Building q541w3, then a custom set of its digits on the same
    geometry and asking both is_minimal_norm, forms phi^3 once and takes
    its adjugate once: the builder, each set's block step and the
    minimizer check share the pair the base keeps."""
    powers, adjugates = [], []
    real_pow, real_adj = intmat.mat_pow, intmat.adjugate
    monkeypatch.setattr(intmat, "mat_pow", lambda a, k: powers.append((a, k)) or real_pow(a, k))
    monkeypatch.setattr(intmat, "adjugate", lambda a: adjugates.append(a) or real_adj(a))
    ds = dsm.build_minimal_norm(nfm.build([5, -4, 1]), 3)
    custom = dsm.from_digits(ds.geo, 3, ds.digits)
    assert ds.is_minimal_norm and custom.is_minimal_norm
    assert custom.family == dsm.FAMILY_CUSTOM
    phi = ds.inst.phi
    cube = real_pow(phi, 3)
    assert powers.count((phi, 3)) == 1
    assert adjugates.count(cube) == 1
    pw, (adj, q) = lattice.power_pullback(ds.inst, 3)
    assert pw == cube and q == 125 and intmat.mat_mul(pw, adj) == ((q, 0), (0, q))
    assert lattice.power_pullback(ds.inst, 3) is lattice.power_pullback(ds.inst, 3)


@pytest.mark.parametrize("base", [[[3, 1], [-1, 3]], [-2, 1], [-3, 1], [5, -4, 1]])
def test_expanding_is_decided_once_per_base(monkeypatch, base):
    """Building a set, walking without a cap (steps_per_bit), the weight
    oracle and the contraction factor Geometry.u run the Schur-Cohn test
    once per base between them; lattice.is_expanding reads the answer."""
    tests, real = [], intmat.all_roots_in_open_unit_disk
    monkeypatch.setattr(intmat, "all_roots_in_open_unit_disk", lambda f: tests.append(f) or real(f))
    source = _inst(base) if isinstance(base[0], list) else nfm.build(base)
    ds = dsm.build_minimal_norm(source, 2)
    p = (5,) * ds.inst.n
    ds.walk(p, None)
    om.min_weight_oracle(ds, p)
    ds.geo.u
    assert lattice.is_expanding(ds.inst)
    assert len(tests) == 1
