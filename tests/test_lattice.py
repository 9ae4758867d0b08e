import random

import mpmath
import pytest

from latnaf import intmat, lattice


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
