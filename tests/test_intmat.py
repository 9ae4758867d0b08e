import random
from fractions import Fraction

import pytest

from latnaf import intmat

import quadform_reference as ref


def test_determinant_small():
    assert intmat.determinant(((2,),)) == 2
    assert intmat.determinant(((0, -2), (1, 1))) == 2
    assert intmat.determinant(((1, 2), (3, 4))) == -2
    assert intmat.determinant(intmat.identity(4)) == 1


def test_determinant_matches_cofactor_expansion_randomly():
    rng = random.Random(7)

    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        total = 0
        for j in range(n):
            minor = tuple(row[:j] + row[j + 1 :] for row in m[1:])
            total += (-1) ** j * m[0][j] * cofactor_det(minor)
        return total

    for _ in range(60):
        n = rng.randint(1, 4)
        m = tuple(
            tuple(rng.randint(-5, 5) for _ in range(n)) for _ in range(n)
        )
        assert intmat.determinant(m) == cofactor_det(m)


def test_adjugate_identity():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        d = intmat.determinant(m)
        adj = intmat.adjugate(m)
        prod = intmat.mat_mul(adj, m)
        assert prod == tuple(
            tuple(d if i == j else 0 for j in range(n)) for i in range(n)
        )


def test_char_poly_ascending_monic():
    # x^2 - x + 2 for the companion matrix of that polynomial
    m = ((0, -2), (1, 1))
    assert intmat.char_poly(m) == (2, -1, 1)
    assert intmat.char_poly(((3,),)) == (-3, 1)
    assert intmat.char_poly(intmat.identity(3)) == (-1, 3, -3, 1)


def test_char_poly_trace_and_det_agree():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        cp = intmat.char_poly(m)
        assert len(cp) == n + 1
        assert cp[-1] == 1
        assert cp[0] == (-1) ** n * intmat.determinant(m)
        trace = sum(m[i][i] for i in range(n))
        assert cp[-2] == -trace


def test_mat_pow():
    m = ((0, -2), (1, 1))
    assert intmat.mat_pow(m, 0) == intmat.identity(2)
    assert intmat.mat_pow(m, 1) == m
    assert intmat.mat_pow(m, 3) == intmat.mat_mul(m, intmat.mat_mul(m, m))
    with pytest.raises(ValueError):
        intmat.mat_pow(m, -1)


def test_solve_exact_and_failure():
    m = ((0, -2), (1, 1))
    sol = ref.solve_exact(m, (4, 0))
    # phi(x) = (4, 0) -> x = (2, -2)
    assert [intmat.mat_vec(m, [int(c) for c in sol])[i] for i in range(2)] == [4, 0]
    with pytest.raises(ValueError):
        ref.solve_exact(((0, 0), (0, 0)), (1, 0))


def test_smith_normal_form_diagonal_divisibility():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = tuple(tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(n))
        if intmat.determinant(m) == 0:
            continue
        u, diag, v = intmat.smith_normal_form(m)
        dmat = tuple(
            tuple(diag[i] if i == j else 0 for j in range(n)) for i in range(n)
        )
        assert intmat.mat_mul(intmat.mat_mul(u, m), v) == dmat
        for i in range(n - 1):
            assert diag[i + 1] % diag[i] == 0
        assert abs(intmat.determinant(u)) == 1
        assert abs(intmat.determinant(v)) == 1
        prod = 1
        for x in diag:
            prod *= x
        assert prod == abs(intmat.determinant(m))


def test_schur_cohn_unit_disk():
    # x - 1/2 scaled: roots of 2x - 1 inside, x - 2 outside
    assert intmat.all_roots_in_open_unit_disk((-1, 2))
    assert not intmat.all_roots_in_open_unit_disk((-2, 1))
    # x^2 + x/2 + 1/4 -> 4x^2 + 2x + 1, roots modulus 1/2
    assert intmat.all_roots_in_open_unit_disk((1, 2, 4))
    # x^2 - 1 has roots on the circle
    assert not intmat.all_roots_in_open_unit_disk((-1, 0, 1))


def test_unimodular_inverse():
    u = ((1, 2), (0, 1))
    inv = intmat.unimodular_inverse(u)
    assert intmat.mat_mul(u, inv) == intmat.identity(2)
    with pytest.raises(ValueError):
        intmat.unimodular_inverse(((2, 0), (0, 1)))


def test_int_tuple_refuses_what_int_would_truncate():
    assert intmat.int_tuple([3, -4, True]) == (3, -4, 1)
    assert intmat.int_tuple(iter([7])) == (7,)
    for bad in (0.5, 2.0, Fraction(5, 2), "3"):
        with pytest.raises(ValueError, match="not an integer"):
            intmat.int_tuple((1, bad))
    with pytest.raises(ValueError, match="not an integer: 1.9"):
        intmat.mat_from_rows([[2, 1.9], [0, 1]])
