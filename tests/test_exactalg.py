import random
from fractions import Fraction
from itertools import permutations

import pytest

from k3verify.exactalg import (
    bareiss_det,
    ExactMatrix,
    det_fraction_free,
    inertia,
    integer_kernel,
    smith_normal_form,
)
from k3verify.lattice import a_lattice, catalog, k3_lattice


def _diag(m):
    return [int(m[i, i]) for i in range(min(m.rows, m.cols))]


def _check_snf(m):
    d, u, v = smith_normal_form(m)
    assert u @ m @ v == d
    assert abs(det_fraction_free(u)) == 1
    assert abs(det_fraction_free(v)) == 1
    diag = _diag(d)
    assert all(x >= 0 for x in diag)
    for a, b in zip(diag, diag[1:]):
        if a:
            assert b % a == 0
        else:
            assert b == 0
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    return diag


def test_matrices_are_equal_and_hashed_by_value():
    m = ExactMatrix.from_rows([[1, 2], [3, 4]])
    same = ExactMatrix.from_rows([[Fraction(2, 2), 2], [3, Fraction(8, 2)]])
    assert m is not same and m == same and hash(m) == hash(same)
    assert {m: "m"}[same] == "m"
    assert m != m.transpose() and m != ExactMatrix.identity(2)
    assert m[1, 0] == 3


def test_snf_identity():
    assert _check_snf(ExactMatrix.identity(2)) == [1, 1]


def test_snf_a2_negative():
    diag = _check_snf(ExactMatrix.from_rows([[-2, 1], [1, -2]]))
    assert diag == [1, 3]


def test_snf_lattice_a():
    diag = _check_snf(a_lattice().gram)
    assert diag == [1, 1, 1, 1, 1, 3]


def test_snf_random_suite():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        m = ExactMatrix.from_rows(
            [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        )
        _check_snf(m)


def test_kernel_zero_matrix():
    basis = integer_kernel(ExactMatrix.zeros(2, 2))
    assert sorted(basis) == [(0, 1), (1, 0)]


def test_kernel_row():
    assert integer_kernel(ExactMatrix.from_rows([[1, 1]])) in (
        [(1, -1)],
        [(-1, 1)],
    )


def test_kernel_vectors_annihilate_and_saturate():
    rng = random.Random(11)
    for _ in range(50):
        m = ExactMatrix.from_rows(
            [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        )
        basis = integer_kernel(m)
        for v in basis:
            assert all(x == 0 for x in m.apply(v))
        if basis:
            coord = ExactMatrix.from_rows(basis)
            d, _u, _v = smith_normal_form(coord)
            assert all(d[i, i] == 1 for i in range(len(basis)))


def test_kernel_e6_pairing_in_e8():
    e8 = catalog("E8")
    sub = [tuple(1 if i == j else 0 for i in range(8)) for j in (2, 3, 4, 5, 6, 7)]
    pairing = ExactMatrix.from_rows(
        [[int(e8.inner(s, tuple(1 if i == c else 0 for i in range(8)))) for c in range(8)] for s in sub]
    )
    assert len(integer_kernel(pairing)) == 2


def test_inertia_hyperbolic_plane():
    assert inertia(ExactMatrix.from_rows([[0, 1], [1, 0]])) == (1, 1, 0)


def test_inertia_named_lattices():
    assert inertia(a_lattice().gram) == (2, 4, 0)
    assert inertia(k3_lattice().gram) == (3, 19, 0)


def test_inertia_congruence_invariance():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rng.randint(-4, 4)
        m = ExactMatrix.from_rows(sym)
        # random unimodular p from elementary operations
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for k in range(n):
                p[i][k] += c * p[j][k]
        pm = ExactMatrix.from_rows(p)
        assert inertia(pm.transpose() @ m @ pm) == inertia(m)



def test_inertia_of_congruent_diagonal():
    # Sylvester's law of inertia: P^T D P has the signs of D for every
    # invertible integer P; zero entries of D make it singular, and a
    # positive rational scale makes the input non-integral
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 6)
        d = [rng.choice([-3, -2, -1, 0, 1, 2, 5]) for _ in range(n)]
        p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        while det_fraction_free(ExactMatrix.from_rows(p)) == 0:
            p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        pm = ExactMatrix.from_rows(p)
        m = pm.transpose() @ ExactMatrix.diagonal(d) @ pm
        expected = (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))
        assert inertia(m) == expected
        assert inertia(m.scale(Fraction(rng.randint(1, 9), rng.randint(2, 9)))) == expected

def _det_minors(m):
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        prod = Fraction(1)
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def test_det_examples():
    assert det_fraction_free(ExactMatrix.from_rows([[0, 1], [1, 0]])) == -1
    assert det_fraction_free(catalog("E8(-1)").gram) == 1


def test_det_matches_permanent_expansion():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = ExactMatrix.from_rows(
            [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        )
        assert det_fraction_free(m) == _det_minors(m)


def test_bareiss_det_on_int_rows():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(0, 5)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        assert bareiss_det(rows) == det_fraction_free(ExactMatrix.from_rows(rows))
        assert bareiss_det(rows) == bareiss_det([list(r) for r in rows])
    rows = ((0, 1), (1, 0))
    assert bareiss_det(rows) == -1
    assert rows == ((0, 1), (1, 0))


@pytest.mark.parametrize("rows", [
    [[0, 1], [2, 0]],
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), Fraction(1, 2)], [0, 0]],
    [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2, 3), 1]],
    [[1, 2, 3]],
], ids=["int", "non-square", "rational", "one-row"])
def test_inertia_rejects_non_symmetric(rows):
    with pytest.raises(ValueError, match="not symmetric"):
        inertia(ExactMatrix.from_rows(rows))


def test_matrix_errors():
    with pytest.raises(ValueError):
        ExactMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        det_fraction_free(ExactMatrix.from_rows([[1, 2]]))
    with pytest.raises(ZeroDivisionError):
        ExactMatrix.from_rows([[1, 1], [1, 1]]).inverse()
