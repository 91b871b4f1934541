import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from k3verify.exactalg import (
    bareiss_det,
    det_fraction_free,
    inertia,
    integer_kernel,
    smith_normal_form,
)
from k3verify.lattice import GramLattice, a_lattice, catalog, k3_lattice, m_lattice
from matrix_helpers import (
    apply,
    diagonal,
    divisors_match,
    identity,
    matmul,
    row_transform_exists,
    smith_diagonal,
    transpose,
)


def _check_snf(m):
    # the row transform u is not returned: its existence and the determinantal
    # divisors are checked instead
    d, v = smith_normal_form(m)
    assert row_transform_exists(m, d, v)
    assert divisors_match(m, d)
    return smith_diagonal(d)


def test_kernels_return_int_entries():
    lattices = [catalog(name) for name in ("U", "U(2)", "A2(-1)", "E8(-1)", "I3(2)")]
    for lat in lattices + [a_lattice(), k3_lattice()]:
        d, v = smith_normal_form(lat.int_rows)
        assert {type(x) for m in (d, v) for row in m for x in row} == {int}
        assert all(type(n) is int for n in inertia(lat.int_rows))
        assert type(lat.det()) is int
        assert all(type(n) is int for n, _w in lat.dual_generators)
    pairing = [[1, 2, 3], [0, 2, 4]]
    assert {type(x) for v in integer_kernel(pairing) for x in v} == {int}


def test_snf_identity():
    assert _check_snf(identity(2)) == [1, 1]


def test_snf_a2_negative():
    diag = _check_snf([[-2, 1], [1, -2]])
    assert diag == [1, 3]


def test_snf_lattice_a():
    diag = _check_snf(a_lattice().int_rows)
    assert diag == [1, 1, 1, 1, 1, 3]


def test_snf_random_suite():
    rng = random.Random(7)
    for _ in range(100):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        _check_snf([[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)])


def test_snf_low_rank_products():
    # products of a rows x k and a k x cols matrix: rank at most k <= 5
    rng = random.Random(23)
    for _ in range(40):
        rows, cols, k = rng.randint(1, 6), rng.randint(1, 6), rng.randint(0, 5)
        left = [[rng.randint(-4, 4) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(k)]
        product = [[sum(left[i][t] * right[t][j] for t in range(k)) for j in range(cols)]
                   for i in range(rows)]
        diag = _check_snf(product)
        assert sum(1 for x in diag if x) <= k


@pytest.mark.parametrize("name", ["U", "U(2)", "A2(-1)", "E8(-1)", "I3(2)", "A", "M", "L"])
def test_snf_catalog_lattices(name):
    named = {"A": a_lattice, "M": m_lattice, "L": k3_lattice}
    lat = named[name]() if name in named else catalog(name)
    diag = _check_snf(lat.int_rows)
    assert math.prod(diag) == abs(lat.det())


def test_kernel_zero_matrix():
    basis = integer_kernel([[0, 0], [0, 0]])
    assert sorted(basis) == [(0, 1), (1, 0)]


def test_kernel_row():
    assert integer_kernel([[1, 1]]) in (
        [(1, -1)],
        [(-1, 1)],
    )


def test_kernel_vectors_annihilate_and_saturate():
    rng = random.Random(11)
    for _ in range(50):
        m = [[rng.randint(-5, 5) for _ in range(4)] for _ in range(2)]
        basis = integer_kernel(m)
        for v in basis:
            assert all(x == 0 for x in apply(m, v))
        if basis:
            d, _v = smith_normal_form(basis)
            assert all(d[i][i] == 1 for i in range(len(basis)))


def test_kernel_e6_pairing_in_e8():
    e8 = catalog("E8")
    sub = [tuple(1 if i == j else 0 for i in range(8)) for j in (2, 3, 4, 5, 6, 7)]
    pairing = [[e8.inner(s, tuple(1 if i == c else 0 for i in range(8))) for c in range(8)]
               for s in sub]
    assert len(integer_kernel(pairing)) == 2


def test_inertia_hyperbolic_plane():
    assert inertia([[0, 1], [1, 0]]) == (1, 1, 0)


def test_inertia_named_lattices():
    assert inertia(a_lattice().int_rows) == (2, 4, 0)
    assert inertia(k3_lattice().int_rows) == (3, 19, 0)


def test_inertia_congruence_invariance():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 4)
        sym = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                sym[i][j] = sym[j][i] = rng.randint(-4, 4)
        # random unimodular p from elementary operations
        p = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(6):
            i, j = rng.sample(range(n), 2)
            c = rng.randint(-2, 2)
            for k in range(n):
                p[i][k] += c * p[j][k]
        assert inertia(matmul(transpose(p), sym, p)) == inertia(sym)



def test_inertia_of_congruent_diagonal():
    # Sylvester's law of inertia: P^T D P has the signs of D for every
    # invertible integer P; zero entries of D make it singular, and a
    # positive scale leaves the signs alone
    rng = random.Random(11)
    for _ in range(80):
        n = rng.randint(1, 6)
        d = [rng.choice([-3, -2, -1, 0, 1, 2, 5]) for _ in range(n)]
        p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        while bareiss_det(p) == 0:
            p = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        m = matmul(transpose(p), diagonal(d), p)
        expected = (sum(x > 0 for x in d), sum(x < 0 for x in d), d.count(0))
        assert inertia(m) == expected
        scale = rng.randint(1, 9) * rng.randint(2, 9)
        assert inertia([[scale * x for x in row] for row in m]) == expected


def _det_minors(m):
    n = len(m)
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
            prod *= m[i][perm[i]]
        total += sign * prod
    return total


def test_det_examples():
    assert bareiss_det([[0, 1], [1, 0]]) == -1
    assert bareiss_det(catalog("E8(-1)").int_rows) == 1
    # the benchmark tracer times the one Bareiss kernel under its old name
    assert det_fraction_free is bareiss_det


def test_det_matches_permanent_expansion():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 5)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        assert bareiss_det(m) == _det_minors(m)


def test_bareiss_det_on_int_rows():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(0, 5)
        rows = tuple(tuple(rng.randint(-6, 6) for _ in range(n)) for _ in range(n))
        assert bareiss_det(rows) == _det_minors(rows)
        assert bareiss_det(rows) == bareiss_det([list(r) for r in rows])
    rows = ((0, 1), (1, 0))
    assert bareiss_det(rows) == -1
    assert rows == ((0, 1), (1, 0))


@pytest.mark.parametrize("rows", [
    [[0, 1], [2, 0]],
    [[1, 2], [2, 1], [0, 0]],
    [[1, 2, 3]],
], ids=["int", "non-square", "one-row"])
def test_inertia_rejects_non_symmetric(rows):
    with pytest.raises(ValueError, match="not symmetric"):
        inertia(rows)


def test_matrix_errors():
    with pytest.raises(ValueError, match="not square"):
        bareiss_det([[1, 2]])
    with pytest.raises(ZeroDivisionError):
        GramLattice([[2, 2], [2, 2]]).gram.inverse()
