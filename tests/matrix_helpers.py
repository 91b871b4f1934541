"""Integer matrix arithmetic for the tests, written with plain loops so that it
stays independent of the code under test.  A matrix is a sequence of rows;
every matrix result is a tuple of row tuples."""
from fractions import Fraction
from itertools import combinations
from math import gcd


def matmul(*factors):
    """The product of the factors, left to right."""
    result = factors[0]
    for b in factors[1:]:
        result = tuple(
            tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
            for row in result
        )
    return result


def transpose(m):
    return tuple(tuple(m[i][j] for i in range(len(m))) for j in range(len(m[0])))


def identity(n):
    return diagonal([1] * n)


def diagonal(values):
    n = len(values)
    return tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n))


def apply(m, vector):
    """The matrix times a column vector, as a tuple."""
    return tuple(sum(x * y for x, y in zip(row, vector)) for row in m)


def det(m):
    """Determinant of a square matrix, by Gaussian elimination over ``Fraction``."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    value = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            value = -value
        value *= a[k][k]
        for i in range(k + 1, n):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(value)


def minor_gcd(m, k):
    """The gcd of the k x k minors; it stops at the first minor that brings it
    to 1, so a matrix whose early minors are coprime is cheap at any size."""
    g = 0
    for rows in combinations(range(len(m)), k):
        for cols in combinations(range(len(m[0])), k):
            g = gcd(g, det([[m[i][j] for j in cols] for i in rows]))
            if g == 1:
                return 1
    return g


def smith_diagonal(d):
    """The diagonal of a Smith form ``d`` after checking that ``d`` is
    diagonal, nonnegative and a divisibility chain d1 | d2 | ..."""
    assert all(x == 0 for i, row in enumerate(d) for j, x in enumerate(row) if i != j)
    diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
    assert all(x >= 0 for x in diag)
    assert all(y % x == 0 if x else y == 0 for x, y in zip(diag, diag[1:]))
    return diag


def divisors_match(m, d):
    """Whether d1 d2 ... dk is the gcd of the k x k minors of ``m`` for every
    k, the determinantal divisors that fix the Smith form of ``m``."""
    diag = smith_diagonal(d)
    product = 1
    for k, x in enumerate(diag, 1):
        product *= x
        if minor_gcd(m, k) != product:
            return False
    return True


def row_transform_exists(m, d, v):
    """Whether ``u m v = d`` for some unimodular ``u``, ``v`` being unimodular.

    With r nonzero diagonal entries, ``m v`` must be ``w d`` for a unimodular
    ``w`` (then ``u`` is its inverse): the columns of ``m v`` past r are zero,
    column j < r is d_j times an integer column, and those r quotient columns
    extend to a unimodular matrix, that is their r x r minors are coprime."""
    diag = smith_diagonal(d)
    if abs(det(v)) != 1:
        return False
    mv = matmul(m, v)
    r = sum(1 for x in diag if x)
    if any(x for row in mv for x in row[r:]):
        return False
    if any(row[j] % diag[j] for row in mv for j in range(r)):
        return False
    quotient = tuple(tuple(row[j] // diag[j] for j in range(r)) for row in mv)
    return r == 0 or minor_gcd(quotient, r) == 1
