"""Integer matrix arithmetic for the tests, written with plain loops so that it
stays independent of the code under test.  A matrix is an ``ExactMatrix`` or a
sequence of rows; every result is a tuple of row tuples."""


def rows_of(m):
    return m.entries if hasattr(m, "entries") else m


def matmul(*factors):
    """The product of the factors, left to right."""
    result = rows_of(factors[0])
    for factor in factors[1:]:
        b = rows_of(factor)
        result = tuple(
            tuple(sum(row[k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
            for row in result
        )
    return result


def transpose(m):
    a = rows_of(m)
    return tuple(tuple(a[i][j] for i in range(len(a))) for j in range(len(a[0])))


def identity(n):
    return diagonal([1] * n)


def diagonal(values):
    n = len(values)
    return tuple(tuple(values[i] if i == j else 0 for j in range(n)) for i in range(n))


def apply(m, vector):
    """The matrix times a column vector, as a tuple."""
    return tuple(sum(x * y for x, y in zip(row, vector)) for row in rows_of(m))
