"""Exact integer linear algebra on ``int`` rows: the one elimination core.

The Smith normal form (the integer kernel is read from its column transform),
the inertia, the Bareiss determinant and the rank modulo a prime take a matrix
as a sequence of ``int`` rows and copy only what they mutate; no floating point
enters any code path.  ``ExactMatrix`` is no kernel input but the view of a
lattice's Gram matrix that the benchmark reads: its gate calls ``to_int_rows``
and its tracer patches ``inverse``, the one rational kernel.
"""
from __future__ import annotations

from fractions import Fraction
from operator import floordiv


class ExactMatrix:
    """The Gram matrix of a lattice as the benchmark reads it: ``entries`` is
    the lattice's tuple of ``int`` rows, not a copy."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries

    def to_int_rows(self):
        return [list(row) for row in self.entries]

    def inverse(self):
        """Exact inverse of the square matrix as a tuple of ``Fraction`` rows,
        by Gauss-Jordan; raises on singular input."""
        n = len(self.entries)
        a = [[Fraction(x) for x in row] for row in self.entries]
        inv = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        for col in range(n):
            pivot = next((i for i in range(col, n) if a[i][col] != 0), None)
            if pivot is None:
                raise ZeroDivisionError("matrix is singular")
            a[col], a[pivot] = a[pivot], a[col]
            inv[col], inv[pivot] = inv[pivot], inv[col]
            p = a[col][col]
            a[col] = [x / p for x in a[col]]
            inv[col] = [x / p for x in inv[col]]
            for i in range(n):
                if i != col and a[i][col] != 0:
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[col])]
                    inv[i] = [x - f * y for x, y in zip(inv[i], inv[col])]
        return tuple(map(tuple, inv))


def smith_normal_form(rows):
    """Smith normal form ``d = u m v`` of an integer matrix ``m`` given as rows.

    Returns ``(d, v)`` as tuples of ``int`` rows: ``d`` is diagonal and
    nonnegative with the divisibility chain d1 | d2 | ..., and ``v`` is the
    unimodular column transform.  The unimodular row transform ``u`` is not
    formed, since no caller reads it.  The pivot with smallest nonzero absolute
    value is chosen at every stage to limit entry growth.
    """
    a = [list(row) for row in rows]
    nr, nc = len(a), len(a[0]) if a else 0
    v = [[1 if i == j else 0 for j in range(nc)] for i in range(nc)]

    def swap_cols(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in v:
            row[i], row[j] = row[j], row[i]

    def add_col(dst, src, mult):
        for row in a:
            row[dst] += mult * row[src]
        for row in v:
            row[dst] += mult * row[src]

    t = 0
    while t < min(nr, nc):
        # smallest-nonzero-absolute-value pivot in the trailing block
        pivot = None
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < best):
                    best = abs(a[i][j])
                    pivot = (i, j)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        swap_cols(t, pivot[1])
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        while True:
            changed = False
            for i in range(t + 1, nr):
                if a[i][t] != 0:
                    q = a[i][t] // a[t][t]
                    a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t] != 0:
                        a[i], a[t] = a[t], a[i]
                        changed = True
            for j in range(t + 1, nc):
                if a[t][j] != 0:
                    q = a[t][j] // a[t][t]
                    add_col(j, t, -q)
                    if a[t][j] != 0:
                        swap_cols(j, t)
                        changed = True
            if changed:
                if a[t][t] < 0:
                    a[t] = [-x for x in a[t]]
                continue
            # divisibility: the pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, nr):
                for j in range(t + 1, nc):
                    if a[i][j] % a[t][t] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[t] = [x + y for x, y in zip(a[t], a[offender])]
        t += 1

    return tuple(map(tuple, a)), tuple(map(tuple, v))


def integer_kernel(rows):
    """Basis of the saturated integer kernel of an integer matrix given as
    rows, at least one, since a row carries the width.

    The returned vectors come from the unimodular column transform of the
    Smith normal form, so they automatically span a primitive sublattice.
    """
    d, v = smith_normal_form(rows)
    rank = sum(1 for i in range(min(len(d), len(v))) if d[i][i] != 0)
    return [tuple(row[j] for row in v) for j in range(rank, len(v))]


def inertia(rows):
    """Signature counts ``(n_pos, n_neg, n_zero)`` of a symmetric matrix given as rows.

    Symmetric Gaussian reduction in ``int``, made fraction-free by Bareiss'
    division by the previous pivot: the active block is always (last pivot)
    times the true Schur complement, so each true pivot has the sign of
    pivot * previous pivot.  When every diagonal entry of the active block
    vanishes, a symmetric shear manufactures a nonzero pivot (the
    hyperbolic-plane case, e.g. Gram(U)).
    """
    a = [list(row) for row in rows]
    n = len(a)
    if list(map(list, zip(*a))) != a:
        raise ValueError("matrix is not symmetric")
    pos = neg = 0
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            off = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j]),
                       None)
            if off is None:
                return pos, neg, n - k
            # row_i += row_j followed by col_i += col_j
            piv, j = off
            a[piv] = [x + y for x, y in zip(a[piv], a[j])]
            for row in a[k:]:
                row[piv] += row[j]
        a[k], a[piv] = a[piv], a[k]
        for row in a[k:]:
            row[k], row[piv] = row[piv], row[k]
        p, pk = a[k][k], a[k]
        if (p > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            ai = a[i]
            f = ai[k]
            for j in range(k + 1, n):
                ai[j] = (p * ai[j] - f * pk[j]) // prev
        prev = p
    return pos, neg, 0


def bareiss_det(rows, exact_div=floordiv):
    """Determinant of a square matrix over an integral domain, given as a
    sequence of rows, by Bareiss' fraction-free elimination (Math. Comp. 22,
    1968).  The entries are ``int`` by default; over another domain, such as
    Z[t], pass its exact division (``WeightedPolynomial.exact_div``).  Each
    division is by the previous pivot.  A singular matrix gives the ``int`` 0,
    and a matrix that is not square raises ``ValueError``.
    """
    a = [list(row) for row in rows]
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("matrix is not square")
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        pk, p = a[k], a[k][k]
        for i in range(k + 1, n):
            ai, f = a[i], a[i][k]
            for j in range(k + 1, n):
                ai[j] = exact_div(p * ai[j] - f * pk[j], prev)
        prev = p
    return sign * a[n - 1][n - 1]


# the benchmark tracer times every Bareiss determinant under this name
det_fraction_free = bareiss_det


def rank_mod_p(rows, p: int) -> int:
    """Rank over the field with p elements, for a prime p, of an integer
    matrix given as its rows."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    a = [[x % p for x in row] for row in rows]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        pr = a[rank]
        inv = pow(pr[col], -1, p)
        for i in range(rank + 1, len(a)):
            if a[i][col]:
                f = a[i][col] * inv % p
                a[i] = [(x - f * y) % p for x, y in zip(a[i], pr)]
        rank += 1
    return rank
