"""Exact integer linear algebra kernels.

``ExactMatrix`` holds ``int`` entries only; no floating point enters any code
path.  The Smith normal form, the Bareiss determinant and the inertia run in
integer arithmetic on those entries; the Smith form returns ``(d, v)``, the
diagonal form and the column transform, as tuples of ``int`` rows.
``ExactMatrix`` is an immutable value.  ``ExactMatrix.inverse`` is the one
rational kernel; it is kept for the benchmark tracer, which patches it by name.
"""
from __future__ import annotations

from fractions import Fraction
from operator import floordiv


class ExactMatrix:
    """Immutable dense matrix with ``int`` entries, equal and hashed by value."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple):
        self.entries = entries

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    @staticmethod
    def from_rows(rows) -> "ExactMatrix":
        data = tuple(map(tuple, rows))
        if data and any(len(r) != len(data[0]) for r in data):
            raise ValueError("ragged rows")
        if any(type(x) is not int for row in data for x in row):
            raise ValueError("matrix entries must be int")
        return ExactMatrix(data)

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_symmetric(self) -> bool:
        if not self.is_square():
            return False
        return all(
            self.entries[i][j] == self.entries[j][i]
            for i in range(self.rows)
            for j in range(i)
        )

    def to_int_rows(self):
        return [list(row) for row in self.entries]

    def scale(self, c: int) -> "ExactMatrix":
        return ExactMatrix.from_rows([[c * x for x in row] for row in self.entries])

    def inverse(self):
        """Exact inverse as a tuple of ``Fraction`` rows, by Gauss-Jordan;
        raises on singular input."""
        # kept until the benchmark drops exactalg.inverse_s
        if not self.is_square():
            raise ValueError("matrix is not square")
        n = self.rows
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


def smith_normal_form(m: ExactMatrix):
    """Smith normal form ``d = u m v`` of an integer matrix.

    Returns ``(d, v)`` as tuples of ``int`` rows: ``d`` is diagonal and
    nonnegative with the divisibility chain d1 | d2 | ..., and ``v`` is the
    unimodular column transform.  The unimodular row transform ``u`` is not
    formed, since no caller reads it.  The pivot with smallest nonzero absolute
    value is chosen at every stage to limit entry growth.
    """
    a = m.to_int_rows()
    nr, nc = m.rows, m.cols
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


def integer_kernel(m: ExactMatrix):
    """Basis of the saturated integer kernel of an integer matrix.

    The returned vectors come from the unimodular column transform of the
    Smith normal form, so they automatically span a primitive sublattice.
    """
    d, v = smith_normal_form(m)
    rank = sum(1 for i in range(min(m.rows, m.cols)) if d[i][i] != 0)
    return [tuple(row[j] for row in v) for j in range(rank, m.cols)]


def inertia(m: ExactMatrix):
    """Signature counts ``(n_pos, n_neg, n_zero)`` of a symmetric matrix.

    Symmetric Gaussian reduction in ``int``, made fraction-free by Bareiss'
    division by the previous pivot: the active block is always (last pivot)
    times the true Schur complement, so each true pivot has the sign of
    pivot * previous pivot.  When every diagonal entry of the active block
    vanishes, a symmetric shear manufactures a nonzero pivot (the
    hyperbolic-plane case, e.g. Gram(U)).
    """
    a = m.to_int_rows()
    n = len(a)
    if any(len(row) != n for row in a) or any(
        a[i][j] != a[j][i] for i in range(n) for j in range(i)
    ):
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
    division is by the previous pivot.  A singular matrix gives the ``int`` 0.
    """
    a = [list(row) for row in rows]
    n = len(a)
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


def det_fraction_free(m: ExactMatrix) -> int:
    """Exact determinant of an integer matrix by Bareiss elimination."""
    if not m.is_square():
        raise ValueError("matrix is not square")
    return bareiss_det(m.entries)
