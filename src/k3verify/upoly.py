"""Dense univariate polynomials over the integers.

A polynomial is a tuple of ``int`` coefficients, lowest degree first, with no
trailing zeros; ``()`` is the zero polynomial.  Everything stays in Z[x]:
gcds and squarefree parts are primitive with a positive leading coefficient,
and exact division needs no fractions because of Gauss's lemma: when a
primitive b divides a in Q[x], the quotient already lies in Z[x].

Tuples are built from lists, never from generators: ``tuple`` of a generator
allocates for ten items and resizes, and every such call leaves one block on
a tuple free list, which added about 1 MB to the peak RSS of a sweep.
"""
from __future__ import annotations

import math
from itertools import zip_longest


def trim(a) -> tuple:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return tuple(a)


def derivative(a) -> tuple:
    return tuple([i * a[i] for i in range(1, len(a))])


def primitive(a):
    """(content, part) with a = content * part and part primitive with a
    positive leading coefficient; (0, ()) for the zero polynomial."""
    c = math.gcd(*a)
    if not c:
        return 0, ()
    if a[-1] < 0:
        c = -c
    return c, tuple([x // c for x in a])


def combine(a, x: int, b, y: int) -> tuple:
    """x * a + y * b."""
    return trim(x * p + y * q for p, q in zip_longest(a, b, fillvalue=0))


def mul(a, b) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def power(a, k: int) -> tuple:
    out = (1,)
    for _ in range(k):
        out = mul(out, a)
    return out


def exact_div(a, b):
    """The q in Z[x] with a = b * q, or None when there is none.

    For a primitive b, None means b does not divide a even over Q.
    """
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    q = [0] * max(len(a) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        top = r[shift + db]
        if top:
            quot, rem = divmod(top, lb)
            if rem:
                return None
            q[shift] = quot
            for i in range(db):
                r[shift + i] -= quot * b[i]
    if any(r[:db]):
        return None
    return tuple(q)


def prem(a, b) -> tuple:
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    db, lb = len(b) - 1, b[-1]
    r = list(a)
    e = len(a) - db
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        top = r.pop()
        r = [c * lb for c in r]
        for i in range(db):
            r[shift + i] -= top * b[i]
        while r and not r[-1]:
            r.pop()
        e -= 1
    if e > 0:
        scale = lb ** e
        r = [c * scale for c in r]
    return tuple(r)


def gcd(a, b) -> tuple:
    """Primitive gcd by the primitive polynomial remainder sequence."""
    a, b = primitive(a)[1], primitive(b)[1]
    while b:
        a, b = b, primitive(prem(a, b))[1]
    return a


def squarefree(a):
    """Yun's decomposition a = c * prod f_k^k as the list of (f_k, k) with
    deg f_k >= 1; the f_k are primitive, squarefree and pairwise coprime.

    c and w are divided by the same primitive polynomials, so they keep the
    common scale that Yun's invariant w - c' = f_k * (...) relies on.
    """
    a = primitive(a)[1]
    if len(a) < 2:
        return []
    d = derivative(a)
    g = gcd(a, d)
    c, w = exact_div(a, g), exact_div(d, g)
    strata = []
    k = 1
    while len(c) > 1:
        y = combine(w, 1, derivative(c), -1)
        f = gcd(c, y)
        if len(f) > 1:
            strata.append((f, k))
        c, w = exact_div(c, f), exact_div(y, f)
        k += 1
    return strata


def resultant(a, b) -> int:
    """Determinant of the Sylvester matrix with the rows of a on top, by the
    subresultant PRS; a and b must have degree at least 1."""
    m, n = len(a) - 1, len(b) - 1
    sign = -1 if m < n and m % 2 and n % 2 else 1
    if m < n:
        a, b = b, a
    g = h = 1
    while True:
        da, db = len(a) - 1, len(b) - 1
        delta = da - db
        if da % 2 and db % 2:
            sign = -sign
        r = prem(a, b)
        a = b
        denom = g * h ** delta
        b = tuple([c // denom for c in r])
        if not b:
            return 0
        g = a[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = g ** delta // h ** (delta - 1)
        if len(b) == 1:
            break
    q = len(a) - 1
    res = b[0] if q == 1 else b[0] ** q // h ** (q - 1)
    return sign * res


def discriminant(f) -> int:
    """(-1)^(n(n-1)/2) * res(f, f') / lc(f) for f of degree n >= 2."""
    n = len(f) - 1
    if n < 2:
        raise ValueError(f"degree {n} is below 2")
    quotient = resultant(f, derivative(f)) // f[-1]
    return -quotient if (n * (n - 1) // 2) % 2 else quotient
