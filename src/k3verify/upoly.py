"""Dense univariate polynomials over the integers and over F_p.

A polynomial is a tuple of ``int`` coefficients, lowest degree first, with no
trailing zeros; ``()`` is the zero polynomial.  Over Z everything stays in
Z[x]: gcds and squarefree parts are primitive with a positive leading
coefficient, and exact division needs no fractions because of Gauss's lemma:
when a primitive b divides a in Q[x], the quotient already lies in Z[x].

Over F_p (the last section, ``factor_mod_p``) the same tuples hold
coefficients in range(p), and only the steps that divide by a leading
coefficient have loops of their own.

Tuples are built from lists, never from generators: ``tuple`` of a generator
allocates for ten items and resizes, and every such call leaves one block on
a tuple free list, which added about 1 MB to the peak RSS of a sweep.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
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


# -- over F_p --------------------------------------------------------------------


class CompositeModulusError(ValueError):
    pass


class LeadingCoefficientVanishesError(ValueError):
    pass


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _reduce(a, p: int) -> tuple:
    return trim([c % p for c in a])


def _monic(a, p: int) -> tuple:
    inv = pow(a[-1], p - 2, p)
    return tuple([c * inv % p for c in a])


def _divmod_p(a, b, p: int):
    """(q, r) with a = b * q + r and deg r < deg b over F_p, for b reduced and
    nonzero.  a may be unreduced, such as a product straight from ``mul``, if
    its leading coefficient is nonzero mod p."""
    db = len(b) - 1
    inv = pow(b[-1], p - 2, p)
    r = list(a)
    q = [0] * max(len(r) - db, 0)
    for shift in range(len(q) - 1, -1, -1):
        c = r.pop() * inv % p
        if c:
            q[shift] = c
            for i in range(db):
                r[shift + i] -= c * b[i]
    r = [c % p for c in r]
    while r and not r[-1]:
        r.pop()
    return tuple(q), tuple(r)


def _gcd_p(a, b, p: int) -> tuple:
    """Monic gcd, for a != ()."""
    while b:
        a, b = b, _divmod_p(a, b, p)[1]
    return _monic(a, p)


def _mulmod_p(a, b, m, p: int) -> tuple:
    return _divmod_p(mul(a, b), m, p)[1]


def _powmod_p(base, e: int, m, p: int) -> tuple:
    result = (1,)
    while e:
        if e & 1:
            result = _mulmod_p(result, base, m, p)
        base = _mulmod_p(base, base, m, p)
        e >>= 1
    return result


def _squarefree_p(f, p: int):
    """Squarefree decomposition of a monic f in characteristic p as the list
    of (g, multiplicity); a part with derivative zero is h(x^p) = h*(x)^p,
    where h* = f[::p] takes the coefficientwise p-th root."""
    d = _reduce(derivative(f), p)
    if not d:
        return [(g, m * p) for g, m in _squarefree_p(f[::p], p)]
    out = []
    w = _gcd_p(f, d, p)
    v = _divmod_p(f, w, p)[0]  # product of the distinct factors
    m = 1
    while len(v) > 1:
        g = _gcd_p(v, w, p)
        piece = _divmod_p(v, g, p)[0]
        if len(piece) > 1:
            out.append((piece, m))
        v = g
        w = _divmod_p(w, g, p)[0]
        m += 1
    if len(w) > 1:
        # what is left has multiplicities divisible by p
        out.extend((g, k * p) for g, k in _squarefree_p(w[::p], p))
    return out


def _distinct_degree_p(f, p: int):
    """Distinct-degree splitting of a monic squarefree f: [(product, d)]."""
    out = []
    x = (0, 1)
    h = x
    d = 0
    rest = f
    while len(rest) - 1 > 2 * d:
        d += 1
        h = _powmod_p(h, p, rest, p)
        g = _gcd_p(rest, _reduce(combine(h, 1, x, -1), p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = _divmod_p(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree_p(f, d: int, p: int, rng):
    """Cantor-Zassenhaus split of a monic squarefree product of degree-d
    irreducibles; p = 2 splits by the trace h + h^2 + ... + h^(2^(d-1))."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        h = tuple([rng.randrange(p) for _ in range(n)] + [1])
        if p == 2:
            t = acc = h
            for _ in range(d - 1):
                t = _mulmod_p(t, t, f, p)
                acc = _reduce(combine(acc, 1, t, 1), p)
            g = _gcd_p(f, acc, p)
        else:
            w = _powmod_p(h, (p ** d - 1) // 2, f, p)
            g = _gcd_p(f, _reduce(combine(w, 1, (1,), -1), p), p)
        if 0 < len(g) - 1 < n:
            rest = _divmod_p(f, g, p)[0]
            return _equal_degree_p(g, d, p, rng) + _equal_degree_p(rest, d, p, rng)


@dataclass(frozen=True)
class FactorizationModP:
    """unit * prod(factor^multiplicity) == input mod p, factors monic irreducible."""

    modulus: int
    unit: int
    factors: tuple  # ((coeff tuple low..high, multiplicity), ...)


def factor_mod_p(coefficients, p: int) -> FactorizationModP:
    """Factor a univariate integer polynomial over the field with p elements.

    ``coefficients`` are listed from the constant term up.  Squarefree
    decomposition, then distinct-degree splitting, then Cantor-Zassenhaus
    equal-degree splitting (Math. Comp. 36, 1981).
    """
    if not _is_prime(p):
        raise CompositeModulusError(f"{p} is not prime")
    coeffs = trim([int(c) for c in coefficients])
    if not coeffs or coeffs[-1] % p == 0:
        raise LeadingCoefficientVanishesError("leading coefficient vanishes mod p")
    f = _reduce(coeffs, p)
    unit = f[-1]
    f = _monic(f, p)
    if len(f) == 1:
        return FactorizationModP(p, unit, ())
    rng = random.Random(0xD15EA5E ^ p ^ len(f))
    factors = []
    for g, mult in _squarefree_p(f, p):
        for part, d in _distinct_degree_p(g, p):
            for irr in _equal_degree_p(part, d, p, rng):
                factors.append((irr, mult))
    factors.sort()
    return FactorizationModP(p, unit, tuple(factors))
