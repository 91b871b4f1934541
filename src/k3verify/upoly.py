"""Dense univariate polynomials over the integers and over F_p.

A polynomial is a tuple of ``int`` coefficients, lowest degree first, with no
trailing zeros; ``()`` is the zero polynomial.  Over Z everything stays in
Z[x]: gcds and squarefree parts are primitive with a positive leading
coefficient, and exact division needs no fractions because of Gauss's lemma:
when a primitive b divides a in Q[x], the quotient already lies in Z[x].
``gcd`` and ``squarefree`` first split off the power of x that divides their
input (``split_x``, read off the low zero coefficients) and run the remainder
sequence and Yun's loop on the x-free parts only: the discriminant of an
elliptic fibration often carries a high power of x0, which no gcd needs to
rediscover.

Over F_p (the last section, ``irreducible_mod_p``: Ben-Or's irreducibility
test) the same tuples hold coefficients in range(p), and only the steps that
divide by a leading coefficient have loops of their own.

Tuples are built from lists, never from generators: ``tuple`` of a generator
allocates for ten items and resizes, and every such call leaves one block on
a tuple free list, which added about 1 MB to the peak RSS of a sweep.
"""
from __future__ import annotations

import math
from functools import reduce
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
    return reduce(mul, [a] * (k - 1), tuple(a)) if k else (1,)


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


def split_x(a):
    """(k, a[k:]) with a = x^k * a[k:] and a[k:] not divisible by x;
    (0, ()) for the zero polynomial."""
    k = 0
    while k < len(a) and not a[k]:
        k += 1
    return k, a[k:]


def gcd(a, b) -> tuple:
    """Primitive gcd: x^min(ka, kb) times the gcd of the x-free parts by the
    primitive polynomial remainder sequence, where x^ka and x^kb are the
    powers of x dividing a and b."""
    a, b = primitive(a)[1], primitive(b)[1]
    if not a or not b:
        return a or b
    (ka, a), (kb, b) = split_x(a), split_x(b)
    while b:
        a, b = b, primitive(prem(a, b))[1]
    return (0,) * min(ka, kb) + a


def squarefree(a):
    """Yun's decomposition a = c * prod f_k^k as the list of (f_k, k) with
    deg f_k >= 1; the f_k are primitive, squarefree and pairwise coprime.

    Yun's loop runs on the x-free part of a; the power x^j dividing a is
    then multiplied into f_j, or inserted as (x, j) when there is no f_j.
    c and w are divided by the same primitive polynomials, so they keep the
    common scale that Yun's invariant w - c' = f_k * (...) relies on.
    """
    j, a = split_x(primitive(a)[1])
    strata = []
    if len(a) > 1:
        d = derivative(a)
        g = gcd(a, d)
        c, w = exact_div(a, g), exact_div(d, g)
        k = 1
        while len(c) > 1:
            y = combine(w, 1, derivative(c), -1)
            f = gcd(c, y)
            if len(f) > 1:
                strata.append((f, k))
            c, w = exact_div(c, f), exact_div(y, f)
            k += 1
    if j:
        by_multiplicity = {k: f for f, k in strata}
        by_multiplicity[j] = (0,) + by_multiplicity.get(j, (1,))
        strata = [(by_multiplicity[k], k) for k in sorted(by_multiplicity)]
    return strata


def resultants(pairs) -> list:
    """res(a, b), the Sylvester determinant with the rows of a on top, of each
    pair of degrees at least 1: one subresultant chain (Brown and Traub, J. ACM
    18, 1971) on coefficient columns, one list comprehension per coefficient
    and step.  Pairs of equal degrees form a group; positions whose remainder
    loses more than one degree, or vanishes, split off into groups of their own."""
    out, groups, work = [0] * len(pairs), {}, []
    for k, (a, b) in enumerate(pairs):
        groups.setdefault((len(a), len(b)), []).append(k)
    for (m, n), ks in groups.items():  # lengths, so even means odd degree
        a, b = ([list(c) for c in zip(*[pairs[k][s] for k in ks])] for s in (0, 1))
        sign = -1 if m < n and m % 2 == n % 2 == 0 else 1
        work.append((ks, *((b, a) if m < n else (a, b)), [1] * len(ks), [1] * len(ks), sign))
    while work:
        ks, a, b, g, h, sign = work.pop()
        delta = len(a) - len(b)
        sign = -sign if len(a) % 2 == len(b) % 2 == 0 else sign
        db, lb, r = len(b) - 1, b[-1], list(a)  # prem(a, b) at every position
        for shift in range(delta, -1, -1):
            top = r.pop()
            for j in range(shift):
                r[j] = [x * y for x, y in zip(r[j], lb)]
            for j in range(db):
                r[shift + j] = [x * y - t * z for x, y, t, z in zip(r[shift + j], lb, top, b[j])]
        denom = [x * y ** delta for x, y in zip(g, h)]
        r = [[c // d for c, d in zip(col, denom)] for col in r]
        a, g = b, b[-1]
        if delta:
            h = [x ** delta // y ** (delta - 1) for x, y in zip(g, h)] if delta > 1 else g
        degrees = [len(r) - 1] * len(ks) if all(r[-1]) else [
            max([d for d, col in enumerate(r) if col[p]], default=-1) for p in range(len(ks))]
        for d in set(degrees):
            ps, cols = [p for p, e in enumerate(degrees) if e == d], [ks, *a, *r[:d + 1], g, h]
            if len(ps) < len(ks):
                cols = [[col[p] for p in ps] for col in cols]
            if d == 0:
                q = len(a) - 1
                for k, x, y in zip(cols[0], cols[-3], cols[-1]):
                    out[k] = sign * (x if q == 1 else x ** q // y ** (q - 1))
            elif d > 0:
                work.append((cols[0], cols[1:len(a) + 1], cols[len(a) + 1:-2], *cols[-2:], sign))
    return out


def discriminants(polys) -> list:
    """(-1)^(n(n-1)/2) * res(f, f') / lc(f) of each f of degree n >= 2."""
    if any(len(f) < 3 for f in polys):
        raise ValueError(f"degree {min(map(len, polys)) - 1} is below 2")
    res = resultants([(f, derivative(f)) for f in polys])
    return [r // f[-1] * (-1) ** ((len(f) - 1) * (len(f) - 2) // 2) for r, f in zip(res, polys)]


def discriminant(f) -> int:
    return discriminants([f])[0]


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


def irreducible_mod_p(coefficients, p: int) -> bool:
    """Whether a univariate integer polynomial, listed from the constant term
    up, is irreducible over the field with p elements.

    Ben-Or's test ("Probabilistic algorithms in finite fields", FOCS 1981),
    which needs no randomness: a monic f of degree n is reducible exactly
    when it has an irreducible factor of degree d <= n/2, squarefree or not,
    and that factor divides gcd(f, x^(p^d) - x).
    """
    if not _is_prime(p):
        raise CompositeModulusError(f"{p} is not prime")
    coeffs = trim([int(c) for c in coefficients])
    if not coeffs or coeffs[-1] % p == 0:
        raise LeadingCoefficientVanishesError("leading coefficient vanishes mod p")
    f = _monic(_reduce(coeffs, p), p)
    n = len(f) - 1
    x = (0, 1)
    h = x
    for _ in range(n // 2):
        h = _powmod_p(h, p, f, p)
        if len(_gcd_p(f, _reduce(combine(h, 1, x, -1), p), p)) > 1:
            return False
    return n >= 1
