"""Resultants, discriminants, and the sample points of probabilistic identity
testing.

The resultant is defined as the determinant of the Sylvester matrix with the
rows of the first argument on top.  Eliminating a variable drops it: the
resultant and the discriminant live over the table of their operands without
the eliminated variable, so disc_x0(R) lands on (t4, t6, t10, t12, t18).
Each operand is split by that variable once, straight into integer kernel
values over the smaller table (``wpoly._Kernel.split``), and the chain runs on
those.  It is Ducos' subresultant algorithm (Ducos, "Optimizations of the
subresultant algorithm", JPAA 145, 2000): one pseudo-remainder, then each
subresultant from the previous two by Ducos' reduction, which divides
exactly as it goes instead of forming the full pseudo-remainder, and each
power quotient x^n / y^(n-1) by Lazard's square-and-divide.

Every division of the chain divides a sum of products, handed to the kernel
as pairs (``_Kernel.dot_div``): large weighted-homogeneous ones, as in disc(R),
are summed and divided as packed big ints, and a quotient is kept only when
two coefficient bounds prove it exact (see ``wpoly._Kernel``).

``delta_factors`` gives res(R, R') for the families' R = 4x^e a^3 + 27b^2 as
factors, from two checked cofactor congruences; ``discriminant`` is its oracle.
"""
from __future__ import annotations

from typing import NamedTuple

from .wpoly import WeightedPolynomial, _Kernel


class BothConstantError(ValueError):
    """Both inputs are constant in the elimination variable."""


class DegreeTooLowError(ValueError):
    """Discriminants need degree at least 2 in the variable."""


class PitConfig:
    """Trial budget, seed and coordinate bound B of a randomized test, all ``int``."""

    __slots__ = ("trials", "seed", "sample_bound")

    def __init__(self, trials: int = 100, seed: int = 0, sample_bound: int = 1_000_003):
        for name, value in (("trials", trials), ("seed", seed), ("sample_bound", sample_bound)):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, got {value!r}")
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if sample_bound < 2:
            raise ValueError("sample_bound must be >= 2")
        self.trials, self.seed, self.sample_bound = trials, seed, sample_bound


_MASK = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One output of the splitmix64 generator for the given state."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def sample_point(cfg: PitConfig, trial: int, nvars: int):
    """Deterministic coordinates in [-B, B], one stream per trial index."""
    width = 2 * cfg.sample_bound + 1
    coords = []
    state = (cfg.seed + trial) & _MASK
    for i in range(nvars):
        value = splitmix64((state + 0x1000 * (i + 1)) & _MASK)
        coords.append(value % width - cfg.sample_bound)
    return tuple(coords)


# -- coefficient lists of kernel values ---------------------------------------


def _trim(coeffs):
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return coeffs


def _prem(a, b, kernel):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b."""
    mul, sub = kernel.mul, kernel.sub
    db = len(b) - 1
    lb = b[-1]
    r = list(a)
    e = len(a) - db
    while r and len(r) - 1 >= db:
        shift = len(r) - 1 - db
        top = r.pop()
        r = [mul(c, lb) for c in r]
        for i, bc in enumerate(b[:-1]):
            r[shift + i] = sub(r[shift + i], mul(top, bc))
        _trim(r)
        e -= 1
    if e > 0:
        power = kernel.pow(lb, e)
        r = [mul(c, power) for c in r]
    return r


def resultant(f: WeightedPolynomial, g: WeightedPolynomial, var: str) -> WeightedPolynomial:
    """Resultant of f and g with respect to ``var``, over their table without
    ``var``.

    Equals the Sylvester determinant with f-rows on top.  A constant operand is
    handled as lc(const)^deg(other); two constants raise BothConstantError.
    """
    f._check_table(g)
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial is undefined here")
    kernel, (a, b) = _Kernel(f.table).split([f, g], var)
    m, n = len(a) - 1, len(b) - 1
    if m < 1 and n < 1:
        raise BothConstantError(f"both inputs constant in {var!r}")
    if m < 1:
        return kernel.poly(kernel.pow(a[0], n))
    if n < 1:
        return kernel.poly(kernel.pow(b[0], m))
    return kernel.poly(_resultant_ducos(a, b, kernel))


def _resultant_ducos(p, q, kernel):
    """Ducos' subresultant algorithm on coefficient lists of degree at least 1.

    One pseudo-remainder starts the sequence; every later subresultant comes
    from :func:`_ducos_reduction`, and each regular subresultant S_e and the
    final resultant from :func:`_lazard`.  The sign follows the subresultant
    PRS: it flips whenever two consecutive degrees are both odd.
    """
    sign = 1
    if len(p) < len(q):
        p, q = q, p
    elif (len(p) - 1) % 2 == 1 and (len(q) - 1) % 2 == 1:
        sign = -sign
    s = kernel.pow(q[-1], len(p) - len(q))
    p, q = q, _trim(_prem(p, q, kernel))
    while len(q) > 1:
        delta = len(p) - len(q)
        z = q
        if delta > 1:
            lift = _lazard(q[-1], s, delta - 1, kernel)
            z = [kernel.dot_div([(c, lift)], s) for c in q]
        if (len(p) - 1) % 2 == 1 and (len(q) - 1) % 2 == 1:
            sign = -sign
        p, q = z, _trim(_ducos_reduction(p, q, z, s, kernel))
        s = p[-1]
    if not q:
        return {}
    res = _lazard(q[0], s, len(p) - 1, kernel)
    return res if sign == 1 else {key: -c for key, c in res.items()}


def _lazard(x, y, n, kernel):
    """x^n / y^(n-1) by squaring, dividing by y after every product (Lazard).

    Every partial power x^k / y^(k-1) is exact when x and y are the leading
    coefficients of consecutive subresultants, so x^n and y^(n-1) are never
    formed.
    """
    dot_div = kernel.dot_div
    c = x
    for bit in bin(n)[3:]:
        c = dot_div([(c, c)], y)
        if bit == "1":
            c = dot_div([(c, x)], y)
    return c


def _ducos_reduction(p, q, z, s, kernel):
    """prem(p, q) / (lc(p) * s^(deg p - deg q)) without forming prem(p, q).

    ``p`` is the subresultant S_d, ``q`` the next one S_(d-1) of degree
    e < d, ``z`` the regular S_e (a multiple of ``q`` with lc(z) =
    lc(q)^(d-e) / s^(d-e-1)) and ``s`` the principal coefficient of S_d.
    Ducos (JPAA 145, 2000): h_j = lc(z) x^j mod q has degree below e and
    h_(j+1) = x h_j - [x^(e-1)]h_j * q / lc(q); then
    sum_j p_j h_j / lc(p) reduces lc(z) * p / lc(p) mod q, and one more step
    times lc(q) over s gives the result.  Every division is exact, and each
    divides the products summed into one coefficient in a single ``dot_div``.
    """
    add, sub, dot_div = kernel.add, kernel.sub, kernel.dot_div
    d, e = len(p) - 1, len(q) - 1
    lq, tail = q[-1], q[:-1]

    def times_x(h):
        # x * h reduced mod q; h has the e coefficients of x^0 .. x^(e-1)
        top, h = h[-1], [{}] + h[:-1]
        if not top:
            return h
        return [sub(x, dot_div([(top, t)], lq)) for x, t in zip(h, tail)]

    h = [{key: -c for key, c in x.items()} for x in z[:-1]]
    sums = [[(x, z[-1])] for x in p[:e]]  # the products summed into each coefficient
    for j in range(e, d):
        if j > e:
            h = times_x(h)
        if p[j]:
            for products, x in zip(sums, h):
                products.append((x, p[j]))
    acc = [dot_div(products, p[-1]) for products in sums]
    top, h = h[-1], [{}] + h[:-1]
    top = {key: -c for key, c in top.items()}
    return [dot_div([(add(x, y), lq), (top, t)], s) for x, y, t in zip(h, acc, tail)]


def discriminant(f: WeightedPolynomial, var: str) -> WeightedPolynomial:
    """(-1)^(n(n-1)/2) * res(f, df/dvar) / lc(f), with exact division, over
    the table of f without ``var``."""
    n = f.degree_in(var)
    if n < 2:
        raise DegreeTooLowError(f"degree {n} in {var!r} is below 2")
    kernel, (a, b) = _Kernel(f.table).split([f, f.derivative(var)], var)
    quotient = kernel.poly(kernel.exact_div(_resultant_ducos(a, b, kernel), a[-1]))
    return -quotient if (n * (n - 1) // 2) % 2 else quotient


class DeltaFactors(NamedTuple):
    """res(R, R') = numerator * hg * ab^3 / denominator (see ``delta_factors``)."""

    numerator: WeightedPolynomial
    denominator: WeightedPolynomial
    ab: WeightedPolynomial
    hg: WeightedPolynomial

    def product(self) -> WeightedPolynomial:
        return (self.numerator * self.hg * self.ab ** 3).exact_div(self.denominator)


def delta_factors(a: WeightedPolynomial, b: WeightedPolynomial, e: int, var: str) -> DeltaFactors:
    """The factors of res(R, R') over the table without x = ``var``, for
    R = 4 x^e a^3 + 27 b^2: ab = res(a, b), hg = res(h, g) / res(c, b')^2.

    For c = e a + 3x a', h = b c - 2x a b' and g = a c^2 + 27 x^(2-e) b'^2 it
    checks 27 b R' = 108 x^(e-1) a^2 h + 54 b' R and h | R c^2 - 4 x^e a^2 g.
    Products over the roots of R, then of h, turn them into

        res(R, R') res(R, b) = 4^n lc(R)^(n-e-3) res(R, x)^(e-1) res(R, a)^2 res(R, h)
        res(h, R) res(h, c)^2 = 4^m res(h, x)^e res(h, a)^2 res(h, g)

    with n = deg R, m = deg h = deg b + 1 and deg g = n - e.  Only res(h, g)
    runs a long chain; each other resultant is a power of res(a, b) or of
    res(c, b') times a small cofactor, divided out exactly first; the
    cofactors make up the numerator and the denominator.  A shape that fails
    the checks below, or has res(a, b) res(c, b') = 0, raises ValueError
    before that.
    """
    a._check_table(b)
    i = a.table.index(var)
    if (a.degree_in(var) != 1 or e not in (1, 2) or 2 * b.degree_in(var) in (0, e + 3)
            or not all(any(exp[i] == 0 for exp in p.terms) for p in (a, b))):
        raise ValueError("needs a linear a, e in (1, 2), 2 deg b not in (0, e + 3), a(0) b(0) != 0")
    x, db = WeightedPolynomial.variable(a.table, var), b.derivative(var)
    c = e * a + 3 * x * a.derivative(var)
    ab, beta = resultant(a, b, var), resultant(c, db, var)
    if ab.is_zero() or beta.is_zero():
        raise ValueError("res(a, b) or res(c, b') vanishes")
    big = 4 * x ** e * a ** 3 + 27 * b ** 2
    h = b * c - 2 * x * a * db
    g = a * c ** 2 + 27 * x ** (2 - e) * db ** 2
    if 27 * b * big.derivative(var) != 108 * x ** (e - 1) * a ** 2 * h + 54 * db * big:
        raise ArithmeticError("27 b R' != 108 x^(e-1) a^2 h + 54 b' R")
    (big * c ** 2 - 4 * x ** e * a ** 2 * g).exact_div(h)
    n, m = big.degree_in(var), h.degree_in(var)
    kernel, (coeffs,) = _Kernel(big.table).split([big], var)
    numerator = ((-1) ** (n * m) * 4 ** (n + m) * kernel.poly(coeffs[-1]) ** (n - e - 3)
                 * resultant(big, x, var) ** (e - 1) * resultant(h, x, var) ** e
                 * resultant(big, a, var).exact_div(ab ** 2) ** 2
                 * resultant(h, a, var).exact_div(ab) ** 2)
    denominator = (resultant(big, b, var).exact_div(ab ** 3)
                   * resultant(h, c, var).exact_div(beta) ** 2)
    return DeltaFactors(numerator, denominator, ab, resultant(h, g, var).exact_div(beta ** 2))


def delta_resultant(a: WeightedPolynomial, b: WeightedPolynomial, e: int, var: str):
    """res(R, R') as the product of its ``delta_factors``."""
    return delta_factors(a, b, e, var).product()
