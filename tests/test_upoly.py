import itertools
import math
import random
from fractions import Fraction

import pytest

from k3verify import upoly
from k3verify.eliminate import discriminant, resultant
from k3verify.wpoly import VariableTable, WeightedPolynomial

X = VariableTable(("x",), (1,))


def _wp(coeffs):
    return WeightedPolynomial.from_terms(X, {(i,): c for i, c in enumerate(coeffs) if c})


def _random_poly(rng, degree, bound=9):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return tuple(coeffs) + (rng.choice([-3, -2, -1, 1, 2, 3]),)


def test_discriminant_matches_eliminate():
    # disc = (-1)^(n(n-1)/2) res(f, f') / lc(f) on both sides; repeated roots
    # give 0, and about half of the leading coefficients are negative
    rng = random.Random(20)
    zero = negative_lc = 0
    for _ in range(150):
        f = _random_poly(rng, rng.randint(2, 8))
        if rng.random() < 0.4:
            root = (rng.randint(-4, 4), rng.choice([-2, -1, 1, 2]))
            rest = _random_poly(rng, rng.randint(0, 4))
            f = upoly.mul(upoly.mul(root, root), rest)
        value = upoly.discriminant(f)
        assert value == discriminant(_wp(f), "x").coefficient(())
        zero += value == 0
        negative_lc += f[-1] < 0
    assert zero >= 30 and negative_lc >= 30


def _abnormal(f):
    """Whether the remainder sequence of f and f' drops a degree by more than
    one, or ends in 0, before it reaches a constant."""
    a, b = f, upoly.derivative(f)
    while len(b) > 1:
        a, b = b, upoly.primitive(upoly.prem(a, b))[1]
        if len(b) < len(a) - 1:
            return True
    return False


def test_column_discriminants_match_eliminate_position_by_position():
    # one batch with degrees 2 to 7, normal and abnormal chains, repeated
    # roots (disc 0) and negative leading coefficients, against the
    # multivariate chain one polynomial at a time
    rng = random.Random(33)
    polys = [_random_poly(rng, n) for n in range(2, 8) for _ in range(8)]
    for n in range(2, 8):  # sparse: c + d x^n, x^(n-2) (4x^2 - 1) and 1 + 2x - x^n
        polys += [(rng.choice([-2, 1, 3]),) + (0,) * (n - 1) + (rng.choice([-1, 2]),),
                  (0,) * (n - 2) + (-1, 0, 4), (1, 2) + (0,) * (n - 2) + (-1,)]
    for _ in range(12):  # a squared factor
        root = (rng.randint(-4, 4), rng.choice([-2, -1, 1, 2]))
        polys.append(upoly.mul(upoly.mul(root, root), _random_poly(rng, rng.randint(0, 5))))
    rng.shuffle(polys)
    values = upoly.discriminants(polys)
    assert len(values) == len(polys)
    for f, value in zip(polys, values):
        assert value == discriminant(_wp(f), "x").coefficient(())
    assert {len(f) - 1 for f in polys} == set(range(2, 8))
    assert sum(map(_abnormal, polys)) >= 20
    assert sum(v == 0 for v in values) >= 12
    assert sum(f[-1] < 0 for f in polys) >= 10


def test_resultant_matches_eliminate():
    # one batch of pairs of degrees 1 to 6, checked position by position
    rng = random.Random(21)
    pairs = [(_random_poly(rng, rng.randint(1, 6)), _random_poly(rng, rng.randint(1, 6)))
             for _ in range(100)]
    for (a, b), value in zip(pairs, upoly.resultants(pairs)):
        assert value == resultant(_wp(a), _wp(b), "x").coefficient(())


def test_discriminant_needs_degree_two():
    with pytest.raises(ValueError):
        upoly.discriminant((1, 1))


def test_exact_div():
    rng = random.Random(22)
    for _ in range(100):
        a = _random_poly(rng, rng.randint(0, 5))
        b = upoly.primitive(_random_poly(rng, rng.randint(0, 4)))[1]
        assert upoly.exact_div(upoly.mul(a, b), b) == a
    assert upoly.exact_div((), (1, 1)) == ()
    assert upoly.exact_div((1, 0, 1), (1, 1)) is None  # x^2 + 1 by x + 1
    assert upoly.exact_div((1, 2), (0, 0, 1)) is None  # degree too low
    assert upoly.exact_div((3, 6), (1, 2)) == (3,)
    # the quotient (1 + x) / (2 + 2x) = 1/2 is not integral
    assert upoly.exact_div((1, 1), (2, 2)) is None
    with pytest.raises(ZeroDivisionError):
        upoly.exact_div((1,), ())


def test_primitive_gcd_and_squarefree():
    assert upoly.primitive((-4, 0, -6)) == (-2, (2, 0, 3))
    assert upoly.primitive(()) == (0, ())
    f, g, h = (-1, 1), (2, 0, 1), (3, 2)  # x - 1, x^2 + 2, 2x + 3
    a = upoly.mul(upoly.mul(f, g), (-6,))
    b = upoly.mul(upoly.mul(f, h), (4,))
    assert upoly.gcd(a, b) == (-1, 1)
    assert upoly.gcd(g, h) == (1,)
    assert upoly.gcd(a, ()) == upoly.primitive(a)[1]
    # -5 (x - 1) (x^2 + 2)^2 (2x + 3)^3
    poly = upoly.mul(upoly.mul(f, upoly.power(g, 2)), upoly.mul(upoly.power(h, 3), (-5,)))
    assert upoly.squarefree(poly) == [(f, 1), (g, 2), (h, 3)]
    assert upoly.squarefree((7,)) == []
    assert upoly.prem((1, 0, 1), (1, 2)) == (5,)  # 4 (x^2 + 1) mod (2x + 1)



def _of_x_to_the(h, q):
    """h(x^q)."""
    out = [0] * ((len(h) - 1) * q + 1)
    out[::q] = h
    return tuple(out)


def _monic_polys(p, n):
    """Every monic polynomial of degree n over F_p."""
    return [tuple(low) + (1,) for low in itertools.product(range(p), repeat=n)]


def _mobius(n):
    out, m, d = 1, n, 2
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    return -out if m > 1 else out


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_irreducible_mod_p_counts_match_gauss(p, n):
    # the number of monic irreducibles of degree n over F_p is
    # (1/n) * sum over d | n of mu(d) p^(n/d)
    gauss = sum(_mobius(d) * p ** (n // d) for d in range(1, n + 1) if n % d == 0) // n
    assert sum(upoly.irreducible_mod_p(f, p) for f in _monic_polys(p, n)) == gauss


def _remainder_mod_p(a, b, p):
    """a mod b over F_p for a monic b, by schoolbook long division."""
    r = [c % p for c in a]
    for shift in range(len(r) - len(b), -1, -1):
        top = r[shift + len(b) - 1]
        for i, c in enumerate(b):
            r[shift + i] = (r[shift + i] - top * c) % p
    return r


@pytest.mark.parametrize("p", [2, 3])
def test_irreducible_mod_p_matches_trial_division(p):
    # f of degree n is reducible exactly when a monic g of degree 1..n/2
    # leaves remainder zero
    for n in range(1, 5):
        for f in _monic_polys(p, n):
            reducible = any(
                not any(_remainder_mod_p(f, g, p))
                for d in range(1, n // 2 + 1)
                for g in _monic_polys(p, d)
            )
            assert upoly.irreducible_mod_p(f, p) is not reducible, f


@pytest.mark.parametrize(
    "p, g, k, h, q",
    [
        # the derivative vanishes: f = h(x^p) is the p-th power of h
        (2, (1,), 0, (1, 1, 1), 2),
        (3, (1,), 0, (2, 1, 1), 3),
        (2, (1, 1, 0, 1), 2, (1, 1, 1), 2),
        (3, (1, 0, 1), 2, (2, 1, 1), 3),
        (2, (1, 1, 0, 1), 3, (1, 1, 1), 2),
        (2, (1, 1, 0, 1), 1, (1, 1, 1), 4),
    ],
)
def test_irreducible_mod_p_rejects_characteristic_p_powers(p, g, k, h, q):
    # g and h are monic irreducible mod p, so g^k h(x^q) = g^k h^q is not
    f = upoly.mul(upoly.power(g, k), _of_x_to_the(h, q))
    assert not upoly.irreducible_mod_p(f, p)
    assert upoly.irreducible_mod_p(h, p)
    assert upoly.irreducible_mod_p(g, p) is (len(g) > 1)


def test_irreducible_mod_p_rejects_equal_halves_over_f2():
    # two irreducible cubics: no factor of degree 1 or 2, so only the last
    # step, d = n/2 = 3, sees the product as reducible
    g, h = (1, 1, 0, 1), (1, 0, 1, 1)
    assert upoly.irreducible_mod_p(g, 2) and upoly.irreducible_mod_p(h, 2)
    assert not upoly.irreducible_mod_p(upoly.mul(g, h), 2)


def test_irreducible_mod_p_examples():
    assert not upoly.irreducible_mod_p([1, 0, 1], 5)  # (x + 2)(x + 3)
    assert upoly.irreducible_mod_p([1, 0, 1], 3)
    assert not upoly.irreducible_mod_p(upoly.power((1, 0, 1), 2), 3)
    assert not upoly.irreducible_mod_p([-1, 0, 1], 7)  # (x - 1)(x + 1)
    for p in (2, 3, 7):
        assert not upoly.irreducible_mod_p([1], p)
        assert not upoly.irreducible_mod_p([-1, 0, 0], p)
        assert upoly.irreducible_mod_p([5, 1], p)
        assert upoly.irreducible_mod_p([0, -1, 0], p)


def test_irreducible_mod_p_quintic():
    # x^5 + x + 3 is irreducible mod 7, and so is any multiple by a unit
    assert upoly.irreducible_mod_p([3, 1, 0, 0, 0, 1], 7)
    assert upoly.irreducible_mod_p([9, 3, 0, 0, 0, 3], 7)


def test_irreducible_mod_p_errors():
    for p in (1, 6, 561):
        with pytest.raises(upoly.CompositeModulusError, match=f"{p} is not prime"):
            upoly.irreducible_mod_p([1, 1], p)
    with pytest.raises(upoly.LeadingCoefficientVanishesError):
        upoly.irreducible_mod_p([1, 5], 5)


def test_irreducible_mod_p_refuses_coefficients_that_are_not_int():
    # x^2 + 1/2 = x^2 + 3 mod 5 is irreducible, so int() truncating 1/2 to 0
    # would answer False, and int(2.9) would read x^2 + 2
    assert upoly.irreducible_mod_p([3, 0, 1], 5)
    for coefficients in ([Fraction(1, 2), 0, 1], [2.9, 0, 1], [True, 0, 1], [1, 0, 1.0]):
        with pytest.raises(ValueError, match="must be int"):
            upoly.irreducible_mod_p(coefficients, 5)


def test_is_prime_matches_a_sieve():
    n = 10_000
    sieve = [False, False] + [True] * (n - 2)
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d::d] = [False] * len(range(d * d, n, d))
    assert [upoly._is_prime(k) for k in range(n)] == sieve
    # 561 is a Carmichael number and 3481 = 59^2, the square of the largest
    # certificate prime
    for k in (0, 1, 561, 3481):
        assert not upoly._is_prime(k)


# -- splitting off the power of x ---------------------------------------------


def _unsplit_gcd(a, b):
    """The primitive remainder sequence run on the whole of a and b."""
    a, b = upoly.primitive(a)[1], upoly.primitive(b)[1]
    while b:
        a, b = b, upoly.primitive(upoly.prem(a, b))[1]
    return a


def _unsplit_squarefree(a):
    """Yun's loop run on the whole of a, with the unsplit gcd."""
    a = upoly.primitive(a)[1]
    if len(a) < 2:
        return []
    d = upoly.derivative(a)
    g = _unsplit_gcd(a, d)
    c, w = upoly.exact_div(a, g), upoly.exact_div(d, g)
    strata = []
    k = 1
    while len(c) > 1:
        y = upoly.combine(w, 1, upoly.derivative(c), -1)
        f = _unsplit_gcd(c, y)
        if len(f) > 1:
            strata.append((f, k))
        c, w = upoly.exact_div(c, f), upoly.exact_div(y, f)
        k += 1
    return strata


def _times_x(k, a):
    return (0,) * k + tuple(a) if a else ()


def test_split_x():
    assert upoly.split_x(()) == (0, ())
    assert upoly.split_x((5,)) == (0, (5,))
    assert upoly.split_x((0, 0, 0, -2)) == (3, (-2,))
    assert upoly.split_x((0, 3, 0, 1)) == (1, (3, 0, 1))


@pytest.mark.parametrize(
    "a, expected",
    [
        ((), []),
        ((-4,), []),
        ((0, 0, 0, -6), [((0, 1), 3)]),  # -6 x^3
        ((0, 2), [((0, 1), 1)]),
        # x^2 (x - 1)^2: x joins the stratum of multiplicity 2
        (upoly.mul((0, 0, 1), upoly.power((-1, 1), 2)), [((0, -1, 1), 2)]),
        # -x^3 (x + 2) (2x - 1)^2: strata of multiplicity 1 and 2, x^3 after them
        (upoly.mul((0, 0, 0, -1), upoly.mul((2, 1), upoly.power((-1, 2), 2))),
         [((2, 1), 1), ((-1, 2), 2), ((0, 1), 3)]),
        # x (3x + 1)^4 with a negative leading coefficient: x comes first
        (upoly.mul((0, -1), upoly.power((1, 3), 4)), [((0, 1), 1), ((1, 3), 4)]),
    ],
    ids=["zero", "constant", "c-x-cubed", "x", "equal-multiplicity", "last", "first"],
)
def test_squarefree_merges_the_power_of_x(a, expected):
    assert upoly.squarefree(a) == expected == _unsplit_squarefree(a)


def test_gcd_with_powers_of_x():
    assert upoly.gcd((), ()) == ()
    assert upoly.gcd((), (0, 0, -3)) == (0, 0, 1)
    assert upoly.gcd((0, 0, 4), ()) == (0, 0, 1)
    assert upoly.gcd((7,), (0, 0, 1)) == (1,)
    assert upoly.gcd((0, 0, 0, -2), (0, 6)) == (0, 1)
    # -x^2 (x - 1) and 4 x^5 (x - 1)^2 (x + 3)
    a = upoly.mul((0, 0, -1), (-1, 1))
    b = upoly.mul((0, 0, 0, 0, 0, 4), upoly.mul(upoly.power((-1, 1), 2), (3, 1)))
    assert upoly.gcd(a, b) == (0, 0, -1, 1) == _unsplit_gcd(a, b)


def _int_poly(st, max_len=5, bound=6):
    return st.lists(st.integers(-bound, bound), max_size=max_len).map(upoly.trim)


def test_split_gcd_and_squarefree_match_the_unsplit_loops():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_int_poly(st), _int_poly(st), _int_poly(st, max_len=3),
                      st.integers(0, 6), st.integers(0, 6), st.integers(1, 3))
    def check(a, b, common, i, j, m):
        if common:
            a, b = upoly.mul(a, common), upoly.mul(b, common)
        x_a, x_b = _times_x(i, a), _times_x(j, b)
        assert upoly.gcd(x_a, x_b) == _unsplit_gcd(x_a, x_b)
        # a repeated factor, so Yun returns strata of several multiplicities
        f = _times_x(i, upoly.mul(upoly.power(common, m), b) if common else b)
        assert upoly.squarefree(f) == _unsplit_squarefree(f)

    check()


@pytest.mark.sympy
def test_split_gcd_and_squarefree_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")

    def to_sympy(a):
        return sympy.Poly(list(reversed(a)), x, domain="ZZ")

    def from_sympy(p):
        # primitive with a positive leading coefficient, lowest degree first
        return upoly.primitive(tuple(int(c) for c in reversed(p.all_coeffs())))[1]

    rng = random.Random(23)
    for _ in range(150):
        common = _random_poly(rng, rng.randint(0, 2), bound=4)
        a = _times_x(rng.randint(0, 5), upoly.mul(_random_poly(rng, rng.randint(0, 4)), common))
        b = _times_x(rng.randint(0, 5), upoly.mul(_random_poly(rng, rng.randint(0, 4)), common))
        assert upoly.gcd(a, b) == from_sympy(sympy.gcd(to_sympy(a), to_sympy(b)))
        f = upoly.mul(upoly.power(common, rng.randint(1, 3)), a)
        _content, factors = sympy.sqf_list(to_sympy(f))
        expected = [(from_sympy(p), k) for p, k in factors if p.degree() > 0]
        assert upoly.squarefree(f) == expected
