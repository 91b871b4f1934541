import random

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
        assert value == discriminant(_wp(f), "x").constant_value()
        zero += value == 0
        negative_lc += f[-1] < 0
    assert zero >= 30 and negative_lc >= 30


def test_resultant_matches_eliminate():
    rng = random.Random(21)
    for _ in range(100):
        a = _random_poly(rng, rng.randint(1, 6))
        b = _random_poly(rng, rng.randint(1, 6))
        assert upoly.resultant(a, b) == resultant(_wp(a), _wp(b), "x").constant_value()


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


@pytest.mark.parametrize(
    "p, g, k, h, q",
    [
        # the derivative vanishes: f = h(x^p) is the p-th power of h
        (2, (1,), 0, (1, 1, 1), 2),
        (3, (1,), 0, (2, 1, 1), 3),
        (2, (1, 1, 0, 1), 2, (1, 1, 1), 2),
        # the squarefree loop runs first, then the leftover of multiplicity
        # divisible by p goes through the p-th root (twice for h(x^4))
        (3, (1, 0, 1), 2, (2, 1, 1), 3),
        (2, (1, 1, 0, 1), 3, (1, 1, 1), 2),
        (2, (1, 1, 0, 1), 1, (1, 1, 1), 4),
    ],
)
def test_factor_mod_p_characteristic_p_powers(p, g, k, h, q):
    # g and h are monic irreducible mod p, so g^k h(x^q) = g^k h^q
    f = upoly.mul(upoly.power(g, k), _of_x_to_the(h, q))
    expected = sorted([(g, k), (h, q)] if k else [(h, q)])
    assert upoly.factor_mod_p(f, p) == upoly.FactorizationModP(p, 1, tuple(expected))


def test_factor_mod_p_trace_split_over_f2():
    # two irreducible cubics: distinct-degree splitting leaves their product
    # whole, and p = 2 splits it by the trace map
    g, h = (1, 1, 0, 1), (1, 0, 1, 1)
    result = upoly.factor_mod_p(upoly.mul(g, h), 2)
    assert result == upoly.FactorizationModP(2, 1, ((h, 1), (g, 1)))
