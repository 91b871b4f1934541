import random
from fractions import Fraction

import pytest

from k3verify.upoly import (
    CompositeModulusError,
    LeadingCoefficientVanishesError,
    factor_mod_p,
)
from k3verify.wpoly import (
    _EXPONENT_LIMIT,
    NEG_INFINITY,
    NotDivisibleError,
    PolynomialSyntaxError,
    TableMismatchError,
    UnknownVariableError,
    VariableTable,
    WeightedPolynomial,
    parse,
    render,
)

T = VariableTable(("t4", "t6", "t10", "t12", "t18"), (4, 6, 10, 12, 18))


def _rand_poly(rng, table, max_terms=5, max_exp=3, coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exp = tuple(rng.randint(0, max_exp) for _ in table.names)
        c = rng.randint(-coeff, coeff)
        if c:
            terms[exp] = terms.get(exp, 0) + c
    return WeightedPolynomial.from_terms(table, terms)


def test_parse_single_term():
    p = parse("3125*t10^9", T)
    assert p.terms == {(0, 0, 9, 0, 0): Fraction(3125)}


def test_parse_zero():
    assert parse("0", T).is_zero()


def test_like_term_merge():
    assert render(parse("t4*t6 + t6*t4", T)) == "2*t4*t6"


def test_parse_render_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        p = _rand_poly(rng, T)
        assert parse(render(p), T) == p


def test_parse_rational_and_signs():
    p = parse("-1/2*t4 + t6 - 3*t4", T)
    assert p.coefficient((1, 0, 0, 0, 0)) == Fraction(-7, 2)
    assert p.coefficient((0, 1, 0, 0, 0)) == 1


def test_parse_errors():
    with pytest.raises(PolynomialSyntaxError):
        parse("t4 + + t6", T)
    with pytest.raises(UnknownVariableError):
        parse("t5", T)


def test_ring_ops():
    t4 = WeightedPolynomial.variable(T, "t4")
    t6 = WeightedPolynomial.variable(T, "t6")
    one = WeightedPolynomial.constant(T, 1)
    assert (t4 + t6) * t4 == t4 ** 2 + t4 * t6
    assert t4 * one == t4
    with pytest.raises(TableMismatchError):
        t4 + WeightedPolynomial.variable(VariableTable(("x",), (1,)), "x")


def test_ring_axioms_random():
    rng = random.Random(9)
    for _ in range(40):
        p, q, r = (_rand_poly(rng, T, 3, 2, 5) for _ in range(3))
        assert (p + q) * r == p * r + q * r
        assert (p * q) * r == p * (q * r)


def test_weighted_degree():
    r = parse("t10^3 + t4^2*t10*t12 - t4^3*t18 - t4*t6*t10^2", T)
    assert r.weighted_degree() == 30
    assert r.is_weighted_homogeneous()
    mixed = parse("t4 + t6", T)
    assert mixed.weighted_degree() == 6
    assert not mixed.is_weighted_homogeneous()
    assert WeightedPolynomial.zero(T).weighted_degree() == NEG_INFINITY


def test_degree_multiplicativity():
    rng = random.Random(13)
    for _ in range(30):
        p, q = _rand_poly(rng, T, 3, 2, 5), _rand_poly(rng, T, 3, 2, 5)
        if p.is_zero() or q.is_zero():
            continue
        assert (p * q).weighted_degree() == p.weighted_degree() + q.weighted_degree()


def test_evaluate():
    r = parse("t10^3 + t4^2*t10*t12 - t4^3*t18 - t4*t6*t10^2", T)
    assert r.evaluate((0, 0, 1, 0, 0)) == 1
    p = parse("t4*t6 + 7", T)
    assert p.evaluate((0, 0, 0, 0, 0)) == 7


def test_evaluate_homomorphism():
    rng = random.Random(17)
    for _ in range(30):
        p, q = _rand_poly(rng, T, 3, 2, 4), _rand_poly(rng, T, 3, 2, 4)
        point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(5))
        assert (p * q).evaluate(point) == p.evaluate(point) * q.evaluate(point)


def test_grading_law():
    r = parse("t10^3 + t4^2*t10*t12 - t4^3*t18 - t4*t6*t10^2", T)
    lam = Fraction(3, 2)
    point = (2, -1, 3, 1, -2)
    scaled = tuple(lam ** w * x for w, x in zip(T.weights, point))
    assert r.evaluate(scaled) == lam ** 30 * r.evaluate(point)


def test_substitute():
    greek = VariableTable(("alpha", "beta"), (4, 6))
    t4 = WeightedPolynomial.variable(T, "t4")
    image = t4.substitute(
        {
            name: parse(text, greek)
            for name, text in (
                ("t4", "-3*alpha"),
                ("t6", "0"),
                ("t10", "0"),
                ("t12", "0"),
                ("t18", "0"),
            )
        }
    )
    assert render(image) == "-3*alpha"
    p = parse("t4^2 + t6", T)
    identity = {
        name: WeightedPolynomial.variable(T, name) for name in T.names
    }
    assert p.substitute(identity) == p


def test_exact_div():
    p = parse("t4^2 - t6^2", T)
    q = parse("t4 - t6", T)
    assert p.exact_div(q) == parse("t4 + t6", T)
    with pytest.raises(NotDivisibleError):
        parse("t4", T).exact_div(parse("t6", T))


def test_exact_div_rational_quotient():
    t4 = WeightedPolynomial.variable(T, "t4")
    assert (2 * t4).exact_div(3 * t4) == Fraction(2, 3)
    p = parse("1/2*t4^2 - 3/4*t6", T)
    q = parse("2/3*t10 + 5", T)
    assert (p * q).exact_div(q) == p
    assert (p * q).exact_div(p) == q


def test_exact_div_remainder_witness():
    cases = (
        ("t4 + 1", "t4 - t6"),
        ("t4^2 + t6", "t4"),
        ("1/2*t4", "t4^2"),
        ("4*t4^2*t6 + 4*t4*t6^2", "3*t4^2*t6 + 4*t4*t6^2"),
        ("2*t4*t6", "4*t4 + 1"),
    )
    for num, den in cases:
        with pytest.raises(NotDivisibleError) as exc:
            parse(num, T).exact_div(parse(den, T))
        assert not exc.value.remainder.is_zero()


def test_exponent_past_packing_width_overflows():
    wide = WeightedPolynomial.from_terms(T, {(0, 0, 0, 0, _EXPONENT_LIMIT): 1})
    t4 = WeightedPolynomial.variable(T, "t4")
    with pytest.raises(OverflowError):
        wide * t4
    with pytest.raises(OverflowError):
        t4.exact_div(wide)


def test_product_carrying_across_fields_overflows():
    half = _EXPONENT_LIMIT // 2
    for name in ("t4", "t12", "t18"):
        v = WeightedPolynomial.variable(T, name) ** half
        with pytest.raises(OverflowError):
            v * v
        with pytest.raises(OverflowError):
            v ** 2
    # a quotient term times the divisor's tail leaves the field; unchecked,
    # the second division would return a wrong quotient
    t4, t18 = (WeightedPolynomial.variable(T, n) for n in ("t4", "t18"))
    with pytest.raises(OverflowError):
        (t4 * t18 ** (_EXPONENT_LIMIT - 2)).exact_div(t4 + t18 ** 2)
    a = 2 * t4 * t18 ** (_EXPONENT_LIMIT - 2) - 2 * t4 ** 2 * t18 ** (_EXPONENT_LIMIT - 1)
    with pytest.raises(OverflowError):
        a.exact_div(t18 ** (_EXPONENT_LIMIT - 1) - t4)
    # the largest exponent that fits still works
    top = t18 ** (_EXPONENT_LIMIT - 1)
    assert (top * t4).exact_div(t4) == top


def _schoolbook_mul(a, b):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def _schoolbook_add(a, b):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _poly_strategy(st):
    small = VariableTable(("u", "v", "w"), (1, 2, 3))
    coeff = st.fractions(min_value=-20, max_value=20, max_denominator=6)
    terms = st.dictionaries(
        st.tuples(*(st.integers(0, 4) for _ in small.names)), coeff, max_size=6
    )
    return terms.map(lambda t: WeightedPolynomial.from_terms(small, t))


def test_kernel_ring_laws_property():
    hypothesis = pytest.importorskip("hypothesis")
    polys = _poly_strategy(hypothesis.strategies)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, polys, polys)
    def check(p, q, r):
        assert (p * q).terms == _schoolbook_mul(p.terms, q.terms)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == WeightedPolynomial(
            p.table, _schoolbook_add(_schoolbook_mul(p.terms, q.terms),
                                     _schoolbook_mul(p.terms, r.terms))
        )
        assert p ** 3 == WeightedPolynomial(
            p.table, _schoolbook_mul(_schoolbook_mul(p.terms, p.terms), p.terms)
        )
        assert all(isinstance(c, Fraction) and c for c in (p * q).terms.values())

    check()


def test_kernel_exact_div_property():
    hypothesis = pytest.importorskip("hypothesis")
    polys = _poly_strategy(hypothesis.strategies)

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(polys, polys)
    def check(p, q):
        hypothesis.assume(not q.is_zero())
        assert (p * q).exact_div(q) == p
        if not p.is_zero():
            assert (p * q).exact_div(p) == q
        # any pair: an exact quotient, or a failure with a nonzero remainder
        try:
            quotient = p.exact_div(q)
        except NotDivisibleError as exc:
            assert not exc.remainder.is_zero()
        else:
            assert quotient * q == p

    check()


def _reference_value(p, point):
    total = Fraction(0)
    for exp, c in p.terms.items():
        for x, e in zip(point, exp):
            c *= Fraction(x) ** e
        total += c
    return total


def test_integer_form_evaluate_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    polys = _poly_strategy(st)
    integer = st.integers(-30, 30)
    rational = st.fractions(min_value=-8, max_value=8, max_denominator=7)
    points = st.one_of(st.tuples(integer, integer, integer),
                       st.tuples(rational, integer, rational))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(polys, points, points)
    def check(p, first, second):
        # the second call reuses the integer form built by the first
        for point in (first, second):
            value = p.evaluate(point)
            assert isinstance(value, Fraction)
            assert value == _reference_value(p, point)
        for var in p.table.names:
            view = p.univariate_view(var)
            for point in (first, second):
                numerators, den = p.univariate_at(var, point)
                assert all(type(c) is int for c in numerators)
                assert [Fraction(c, den) for c in numerators] == [
                    c.evaluate(point) for c in view]

    check()


def test_evaluate_checks_the_point_length():
    p = parse("t4*t6 + 7", T)
    with pytest.raises(ValueError):
        p.evaluate((1, 2))
    with pytest.raises(ValueError):
        p.univariate_at("t4", (1, 2))
    assert WeightedPolynomial.zero(T).univariate_at("t4", (1,) * 5) == ([], 1)


def test_univariate_view():
    table = VariableTable(("t4", "x0"), (4, 1))
    p = parse("x0*t4", table)
    view = p.univariate_view("x0")
    assert len(view) == 2
    assert view[0].is_zero()
    assert render(view[1]) == "t4"


def test_content_in_var():
    table = VariableTable(("a", "x"), (1, 1))
    p = parse("a*x^2 + a^2*x", table)
    result = p.content_in_var("x")
    assert result.conclusive
    assert render(result.content) == "a"


def test_factor_mod_p_examples():
    f = factor_mod_p([1, 0, 1], 5)  # x^2 + 1 = (x + 2)(x + 3) mod 5
    assert len(f.factors) == 2
    assert sorted((5 - fac[0]) % 5 for fac, _ in f.factors) == [2, 3]
    g = factor_mod_p([1, 0, 1], 3)
    assert len(g.factors) == 1 and g.factors[0][1] == 1
    assert len(g.factors[0][0]) - 1 == 2
    h = factor_mod_p([-1, 0, 1], 7)  # x^2 - 1
    assert len(h.factors) == 2


def test_factor_mod_p_reconstructs_input():
    rng = random.Random(23)
    for p in (2, 3, 5, 7, 13):
        for _ in range(10):
            deg = rng.randint(1, 6)
            coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
            result = factor_mod_p(coeffs, p)
            prod = [result.unit % p]
            for factor, mult in result.factors:
                for _ in range(mult):
                    new = [0] * (len(prod) + len(factor) - 1)
                    for i, x in enumerate(prod):
                        for j, y in enumerate(factor):
                            new[i + j] = (new[i + j] + x * y) % p
                    prod = new
            expected = [c % p for c in coeffs]
            assert prod == expected


def test_factor_mod_p_quintic_sanity():
    # x^5 + x + 3 is irreducible mod 7 (certifier core fixture)
    result = factor_mod_p([3, 1, 0, 0, 0, 1], 7)
    assert len(result.factors) == 1
    factor, mult = result.factors[0]
    assert mult == 1 and len(factor) - 1 == 5


def test_factor_mod_p_errors():
    with pytest.raises(CompositeModulusError):
        factor_mod_p([1, 1], 6)
    with pytest.raises(LeadingCoefficientVanishesError):
        factor_mod_p([1, 5], 5)
