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
    _PACK_MIN,
    NEG_INFINITY,
    NotDivisibleError,
    PolynomialSyntaxError,
    TableMismatchError,
    UnknownVariableError,
    VariableTable,
    WeightedPolynomial,
    _Kernel,
    parse,
    parse_terms,
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


def test_variable_tables_are_equal_and_hashed_by_value():
    again = VariableTable(list(T.names), [str(w) for w in T.weights])
    assert again is not T and again == T and hash(again) == hash(T)
    assert again.weights == (4, 6, 10, 12, 18)
    assert T != VariableTable(T.names, (4, 6, 10, 12, 19))
    assert T != VariableTable(("t4", "t6", "t10", "t12", "t20"), T.weights)
    p, q = parse("t4*t6 + 1", T), parse("t4*t6 + 1", again)
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    # only ints and polynomials compare as polynomials
    two = WeightedPolynomial.constant(T, 2)
    assert two == 2 and two != Fraction(2) and two != 2.0


def test_parse_single_term():
    p = parse("3125*t10^9", T)
    assert p.terms == {(0, 0, 9, 0, 0): Fraction(3125)}


def test_parse_zero():
    assert parse("0", T).is_zero()


def test_like_term_merge():
    assert render(parse("t4*t6 + t6*t4", T)) == "2*t4*t6"


def test_parse_drops_cancelled_monomials():
    xy = VariableTable(("x", "y"), (1, 1))
    p = parse("x + 2*x - 3*x + y", xy)
    assert p == WeightedPolynomial.variable(xy, "y")
    assert p.terms == {(0, 1): Fraction(1)}
    assert parse("x*y - y*x", xy).terms == {}
    assert parse("0*x + 0", xy).terms == {}
    # a monomial that cancels and comes back is listed where it came back
    assert list(parse("x - x + y + x", xy).terms) == [(0, 1), (1, 0)]


def test_parse_matches_a_sum_of_its_terms():
    # the terms map, its order included, is the one the sum of the parsed
    # terms, one by one, builds
    rng = random.Random(11)
    for _ in range(200):
        pieces = []
        for _ in range(rng.randint(1, 12)):
            exp = tuple(rng.randint(0, 2) for _ in T.names)
            coeff = rng.randint(-4, 4) * rng.randint(1, 3)
            monomial = "*".join(f"{n}^{e}" for n, e in zip(T.names, exp) if e)
            body = f"{abs(coeff)}*{monomial}" if monomial else str(abs(coeff))
            pieces.append(("-" if coeff < 0 else "+", body))
        text = "".join(f" {sign} {body}" for sign, body in pieces)
        total = WeightedPolynomial.zero(T)
        for sign, body in pieces:
            total = total + parse(sign + body, T)
        p = parse(text, T)
        assert list(p.terms.items()) == list(total.terms.items())
        assert all(p.terms.values())


def test_parse_render_roundtrip():
    rng = random.Random(2)
    for _ in range(50):
        p = _rand_poly(rng, T)
        assert parse(render(p), T) == p


def test_parse_rational_and_signs():
    terms = parse_terms("-1/2*t4 + t6 - 3*t4", T)
    assert terms[(1, 0, 0, 0, 0)] == Fraction(-7, 2)
    assert terms[(0, 1, 0, 0, 0)] == 1


def test_parse_takes_integer_coefficients_only():
    assert parse_terms("1/2*t4", T) == {(1, 0, 0, 0, 0): Fraction(1, 2)}
    for text in ("1/2*t4", "2/2*t4", "1/2*t4 + 1/2*t4"):
        with pytest.raises(ValueError):
            parse(text, T)
    assert all(type(c) is int for c in parse("3*t4 - t6 + 2", T).terms.values())


def test_coefficients_must_be_int():
    for bad in (Fraction(1, 2), Fraction(2, 2), 1.0, True):
        with pytest.raises(ValueError):
            WeightedPolynomial.from_terms(T, {(1, 0, 0, 0, 0): bad})
        with pytest.raises(ValueError):
            WeightedPolynomial.constant(T, bad)
    assert WeightedPolynomial.constant(T, 0).is_zero()
    assert WeightedPolynomial.from_terms(T, {(1, 0, 0, 0, 0): 0}).is_zero()


def test_exponents_must_be_non_negative_int():
    xy = VariableTable(("x", "y"), (1, 1))
    for exp in ((1.5, 0), ("2", True), (True, 0), (-1, 0), (1,), (1, 0, 0)):
        with pytest.raises(ValueError):
            WeightedPolynomial.from_terms(xy, {exp: 1})
    assert WeightedPolynomial.from_terms(xy, {(2, 0): 3}).terms == {(2, 0): 3}


def test_parse_errors():
    with pytest.raises(PolynomialSyntaxError):
        parse("t4 + + t6", T)
    with pytest.raises(UnknownVariableError):
        parse("t5", T)


def test_parse_zero_denominator_is_a_syntax_error():
    with pytest.raises(PolynomialSyntaxError, match="zero denominator") as exc:
        parse("3/0*t4", T)
    assert exc.value.position == 2
    assert isinstance(exc.value, ValueError)


def test_parse_grammar_pinned():
    t4, t6, t18 = (1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1)
    accepted = {
        "*t4": {t4: 1},
        "t18*": {t18: 1},
        "t4 ** t6": {(1, 1, 0, 0, 0): 1},
        "t4 t6": {(1, 1, 0, 0, 0): 1},
        "2 t4": {t4: 2},
        "+t4": {t4: 1},
        "t4^0": {(0, 0, 0, 0, 0): 1},
        "t4*t4^2": {(3, 0, 0, 0, 0): 1},
        "t6\n+\tt4 ^ 2\n": {t6: 1, (2, 0, 0, 0, 0): 1},
        "3/4*t4": {t4: Fraction(3, 4)},
    }
    for text, terms in accepted.items():
        got = parse_terms(text, T)
        assert list(got.items()) == list(terms.items()), text
        assert [type(c) for c in got.values()] == [type(c) for c in terms.values()], text
    rejected = {
        "*2": (PolynomialSyntaxError, "expected a term"),
        "2 3": (PolynomialSyntaxError, "expected '+' or '-'"),
        "2^3": (PolynomialSyntaxError, "expected '+' or '-'"),
        "t4 + + t6": (PolynomialSyntaxError, "expected a term"),
        "(t4)": (PolynomialSyntaxError, "expected a term"),
        "t4 +": (PolynomialSyntaxError, "expected a term"),
        "3/": (PolynomialSyntaxError, "expected denominator"),
        "t4^": (PolynomialSyntaxError, "expected exponent"),
        # the unknown name is reported before the missing exponent
        "x^": (UnknownVariableError, "unknown variable 'x'"),
        "t4 + $": (PolynomialSyntaxError, "unexpected character"),
        # an unexpected character anywhere is reported before anything else
        "t5 + $": (PolynomialSyntaxError, "unexpected character"),
        " \t": (PolynomialSyntaxError, "empty input"),
    }
    for text, (cls, message) in rejected.items():
        with pytest.raises(cls) as exc:
            parse_terms(text, T)
        assert type(exc.value) is cls and str(exc.value).startswith(message + " ("), text
    positions = {"3/0*t4": 2, "t5": 0, "t4 + $": 5, "t4 +": 4}
    for text, position in positions.items():
        with pytest.raises(PolynomialSyntaxError) as exc:
            parse_terms(text, T)
        assert exc.value.position == position, text


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


def test_exact_div_takes_polynomials_and_ints_only():
    p = parse("2*t4", T)
    assert p.exact_div(2) == parse("t4", T)
    for bad in (Fraction(1, 2), 2.0, "t4"):
        with pytest.raises(TypeError, match=f"by {type(bad).__name__}$"):
            p.exact_div(bad)


def test_exact_div_decides_divisibility_in_z():
    # the quotients 2/3 and 1/2 are not in Z[t]
    t4 = WeightedPolynomial.variable(T, "t4")
    for divisor in (3 * t4, 4 * t4):
        with pytest.raises(NotDivisibleError):
            (2 * t4).exact_div(divisor)
    assert (2 * t4).exact_div(-2 * t4) == -1
    p = parse("2*t4^2 - 3*t6", T)
    q = parse("6*t10 + 5", T)
    assert (p * q).exact_div(q) == p
    assert (p * q).exact_div(p) == q


def test_exact_div_remainder_witness():
    cases = (
        ("t4 + 1", "t4 - t6"),
        ("t4^2 + t6", "t4"),
        ("3*t4", "t4^2"),
        ("2*t4", "4*t4"),
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
    coeff = st.integers(-20, 20)
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
        assert all(type(c) is int and c for c in (p * q).terms.values())

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
                coeffs = p.univariate_at(var, point)
                if all(type(x) is int for x in point):
                    assert all(type(c) is int for c in coeffs)
                assert coeffs == [c.evaluate(point) for c in view]

    check()


def test_evaluate_checks_the_point_length():
    p = parse("t4*t6 + 7", T)
    with pytest.raises(ValueError):
        p.evaluate((1, 2))
    with pytest.raises(ValueError):
        p.univariate_at("t4", (1, 2))
    assert WeightedPolynomial.zero(T).univariate_at("t4", (1,) * 5) == []


def test_univariate_view():
    table = VariableTable(("t4", "x0"), (4, 1))
    p = parse("x0*t4", table)
    view = p.univariate_view("x0")
    assert len(view) == 2
    assert view[0].is_zero()
    assert render(view[1]) == "t4"


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


# -- kernel products -----------------------------------------------------------

W4 = VariableTable(("a", "b", "c", "d"), (2, 3, 5, 7))


def _monomials(weights, total):
    """Every exponent vector of weighted degree ``total``."""
    if len(weights) == 1:
        return [(total // weights[0],)] if total % weights[0] == 0 else []
    return [(e,) + rest for e in range(total // weights[0] + 1)
            for rest in _monomials(weights[1:], total - e * weights[0])]


def _dense(rng, weight):
    """Every monomial of one weight over W4, coefficients of both signs in
    [2^64, 2^80)."""
    return {e: rng.choice((-1, 1)) * rng.randrange(1 << 64, 1 << 80)
            for e in _monomials(W4.weights, weight)}


def _dense_products():
    """(pairs, cancelling): four dense pairs over W4, and a pair whose product
    has a monomial whose contributions cancel exactly."""
    rng = random.Random(180)
    pairs = [(_dense(rng, wa), _dense(rng, wb))
             for wa, wb in ((30, 45), (33, 41), (38, 38), (45, 44))]
    # with q[t] = big and every other q coefficient a multiple of big, p[s]
    # can be chosen so that the coefficient of s + t is zero
    p, q, big = _dense(rng, 40), _dense(rng, 42), (1 << 70) + 1
    s, t = rng.choice(sorted(p)), rng.choice(sorted(q))
    m = tuple(x + y for x, y in zip(s, t))
    q = {e: big if e == t else big * c for e, c in q.items()}
    rest = 0
    for e, c in q.items():
        f = tuple(x - y for x, y in zip(m, e))
        if e != t and f in p:
            rest += p[f] * c
    p[s] = -rest // big
    assert p[s] and m not in _schoolbook_mul(p, q)
    return pairs, (p, q)


def test_products_take_the_schoolbook_loop(packed_divisions):
    pairs, cancelling = _dense_products()
    rng = random.Random(45)
    p, q = _dense(rng, 38), _dense(rng, 40)
    p[(0, 0, 0, 0)] = 1 << 65  # weight 0 among terms of weight 38
    for p, q in pairs + [cancelling, (p, q), (q, p)]:
        assert len(p) * len(q) >= _PACK_MIN
        product = WeightedPolynomial.from_terms(W4, p) * WeightedPolynomial.from_terms(W4, q)
        assert product.terms == _schoolbook_mul(p, q)
    # the overflow check holds for a homogeneous product and for one that is not
    xy = VariableTable(("x", "y"), (1, 1))
    top = _EXPONENT_LIMIT - 10
    line = {(i, top - i): i + 1 for i in range(70)}  # homogeneous, 70 terms
    for terms in (line, {**line, (0, 0): 1}):
        p = WeightedPolynomial.from_terms(xy, terms)
        with pytest.raises(OverflowError):
            p * p
    assert packed_divisions == []  # only ``dot_div`` packs


# -- packed exact division -----------------------------------------------------


@pytest.fixture
def packed_divisions(monkeypatch):
    """[term products, returned] for every ``_Kernel._packed`` call:
    ``returned`` says whether it gave a quotient, and stays None when the call
    raised."""
    calls = []
    packed = _Kernel._packed

    def recording(self, pairs, d):
        call = [sum(len(a) * len(b) for a, b in pairs), None]
        calls.append(call)
        out = packed(self, pairs, d)
        call[1] = out is not None
        return out

    monkeypatch.setattr(_Kernel, "_packed", recording)
    return calls


def _kernel_values(table, *maps):
    kernel = _Kernel(table)
    return kernel, kernel.pack([WeightedPolynomial.from_terms(table, m) for m in maps])


def _kernel_dot_div(table, pairs, d):
    """``dot_div`` on exponent maps, read back as one."""
    kernel, (*operands, divisor) = _kernel_values(table, *(x for pair in pairs for x in pair), d)
    return kernel.poly(kernel.dot_div(list(zip(operands[0::2], operands[1::2])), divisor)).terms


def _heap_division(table, dividend, d):
    """The plain heap division of an exponent map by d, read back as one."""
    kernel, (a, b) = _kernel_values(table, dividend, d)
    return kernel.poly(kernel.exact_div(a, b)).terms


def _schoolbook_dot(pairs):
    out = {}
    for a, b in pairs:
        out = _schoolbook_add(out, _schoolbook_mul(a, b))
    return out


def _negated(a):
    return {e: -c for e, c in a.items()}


def _divisible_pairs(rng, k, wa, wb, wd):
    """(pairs, d, q): k pairs of dense operands over W4 of weights wa and wb
    whose products sum to d * q.  For k >= 2 no operand is a multiple of d:
    A (D + dZ) + (dY - A) D = d (AZ + YD), and a third pair U (dV) adds UV."""
    d, a, b = _dense(rng, wd), _dense(rng, wa), _dense(rng, wb)
    z, y = _dense(rng, wb - wd), _dense(rng, wa - wd)
    if k == 1:
        return [(a, _schoolbook_mul(d, z))], d, _schoolbook_mul(a, z)
    pairs = [(a, _schoolbook_add(b, _schoolbook_mul(d, z))),
             (_schoolbook_add(_schoolbook_mul(d, y), _negated(a)), b)]
    q = _schoolbook_add(_schoolbook_mul(a, z), _schoolbook_mul(y, b))
    if k == 3:
        u, v = _dense(rng, wa), _dense(rng, wb - wd)
        pairs.append((u, _schoolbook_mul(d, v)))
        q = _schoolbook_add(q, _schoolbook_mul(u, v))
    return pairs, d, q


def test_dot_div_matches_schoolbook_then_heap_division(packed_divisions):
    rng = random.Random(90)
    cases = [_divisible_pairs(rng, k, wa, wb, wd)
             for k, wa, wb, wd in ((1, 36, 40, 12), (2, 30, 38, 10), (3, 28, 36, 14), (2, 33, 41, 17))]
    # the slot bound is tight and the quotient bound just met: every
    # coefficient has magnitude C, and the 42 divisors of weight 35 of m0 are
    # the whole smaller operand, so the coefficient of m0 is -C^2 * 42 =
    # -max|a| * max|b| * min(len a, len b); divided by 1
    c, m0 = (1 << 70) - 1, (9, 7, 4, 3)
    small = {e: (-1) ** e[0] * c for e in _monomials(W4.weights, 35)
             if all(x <= y for x, y in zip(e, m0))}
    large = {e: (-1) ** e[0] * c for e in _monomials(W4.weights, 45)}
    assert _schoolbook_mul(large, small)[m0] == -c * c * len(small) == -c * c * 42
    one = {(0, 0, 0, 0): 1}
    cases.append(([(large, small)], one, _schoolbook_mul(large, small)))
    # a dense product, and one with a coefficient that cancels exactly, over 1
    dense, cancelling = _dense_products()
    cases += [([pair], one, _schoolbook_mul(*pair)) for pair in (dense[0], cancelling)]
    for pairs, d, q in cases:
        assert sum(len(a) * len(b) for a, b in pairs) >= _PACK_MIN
        assert _kernel_dot_div(W4, pairs, d) == q == _heap_division(W4, _schoolbook_dot(pairs), d)
    assert [returned for _n, returned in packed_divisions] == [True] * len(cases)


# P = m^6 - n^6 and d = (m - n)^2 for m = a^3 and n = b^2, both of weight 6,
# so P^2 = d T with T = (m^5 + m^4 n + ... + n^5)^2, whose coefficients rise
# 1, 2, ..., 6 and fall again.  For F with every coefficient in [2^64, 2^64 +
# 2^60) the quotient F T of F P^2 by d has a coefficient of at least 6 min F,
# where F P^2 has none above 4 max F.
_P = {(18, 0, 0, 0): 1, (0, 12, 0, 0): -1}
_D = {(6, 0, 0, 0): 1, (3, 2, 0, 0): -2, (0, 4, 0, 0): 1}
_S = {(3 * (5 - i), 2 * i, 0, 0): 1 for i in range(6)}


def _near_2_64(rng, weight):
    return {e: rng.randrange(1 << 64, (1 << 64) + (1 << 60))
            for e in _monomials(W4.weights, weight)}


def _max_abs(a):
    return max(map(abs, a.values()))


def test_dot_div_quotient_above_every_dividend_coefficient(packed_divisions):
    rng = random.Random(6)
    f, y = _near_2_64(rng, 52), _dense(rng, 76)
    q = _schoolbook_mul(f, _schoolbook_mul(_S, _S))
    dividend = _schoolbook_mul(f, _schoolbook_mul(_P, _P))
    assert _max_abs(q) > _max_abs(dividend)
    # (F P + d Y) P - Y (d P) = F P^2, from operands large enough that the
    # slot also fits the quotient
    pairs = [(_schoolbook_add(_schoolbook_mul(f, _P), _schoolbook_mul(_D, y)), _P),
             (_negated(y), _schoolbook_mul(_D, _P))]
    assert _schoolbook_dot(pairs) == dividend
    assert sum(len(a) * len(b) for a, b in pairs) >= _PACK_MIN
    assert _kernel_dot_div(W4, pairs, _D) == q == _heap_division(W4, dividend, _D)
    assert [returned for _n, returned in packed_divisions] == [True]


def test_dot_div_falls_back_when_the_quotient_does_not_fit(packed_divisions):
    # as one product F * P^2 the slot fits about 6 max F, below the quotient
    # F T, so the packed digits of F T carry into their neighbours.  Over
    # weights (1, 1, 1) a carried digit still sits on a monomial of the right
    # weight, and only the quotient bound rejects it
    xyz = VariableTable(("x", "y", "z"), (1, 1, 1))
    rng = random.Random(51)
    p, d, s = ({(e[0] // 3, e[1] // 2, 0): c for e, c in m.items()} for m in (_P, _D, _S))
    f = {(i, j, 51 - i - j): rng.randrange(1 << 64, (1 << 64) + (1 << 60))
         for i in range(52) for j in range(52 - i)}
    cases = [(xyz, f, p, d, s)]
    # over W4 the dropped variable a has weight 2 and the packed one an odd
    # weight, so a carried digit would need a fractional exponent of a and
    # the weight restore rejects it first
    cases.append((W4, _near_2_64(rng, 116), _P, _D, _S))
    for table, f, p, d, s in cases:
        pairs = [(f, _schoolbook_mul(p, p))]
        assert sum(len(a) * len(b) for a, b in pairs) >= _PACK_MIN
        assert _kernel_dot_div(table, pairs, d) == _schoolbook_mul(f, _schoolbook_mul(s, s))
    assert [returned for _n, returned in packed_divisions] == [False, False]


def test_dot_div_not_exact_raises_the_heap_division_remainder(packed_divisions):
    rng = random.Random(38)
    pairs, d, _q = _divisible_pairs(rng, 2, 30, 38, 10)
    pairs.append((_dense(rng, 30), _dense(rng, 38)))
    kernel, values = _kernel_values(W4, *(x for pair in pairs for x in pair), d)
    *operands, divisor = values
    pairs = list(zip(operands[0::2], operands[1::2]))
    with pytest.raises(NotDivisibleError) as got:
        kernel.dot_div(pairs, divisor)
    dividend = {}
    for a, b in pairs:
        dividend = kernel.add(dividend, kernel.mul(a, b))
    with pytest.raises(NotDivisibleError) as want:
        kernel.exact_div(dividend, divisor)
    assert not want.value.remainder.is_zero()
    assert got.value.remainder == want.value.remainder
    assert [returned for _n, returned in packed_divisions] == [False]


def test_dot_div_non_homogeneous_operands_take_the_plain_path(packed_divisions):
    rng = random.Random(12)
    d, a, z = _dense(rng, 12), _dense(rng, 36), _dense(rng, 28)
    a[(0, 0, 0, 0)] = 1 << 65  # weight 0 among terms of weight 36
    pairs = [(a, _schoolbook_mul(d, z))]
    assert sum(len(a) * len(b) for a, b in pairs) >= _PACK_MIN
    assert _kernel_dot_div(W4, pairs, d) == _schoolbook_mul(a, z)
    # a divisor that is not homogeneous
    e = {**d, (0, 0, 0, 0): 1}
    a.pop((0, 0, 0, 0))
    pairs = [(a, _schoolbook_mul(e, z))]
    assert _kernel_dot_div(W4, pairs, e) == _schoolbook_mul(a, z)
    assert [returned for _n, returned in packed_divisions] == [False, False]


def test_dot_div_overflow_raises_on_both_paths(packed_divisions):
    xy = VariableTable(("x", "y"), (1, 1))
    top = _EXPONENT_LIMIT - 10
    line = {(i, top - i): i + 1 for i in range(70)}  # homogeneous, 70 terms
    kernel, (a, b, x) = _kernel_values(xy, line, {**line, (0, 0): 1}, {(1, 0): 1})
    with pytest.raises(OverflowError):
        kernel.dot_div([(a, a)], x)
    assert packed_divisions == [[70 * 70, None]]  # entered, then raised
    packed_divisions.clear()
    # the same product, not homogeneous, raises on the plain path
    with pytest.raises(OverflowError):
        kernel.dot_div([(b, b)], x)
    assert packed_divisions == [[71 * 71, False]]


def test_disc_r_takes_the_packed_path_and_factors(monkeypatch):
    from k3verify import families
    from k3verify.eliminate import discriminant

    sizes, packed, divided = [], [], []
    mul, dot_div, packed_path = _Kernel.mul, _Kernel.dot_div, _Kernel._packed

    def sized_mul(self, a, b):
        sizes.append(len(a) * len(b))
        return mul(self, a, b)

    def sized_dot_div(self, pairs, d):
        sizes.extend(len(a) * len(b) for a, b in pairs if a and b)
        return dot_div(self, pairs, d)

    def recording(self, pairs, d=None):
        # every packed product, all from ``dot_div``; with a divisor a
        # returned quotient met its bound, and the dividend's terms are
        # counted here
        out = packed_path(self, pairs, d)
        if out is not None:
            packed.extend(len(a) * len(b) for a, b in pairs)
            if d is not None:
                dividend = {}
                for a, b in pairs:
                    for ka, ca in a.items():
                        for kb, cb in b.items():
                            dividend[ka + kb] = dividend.get(ka + kb, 0) + ca * cb
                divided.append(sum(1 for c in dividend.values() if c))
        return out

    monkeypatch.setattr(_Kernel, "mul", sized_mul)
    monkeypatch.setattr(_Kernel, "dot_div", sized_dot_div)
    monkeypatch.setattr(_Kernel, "_packed", recording)
    disc = discriminant(families.big_r_symbolic(), "x0").change_table(families.T_TABLE)
    largest = [302 * 302, 321 * 277, 302 * 109, 321 * 93, 109 * 109, 117 * 99]
    assert sorted(sizes, reverse=True)[:6] == sorted(packed, reverse=True)[:6] == largest
    assert {3264, 1854} <= set(divided)
    r = families.r_poly().change_table(families.T_TABLE)
    assert disc == 6 ** 12 * r ** 3 * families.printed_d90()
