import random
from fractions import Fraction

import pytest

from k3verify import eliminate
from k3verify.eliminate import (
    BothConstantError,
    DegreeTooLowError,
    PitConfig,
    discriminant,
    resultant,
    sample_point,
)
from k3verify.exactalg import bareiss_det
from k3verify.wpoly import (
    TableMismatchError,
    VariableTable,
    WeightedPolynomial,
    _Kernel,
    parse,
    render,
)

XT = VariableTable(("a", "b", "x"), (1, 1, 1))
AB = VariableTable(("a", "b"), (1, 1))


def _bareiss_resultant(f, g, var):
    """Independent oracle: the fraction-free Bareiss determinant of the
    Sylvester matrix of f and g in ``var``, with the rows of f on top, over
    the table without ``var``.  The rows come from the term maps."""
    i = f.table.index(var)
    rest = VariableTable(f.table.names[:i] + f.table.names[i + 1:],
                         f.table.weights[:i] + f.table.weights[i + 1:])

    def coefficients(p):
        terms = [{} for _ in range(max(exp[i] for exp in p.terms) + 1)]
        for exp, c in p.terms.items():
            terms[exp[i]][exp[:i] + exp[i + 1:]] = c
        return [WeightedPolynomial.from_terms(rest, t) for t in terms]

    a, b = coefficients(f), coefficients(g)
    m, n = len(a) - 1, len(b) - 1
    zero = WeightedPolynomial.zero(rest)
    rows = []
    for coeffs, count in ((a, n), (b, m)):
        for i in range(count):
            row = [zero] * (m + n)
            row[i:i + len(coeffs)] = reversed(coeffs)
            rows.append(row)
    return zero + bareiss_det(rows, WeightedPolynomial.exact_div)


def _rand_in_x(rng, max_deg, force_deg=None):
    deg = force_deg if force_deg is not None else rng.randint(1, max_deg)
    terms = {}
    for k in range(deg + 1):
        c = rng.randint(-5, 5)
        if c:
            terms[(rng.randint(0, 2), rng.randint(0, 2), k)] = c
    terms[(0, 0, deg)] = terms.get((0, 0, deg), 0) or 1
    if terms[(0, 0, deg)] == 0:
        terms[(0, 0, deg)] = 1
    return WeightedPolynomial.from_terms(XT, terms)


def test_resultant_linear_pair():
    table = VariableTable(("a", "b", "x"), (1, 1, 1))
    f = parse("x - a", table)
    g = parse("x - b", table)
    assert resultant(f, g, "x") == parse("a - b", AB)


def test_resultant_r0_example():
    table = VariableTable(("a", "b", "g", "d", "x"), (1, 1, 1, 1, 1))
    f = parse("g*x + 3*a", table)
    q = parse("d*x^2 - 2*b*x + 1", table)
    assert render(resultant(f, q, "x")) == "9*a^2*d + 6*a*b*g + g^2"


def test_resultant_r_of_t():
    table = VariableTable(("t4", "t6", "t10", "t12", "t18", "x0"), (4, 6, 10, 12, 18, 6))
    g2v = parse("t4*x0 + t10", table)
    g3v = parse("x0^3 + t6*x0^2 + t12*x0 + t18", table)
    res = resultant(g2v, g3v, "x0")
    t_table = VariableTable(("t4", "t6", "t10", "t12", "t18"), (4, 6, 10, 12, 18))
    expected = parse("-t10^3 - t4^2*t10*t12 + t4^3*t18 + t4*t6*t10^2", t_table)
    assert res == expected


def test_prs_matches_bareiss():
    rng = random.Random(31)
    for _ in range(80):
        f = _rand_in_x(rng, 4)
        g = _rand_in_x(rng, 4)
        assert resultant(f, g, "x") == _bareiss_resultant(f, g, "x")


def test_swap_sign_exhaustive_low_degrees():
    rng = random.Random(37)
    for df in range(1, 5):
        for dg in range(1, 5):
            for _ in range(5):
                f = _rand_in_x(rng, 4, force_deg=df)
                g = _rand_in_x(rng, 4, force_deg=dg)
                lhs = resultant(f, g, "x")
                rhs = resultant(g, f, "x")
                if (df * dg) % 2:
                    assert lhs == -rhs
                else:
                    assert lhs == rhs


def test_resultant_multiplicative():
    rng = random.Random(41)
    for _ in range(30):
        f = _rand_in_x(rng, 2)
        g = _rand_in_x(rng, 2)
        h = _rand_in_x(rng, 2)
        assert resultant(f * g, h, "x") == resultant(f, h, "x") * resultant(g, h, "x")


def _gapped_in_x(rng, deg, step=1):
    """Degree ``deg`` in x, only powers divisible by ``step``, about a third of
    the lower coefficients missing, integer coefficients in a and b."""
    terms = {}
    for k in range(0, deg, step):
        if rng.random() < 0.35:
            continue
        for _ in range(rng.randint(1, 2)):
            c = rng.randint(-6, 6) * rng.choice((1, 1, 2, 3))
            if c:
                terms[(rng.randint(0, 2), rng.randint(0, 2), k)] = c
    lead = (rng.randint(0, 1), rng.randint(0, 1), deg)
    terms[lead] = rng.choice((-3, -1, 1, 2, 5)) * rng.choice((1, 2))
    return WeightedPolynomial.from_terms(XT, terms)


def _count_defective_steps(monkeypatch):
    """Record deg S_d - deg S_(d-1) of every Ducos reduction."""
    gaps = []
    reduction = eliminate._ducos_reduction

    def recording(p, q, z, s, kernel):
        gaps.append(len(p) - len(q))
        return reduction(p, q, z, s, kernel)

    monkeypatch.setattr(eliminate, "_ducos_reduction", recording)
    return gaps


@pytest.mark.parametrize("step", [2, 3])
def test_ducos_defective_pairs_match_bareiss(monkeypatch, step):
    # polynomials in x^step have remainders in x^step only, so every degree
    # gap after the first is a multiple of step: Lazard's lift and the inner
    # loop of the reduction run on every step
    gaps = _count_defective_steps(monkeypatch)
    rng = random.Random(53 + step)
    for _ in range(30):
        f = _gapped_in_x(rng, step * rng.randint(1, 6 // step), step=step)
        g = _gapped_in_x(rng, step * rng.randint(1, 6 // step), step=step)
        assert resultant(f, g, "x") == _bareiss_resultant(f, g, "x")
    assert gaps and all(gap % step == 0 for gap in gaps)


def test_ducos_gapped_pairs_match_bareiss(monkeypatch):
    gaps = _count_defective_steps(monkeypatch)
    rng = random.Random(59)
    for _ in range(40):
        f = _gapped_in_x(rng, rng.randint(1, 6))
        g = _gapped_in_x(rng, rng.randint(1, 6))
        for a, b in ((f, g), (g, f)):
            assert resultant(a, b, "x") == _bareiss_resultant(a, b, "x")
    assert 1 in gaps and any(gap >= 2 for gap in gaps)


@pytest.fixture
def kernel_sizes(monkeypatch):
    """The term count of every kernel product and dividend, listed under the
    name of the kernel method that forms it."""
    sizes = {"mul": [], "exact_div": [], "dot_div": []}
    mul, exact_div, dot_div = _Kernel.mul, _Kernel.exact_div, _Kernel.dot_div

    def sized_mul(self, a, b):
        out = mul(self, a, b)
        sizes["mul"].append(len(out))
        return out

    def sized_div(self, a, b):
        sizes["exact_div"].append(len(a))
        return exact_div(self, a, b)

    def sized_dot_div(self, pairs, d):
        # a fused call forms its products without ``mul``: count each product
        # and the dividend, their sum, here
        total = {}
        for a, b in pairs:
            product = {}
            for ka, ca in a.items():
                for kb, cb in b.items():
                    product[ka + kb] = product.get(ka + kb, 0) + ca * cb
            sizes["dot_div"].append(sum(1 for c in product.values() if c))
            for key, c in product.items():
                total[key] = total.get(key, 0) + c
        sizes["dot_div"].append(sum(1 for c in total.values() if c))
        return dot_div(self, pairs, d)

    monkeypatch.setattr(_Kernel, "mul", sized_mul)
    monkeypatch.setattr(_Kernel, "exact_div", sized_div)
    monkeypatch.setattr(_Kernel, "dot_div", sized_dot_div)
    return sizes


def test_disc_r_intermediates_stay_small(kernel_sizes):
    # forming the full pseudo-remainder of the last step before dividing it
    # built a 10,344-term product here
    from k3verify.families import big_r_symbolic

    disc = discriminant(big_r_symbolic(), "x0")
    assert disc.term_count() == 616
    sizes = [n for listed in kernel_sizes.values() for n in listed]
    assert sizes and max(sizes) <= 4000


def test_all_never_forms_the_616_term_discriminant(kernel_sizes, capsys):
    # disc(R) and disc(R0) are read off their factors: c * d90 comes from
    # N * res(h, g)/B^2 by one exact division, and the checks compare
    # factors, so no product or dividend outside the subresultant chains
    # reaches the 616 terms of disc(R).  The chain of res(h, g) divides sums
    # of products of up to 1,230 terms in ``dot_div``.
    from k3verify import families
    from k3verify.cli import main

    for cached in (families.disc_factorization, families.cd_disc_factorization):
        cached.cache_clear()
    try:
        assert main(["all", "--json"]) == 0
    finally:
        families.disc_factorization.cache_clear()
        families.cd_disc_factorization.cache_clear()
    capsys.readouterr()
    assert max(kernel_sizes["mul"] + kernel_sizes["exact_div"]) <= 318
    assert max(kernel_sizes["dot_div"]) <= 1230


def test_resultant_constant_operand():
    c = parse("a", XT)
    f = parse("x^2 + b", XT)
    assert resultant(c, f, "x") == parse("a^2", AB)
    with pytest.raises(BothConstantError):
        resultant(c, parse("b", XT), "x")


def test_discriminant_cubic():
    table = VariableTable(("p", "q", "y"), (1, 1, 1))
    f = parse("y^3 + p*y + q", table)
    assert render(discriminant(f, "y")) == "-4*p^3 - 27*q^2"


def test_discriminant_quadratic():
    table = VariableTable(("a", "b", "c", "x"), (1, 1, 1, 1))
    f = parse("a*x^2 + b*x + c", table)
    assert render(discriminant(f, "x")) == "-4*a*c + b^2"


def test_discriminant_double_root_vanishes():
    rng = random.Random(43)
    one_var = VariableTable(("x",), (1,))
    for _ in range(25):
        root = rng.randint(-5, 5)
        other = rng.randint(-5, 5)
        x = WeightedPolynomial.variable(one_var, "x")
        r = WeightedPolynomial.constant(one_var, root)
        o = WeightedPolynomial.constant(one_var, other)
        f = (x - r) * (x - r) * (x - o)
        assert discriminant(f, "x").is_zero()


def test_discriminant_degree_too_low():
    with pytest.raises(DegreeTooLowError):
        discriminant(parse("x + a", XT), "x")


def test_sample_point_deterministic():
    cfg = PitConfig(trials=5, seed=42)
    assert sample_point(cfg, 3, 4) == sample_point(cfg, 3, 4)
    assert sample_point(cfg, 3, 4) != sample_point(cfg, 4, 4)


def test_pit_config_validation():
    with pytest.raises(ValueError):
        PitConfig(trials=0)
    with pytest.raises(ValueError):
        PitConfig(sample_bound=1)


@pytest.mark.parametrize("field, value", [
    ("trials", 2.5), ("trials", True), ("trials", "3"), ("seed", 1.0), ("seed", False),
    ("sample_bound", 50.0), ("sample_bound", True), ("sample_bound", None)])
def test_pit_config_refuses_fields_that_are_not_int(field, value):
    # trials=2.5 would crash later in range(), and a float bound would give
    # float coordinates
    with pytest.raises(ValueError, match=field):
        PitConfig(**{field: value})


def test_disc_r_matches_sympy():
    # Both sides use the convention disc_x(f) = (-1)^(n(n-1)/2) res(f, f') / lc(f)
    # for f of degree n in x, so the polynomials must agree term for term.
    sympy = pytest.importorskip("sympy")
    from k3verify.families import big_r_symbolic, disc_factorization

    big_r = big_r_symbolic()
    names = sympy.symbols(big_r.table.names)
    expr = sum(
        sympy.Rational(c.numerator, c.denominator)
        * sympy.Mul(*(v ** e for v, e in zip(names, exp)))
        for exp, c in big_r.terms.items()
    )
    disc = sympy.Poly(sympy.discriminant(expr, names[-1]), *names[:-1])
    expected = {
        exp: Fraction(int(c.p), int(c.q)) for exp, c in disc.as_dict().items()
    }
    assert len(expected) == 616
    assert disc_factorization().disc.terms == expected


def test_bareiss_resultant_of_a_singular_sylvester_matrix_is_a_polynomial():
    # x^2 and x^3 share the root 0; the elimination runs out of pivots and
    # the int 0 of bareiss_det comes back as the zero polynomial
    f, g = parse("x^2", XT), parse("x^3", XT)
    res = _bareiss_resultant(f, g, "x")
    assert isinstance(res, WeightedPolynomial) and res.is_zero()
    assert resultant(f, g, "x") == res


def test_resultant_of_operands_over_different_tables_raises():
    f = parse("a*x + 1", VariableTable(("a", "x"), (1, 1)))
    g = parse("b*x^2 + c", VariableTable(("b", "c", "x"), (1, 1, 1)))
    with pytest.raises(TableMismatchError):
        resultant(f, g, "x")
    with pytest.raises(TableMismatchError):
        resultant(g, f, "x")


def test_eliminants_land_on_the_parameter_tables():
    # no conversion: the table without the eliminated variable is the
    # parameter table by value
    from k3verify import families

    g2v, g3v = families.dual_polynomials()
    assert resultant(g2v, g3v, "x0").table == families.T_TABLE
    assert families.r_poly().table == families.T_TABLE
    assert families.disc_factorization().disc.table == families.T_TABLE
    assert families.cd_r0_poly().table == families.CD_TABLE
    assert families.cd_disc_factorization().disc.table == families.CD_TABLE


def _delta_oracle(a, b, e, var):
    x = WeightedPolynomial.variable(a.table, var)
    big = 4 * x ** e * a ** 3 + 27 * b ** 2
    return resultant(big, big.derivative(var), var)


def test_delta_resultant_matches_the_chain_on_both_families():
    from k3verify import families

    g2v, g3v = families.dual_polynomials()
    assert eliminate.delta_resultant(g2v, g3v, 1, "x0") == _delta_oracle(g2v, g3v, 1, "x0")
    g2, g3 = families.build_scd_symbolic()
    x1 = WeightedPolynomial.variable(families.CDX_TABLE, "x1")
    a, b = g2.exact_div(x1 ** 4), g3.exact_div(x1 ** 5)
    assert eliminate.delta_resultant(a, b, 2, "x1") == _delta_oracle(a, b, 2, "x1")


def _rand_coefficient(rng):
    """A nonzero term k, k*a or k*b with k in [-3, 3]."""
    exp = rng.choice(((0, 0, 0), (1, 0, 0), (0, 1, 0)))
    return WeightedPolynomial.from_terms(XT, {exp: rng.choice((-3, -2, -1, 1, 2, 3))})


def test_delta_resultant_matches_the_chain_on_random_shapes():
    rng = random.Random(2028)
    x = WeightedPolynomial.variable(XT, "x")
    served = 0
    for _ in range(130):
        e = rng.choice((1, 2))
        degree = rng.choice((1, 3) if e == 1 else (1, 2, 3))
        a = _rand_coefficient(rng) * x + _rand_coefficient(rng)
        b = _rand_coefficient(rng) * x ** degree + _rand_coefficient(rng)
        for k in range(1, degree):
            b = b + rng.randint(0, 1) * _rand_coefficient(rng) * x ** k
        try:
            got = eliminate.delta_resultant(a, b, e, "x")
        except ValueError:
            # refused only when res(a, b) or res(c, b') vanishes
            c = e * a + 3 * x * a.derivative("x")
            assert resultant(a, b, "x").is_zero() or resultant(
                c, b.derivative("x"), "x").is_zero()
            continue
        assert got == _delta_oracle(a, b, e, "x"), (render(a), render(b), e)
        served += 1
    assert served >= 100


@pytest.mark.parametrize("a, b, e, reason", [
    ("x^2 + 1", "x^3 + 1", 1, "needs"),  # a not linear
    ("x + 1", "x^3 + 1", 3, "needs"),    # e outside 1, 2
    ("x + 1", "x^3 + 1", 0, "needs"),
    ("x + 1", "a", 1, "needs"),          # b constant in x
    ("x + 1", "x^2 + 1", 1, "needs"),    # 4 x a^3 and 27 b^2 both of degree 4
    ("a*x", "x^3 + 1", 1, "needs"),      # x divides a
    ("x + 1", "x^3 + x", 2, "needs"),    # x divides b
    ("x + 1", "x^3 + 1", 1, "vanishes"),  # a and b share the root -1
    ("x + 1", "8*x^3 + 15*x^2 + 6*x + 5", 1, "vanishes"),  # c = 4x + 1 divides b'
])
def test_delta_resultant_refuses_shapes_outside_the_served_one(a, b, e, reason):
    with pytest.raises(ValueError, match=reason):
        eliminate.delta_resultant(parse(a, XT), parse(b, XT), e, "x")
