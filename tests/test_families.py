import random
from fractions import Fraction

import pytest

from k3verify import families, weierstrass
from k3verify.eliminate import PitConfig, sample_point
from k3verify.families import (
    ParameterPoint,
    T_TABLE,
    build_s,
    cd_disc_factorization,
    cd_r0_poly,
    cd_specialize_check,
    d90_irreducibility_certificate,
    delta_t_poly,
    dim_forms,
    dim_forms_bruteforce,
    genericity_certificate,
    IrreducibilityCertificate,
    irreducibility_certificate,
    is_generic_point,
    pit_disc_factorization,
    printed_d90,
    r_poly,
    sample_points,
    random_certified_points,
)
from k3verify.upoly import irreducible_mod_p
from k3verify.wpoly import VariableTable, WeightedPolynomial, parse
from pit_reference import reference_pit


def _point_by_name(name):
    for entry in sample_points():
        if entry["name"] == name:
            return entry["point"]
    raise KeyError(name)


def test_parameter_point_validation():
    with pytest.raises(ValueError):
        ParameterPoint(0, 0, 0, 0, 0)
    p = ParameterPoint(1, "1/2", 0, 0, 1)
    assert p.t6 == Fraction(1, 2)


@pytest.mark.parametrize("coords", [(1.9, 1, "2", 1, 1), (1, True, "2", 1, 1), (0.0, 0, 0, 0, 1)])
def test_parameter_point_refuses_float_and_bool(coords):
    with pytest.raises(ValueError, match="int, Fraction or text"):
        ParameterPoint(*coords)


def test_parameter_point_reads_exact_decimal_text():
    p = ParameterPoint("0.25", Fraction(-3, 2), "-7/3", 0, "1e2")
    assert p.as_tuple() == (Fraction(1, 4), Fraction(-3, 2), Fraction(-7, 3), 0, 100)


def test_build_s_shape():
    model = build_s(ParameterPoint(1, 0, 0, 0, 1))
    # g2 = x0^4, g3 = x0^7 + x0^4
    assert model.g2 == (0, 0, 0, 0, 1)
    assert model.g3 == (0, 0, 0, 0, 1, 0, 0, 1)
    assert model.height == 2


def test_r_poly_matches_golden():
    expected = parse("t10^3 + t4^2*t10*t12 - t4^3*t18 - t4*t6*t10^2", T_TABLE)
    assert r_poly() == expected
    assert r_poly().weighted_degree() == 30
    assert r_poly().is_weighted_homogeneous()


def test_printed_d90_invariants():
    d90 = printed_d90()
    assert d90.term_count() == 102
    assert d90.weighted_degree() == 90
    assert d90.is_weighted_homogeneous()
    assert d90.coefficient((0, 0, 9, 0, 0)) == 3125
    assert d90.coefficient((0, 0, 0, 0, 5)) == 14348907
    assert d90.coefficient((9, 0, 0, 0, 3)) == 1024


def test_d90_vanishes_at_fixture_root():
    root = _point_by_name("d90-root")
    assert printed_d90().evaluate(root.as_tuple()) == 0
    assert r_poly().evaluate(root.as_tuple()) != 0


def test_r_vanishes_at_fixture_root():
    root = _point_by_name("r-root")
    assert r_poly().evaluate(root.as_tuple()) == 0
    assert printed_d90().evaluate(root.as_tuple()) != 0


def test_delta_t_weight():
    delta_t = delta_t_poly()
    assert delta_t.weighted_degree() == 108
    assert delta_t.is_weighted_homogeneous()


def test_pit_disc_factorization_small():
    c, used, ok, witness = pit_disc_factorization(PitConfig(trials=12, seed=3))
    assert ok
    assert witness is None
    assert used > 0
    assert c == 2176782336  # 6^12


def test_cd_r0_poly():
    table = cd_r0_poly().table
    expected = parse("9*alpha^2*delta + 6*alpha*beta*gamma + gamma^2", table)
    assert cd_r0_poly() == expected
    assert cd_r0_poly().weighted_degree() == 20


def test_cd_disc_factorization():
    fact = cd_disc_factorization()
    assert fact.c_prime == 544195584
    assert fact.r0 == cd_r0_poly()
    assert fact.r0.weighted_degree() == 20
    assert fact.d0.weighted_degree() == 60
    assert fact.d0.is_weighted_homogeneous()
    assert fact.d0.term_count() == 24


def test_factorizations_are_over_the_integers():
    fact, cd = families.disc_factorization(), cd_disc_factorization()
    assert type(fact.c) is int and type(cd.c_prime) is int
    for poly in (fact.disc, fact.d90_derived, printed_d90(), r_poly(), cd.r0, cd.d0):
        assert poly.terms and all(type(c) is int for c in poly.terms.values())


def test_cd_specialize_check():
    ok, witness = cd_specialize_check()
    assert ok and witness is None
    # a perturbed substitution must be caught and witnessed
    bad, diff = cd_specialize_check({"t4": "-2*alpha"})
    assert not bad
    assert diff is not None


def test_chart_swap_reverses_the_x1_powers():
    # g2 = -3a x1^4 - g x1^5, so x0^8 g2(1/x0) = -3a x0^4 - g x0^3
    g2, g3 = families.build_scd_symbolic()
    assert families._chart_swap(g2, 8) == parse("-3*alpha*x0^4 - gamma*x0^3", families.MIX_TABLE)
    assert families._chart_swap(g3, 7).degree_in("x0") == 2
    with pytest.raises(ValueError, match="bound too small"):
        families._chart_swap(g3, 6)


def test_dim_forms_examples():
    assert dim_forms(0) == 1
    assert dim_forms(2) == 0
    assert dim_forms(4) == 1
    assert dim_forms(10) == 2  # t4*t6 and t10
    assert dim_forms(54, "det") == 1
    assert dim_forms(53, "det") == 0
    with pytest.raises(ValueError):
        dim_forms(-2)
    with pytest.raises(ValueError):
        dim_forms(4, "bogus")


def test_dim_forms_cross_check():
    for k in range(0, 80):
        assert dim_forms(k) == dim_forms_bruteforce(k)
        assert dim_forms(k + 54, "det") == dim_forms_bruteforce(k)


def test_d90_irreducibility_certificate():
    cert = d90_irreducibility_certificate(PitConfig(trials=8, seed=0))
    assert cert.certified
    assert cert.prime in (2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)
    assert cert.specialization is not None


def test_irreducibility_rejects_delta_t():
    cert = irreducibility_certificate(
        delta_t_poly(), "t18", PitConfig(trials=4, seed=0)
    )
    assert not cert.certified
    assert cert.reason


def test_irreducibility_certificate_failures():
    table = VariableTable(("a", "b", "x"), (1, 1, 1))
    cfg = PitConfig(trials=4, seed=0)
    # content a, and content 1 with no constant coefficient: neither certifies
    for text in ("a*x^2 + a^2*x + a^3", "a*x + b"):
        cert = irreducibility_certificate(parse(text, table), "x", cfg)
        assert not cert.certified
        assert cert.reason == "content check inconclusive"
    cert = irreducibility_certificate(parse("a*x^2 + a^2*x", table), "x", cfg)
    assert not cert.certified
    assert cert.reason == "the coefficient of x^0 vanishes: x divides a factor"
    # (x + a)(x + 1) passes both checks, and every specialization factors
    cert = irreducibility_certificate(parse("x^2 + a*x + x + a", table), "x", cfg)
    assert not cert.certified
    assert (cert.reason, cert.trials) == ("budget exhausted", 4)


def test_irreducibility_certificate_never_certifies_a_split_quintic():
    # (x^2 + a)(x^3 + x + a + 1): every specialization factors over Z, and
    # its smallest factor has degree 2 = 5 // 2, the last degree tested mod p
    table = VariableTable(("a", "x"), (1, 1))
    poly = parse("x^2 + a", table) * parse("x^3 + x + a + 1", table)
    for seed in range(10):
        cert = irreducibility_certificate(poly, "x", PitConfig(trials=8, seed=seed))
        assert not cert.certified
        assert (cert.reason, cert.trials) == ("budget exhausted", 8)


def test_irreducibility_certificate_skips_primes_dividing_the_leading_coefficient(monkeypatch):
    table = VariableTable(("a", "x"), (1, 1))
    poly = parse("2*x^2 + x + a^2 + 1", table)
    primes = []
    monkeypatch.setattr(families, "irreducible_mod_p",
                        lambda coeffs, p: primes.append(p) or irreducible_mod_p(coeffs, p))
    for seed in range(6):
        cert = irreducibility_certificate(poly, "x", PitConfig(trials=4, seed=seed))
        assert cert.certified and cert.prime != 2
    assert primes and 2 not in primes


def test_genericity_of_fixture_points():
    generic = _point_by_name("generic")
    cert = genericity_certificate(generic)
    assert all(v != 0 for v in cert.values())
    assert is_generic_point(generic)
    assert not is_generic_point(_point_by_name("r-root"))
    assert not is_generic_point(_point_by_name("d90-root"))
    assert not is_generic_point(_point_by_name("t18-zero"))


def test_sample_points_roles():
    entries = sample_points()
    names = {entry["name"] for entry in entries}
    assert {"generic", "d90-root", "r-root", "t18-zero", "non-k3"} <= names
    assert all(entry["role"] for entry in entries)


def test_random_certified_points():
    points = random_certified_points(5, seed=1)
    assert len(points) == 5
    for p in points:
        assert is_generic_point(p)
    pinned = random_certified_points(3, seed=1, t18_zero=True)
    for p in pinned:
        assert p.t18 == 0
        cert = genericity_certificate(p)
        assert cert["r"] != 0 and cert["d90"] != 0
    # determinism
    assert random_certified_points(5, seed=1) == points


# Outputs pinned before the integer evaluation form: the PIT run of 100
# trials at seeds 0, 1 and 5, and the certificates at seeds 0..23 as
# (prime, specialization, trials).
_PINNED_CERTIFICATES = (
    (11, (2, -14, -12, 10), 1), (7, (-14, 15, -20, 6), 1),
    (5, (-17, -11, -4, -5), 1), (7, (7, -13, 9, 20), 1),
    (7, (-18, 5, 2, 16), 1), (5, (6, 6, -16, -12), 1),
    (29, (18, -19, -7, -16), 1), (7, (-12, 11, -18, 8), 2),
    (7, (-12, 11, -18, 8), 1), (19, (-17, 13, -14, 1), 1),
    (17, (3, 13, 6, -20), 1), (31, (7, -13, 20, -3), 1),
    (19, (-20, -10, 10, -18), 1), (13, (-3, -18, -20, -8), 1),
    (13, (-4, 13, 19, 11), 1), (31, (-13, 6, -15, -14), 1),
    (17, (10, -14, -9, 0), 1), (19, (-15, -8, 15, -20), 1),
    (31, (10, -20, 6, 20), 1), (23, (-20, 2, -20, -13), 1),
    (5, (-1, -5, 7, 1), 1), (7, (-3, 17, 5, -1), 1),
    (13, (-9, -19, 4, 20), 1), (13, (17, 20, 1, 18), 1),
)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_pit_disc_factorization_pinned(seed):
    assert pit_disc_factorization(PitConfig(seed=seed)) == (
        Fraction(2176782336), 100, True, None)


def test_pit_specialization_matches_evaluate_and_univariate_at():
    # at seeded integer points, and at seeded points with non-integer
    # rational coordinates, the one-table values are exactly those of the
    # Fraction-returning evaluate and of univariate_at; at integer points
    # all are ints
    specialize = families._pit_specialization()
    cfg = PitConfig(trials=200, seed=24)
    rng = random.Random(24)
    rational = [tuple(Fraction(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(5))
                for _ in range(40)]
    assert all(any(x.denominator > 1 for x in t) for t in rational)
    big_r = families.big_r_symbolic()
    points = [sample_point(cfg, trial, 5) for trial in range(cfg.trials)] + rational
    r_vals, d_vals, *columns = specialize(points)
    for k, t in enumerate(points):
        r_val, d_val, coeffs = r_vals[k], d_vals[k], [column[k] for column in columns]
        assert r_val == r_poly().evaluate(t)
        assert d_val == printed_d90().evaluate(t)
        assert coeffs == big_r.univariate_at("x0", t + (0,))
        if all(type(x) is int for x in t):
            assert all(type(v) is int for v in (r_val, d_val, *coeffs))


def test_univariate_at_never_reads_the_coordinate_of_its_variable():
    d90 = printed_d90()
    assert d90.univariate_at("t18", (1, 1, 1, 1, None)) == d90.univariate_at("t18", (1, 1, 1, 1, 0))
    assert d90.univariate_at("t4", ("x", 2, -1, 3, 5)) == d90.univariate_at("t4", (7, 2, -1, 3, 5))


def test_pit_fails_on_one_coefficient_of_r_off_by_one(monkeypatch):
    specialization = families._pit_specialization

    def off_by_one():
        specialize = specialization()

        def at(points):
            r_vals, d_vals, *coeffs = specialize(points)
            coeffs[2] = [c + 1 for c in coeffs[2]]
            return [r_vals, d_vals, *coeffs]
        return at

    monkeypatch.setattr(families, "_pit_specialization", off_by_one)
    _c, used, ok, witness = pit_disc_factorization(PitConfig(trials=12, seed=3))
    assert ok is False
    assert used >= 2 and len(witness) == 5


_K = families._PIT_CHUNK


@pytest.mark.parametrize("trials", [1, _K - 1, _K, _K + 1, 500])
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_chunked_pit_matches_the_per_trial_loop(seed, trials):
    # chunk edges: one trial, one short of a chunk, a chunk, one past it, and
    # the benchmark's 500
    cfg = PitConfig(trials=trials, seed=seed)
    assert pit_disc_factorization(cfg) == reference_pit(cfg) == (
        Fraction(2176782336), trials, True, None)


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_chunked_pit_matches_the_per_trial_loop_on_a_wrong_d90(monkeypatch, seed):
    # one d90 coefficient off by one: both name the same first failing trial
    d90 = printed_d90()
    exp, c = next(iter(d90.terms.items()))
    wrong = WeightedPolynomial.from_terms(T_TABLE, {**d90.terms, exp: c + 1})
    monkeypatch.setattr(families, "printed_d90", lambda: wrong)
    cfg = PitConfig(trials=500, seed=seed)
    result = pit_disc_factorization(cfg)
    assert result == reference_pit(cfg)
    assert result[2] is False and len(result[3]) == 5


def test_integer_points_reach_the_model_as_int(monkeypatch):
    # int coordinates stay int, and an int model builds no Fraction; the
    # values equal those of the same point given as Fractions or text
    ints = ParameterPoint(3, -2, 5, 7, 11)
    assert all(type(v) is int for v in ints.as_tuple())
    fractions = ParameterPoint(*map(Fraction, (3, -2, 5, 7, 11)))
    texts = ParameterPoint("3", "-2", "5", "7", "11")
    assert all(type(v) is Fraction for v in fractions.as_tuple() + texts.as_tuple())
    assert ints == fractions == texts
    assert genericity_certificate(ints) == genericity_certificate(fractions)
    assert type(genericity_certificate(ints)["t18"]) is Fraction
    model = build_s(fractions)

    def no_fraction(*_args):
        raise AssertionError("a Fraction was built for an int model")
    monkeypatch.setattr(weierstrass, "Fraction", no_fraction)
    assert build_s(ints) == model
    assert all(type(c) is int for c in build_s(ints).g2 + build_s(ints).g3)


def test_irreducibility_certificates_pinned():
    for seed, (prime, specialization, trials) in enumerate(_PINNED_CERTIFICATES):
        cert = d90_irreducibility_certificate(PitConfig(trials=64, seed=seed))
        assert cert == IrreducibilityCertificate(True, prime, specialization, trials)
