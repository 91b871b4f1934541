import json
import math
import random
from fractions import Fraction

import pytest

from k3verify import upoly, weierstrass
from k3verify.weierstrass import (
    INFINITY,
    NON_MINIMAL,
    IdenticallyZeroError,
    InconsistentValuationsError,
    KodairaType,
    WeierstrassModel,
    fiber_configuration,
    is_k3,
    kodaira_from_valuations,
    local_valuations,
    minimalize_everywhere,
    squarefree_strata,
)
from k3verify.eliminate import PitConfig, sample_point
from k3verify.families import ParameterPoint, build_s, random_certified_points, sample_points
from regenerate_golden import FIBER_TABLE, GOLDEN


def _points():
    return {entry["name"]: entry["point"] for entry in sample_points()}


def _model(g2, g3, height=2):
    return WeierstrassModel(tuple(Fraction(c) for c in g2), tuple(Fraction(c) for c in g3), height)


def test_local_valuations_finite_place():
    # g2 = x^4, g3 = x^5: v2 = 4, v3 = 5, vDelta = 10 at x = 0
    model = _model((0, 0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 0, 1))
    assert local_valuations(model, Fraction(0)) == (4, 5, 10)


def test_local_valuations_at_infinity():
    # deg g2 = 5, deg g3 = 11 with height 2: v2 = 8-5 = 3, v3 = 12-11 = 1
    g2 = (0,) * 5 + (1,)
    g3 = (0,) * 11 + (1,)
    model = _model(g2, g3)
    v2, v3, vd = local_valuations(model, INFINITY)
    assert (v2, v3) == (3, 1)


def test_local_valuations_zero_g2():
    model = _model((0,), (1, 1))
    v2, v3, vd = local_valuations(model, Fraction(-1))
    assert v2 == INFINITY
    assert v3 == 1
    assert vd == 2


def test_kodaira_table():
    cases = [
        ((0, 0, 0), "I0"),
        ((0, 0, 3), "I3"),
        ((1, 1, 2), "II"),
        ((1, 2, 3), "III"),
        ((2, 2, 4), "IV"),
        ((2, 3, 6), "I0*"),
        ((2, 3, 8), "I2*"),
        ((3, 4, 8), "IV*"),
        ((3, 5, 9), "III*"),
        ((4, 5, 10), "II*"),
    ]
    for vals, symbol in cases:
        assert kodaira_from_valuations(*vals).symbol == symbol
    assert kodaira_from_valuations(4, 6, 12) is NON_MINIMAL
    assert kodaira_from_valuations(INFINITY, 6, 12) is NON_MINIMAL
    with pytest.raises(InconsistentValuationsError):
        kodaira_from_valuations(1, 1, 7)


def test_kodaira_type_invariants():
    two_star = KodairaType("II*")
    assert two_star.euler_number == 10
    assert KodairaType("I", 4).euler_number == 4
    assert KodairaType("I*", 2).euler_number == 8
    assert KodairaType("IV*").euler_number == 8


def test_kodaira_types_are_equal_and_hashed_by_value():
    assert KodairaType("I", 3) == KodairaType("I", 3)
    assert hash(KodairaType("I", 3)) == hash(KodairaType("I", 3))
    assert len({KodairaType("I", 3), KodairaType("I", 3), KodairaType("I*", 3)}) == 2
    assert KodairaType("II*") == KodairaType("II*", 0) != KodairaType("III*")
    assert KodairaType("I", 3) != "I3"


def test_squarefree_strata():
    # x^2 * (x-1)^3 has strata (x, 2) and (x-1, 3)
    poly = [0, 0, 1]  # x^2
    cube = [-1, 1]
    prod = poly
    for _ in range(3):
        new = [0] * (len(prod) + 1)
        for i, a in enumerate(prod):
            new[i] += -a
            new[i + 1] += a
        prod = new
    strata = squarefree_strata(tuple(Fraction(c) for c in prod))
    mults = sorted(m for _f, m in strata)
    assert mults == [2, 3]


def _sympy_strata(sympy, x, coeffs):
    poly = sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(coeffs)], x
    )
    _lc, factors = sympy.sqf_list(poly)
    strata = []
    for f, k in factors:
        monic = f.monic().all_coeffs()[::-1]
        strata.append((tuple(Fraction(int(c.p), int(c.q)) for c in monic), k))
    return strata


def test_squarefree_strata_matches_sympy():
    # Delta is formed by sympy from g2 and g3, so the oracle shares no code
    # with the classifier; the rational points scale Delta by a lambda that
    # makes the content non-primitive and, for some, the leading
    # coefficient negative.
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    points = [(p, 1) for p in _points().values()]
    for trial in range(20):
        t = sample_point(PitConfig(trials=1, seed=7, sample_bound=6), trial, 5)
        if any(t):
            points.append((ParameterPoint(*t), 1))
    rational = [
        ((Fraction(1, 2), 3, Fraction(-2, 3), 5, 1), Fraction(-6, 7)),
        ((2, Fraction(1, 3), 1, 0, Fraction(5, 2)), 12),
        ((0, 0, Fraction(7, 4), Fraction(-1, 5), 1), -4),
        ((Fraction(-3, 2), 1, 1, 1, 0), Fraction(9, 2)),
        ((1, 1, 1, 1, Fraction(-1, 9)), Fraction(-10, 3)),
    ]
    points += [(ParameterPoint(*t), lam) for t, lam in rational]
    assert len(points) == 30
    for point, lam in points:
        model = build_s(point)
        g2 = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                 for i, c in enumerate(model.g2))
        g3 = sum(sympy.Rational(c.numerator, c.denominator) * x ** i
                 for i, c in enumerate(model.g3))
        delta = sympy.Poly(lam * (4 * g2 ** 3 + 27 * g3 ** 2), x)
        coeffs = tuple(Fraction(int(c.p), int(c.q)) for c in delta.all_coeffs()[::-1])
        assert squarefree_strata(coeffs) == _sympy_strata(sympy, x, coeffs)


def test_squarefree_strata_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def times(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return tuple(out)

    # distinct rational roots a/b and distinct x^2 + c (c > 0) keep the f_i
    # squarefree and pairwise coprime
    roots = st.fractions(-6, 6, max_denominator=4)
    factors = st.one_of(
        roots.map(lambda r: ("root", r)), st.integers(1, 9).map(lambda c: ("quad", c))
    )

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(
        st.lists(st.tuples(factors, st.integers(1, 4)), min_size=1, max_size=6,
                 unique_by=lambda item: item[0]),
        st.fractions(-20, 20, max_denominator=9).filter(bool),
    )
    def check(assignment, lam):
        strata = {}
        for (kind, value), k in assignment:
            factor = (-value, Fraction(1)) if kind == "root" else (Fraction(value), 0, 1)
            strata[k] = times(strata.get(k, (Fraction(1),)), tuple(map(Fraction, factor)))
        poly = (Fraction(lam),)
        for k, f in strata.items():
            for _ in range(k):
                poly = times(poly, f)
        assert squarefree_strata(poly) == [(f, k) for k, f in sorted(strata.items())]

    check()


def test_minimalize_everywhere_drop():
    # g2 = x^4*(x+1), g3 = x^6 is non-minimal at 0 only
    model = _model((0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 0, 0, 1))
    reduced = minimalize_everywhere(model)
    assert reduced.height == 1
    assert reduced.g2 == (Fraction(1), Fraction(1))
    assert reduced.g3 == (Fraction(1),)


def test_minimalize_everywhere_to_height_zero():
    # g2 = x^8, g3 = x^12: two twists (at 0 and at infinity) kill the height
    model = _model((0,) * 8 + (1,), (0,) * 12 + (1,))
    reduced = minimalize_everywhere(model)
    assert reduced.height == 0


def test_fiber_configuration_generic_point():
    model = build_s(_points()["generic"])
    config = fiber_configuration(model)
    assert config.summary() == "II* + IV* + 6 I1"
    assert config.total_euler == 24


def test_fiber_configuration_special_points():
    points = _points()
    assert (
        fiber_configuration(build_s(points["t18-zero"])).summary()
        == "II* + III* + 5 I1"
    )
    assert (
        fiber_configuration(build_s(points["d90-root"])).summary()
        == "II* + IV* + I2 + 4 I1"
    )
    assert (
        fiber_configuration(build_s(points["r-root"])).summary()
        == "II* + IV* + II + 4 I1"
    )


def test_fiber_configuration_euler_sum():
    points = _points()
    for name in ("generic", "t18-zero", "d90-root", "r-root"):
        config = fiber_configuration(build_s(points[name]))
        assert config.total_euler == 24


def test_fiber_configuration_rejects_non_minimal():
    model = _model((0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1))
    with pytest.raises(Exception):
        fiber_configuration(model)


def test_is_k3():
    points = _points()
    assert is_k3(build_s(points["generic"]))
    assert is_k3(build_s(points["r-root"]))
    assert not is_k3(build_s(points["non-k3"]))
    # rational elliptic surface: height drops to 1
    assert not is_k3(_model((0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1)))


def test_delta_identically_zero():
    with pytest.raises(IdenticallyZeroError):
        fiber_configuration(_model((0,), (0,), height=2))


def test_chart_swap_invariance():
    # swapping x -> 1/x permutes the places but preserves the configuration
    model = build_s(_points()["generic"])
    bound2, bound3 = 8, 12
    g2 = tuple(reversed(model.g2 + (Fraction(0),) * (bound2 + 1 - len(model.g2))))
    g3 = tuple(reversed(model.g3 + (Fraction(0),) * (bound3 + 1 - len(model.g3))))
    swapped = WeierstrassModel(g2, g3, 2)
    original = fiber_configuration(model)
    mirrored = fiber_configuration(swapped)
    assert original.counts_by_symbol() == mirrored.counts_by_symbol()


def _rational_models(rng, count):
    """count // 2 random rational (g2, g3) within the height-2 bounds, then
    count // 2 non-minimal ones, f^4 * a and f^6 * b along a rational linear
    f; a drawn pair with g2 and g3 both zero is left out."""
    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    pairs = []
    for _ in range(count // 2):
        g2 = [rational() for _ in range(rng.randint(1, 9))]
        g3 = [rational() for _ in range(rng.randint(1, 13))]
        if any(g2) or any(g3):
            pairs.append((tuple(g2), tuple(g3)))
    for _ in range(count // 2):
        f = (rational(), Fraction(rng.randint(1, 3)))
        a = tuple([rational() for _ in range(rng.randint(1, 5))])
        b = tuple([rational() for _ in range(rng.randint(1, 7))])
        g2 = upoly.mul(upoly.power(f, 4), a) if any(a) else ()
        g3 = upoly.mul(upoly.power(f, 6), b) if any(b) else (1,)
        pairs.append((g2, g3))
    return pairs


def _invariants(model):
    minimal = model.minimal_model
    config = minimal.configuration
    return (model.delta, model.delta_strata, config.summary(), config.total_euler,
            minimal.height, is_k3(model))


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_scaling_by_lambda_is_the_same_surface(seed):
    # (g2, g3) and (lambda^4 g2, lambda^6 g3) are isomorphic over Q
    # (y -> lambda^2 y, z -> lambda^3 z), which is what clearing denominators
    # relies on
    rng = random.Random(seed)
    twisted = 0
    for g2, g3 in _rational_models(rng, 12):
        lam = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
        model = WeierstrassModel(g2, g3)
        scaled = WeierstrassModel([lam ** 4 * c for c in g2], [lam ** 6 * c for c in g3])
        assert _invariants(scaled) == _invariants(model)
        den = math.lcm(*(Fraction(c).denominator for c in g2 + g3))
        cleared = ([int(c * den ** 4) for c in g2], [int(c * den ** 6) for c in g3])
        assert model == WeierstrassModel(*cleared)
        assert model.g2 == upoly.trim(cleared[0]) and model.g3 == upoly.trim(cleared[1])
        for m in (model, scaled):
            minimal = m.minimal_model
            twisted += minimal is not m
            assert all(type(c) is int for c in m.g2 + m.g3 + minimal.g2 + minimal.g3)
    assert twisted


def _seeded_models(seed):
    """Family points, random rational models within the height-2 bounds, and
    non-minimal models f^4 * a, f^6 * b along a rational linear f."""
    rng = random.Random(seed)
    models = [build_s(p) for p in random_certified_points(3, seed=seed)]
    models += [build_s(p) for p in random_certified_points(2, seed=seed, t18_zero=True)]
    models += [WeierstrassModel(g2, g3, 2) for g2, g3 in _rational_models(rng, 8)]
    # non-minimal at infinity as well
    models.append(WeierstrassModel((0, 0, 0, 0, 1), (0, 0, 0, 0, 0, 0, 1), 2))
    return models


def _classification(model, order):
    """Minimal model, configuration (or the error type) and is_k3 of model,
    asked for in the given order."""
    out = {}
    for step in order:
        if step == "minimal":
            m = minimalize_everywhere(model)
            out[step] = (m.g2, m.g3, m.height)
        elif step == "config":
            try:
                config = fiber_configuration(model)
                out[step] = (config.fibers, config.total_euler)
            except ValueError as exc:
                out[step] = type(exc)
        else:
            out[step] = is_k3(model)
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cached_classification_matches_a_fresh_model(seed):
    for model in _seeded_models(seed):
        first = _classification(model, ("minimal", "config", "k3"))
        again = _classification(model, ("k3", "config", "minimal"))
        fresh = WeierstrassModel(model.g2, model.g3, model.height)
        assert again == first
        assert _classification(fresh, ("k3", "config", "minimal")) == first
        minimal = minimalize_everywhere(model)
        assert minimalize_everywhere(model) is minimal
        assert minimalize_everywhere(minimal) is minimal
        if first["config"] is ValueError:
            # not minimal: raises on every call, nothing cached
            assert minimal is not model
            for _ in range(2):
                with pytest.raises(ValueError):
                    fiber_configuration(model)
        else:
            assert minimal is model
            assert fiber_configuration(model) is fiber_configuration(model)


def test_classify_then_is_k3_runs_one_squarefree(monkeypatch):
    calls = []
    squarefree = upoly.squarefree

    def counting(a):
        calls.append(a)
        return squarefree(a)

    monkeypatch.setattr(upoly, "squarefree", counting)
    model = build_s(_points()["generic"])
    minimal = minimalize_everywhere(model)
    config = fiber_configuration(minimal)
    assert is_k3(model)
    assert config.summary() == "II* + IV* + 6 I1"
    assert len(calls) == 1
    assert weierstrass.minimalize_everywhere(model) is model


def _gcd_loop_partition(f, poly):
    """_mult_partition as a gcd-and-divide loop for every stratum."""
    if not poly:
        return [(f, INFINITY)]
    parts, current, remaining, m = [], f, poly, 0
    while len(current) > 1:
        deeper = upoly.gcd(current, remaining)
        factor = upoly.exact_div(current, deeper)
        if len(factor) > 1:
            parts.append((factor, m))
        if len(deeper) < 2:
            break
        remaining = upoly.exact_div(remaining, deeper)
        current = deeper
        m += 1
    return parts


def _exact_div_count(a, f):
    count = 0
    while (a := upoly.exact_div(a, f)) is not None:
        count += 1
    return count


@pytest.mark.parametrize("f", [(0, 1), (-3, 2), (5, 1)], ids=["root-0", "root-3/2", "root-minus-5"])
@pytest.mark.parametrize("m", [0, 1, 4])
def test_mult_partition_of_a_linear_stratum(f, m):
    # poly = f^m (x^2 + 7) (2x - 2)
    rest = upoly.mul((7, 0, 1), (-2, 2))
    poly = upoly.mul(upoly.power(f, m), rest)
    assert weierstrass._multiplicity(poly, f) == m == _exact_div_count(poly, f)
    assert weierstrass._mult_partition(f, poly) == [(f, m)] == _gcd_loop_partition(f, poly)


@pytest.mark.parametrize("f", [(0, 1), (-3, 2)], ids=["root-0", "root-3/2"])
def test_mult_partition_of_a_linear_stratum_in_zero(f):
    assert weierstrass._multiplicity((), f) is INFINITY
    assert weierstrass._mult_partition(f, ()) == [(f, INFINITY)] == _gcd_loop_partition(f, ())


def test_classification_never_runs_a_remainder_on_two_multiples_of_x0(monkeypatch):
    # every model of S(t) has x0^3 | g2 and x0^4 | g3; gcd and Yun split the
    # power of x0 off first, so no pseudo-remainder sees it in both operands
    prem = upoly.prem
    calls = []

    def recording(a, b):
        calls.append((a, b))
        return prem(a, b)

    monkeypatch.setattr(upoly, "prem", recording)
    points = [entry["point"] for entry in sample_points()] + random_certified_points(20)
    for point in points:
        built = build_s(point)
        model = WeierstrassModel(built.g2, built.g3, built.height)  # nothing cached
        fiber_configuration(minimalize_everywhere(model))
        is_k3(model)
    assert calls
    assert all(a[0] or b[0] for a, b in calls)


def test_classification_renders_no_place(monkeypatch):
    calls = []
    render_terms = weierstrass.render_terms

    def recording(table, terms):
        calls.append(terms)
        return render_terms(table, terms)

    monkeypatch.setattr(weierstrass, "render_terms", recording)
    points = [entry["point"] for entry in sample_points()] + random_certified_points(20)
    for point in points:
        fiber_configuration(minimalize_everywhere(build_s(point)))
    assert calls == []


def test_place_of_a_stratum_of_several_roots_is_its_integer_polynomial():
    config = fiber_configuration(build_s(_points()["generic"]))
    strata = [e for e in config.fibers if e.place is not INFINITY
              and not isinstance(e.place, Fraction)]
    assert strata
    for entry in strata:
        assert isinstance(entry.place, tuple)
        assert all(type(c) is int for c in entry.place)
        assert len(weierstrass._monic(entry.place)) - 1 == entry.count


def test_non_minimal_along_a_stratum_names_its_monic_polynomial():
    # (2 x0^2 + 3)^4 | g2 and (2 x0^2 + 3)^6 | g3: valuations (4, 6, 12) at
    # both roots, which are not rational
    f = (3, 0, 2)
    model = WeierstrassModel(upoly.power(f, 4), upoly.power(f, 6))
    with pytest.raises(ValueError, match=r"not minimal along x0\^2 \+ 3/2$"):
        fiber_configuration(model)


def _fiber_table_k3_models():
    rows = json.loads((GOLDEN / FIBER_TABLE).read_text(encoding="utf-8"))["points"]
    return [build_s(ParameterPoint(*row["t"])) for row in rows if row["is_k3"]]


def test_a_stratum_of_multiplicity_one_is_all_i1():
    # v(Delta) = 1 forces v(g2) = v(g3) = 0, which is why _classify types
    # such a stratum I1 without partitioning it
    table = _fiber_table_k3_models()
    models = [m for seed in range(4) for m in _seeded_models(seed)] + table
    simple = 0
    for model in models:
        minimal = minimalize_everywhere(model)
        for f, k in minimal.delta_strata:
            if k == 1:
                simple += 1
                assert weierstrass._mult_partition(f, minimal.g2) == [(f, 0)]
                assert weierstrass._mult_partition(f, minimal.g3) == [(f, 0)]
    assert simple >= len(table)  # every K3 row has I1 fibers


def test_classification_on_primitive_parts_matches_the_full_parts(monkeypatch):
    # l^4 and l^6 change no multiplicity at a finite place: at coordinates
    # with 40-digit denominators the primitive parts are far smaller, and the
    # configuration and valuations are those read on g2 and g3 themselves
    rng = random.Random(40)
    points = [[Fraction(rng.randrange(1, 10 ** 40), rng.randrange(1, 10 ** 40))
               for _ in range(5)] for _ in range(6)]

    def classified(t):
        model = build_s(ParameterPoint(*t))
        valuations = [local_valuations(model, x) for x in (Fraction(0), -t[1] / t[0], INFINITY)]
        return model, fiber_configuration(model), valuations

    on_primitive = [classified(t) for t in points]
    for model, _config, _valuations in on_primitive:
        g2, g3 = model._primitive
        assert (1, g2) == upoly.primitive(g2) and (1, g3) == upoly.primitive(g3)
        assert len(str(max(map(abs, g3)))) * 5 < len(str(max(map(abs, model.g3))))
    monkeypatch.setattr(WeierstrassModel, "_primitive", property(lambda m: (m.g2, m.g3)))
    assert [classified(t)[1:] for t in points] == [c[1:] for c in on_primitive]
