"""Acceptance suite: one printed pass/fail line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines inline;
under the default capture they appear for failing criteria only.
"""

import random
import time
from fractions import Fraction
from itertools import product

from k3verify.eliminate import PitConfig, discriminant, resultant, sample_point
from k3verify.exactalg import inertia, smith_normal_form
from k3verify.families import (
    T_TABLE,
    build_s,
    cd_disc_factorization,
    cd_specialize_check,
    d90_irreducibility_certificate,
    delta_t_poly,
    dim_forms,
    dim_forms_bruteforce,
    disc_factorization,
    pit_disc_factorization,
    printed_d90,
    r_poly,
    random_certified_points,
    sample_points,
)
from k3verify.lattice import (
    a_lattice,
    a_msy_lattice,
    a_s_lattice,
    discriminant_group,
    finite_form_automorphisms,
    finite_forms_isomorphic,
    k3_lattice,
    kneser_check,
    m_lattice,
    m_sublattice_basis,
    orthogonal_complement,
    reflection,
    signature,
)
from k3verify.weierstrass import fiber_configuration, is_k3
from k3verify.wpoly import VariableTable, WeightedPolynomial, parse
from matrix_helpers import divisors_match, identity, matmul, row_transform_exists, transpose


def _report(name: str, budget_s: float, body):
    start = time.monotonic()
    try:
        body()
    except BaseException:
        print(f"criterion {name}: FAIL")
        raise
    elapsed = time.monotonic() - start
    if elapsed > budget_s:
        print(f"criterion {name}: FAIL (over budget: {elapsed:.1f}s > {budget_s}s)")
        raise AssertionError(f"{name} exceeded budget: {elapsed:.1f}s > {budget_s}s")
    print(f"criterion {name}: pass ({elapsed:.1f}s)")


def _fixture(name):
    for entry in sample_points():
        if entry["name"] == name:
            return entry["point"]
    raise KeyError(name)


def test_criterion_1_disc_factorization():
    def body():
        fact = disc_factorization()
        assert fact.c == 2176782336
        assert fact.c != 0
        # the factorization reassembles the discriminant exactly
        c_poly = WeightedPolynomial.constant(T_TABLE, fact.c)
        assert fact.disc == c_poly * r_poly() ** 3 * fact.d90_derived
        # fast probabilistic path: 100 trials, all residuals zero
        pit_start = time.monotonic()
        c, used, ok, witness = pit_disc_factorization(PitConfig(trials=100, seed=0))
        pit_elapsed = time.monotonic() - pit_start
        assert ok and witness is None
        assert c == fact.c
        assert pit_elapsed <= 5.0

    _report("1 (discriminant factorization)", 600.0, body)


def test_criterion_2_d90_golden_diff():
    def body():
        derived = disc_factorization().d90_derived
        golden = printed_d90()
        assert derived == golden
        spots = {
            (0, 0, 9, 0, 0): 3125,
            (0, 0, 0, 0, 5): 14348907,
            (0, 6, 0, 0, 3): 314928,
            (1, 1, 8, 0, 0): -5625,
            (9, 0, 0, 0, 3): 1024,
        }
        for exponents, value in spots.items():
            assert golden.coefficient(exponents) == value
            assert derived.coefficient(exponents) == value

    _report("2 (d90 golden diff)", 600.0, body)


def test_criterion_3_lattice_suite():
    def body():
        assert signature(a_lattice()) == (2, 4)
        assert signature(k3_lattice()) == (3, 19)
        assert signature(m_lattice()) == (1, 15)
        assert abs(m_lattice().det()) == 3
        q_a = discriminant_group(a_lattice())
        assert q_a.generator_orders == (3,)
        assert finite_form_automorphisms(q_a)[0] == 2
        assert kneser_check(a_lattice()).overall == "pass"
        assert kneser_check(a_s_lattice()).overall == "fail"
        assert kneser_check(a_msy_lattice()).overall == "fail"
        comp = orthogonal_complement(k3_lattice(), m_sublattice_basis())
        assert signature(comp) == signature(a_lattice())
        assert comp.det() == a_lattice().det()
        assert finite_forms_isomorphic(discriminant_group(comp), q_a)

    _report("3 (lattice suite)", 30.0, body)


def test_criterion_4_fiber_suite():
    def body():
        for point in random_certified_points(100, seed=0):
            config = fiber_configuration(build_s(point))
            assert config.summary() == "II* + IV* + 6 I1"
            assert config.total_euler == 24
        for point in random_certified_points(20, seed=0, t18_zero=True):
            config = fiber_configuration(build_s(point))
            assert config.summary() == "II* + III* + 5 I1"
        d90_config = fiber_configuration(build_s(_fixture("d90-root")))
        assert d90_config.counts_by_symbol().get("I2") == 1
        r_config = fiber_configuration(build_s(_fixture("r-root")))
        assert r_config.counts_by_symbol().get("II") == 1
        assert not is_k3(build_s(_fixture("non-k3")))

    _report("4 (fiber suite)", 60.0, body)


def test_criterion_5_cd_suite():
    def body():
        ok, witness = cd_specialize_check()
        assert ok and witness is None
        fact = cd_disc_factorization()
        assert fact.c_prime != 0
        gamma_cubed_weight = 3 * 10
        assert gamma_cubed_weight == 30
        assert 3 * fact.r0.weighted_degree() == 60
        assert fact.d0.weighted_degree() == 60
        assert fact.r0.is_weighted_homogeneous()
        assert fact.d0.is_weighted_homogeneous()

    _report("5 (CD suite)", 120.0, body)


def test_criterion_6_irreducibility_certificate():
    def body():
        cert = d90_irreducibility_certificate()
        assert cert.certified, (
            "inconclusive/failed certificate; retry with an enlarged budget, "
            f"reason: {cert.reason}"
        )
        assert cert.prime is not None
        assert cert.specialization is not None

    _report("6 (irreducibility certificate)", 120.0, body)


def test_criterion_7_ring_bookkeeping():
    def body():
        delta_t = delta_t_poly()
        assert delta_t.weighted_degree() == 108
        assert 108 == 2 * 54 and 18 == 2 * 9 and 90 == 2 * 45
        # generating-function expansion of prod 1/(1 - x^w) to weight 200
        limit = 200
        series = [Fraction(0)] * (limit + 1)
        series[0] = Fraction(1)
        for w in (4, 6, 10, 12, 18):
            for k in range(w, limit + 1):
                series[k] += series[k - w]
        for k in range(limit + 1):
            assert dim_forms(k) == series[k]
        for k in range(0, limit + 1, 10):
            assert dim_forms(k) == dim_forms_bruteforce(k)

    _report("7 (ring bookkeeping)", 5.0, body)


def test_criterion_8_property_suites():
    def body():
        rng = random.Random(2026)
        a = a_lattice()
        deltas = [
            v
            for v in product(range(-2, 3), repeat=6)
            if any(v) and a.norm(v) == -2
        ]
        q_a = discriminant_group(a)
        cases = 0

        # reflections: Gram-preserving involutions of det -1, trivial on A^vee/A
        for _ in range(250):
            sigma = reflection(a, rng.choice(deltas))
            assert sigma.det == -1
            assert matmul(sigma.matrix, sigma.matrix) == identity(6)
            assert matmul(transpose(sigma.matrix), a.int_rows, sigma.matrix) == a.int_rows
            assert sigma.fixes_discriminant_group
            cases += 1

        # SNF and inertia laws on random integer matrices
        for _ in range(250):
            n = rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            d, v = smith_normal_form(m)
            assert row_transform_exists(m, d, v)
            assert divisors_match(m, d)
            p, q, z = inertia(matmul(m, transpose(m)))
            assert p + q + z == n
            cases += 1

        # resultant laws on random univariate polynomials
        table = VariableTable(("x",), (1,))
        x = WeightedPolynomial.variable(table, "x")

        def rand_poly():
            deg = rng.randint(1, 3)
            p = WeightedPolynomial.constant(table, rng.randint(1, 4))
            for _ in range(deg):
                p = p * (x - WeightedPolynomial.constant(table, rng.randint(-4, 4)))
            return p

        for _ in range(250):
            f, g, h = rand_poly(), rand_poly(), rand_poly()
            assert resultant(f * g, h, "x") == resultant(f, h, "x") * resultant(
                g, h, "x"
            )
            cases += 1

        # grading law: homogeneous weight-30 r scales as lambda^30
        r = r_poly()
        for _ in range(250):
            point = tuple(Fraction(rng.randint(-5, 5)) for _ in range(5))
            lam = Fraction(rng.randint(1, 6), rng.randint(1, 6))
            scaled = tuple(
                lam ** w * value for w, value in zip(T_TABLE.weights, point)
            )
            assert r.evaluate(scaled) == lam ** 30 * r.evaluate(point)
            cases += 1

        assert cases == 1000

    _report("8 (property suites)", 60.0, body)
