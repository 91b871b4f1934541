import random
from fractions import Fraction
from itertools import product

import pytest

from k3verify import lattice
from k3verify.exactalg import ExactMatrix
from k3verify.lattice import (
    DegenerateLatticeError,
    DependentBasisError,
    GramLattice,
    UnknownLatticeError,
    WrongNormError,
    a_cms_lattice,
    a_lattice,
    a_msy_lattice,
    a_s_lattice,
    catalog,
    direct_sum,
    discriminant_group,
    finite_form_automorphisms,
    finite_forms_isomorphic,
    is_primitive_sublattice,
    k3_lattice,
    kneser_check,
    lattice_from_json,
    m_lattice,
    m_sublattice_basis,
    orthogonal_complement,
    rank_mod_p,
    reflection,
    rescale,
    signature,
)
from matrix_helpers import apply, identity, matmul, transpose


def test_catalog_a2_negative():
    assert catalog("A2(-1)").gram.to_int_rows() == [[-2, 1], [1, -2]]


def test_catalog_dets():
    assert catalog("U").det() == -1
    assert catalog("A2(-1)").det() == 3
    assert catalog("E8").det() == 1
    assert catalog("E8(-1)").det() == 1
    assert catalog("E7").det() == 2
    assert catalog("E6").det() == 3
    assert a_lattice().det() == 3
    assert abs(m_lattice().det()) == 3


def test_catalog_everything_even():
    for name in ("U", "U(2)", "A1(-1)", "A2(-1)", "E6(-1)", "E7", "E8(-1)", "I2(-2)"):
        lat = catalog(name)
        assert all(lat.gram[i, i] % 2 == 0 for i in range(lat.rank))


def test_catalog_rescale_u2():
    assert rescale(catalog("U"), 2).gram.to_int_rows() == [[0, 2], [2, 0]]
    assert catalog("U(2)").gram.to_int_rows() == [[0, 2], [2, 0]]


def test_catalog_unknown():
    with pytest.raises(UnknownLatticeError):
        catalog("Z9")
    with pytest.raises(UnknownLatticeError):
        catalog("E5")


def test_direct_sum_a():
    lat = direct_sum([catalog("U"), catalog("U"), catalog("A2(-1)")])
    assert lat.rank == 6
    assert lat.det() == 3


def test_signatures():
    assert signature(a_lattice()) == (2, 4)
    assert signature(m_lattice()) == (1, 15)
    assert signature(k3_lattice()) == (3, 19)
    assert signature(catalog("E8(-1)")) == (0, 8)


def test_signature_degenerate():
    with pytest.raises(DegenerateLatticeError):
        signature(GramLattice(ExactMatrix.from_rows([[0, 0], [0, 2]])))


def test_discriminant_groups():
    assert discriminant_group(catalog("U")).generator_orders == ()
    q_a = discriminant_group(a_lattice())
    assert q_a.generator_orders == (3,)
    assert discriminant_group(a_s_lattice()).generator_orders == (2,)


def test_discriminant_group_order_equals_det():
    for name in ("U", "A2(-1)", "E6(-1)", "E7", "E8(-1)", "I2(-2)"):
        lat = catalog(name)
        assert discriminant_group(lat).order == abs(lat.det())


def test_q_scaling_law():
    q = discriminant_group(a_lattice())
    for element in q.elements():
        for n in range(5):
            scaled = tuple(n * x for x in element)
            expected = (n * n * q.q_of(element)) % 2
            assert q.q_of(scaled) == expected


def test_finite_form_automorphisms():
    q_a = discriminant_group(a_lattice())
    count, autos = finite_form_automorphisms(q_a)
    assert count == 2
    assert len(autos) == 2
    trivial = discriminant_group(catalog("U"))
    assert finite_form_automorphisms(trivial)[0] == 1
    q_s = discriminant_group(a_s_lattice())
    assert finite_form_automorphisms(q_s)[0] == 1


def test_rank_mod_p():
    a = a_lattice()
    assert rank_mod_p(a, 2) == 6
    assert rank_mod_p(a, 3) == 5
    assert rank_mod_p(a_s_lattice(), 2) == 4
    for p in (2, 3, 5):
        assert rank_mod_p(catalog("U"), p) == 2


def test_kneser_verdicts():
    report = kneser_check(a_lattice())
    assert report.overall == "pass"
    assert report.witness is not None
    assert a_lattice().norm(report.witness) == -2
    failing = kneser_check(a_s_lattice())
    assert failing.overall == "fail"
    assert failing.rank_mod_2_ok == "fail"
    assert failing.details["rank_mod_2"] == 4
    msy = kneser_check(a_msy_lattice())
    assert msy.overall == "fail"
    assert msy.details["rank_mod_2"] == 0
    assert kneser_check(a_cms_lattice()).overall == "fail"


def test_kneser_reports_share_no_details():
    first, second = kneser_check(a_lattice()), kneser_check(a_lattice())
    assert first.details == second.details and first.details is not second.details
    with pytest.raises(TypeError):
        lattice.KneserReport("pass", "pass", "pass", "pass", None)


def test_kneser_skips_search_when_signature_fails(monkeypatch):
    def search(*_args):
        raise AssertionError("the search cannot change a failed verdict")

    monkeypatch.setattr(lattice, "_minus_two_search", search)
    i7 = GramLattice(ExactMatrix.from_rows([[2 * (i == j) for j in range(7)]
                                            for i in range(7)]), label="I7(2)")
    report = kneser_check(i7, search_bound=3)
    assert report.overall == "fail"
    assert report.signature_ok == "fail"
    assert report.minus_two_vector == "inconclusive"
    assert report.witness is None
    assert report.details["signature"] == (7, 0)
    assert report.details["search_skipped"] == "signature"


def test_reflection_basics():
    a = a_lattice()
    delta = (0, 0, 0, 0, 1, 0)
    sigma = reflection(a, delta)
    assert sigma.det == -1
    assert apply(sigma.matrix, delta) == tuple(-x for x in delta)
    assert matmul(sigma.matrix, sigma.matrix) == identity(6)
    assert sigma.fixes_discriminant_group
    with pytest.raises(WrongNormError):
        reflection(a, (1, 0, 0, 0, 0, 0))


def test_reflection_random_involutions():
    a = a_lattice()
    deltas = [
        v
        for v in product(range(-2, 3), repeat=6)
        if any(v) and a.norm(v) == -2
    ]
    rng = random.Random(19)
    for delta in rng.sample(deltas, 50):
        sigma = reflection(a, delta)
        assert matmul(transpose(sigma.matrix), a.gram, sigma.matrix) == a.gram.entries
        assert matmul(sigma.matrix, sigma.matrix) == identity(6)
        assert sigma.det == -1


def test_orthogonal_complement_m_in_l():
    big = k3_lattice()
    comp = orthogonal_complement(big, m_sublattice_basis())
    assert comp.rank == 6
    assert signature(comp) == (2, 4)
    assert finite_forms_isomorphic(
        discriminant_group(comp), discriminant_group(a_lattice())
    )


def test_orthogonal_complement_e6_in_e8():
    e8 = catalog("E8")
    sub = [tuple(1 if i == j else 0 for i in range(8)) for j in (2, 3, 4, 5, 6, 7)]
    comp = orthogonal_complement(e8, sub)
    assert comp.rank == 2
    assert signature(comp) == signature(catalog("A2"))
    assert finite_forms_isomorphic(
        discriminant_group(comp), discriminant_group(catalog("A2"))
    )


def test_orthogonal_complement_full_lattice():
    u = catalog("U")
    comp = orthogonal_complement(u, [(1, 0), (0, 1)])
    assert comp.rank == 0


def test_orthogonal_complement_dependent():
    with pytest.raises(DependentBasisError):
        orthogonal_complement(catalog("U"), [(1, 0), (2, 0)])


def test_primitive_sublattice():
    big = k3_lattice()
    assert is_primitive_sublattice(big, m_sublattice_basis())
    assert not is_primitive_sublattice(catalog("U"), [(2, 0)])
    comp_basis = m_sublattice_basis()
    comp = orthogonal_complement(big, comp_basis)
    assert comp.rank == 6  # saturated by construction


@pytest.mark.parametrize("check", [
    lambda: is_primitive_sublattice(catalog("U"), [(Fraction(3, 2), 1)]),
    lambda: is_primitive_sublattice(catalog("U"), [(1.9, 1)]),
    lambda: orthogonal_complement(a_lattice(), [(Fraction(3, 2), 1, 0, 0, 0, 0)]),
], ids=["fraction", "float", "complement"])
def test_sublattice_basis_must_be_integral(check):
    # a non-int entry is refused, not truncated to an int
    with pytest.raises(ValueError):
        check()


def test_gram_lattice_holds_its_gram_matrix_once():
    for lat in (catalog("U(2)"), catalog("diag(2,-4)"), a_lattice(), k3_lattice(), m_lattice()):
        assert lat.int_rows is lat.gram.entries


def test_same_genus():
    from k3verify.lattice import same_genus_invariants

    a = a_lattice()
    assert same_genus_invariants(a, a)
    assert not same_genus_invariants(a, a_s_lattice())
    comp = orthogonal_complement(k3_lattice(), m_sublattice_basis())
    assert same_genus_invariants(comp, a)


def _gram_strategy(st, max_rank=6, entry=None):
    """Even symmetric integer Gram matrices of rank 1 to ``max_rank``, halved
    diagonal and off-diagonal entries drawn from ``entry`` (default -6..6)."""
    entry = st.integers(-6, 6) if entry is None else entry

    def build(n):
        entries = st.lists(entry, min_size=n * n, max_size=n * n)

        def gram(values):
            rows = [[values[i * n + j] if i <= j else values[j * n + i] for j in range(n)]
                    for i in range(n)]
            for i in range(n):
                rows[i][i] *= 2
            return GramLattice(ExactMatrix.from_rows(rows))

        return entries.map(gram)

    return st.integers(1, max_rank).flatmap(build)


def test_inner_matches_fraction_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    coord = st.integers(-9, 9)

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(_gram_strategy(st), st.data())
    def check(lat, data):
        u = data.draw(st.lists(coord, min_size=lat.rank, max_size=lat.rank))
        v = data.draw(st.lists(coord, min_size=lat.rank, max_size=lat.rank))
        gv = [sum(lat.gram[i, j] * Fraction(v[j]) for j in range(lat.rank))
              for i in range(lat.rank)]
        expected = sum(Fraction(u[i]) * gv[i] for i in range(lat.rank))
        value = lat.inner(u, v)
        assert value == expected and type(value) is int
        assert lat.norm(v) == lat.inner(v, v)
        # vectors are int tuples: a Fraction coordinate, even a whole one, is refused
        i = data.draw(st.integers(0, lat.rank - 1))
        rational = v[:i] + [data.draw(st.fractions(-9, 9, max_denominator=7))] + v[i + 1:]
        for call in (lambda: lat.inner(u, rational), lambda: lat.inner(rational, u),
                     lambda: lat.norm(rational)):
            with pytest.raises(ValueError):
                call()

    check()


def test_norm_matches_inner_and_fraction_reference_property():
    # the cached quadratic form against inner() and a Fraction v.G.v, on
    # sparse and dense Gram matrices of rank 1 to 8
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.just(0), st.integers(-6, 6))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(_gram_strategy(st, max_rank=8, entry=entry), st.data())
    def check(lat, data):
        v = data.draw(st.lists(st.integers(-9, 9), min_size=lat.rank, max_size=lat.rank))
        expected = sum(lat.gram[i, j] * v[i] * v[j]
                       for i in range(lat.rank) for j in range(lat.rank))
        value = lat.norm(tuple(v))
        assert value == lat.inner(v, v) == expected
        assert type(value) is int

    check()


@pytest.mark.parametrize("rows", [[[0]], [[-2]], [[0] * 3] * 3, [[0, 1], [1, 0]]],
                         ids=["zero-rank-1", "rank-1", "zero-rank-3", "one-off-diagonal"])
def test_norm_of_forms_with_fewer_than_two_terms(rows):
    # an itemgetter of one index returns a scalar; the form pads itself
    lat = GramLattice(ExactMatrix.from_rows(rows))
    for v in product(range(-2, 3), repeat=lat.rank):
        value = lat.norm(v)
        assert type(value) is int
        assert value == lat.inner(v, v)


def test_norm_rejects_non_int_vectors():
    a = a_lattice()
    half = (Fraction(1, 2), 0, 0, 1, Fraction(-1, 3), 2)
    flags = (True, False, True, True, False, True)
    for wrong in (half, (1, 0, 0), (1, 0, 0, 0, 0, 0, 0), (), flags):
        with pytest.raises(ValueError):
            a.norm(wrong)
    empty = GramLattice(ExactMatrix.from_rows([]))
    assert empty.norm(()) == 0


# kneser_check on the catalog lattices, as the Fraction-era code reported them
_KNESER_PINS = {
    "A": ("pass", (0, 0, 0, 0, 1, 0), (2, 4), 6, 5),
    "A_S": ("fail", (0, 0, 0, 0, 1), (2, 3), 4, 5),
    "A_MSY": ("fail", (0, 0, 0, 0, 1, 0), (2, 4), 0, 6),
    "A_CMS": ("fail", (0, 0, 0, 0, 1, 0), (2, 4), 4, 6),
    "A(2)": ("fail", None, (2, 4), 0, 5),
    "I7(2)": ("fail", None, (7, 0), 0, 7),
}


@pytest.mark.parametrize("bound", [0, 1, 2])
@pytest.mark.parametrize("label", list(_KNESER_PINS))
def test_kneser_check_pinned_reports(label, bound):
    lat = {
        "A": a_lattice, "A_S": a_s_lattice, "A_MSY": a_msy_lattice,
        "A_CMS": a_cms_lattice, "A(2)": lambda: rescale(a_lattice(), 2),
        "I7(2)": lambda: catalog("I7(2)"),
    }[label]()
    overall, witness, sig, r2, r3 = _KNESER_PINS[label]
    report = kneser_check(lat, bound)
    expected = {"signature": sig, "rank_mod_2": r2, "rank_mod_3": r3,
                "search_bound": bound}
    if label == "I7(2)":
        expected["search_skipped"] = "signature"
    assert (report.overall, report.witness, report.details) == (overall, witness, expected)
    assert report.minus_two_vector == ("pass" if witness else "inconclusive")


def test_box_search_order_pins_first_witness():
    # U + U has no norm -2 basis vector: the witness is the first box point
    # in product order
    uu = direct_sum([catalog("U"), catalog("U")])
    assert [kneser_check(uu, b).witness for b in range(3)] == [
        None, (-1, 0, -1, 1), (-2, 0, -1, 1)]


def _counting_norm(monkeypatch):
    calls = []
    norm = GramLattice.norm

    def counting(self, v):
        calls.append(1)
        return norm(self, v)

    monkeypatch.setattr(GramLattice, "norm", counting)
    return calls


def test_box_search_over_budget_is_skipped(monkeypatch):
    # U(2)^4 has signature (4, 4) and no -2 vector; at bound 3 its box holds
    # 7^8 - 1 = 5,764,800 points, more than the budget
    u4 = direct_sum([catalog("U(2)")] * 4)
    calls = _counting_norm(monkeypatch)
    report = kneser_check(u4, 3)
    assert calls == []
    assert report.minus_two_vector == "inconclusive"
    assert report.details["search_skipped"] == "budget"
    assert report.details["box_points"] == 7 ** 8 - 1 > lattice._BOX_POINT_BUDGET
    # a basis vector of norm -2 is still found before the budget applies
    with_root = kneser_check(direct_sum([u4, catalog("A1(-1)")]), 3)
    assert with_root.minus_two_vector == "pass"
    assert "search_skipped" not in with_root.details


def test_box_search_within_budget_runs(monkeypatch):
    u4 = direct_sum([catalog("U(2)")] * 4)
    calls = _counting_norm(monkeypatch)
    report = kneser_check(u4, 2)
    assert len(calls) == 5 ** 8 - 1 == 390_624
    assert report.witness is None and report.minus_two_vector == "inconclusive"
    assert "search_skipped" not in report.details
    assert "box_points" not in report.details


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        a_lattice().inner((1, 0, 0), (1, 0, 0, 0, 0, 0))


def test_reflection_matrix_formula_on_box():
    # every norm -2 vector of A in [-2, 2]^6: the matrix is I + delta (G delta)^T
    a = a_lattice()
    deltas = [v for v in product(range(-2, 3), repeat=6) if any(v) and a.norm(v) == -2]
    assert deltas
    for delta in deltas:
        gd = apply(a.gram, delta)
        expected = tuple(
            tuple(int(r == c) + delta[r] * gd[c] for c in range(6)) for r in range(6)
        )
        sigma = reflection(a, delta)
        assert sigma.matrix == expected
        assert {type(x) for row in sigma.matrix for x in row} == {int}
        assert (sigma.det, sigma.fixes_discriminant_group) == (-1, True)


def test_reflection_rejects_rational_vector():
    u = catalog("U")
    with pytest.raises(ValueError):
        u.norm((2, Fraction(-1, 2)))
    with pytest.raises(ValueError):
        reflection(u, (2, Fraction(-1, 2)))


def test_vectors_take_int_entries_only():
    u = catalog("U")
    for v in ((1.9, 1), (1.0, -1.0), (True, -1), (1, None)):
        with pytest.raises(ValueError):
            u.norm(v)
        with pytest.raises(ValueError):
            u.inner(v, (1, 1))
    with pytest.raises(ValueError):
        reflection(u, (1.0, -1.0))
    with pytest.raises(ValueError):
        u.inner((Fraction(1, 2), 3), (1, Fraction(2, 3)))


def test_reflections_compute_smith_form_once(monkeypatch):
    calls = []
    original = lattice.smith_normal_form

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(lattice, "smith_normal_form", counting)
    a = a_lattice()
    deltas = [v for v in product(range(-1, 2), repeat=6) if any(v) and a.norm(v) == -2]
    for delta in random.Random(7).sample(deltas, 50):
        assert reflection(a, delta).fixes_discriminant_group
    assert len(calls) == 1
    discriminant_group(a)
    assert len(calls) == 1


def test_discriminant_group_degenerate():
    with pytest.raises(DegenerateLatticeError):
        discriminant_group(GramLattice(ExactMatrix.from_rows([[0, 0], [0, 2]])))


def test_primitive_sublattice_dependent():
    with pytest.raises(DependentBasisError):
        is_primitive_sublattice(catalog("U"), [(1, 0), (2, 0)])
    with pytest.raises(DependentBasisError):
        is_primitive_sublattice(catalog("U"), [(1, 0), (0, 1), (1, 1)])
    assert is_primitive_sublattice(catalog("U"), [])


@pytest.mark.parametrize(
    "text, field",
    [
        ("[[0, 1], [1, 0]]", "object"),
        ('{"label": "x"}', '"gram"'),
        ('{"gram": 5}', '"gram"'),
        ('{"gram": [[0, 1], 5]}', '"gram"'),
        ('{"gram": [[0, 1], [1]]}', "ragged"),
        ('{"gram": []}', '"gram"'),
        ('{"gram": [[]]}', '"gram"'),
        ('{"gram": [[0, 0], [0, 0]]}', '"gram"'),
        ('{"gram": [[2, 4], [4, 8]]}', '"gram"'),
        ('{"gram": [[0, 1.5], [1.5, 0]]}', "integers"),
        ('{"gram": [[0, "1"], ["1", 0]]}', "integers"),
        ('{"gram": [[0, 1], [1, 0]], "label": 3}', '"label"'),
    ],
)
def test_json_malformed(text, field):
    with pytest.raises(ValueError, match=field):
        lattice_from_json(text)


def test_json_gram_singular_only_modulo_the_rank_prime_is_kept():
    # det = 2p is a multiple of the prime p but not 0, so the exact
    # determinant decides
    p = lattice._RANK_PRIME
    assert rank_mod_p(GramLattice(ExactMatrix.from_rows([[2 * p]])), p) == 0
    assert lattice_from_json(f'{{"gram": [[{2 * p}]]}}').det() == 2 * p


def test_non_cyclic_discriminant_form_automorphisms():
    # U(2) has discriminant group (Z/2)^2 with q = 0, 0 on the generators and
    # b = 1/2 between them, so the pairwise b check decides the count
    q = discriminant_group(catalog("U(2)"))
    assert q.generator_orders == (2, 2)
    assert q.b_of((1, 0), (0, 1)) == Fraction(1, 2)
    assert finite_form_automorphisms(q)[0] == 2


def test_non_cyclic_discriminant_form_of_order_sixteen():
    # the discriminant form of U(2) + U(2) is the even quadratic space of
    # plus type over F_2 in dimension 4, whose orthogonal group has order 72
    q = discriminant_group(direct_sum([catalog("U(2)"), catalog("U(2)")]))
    assert q.generator_orders == (2, 2, 2, 2)
    assert finite_form_automorphisms(q)[0] == 72
