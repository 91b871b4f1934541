"""Even integral lattices: catalog, invariants, discriminant forms, reflections.

A lattice is stored as its Gram matrix on a fixed basis, and its vectors are
``int`` tuples in basis coordinates, so Gram forms are evaluated in ``int``.
``Fraction`` enters only as the values of a discriminant form.  All invariants
are exact and no floating point enters the module.
"""
from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from functools import cached_property
from itertools import product
from operator import itemgetter, mul
from typing import NamedTuple

from .exactalg import (
    ExactMatrix,
    bareiss_det,
    det_fraction_free,
    inertia,
    integer_kernel,
    smith_normal_form,
)


class UnknownLatticeError(ValueError):
    """Catalog name not recognized."""


class DegenerateLatticeError(ValueError):
    """Operation requires a nondegenerate Gram matrix."""


class OrderTooLargeError(ArithmeticError):
    """Finite-group enumeration exceeds ``_MAX_FORM_ORDER``: an internal cap,
    not a fault in the input."""


class WrongNormError(ValueError):
    """Reflection vectors must have self-intersection -2."""


class DependentBasisError(ValueError):
    """Sublattice basis vectors are linearly dependent."""


def _mat_vec(rows, v):
    """Integer matrix (a sequence of rows) times an integer vector."""
    return [sum(map(mul, row, v)) for row in rows]


def _check_vector(v, rank):
    """Raise ``ValueError`` unless ``v`` holds ``rank`` entries, each an ``int``
    (not a ``bool``)."""
    if len(v) != rank or not {*map(type, v)} <= {int}:
        raise ValueError(f"a lattice vector is {rank} int coordinates")


class GramLattice:
    """Even integral lattice given by a symmetric ``int`` Gram matrix.

    ``int_rows`` is ``gram.entries``, the same tuple of ``int`` tuples, not a
    copy.  Vectors are sequences of ``rank`` ``int`` coordinates; ``inner``
    and ``norm`` raise ``ValueError`` on any other entry or length.  ``norm``
    evaluates the cached quadratic form :attr:`_form` in one pass.
    """

    def __init__(self, gram: ExactMatrix, label: str = ""):
        if not gram.is_symmetric():
            raise ValueError("Gram matrix must be symmetric")
        rows = gram.entries
        if any(rows[i][i] % 2 for i in range(len(rows))):
            raise ValueError("lattice is not even: odd diagonal entry")
        self.gram = gram
        self.label = label
        self.int_rows = rows

    @property
    def rank(self) -> int:
        return self.gram.rows

    def det(self) -> int:
        return det_fraction_free(self.gram)

    def inner(self, u, v) -> int:
        """Bilinear form of two ``int`` vectors given in basis coordinates."""
        _check_vector(u, self.rank)
        _check_vector(v, self.rank)
        return sum(map(mul, u, _mat_vec(self.int_rows, v)))

    @cached_property
    def _form(self):
        """``v . G . v`` as ``(coeffs, left, right, rank)``: the nonzero
        upper-triangle entries of ``int_rows``, off-diagonal ones doubled, and
        one ``itemgetter`` each for their row and column coordinates.

        The form is padded with zero terms to two, because an ``itemgetter``
        of a single index returns a scalar rather than a tuple.
        """
        terms = [
            (x if i == j else 2 * x, i, j)
            for i, row in enumerate(self.int_rows)
            for j, x in enumerate(row[i:], i)
            if x
        ]
        terms += [(0, 0, 0)] * (2 - len(terms))
        coeffs, left, right = zip(*terms)
        return coeffs, itemgetter(*left), itemgetter(*right), len(self.int_rows)

    def norm(self, v) -> int:
        coeffs, left, right, rank = self._form
        _check_vector(v, rank)
        # the padded form indexes coordinate 0, which a rank-0 vector lacks
        return sum(map(mul, coeffs, map(mul, left(v), right(v)))) if rank else 0

    @cached_property
    def dual_generators(self):
        """Generators of A*/A as ``(order, w)``: the dual vector ``w / order``.

        With ``D = u G v`` the Smith normal form, for some unimodular ``u``,
        column i of ``v`` divided by ``d_i`` is ``G^{-1} u^{-1} e_i``; the
        columns with ``d_i > 1`` generate the discriminant group.
        """
        d, v = smith_normal_form(self.gram)
        n = self.rank
        if any(d[i][i] == 0 for i in range(n)):
            raise DegenerateLatticeError(f"{self.label or 'lattice'} is degenerate")
        return tuple(
            (d[i][i], tuple(row[i] for row in v))
            for i in range(n)
            if d[i][i] > 1
        )


def _dynkin_a(k: int):
    """Gram matrix of the A_k root lattice (tridiagonal, 2 on the diagonal,
    -1 on the adjacent off-diagonals, the Cartan-matrix convention)."""
    return [
        [2 if i == j else (-1 if abs(i - j) == 1 else 0) for j in range(k)]
        for i in range(k)
    ]


def _dynkin_e(n: int):
    """Gram matrix of E_n (n in 6..8): an A_{n-1} chain plus one extra node.

    Nodes 0..n-2 form the chain; node n-1 is attached to chain node n-4,
    the standard E-series diagram.
    """
    g = _dynkin_a(n - 1)
    for row in g:
        row.append(0)
    g.append([0] * n)
    g[n - 1][n - 1] = 2
    g[n - 1][n - 4] = -1
    g[n - 4][n - 1] = -1
    return g


_NAME_RE = re.compile(r"^([UAEI])(\d*)(?:\(\s*(-?\d+)\s*\))?$")


def catalog(name: str) -> GramLattice:
    """Standard lattice by name: U, U(n), A_k(e), E6/E7/E8(e), I_k(n), diag(...).

    The optional parenthesized integer rescales the Gram matrix (e = -1 gives
    the negative-definite form of a root lattice).
    """
    text = name.replace(" ", "")
    if text.startswith("diag(") and text.endswith(")"):
        values = [int(x) for x in text[5:-1].split(",")]
        if any(v % 2 for v in values):
            raise UnknownLatticeError(f"diag entries must be even: {name}")
        rows = [[v if i == j else 0 for j in range(len(values))]
                for i, v in enumerate(values)]
        return GramLattice(ExactMatrix.from_rows(rows), label=name)
    m = _NAME_RE.match(text)
    if not m:
        raise UnknownLatticeError(f"unknown lattice name: {name}")
    family, index, scale = m.group(1), m.group(2), m.group(3)
    scale = 1 if scale is None else int(scale)
    if scale == 0:
        raise UnknownLatticeError(f"zero scale in {name}")
    if family == "U":
        if index:
            raise UnknownLatticeError(f"unknown lattice name: {name}")
        rows = [[0, 1], [1, 0]]
    elif family == "A":
        k = int(index) if index else 0
        if k < 1:
            raise UnknownLatticeError(f"A needs a positive rank: {name}")
        rows = _dynkin_a(k)
    elif family == "E":
        n = int(index) if index else 0
        if n not in (6, 7, 8):
            raise UnknownLatticeError(f"E needs rank 6, 7 or 8: {name}")
        rows = _dynkin_e(n)
    else:  # I_k(n): rank-k diagonal lattice with entry n
        k = int(index) if index else 0
        if k < 1:
            raise UnknownLatticeError(f"I needs a positive rank: {name}")
        if scale % 2:
            raise UnknownLatticeError(f"I_k needs an even scale: {name}")
        rows = [[int(i == j) for j in range(k)] for i in range(k)]
    return GramLattice(ExactMatrix.from_rows(rows).scale(scale), label=text)


def direct_sum(lattices, label: str = "") -> GramLattice:
    """Orthogonal direct sum, Gram matrices on the block diagonal."""
    lats = list(lattices)
    total = sum(l.rank for l in lats)
    rows = [[0] * total for _ in range(total)]
    offset = 0
    for lat in lats:
        for i, row in enumerate(lat.int_rows):
            rows[offset + i][offset:offset + lat.rank] = row
        offset += lat.rank
    if not label:
        label = " + ".join(l.label or "?" for l in lats)
    return GramLattice(ExactMatrix.from_rows(rows), label=label)


def rescale(lat: GramLattice, n: int) -> GramLattice:
    if n == 0:
        raise ValueError("rescale by zero")
    return GramLattice(lat.gram.scale(n), label=f"{lat.label}({n})")


def signature(lat: GramLattice):
    """Signature (s_plus, s_minus); degenerate lattices are rejected."""
    pos, neg, zero = inertia(lat.gram)
    if zero:
        raise DegenerateLatticeError(f"{lat.label or 'lattice'} is degenerate")
    return pos, neg


class FiniteQuadraticForm(NamedTuple):
    """Discriminant group with its Q/2Z-valued quadratic form.

    The group is a product of cyclic groups of the listed orders; elements are
    integer tuples modulo those orders.  ``q_diag[i]`` is q of the i-th
    generator (mod 2Z) and ``bilinear[i][j]`` the pairing b of generators i, j
    (mod Z), with b(x, x) = q(x) mod Z on the diagonal.
    """

    generator_orders: tuple
    q_diag: tuple
    bilinear: tuple

    @property
    def order(self) -> int:
        return math.prod(self.generator_orders)

    def elements(self):
        return product(*(range(d) for d in self.generator_orders))

    def q_of(self, element) -> Fraction:
        """Quadratic value of an element (integer tuple), reduced mod 2Z."""
        total = Fraction(0)
        k = len(self.generator_orders)
        for i in range(k):
            total += element[i] * element[i] * self.q_diag[i]
            for j in range(i + 1, k):
                total += 2 * element[i] * element[j] * self.bilinear[i][j]
        return total % 2

    def b_of(self, e1, e2) -> Fraction:
        """Bilinear pairing of two elements, reduced mod Z."""
        b = self.bilinear
        return sum((x * y * b[i][j] for i, x in enumerate(e1) if x
                    for j, y in enumerate(e2) if y), Fraction(0)) % 1

    def element_order(self, element) -> int:
        return math.lcm(
            *(d // math.gcd(x, d) for x, d in zip(element, self.generator_orders))
        )


def discriminant_group(lat: GramLattice) -> FiniteQuadraticForm:
    """Discriminant form on A-dual/A computed from the Smith normal form."""
    gens = lat.dual_generators
    b = [[Fraction(lat.inner(wi, wj), di * dj) for dj, wj in gens] for di, wi in gens]
    return FiniteQuadraticForm(
        generator_orders=tuple(d for d, _w in gens),
        q_diag=tuple(b[i][i] % 2 for i in range(len(gens))),
        bilinear=tuple(tuple(x % 1 for x in row) for row in b),
    )


def _homomorphism_images(q: FiniteQuadraticForm, target: FiniteQuadraticForm):
    """Candidate generator images for a q-preserving homomorphism q -> target."""
    by_gen = []
    targets = list(target.elements())
    for i, d in enumerate(q.generator_orders):
        candidates = []
        for e in targets:
            if d % target.element_order(e) == 0 and target.q_of(e) == q.q_diag[i]:
                candidates.append(e)
        by_gen.append(candidates)
    return by_gen


# Largest discriminant-group order whose isomorphisms are enumerated.
_MAX_FORM_ORDER = 10_000


def _maps_between(q: FiniteQuadraticForm, target: FiniteQuadraticForm):
    """All q-isomorphisms q -> target, as tuples of generator images."""
    if q.order > _MAX_FORM_ORDER or target.order > _MAX_FORM_ORDER:
        raise OrderTooLargeError(f"group order exceeds bound {_MAX_FORM_ORDER}")
    if q.order != target.order:
        return []
    if q.generator_orders == ():
        return [()]
    by_gen = _homomorphism_images(q, target)
    k = len(q.generator_orders)
    found = []
    for images in product(*by_gen):
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                if target.b_of(images[i], images[j]) != q.bilinear[i][j]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # bijectivity: the images must generate all of target
        seen = set()
        for coeffs in q.elements():
            img = tuple(
                sum(c * images[g][t] for g, c in enumerate(coeffs))
                % target.generator_orders[t]
                for t in range(len(target.generator_orders))
            )
            seen.add(img)
        if len(seen) == q.order:
            found.append(images)
    return found


def finite_form_automorphisms(q: FiniteQuadraticForm):
    """Count (and list) automorphisms of a finite quadratic form.

    Returns ``(count, automorphisms)`` where each automorphism is the tuple of
    generator images.
    """
    autos = _maps_between(q, q)
    return len(autos), autos


def finite_forms_isomorphic(q1: FiniteQuadraticForm, q2: FiniteQuadraticForm) -> bool:
    return bool(_maps_between(q1, q2))


def rank_mod_p(lat: GramLattice, p: int) -> int:
    """Rank of the Gram matrix over the field with p elements."""
    if p < 2:
        raise ValueError("p must be a prime >= 2")
    n = lat.rank
    a = [[x % p for x in row] for row in lat.int_rows]
    rank = 0
    row = 0
    for col in range(n):
        piv = next((i for i in range(row, n) if a[i][col] % p), None)
        if piv is None:
            continue
        a[row], a[piv] = a[piv], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(n):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
        if row == n:
            break
    return rank


class KneserReport(NamedTuple):
    """Verdicts for the four Kneser conditions.

    Each verdict is "pass", "fail", or "inconclusive"; the overall verdict is
    "pass" only when all four conditions are certified.  ``witness`` is a
    norm -2 vector or None.
    """

    signature_ok: str
    minus_two_vector: str
    rank_mod_2_ok: str
    rank_mod_3_ok: str
    witness: tuple
    details: dict

    @property
    def overall(self) -> str:
        verdicts = (
            self.signature_ok,
            self.minus_two_vector,
            self.rank_mod_2_ok,
            self.rank_mod_3_ok,
        )
        if all(v == "pass" for v in verdicts):
            return "pass"
        if any(v == "fail" for v in verdicts):
            return "fail"
        return "inconclusive"


# Largest number of nonzero points the norm -2 box search may visit.  At
# rank 8 and bound 2 that is 390,624 points, under a second with Python 3.11.
_BOX_POINT_BUDGET = 500_000


def _box_points(rank: int, bound: int) -> int:
    """Nonzero points of the box [-bound, bound]^rank."""
    return (2 * bound + 1) ** rank - 1


def _minus_two_search(lat: GramLattice, bound: int):
    """A vector of norm -2: basis vectors first, then a bounded box.

    The box is skipped (the result is None) when it holds more than
    ``_BOX_POINT_BUDGET`` nonzero points.
    """
    n = lat.rank
    for i in range(n):
        if lat.gram[i, i] == -2:
            return tuple(1 if j == i else 0 for j in range(n))
    if _box_points(n, bound) > _BOX_POINT_BUDGET:
        return None
    for coords in product(range(-bound, bound + 1), repeat=n):
        if any(coords) and lat.norm(coords) == -2:
            return coords
    return None


def kneser_check(lat: GramLattice, search_bound: int = 2) -> KneserReport:
    """The four Kneser conditions for an even indefinite lattice.

    A failed signature condition fixes the verdict at "fail", so the norm -2
    box search is skipped then: ``minus_two_vector`` is "inconclusive" and
    ``details["search_skipped"]`` is "signature".  A box of more than
    ``_BOX_POINT_BUDGET`` nonzero points is not searched either, once no basis
    vector has norm -2: ``minus_two_vector`` is "inconclusive",
    ``details["search_skipped"]`` is "budget" and ``details["box_points"]``
    the size of the box.
    """
    s_pos, s_neg = signature(lat)
    sig_ok = "pass" if min(s_pos, s_neg) >= 2 else "fail"
    r2 = rank_mod_p(lat, 2)
    r3 = rank_mod_p(lat, 3)
    details = {
        "signature": (s_pos, s_neg),
        "rank_mod_2": r2,
        "rank_mod_3": r3,
        "search_bound": search_bound,
    }
    witness = None
    if sig_ok == "pass":
        witness = _minus_two_search(lat, search_bound)
        box_points = _box_points(lat.rank, search_bound)
        if witness is None and box_points > _BOX_POINT_BUDGET:
            details["search_skipped"] = "budget"
            details["box_points"] = box_points
    else:
        details["search_skipped"] = "signature"
    return KneserReport(
        signature_ok=sig_ok,
        minus_two_vector="pass" if witness is not None else "inconclusive",
        rank_mod_2_ok="pass" if r2 >= 6 else "fail",
        rank_mod_3_ok="pass" if r3 >= 5 else "fail",
        witness=witness,
        details=details,
    )


class Isometry(NamedTuple):
    """Integral isometry of a lattice with its determinant and disc action.

    ``matrix`` is a tuple of ``int`` rows acting on column vectors of basis
    coordinates."""

    matrix: tuple
    det: int
    fixes_discriminant_group: bool


def reflection(lat: GramLattice, delta) -> Isometry:
    """Reflection z -> z + (z, delta) delta in an ``int`` vector of norm -2."""
    norm = lat.norm(delta)
    if norm != -2:
        raise WrongNormError(f"(delta, delta) = {norm} != -2")
    n = lat.rank
    gd = _mat_vec(lat.int_rows, delta)
    rows = tuple(
        tuple(int(r == c) + delta[r] * gd[c] for c in range(n)) for r in range(n)
    )
    if _mat_mul(tuple(zip(*rows)), _mat_mul(lat.int_rows, rows)) != lat.int_rows:
        raise AssertionError("reflection failed to preserve the Gram matrix")
    fixes = all(
        all((x - y) % d == 0 for x, y in zip(_mat_vec(rows, w), w))
        for d, w in lat.dual_generators
    )
    return Isometry(matrix=rows, det=bareiss_det(rows), fixes_discriminant_group=fixes)


def _mat_mul(a, b):
    """Product of two integer matrices given as sequences of rows."""
    columns = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in columns) for row in a)


def _gram_of(lat: GramLattice, vectors):
    """Integer Gram matrix of integer vectors under the form of ``lat``."""
    images = [_mat_vec(lat.int_rows, v) for v in vectors]
    return [[sum(map(mul, a, gb)) for gb in images] for a in vectors]


def _smith_invariants(sub_basis, n):
    """Integer rows of a sublattice basis and the Smith invariants of their
    matrix; raises ``ValueError`` on a non-``int`` entry or a wrong length and
    :class:`DependentBasisError` if the rank falls short."""
    m = ExactMatrix.from_rows(sub_basis)
    basis = m.entries
    if any(len(v) != n for v in basis):
        raise ValueError("dimension mismatch")
    d, _v = smith_normal_form(m)
    invariants = [d[i][i] for i in range(min(m.rows, m.cols)) if d[i][i] != 0]
    if len(invariants) != len(basis):
        raise DependentBasisError("sublattice basis is linearly dependent")
    return basis, invariants


def orthogonal_complement(ambient: GramLattice, sub_basis) -> GramLattice:
    """Gram matrix of the primitive orthogonal complement of a sublattice."""
    basis, _invariants = _smith_invariants(sub_basis, ambient.rank)
    # row v of the pairing matrix is (v, e_j) = (G v)_j, G being symmetric
    pairing = ExactMatrix.from_rows([_mat_vec(ambient.int_rows, v) for v in basis])
    kernel = integer_kernel(pairing)
    gram = ExactMatrix.from_rows(_gram_of(ambient, kernel))
    return GramLattice(gram, label=f"({ambient.label})^perp")


def _unit(n, j):
    return tuple(1 if i == j else 0 for i in range(n))


def is_primitive_sublattice(ambient: GramLattice, sub_basis) -> bool:
    """True iff the span of sub_basis is saturated in the ambient lattice."""
    _basis, invariants = _smith_invariants(sub_basis, ambient.rank)
    return all(x == 1 for x in invariants)


def same_genus_invariants(lat1: GramLattice, lat2: GramLattice) -> bool:
    """Equal signatures and isomorphic discriminant quadratic forms."""
    if signature(lat1) != signature(lat2):
        return False
    return finite_forms_isomorphic(discriminant_group(lat1), discriminant_group(lat2))


# -- the lattices of the verification suite -----------------------------------


def k3_lattice() -> GramLattice:
    """The even unimodular lattice of signature (3,19): U^3 + E8(-1)^2."""
    return direct_sum(
        [catalog("U"), catalog("U"), catalog("U"), catalog("E8(-1)"), catalog("E8(-1)")],
        label="L",
    )


def m_sublattice_basis():
    """Basis of the rank-16 sublattice U + E8(-1) + E6(-1) inside k3_lattice().

    The first hyperbolic plane and the first E8(-1) block are taken whole; the
    E6(-1) part is the standard E6 sub-diagram of the second E8(-1) block
    (chain nodes 2..6 plus the extra node 7, which is attached to chain
    node 4).
    """
    n = 22
    indices = [0, 1] + list(range(6, 14)) + list(range(16, 22))
    return [_unit(n, i) for i in indices]


def m_lattice() -> GramLattice:
    """Gram matrix of U + E8(-1) + E6(-1) on the embedded basis."""
    big = k3_lattice()
    basis = m_sublattice_basis()
    return GramLattice(ExactMatrix.from_rows(_gram_of(big, basis)), label="M")


def a_lattice() -> GramLattice:
    """U + U + A2(-1), signature (2,4), discriminant group of order 3."""
    return direct_sum([catalog("U"), catalog("U"), catalog("A2(-1)")], label="A")


def a_s_lattice() -> GramLattice:
    """U + U + A1(-1), the rank-5 comparison lattice."""
    return direct_sum([catalog("U"), catalog("U"), catalog("A1(-1)")], label="A_S")


def a_msy_lattice() -> GramLattice:
    """U(2) + U(2) + I2(-2), the rank-6 comparison lattice."""
    return direct_sum(
        [catalog("U(2)"), catalog("U(2)"), catalog("I2(-2)")], label="A_MSY"
    )


def a_cms_lattice() -> GramLattice:
    """U + U + I2(-2), another rank-6 comparison lattice."""
    return direct_sum(
        [catalog("U"), catalog("U"), catalog("I2(-2)")], label="A_CMS"
    )


# -- user lattices, read from JSON ---------------------------------------------


# Largest rank of a lattice read from JSON, and the bound on the magnitude of
# its Gram entries.  ``lattices --lattice`` grows as about rank^3.3: 0.15 s at
# rank 64, 1.5 s at 128 (random even Gram matrices, small entries).  It grows
# with the entries too: at rank 64, entries below 2^63 take about 3 s.
_MAX_JSON_RANK = 64
_MAX_JSON_ENTRY = 1 << 63
# The rank modulo this prime falls short of the rank only when the determinant
# is 0 or a multiple of the prime.  At rank 64 with entries below 2^63 it takes
# about 0.08 s, against about 1 s for the exact determinant.
_RANK_PRIME = (1 << 61) - 1


def lattice_from_json(text: str) -> GramLattice:
    """Parse ``{"label": str, "gram": [[int, ...], ...]}``; a malformed or
    too deeply nested document, one of rank above ``_MAX_JSON_RANK`` or one
    with an entry of magnitude ``_MAX_JSON_ENTRY`` or more, however many
    digits it has, or a degenerate Gram matrix raises ``ValueError`` naming
    the bad field."""
    # a literal of 20 digits is past 2^63: clamp it, so the check below names
    # "gram" and int() never meets one past its 4,300-digit limit
    try:
        obj = json.loads(text, parse_int=lambda s: _MAX_JSON_ENTRY if len(s.lstrip("-")) > 19
                         else int(s))
    except RecursionError:
        raise ValueError("lattice JSON is nested too deeply") from None
    if not isinstance(obj, dict):
        raise ValueError("lattice JSON must be an object")
    if "gram" not in obj:
        raise ValueError('lattice JSON has no "gram" field')
    rows = obj["gram"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError('"gram" must be a list of rows, each a list')
    if len(rows) > _MAX_JSON_RANK:
        raise ValueError(f'"gram" has rank {len(rows)}, above the limit {_MAX_JSON_RANK}')
    if any(len(row) != len(rows[0]) for row in rows):
        raise ValueError('"gram" has ragged rows')
    if not rows or len(rows[0]) != len(rows):
        raise ValueError('"gram" must be a non-empty square matrix')
    if not all(type(x) is int for row in rows for x in row):
        raise ValueError('"gram" entries must be integers')
    if any(abs(x) >= _MAX_JSON_ENTRY for row in rows for x in row):
        raise ValueError('"gram" entries must lie below 2^63 in absolute value')
    label = obj.get("label", "")
    if not isinstance(label, str):
        raise ValueError('"label" must be a string')
    lat = GramLattice(ExactMatrix.from_rows(rows), label=label)
    if rank_mod_p(lat, _RANK_PRIME) < lat.rank and lat.det() == 0:
        raise ValueError('"gram" is degenerate: its determinant is 0')
    return lat
