"""Sparse multivariate polynomials over the integers with weighted grading.

A ``WeightedPolynomial`` is stored as a value of the private integer kernel
(``_Kernel``): a map from packed monomial to nonzero ``int``, so equal
polynomials always have identical maps.  Arithmetic, ``==``, exact division,
derivatives, degrees and weights read the packed keys, and ``terms`` views
them as a map from exponent tuples.  The canonical term order is descending
weighted degree, ties broken by descending lexicographic exponent order in
declared variable order.  A large sum of products of weighted-homogeneous
operands divided exactly, as in each step of a subresultant chain, is formed
from big-int products with one variable packed into each coefficient
(``_Kernel.dot_div``).

Rationals appear only at points, whose coordinates are ``int`` or
``Fraction``, and in ``render_terms``, which also writes ``Fraction``
coefficients.  Each polynomial keeps the ``specializer``s that ``evaluate``
and ``univariate_at`` build for it, which is sound because no operation
mutates a polynomial after construction.

The text format is a regular grammar, read term by term with anchored ``re``
matches: an optional sign (required before every term but the first), an
optional ``int`` coefficient, then factors ``name`` or ``name^int``, with
``*`` optional between them; blanks may stand anywhere between symbols, and
every term needs a coefficient or a name.

Dense univariate arithmetic, over Z and over F_p, lives in ``upoly``.
"""
from __future__ import annotations

import re
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, reduce
from heapq import heappop, heappush
from math import prod
from operator import lshift, mul, or_

# Not used here: benchmarks/tracing.py looks the mod-p step of the
# irreducibility certificate up in this module, under its older name, to time it.
from .upoly import irreducible_mod_p as factor_mod_p  # noqa: F401

NEG_INFINITY = float("-inf")


class TableMismatchError(ValueError):
    """Operands live over different variable tables."""


class PolynomialSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownVariableError(PolynomialSyntaxError):
    pass


class NotDivisibleError(ArithmeticError):
    """Exact division failed; carries the nonzero remainder witness."""

    def __init__(self, remainder: "WeightedPolynomial"):
        super().__init__("polynomial division is not exact")
        self.remainder = remainder


def _check_coefficient(c):
    if type(c) is not int:
        raise ValueError(f"polynomial coefficients must be int, got {c!r}")


class VariableTable:
    """Ordered variable names with positive integer weights, equal and hashed
    by value; ``_kernel`` packs the monomials of polynomials over them."""

    __slots__ = ("names", "weights", "_kernel")

    def __init__(self, names, weights):
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")
        self._kernel = _Kernel(self)

    def __eq__(self, other):
        if not isinstance(other, VariableTable):
            return NotImplemented
        return self.names == other.names and self.weights == other.weights

    def __hash__(self):
        return hash((self.names, self.weights))

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def weighted_degree_of(self, exponents) -> int:
        return sum(e * w for e, w in zip(exponents, self.weights))


class WeightedPolynomial:
    """A sparse polynomial over Z, graded by the table's variable weights.

    Its kernel value, viewed by exponent tuples as ``terms``, is never
    mutated: every operation returns a new polynomial, and the cached
    specializers rely on that.  Arithmetic and ``==`` take polynomials and
    ``int``s only, so a polynomial never equals a ``Fraction`` or a ``float``.
    """

    __slots__ = ("table", "_value", "_specializers")

    def __init__(self, table: VariableTable, value: dict):
        self.table = table
        self._value = value
        self._specializers = {}  # var, or None for evaluate -> specializer

    @property
    def terms(self) -> "TermView":
        return TermView(self.table._kernel, self._value)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "WeightedPolynomial":
        return WeightedPolynomial(table, {})

    @staticmethod
    def constant(table: VariableTable, value: int) -> "WeightedPolynomial":
        _check_coefficient(value)
        return WeightedPolynomial(table, {0: value} if value else {})

    @staticmethod
    def variable(table: VariableTable, name: str) -> "WeightedPolynomial":
        return WeightedPolynomial(table, {1 << table._kernel.shifts[table.index(name)]: 1})

    @staticmethod
    def from_terms(table: VariableTable, mapping) -> "WeightedPolynomial":
        value = {}
        for exp, coeff in dict(mapping).items():
            key = table._kernel.key(exp)
            _check_coefficient(coeff)
            if coeff:
                value[key] = coeff
        return WeightedPolynomial(table, value)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._value

    def coefficient(self, exponents) -> int:
        return self.terms.get(tuple(exponents), 0)

    def term_count(self) -> int:
        return len(self._value)

    def weighted_degree(self):
        return max(map(self.table._kernel.weight, self._value), default=NEG_INFINITY)

    def is_weighted_homogeneous(self) -> bool:
        return len(set(map(self.table._kernel.weight, self._value))) <= 1

    def degree_in(self, var: str):
        s = self.table._kernel.shifts[self.table.index(var)]
        return max(((key >> s) & _FIELD_MASK for key in self._value), default=NEG_INFINITY)

    def leading_term(self):
        """(exponents, coefficient) that is maximal in the canonical order."""
        if not self._value:
            raise ValueError("zero polynomial has no leading term")
        kernel = self.table._kernel
        key = max(self._value, key=lambda k: (kernel.weight(k), k))
        return kernel.exponents(key), self._value[key]

    # -- ring operations ---------------------------------------------------

    def _check_table(self, other):
        if self.table != other.table:
            raise TableMismatchError("operands use different variable tables")

    def _coerce(self, other):
        if isinstance(other, WeightedPolynomial):
            return other
        if type(other) is int:
            return WeightedPolynomial.constant(self.table, other)
        return NotImplemented

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.table == other.table and self._value == other._value

    def __hash__(self):
        return hash((self.table, frozenset(self._value.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        return WeightedPolynomial(self.table, _Kernel.add(self._value, other._value))

    __radd__ = __add__

    def __neg__(self):
        return WeightedPolynomial(self.table, {k: -c for k, c in self._value.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        return WeightedPolynomial(self.table, _Kernel.sub(self._value, other._value))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        return WeightedPolynomial(self.table, self.table._kernel.mul(self._value, other._value))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        return WeightedPolynomial(self.table, self.table._kernel.pow(self._value, k))

    # -- evaluation and derivative -----------------------------------------

    def _specialized(self, var, point):
        """The entries of this polynomial's specializer for ``var`` at
        ``point``: one for ``var`` None, else one per power of ``var``, whose
        exponent is set to 0 so its coordinate is never read."""
        if len(point) != len(self.table):
            raise ValueError("point length does not match variable table")
        at = self._specializers.get(var)
        if at is None:
            if var is None:
                parts, width = [(0, exp, c) for exp, c in self.terms.items()], 1
            else:
                i = self.table.index(var)
                parts = [(e[i], e[:i] + (0,) + e[i + 1 :], c) for e, c in self.terms.items()]
                width = 1 + max((slot for slot, _exp, _c in parts), default=-1)
            at = self._specializers[var] = specializer(parts, width)
        return [column[0] for column in at([point])]

    def evaluate(self, point) -> Fraction:
        """Exact value at a point given as one ``int`` or ``Fraction`` per
        variable.  At an integer point the sum is all ``int`` and only the
        result is made a ``Fraction``."""
        return Fraction(self._specialized(None, point)[0])

    def univariate_at(self, var: str, point):
        """The coefficients of ``var``'s powers, lowest first, at ``point``.

        ``point`` holds one ``int`` or ``Fraction`` per variable; the entry
        for ``var`` is never read.  At an integer point every coefficient is
        an ``int``.  The zero polynomial gives ``[]``.
        """
        return self._specialized(var, point)

    def derivative(self, var: str) -> "WeightedPolynomial":
        # distinct keys stay distinct and every coefficient nonzero
        s = self.table._kernel.shifts[self.table.index(var)]
        return WeightedPolynomial(self.table, {
            key - (1 << s): c * ((key >> s) & _FIELD_MASK)
            for key, c in self._value.items() if (key >> s) & _FIELD_MASK})

    # -- division ----------------------------------------------------------

    def exact_div(self, divisor) -> "WeightedPolynomial":
        """Exact quotient self / divisor in Z[t] for a polynomial or ``int``
        divisor; raises NotDivisibleError otherwise."""
        other = self._coerce(divisor)
        if other is NotImplemented:
            raise TypeError(f"cannot divide a polynomial by {type(divisor).__name__}")
        self._check_table(other)
        kernel = self.table._kernel
        return kernel.poly(kernel.exact_div(self._value, other._value))


class TermView(Mapping):
    """A read-only map from exponent tuple to ``int`` over a kernel value: a
    lookup packs the exponents, and only iterating unpacks the keys."""

    __slots__ = ("_kernel", "_value")

    def __init__(self, kernel: "_Kernel", value: dict):
        self._kernel, self._value = kernel, value

    def __len__(self):
        return len(self._value)

    def __getitem__(self, exponents):
        try:
            return self._value[self._kernel.key(exponents)]
        except (ValueError, OverflowError, TypeError):
            raise KeyError(exponents) from None

    def __iter__(self):
        return map(self._kernel.exponents, self._value)

    def items(self):
        return zip(self, self._value.values())

    def values(self):
        return self._value.values()


def specializer(parts, width):
    """The function of a list of points that gives ``width`` columns, one
    entry per point: each (slot, exponents, coefficient) triple of ``parts``
    adds its term at a point to column ``slot``.

    Each slot's terms form a sparse Horner plan, built once: a node fixes the
    variable of fewest distinct exponents (the later on a tie) and holds the
    node of each exponent's terms, highest first.  Each step runs on whole
    columns as one list comprehension.  A coordinate whose top exponent is 0
    is never read, and one read must be an ``int`` or a ``Fraction``; integer
    points give ``int`` entries.  With denominators the plan is over 2n
    variables, n_i/d_i read as n_i^e d_i^(top_i - e), and the entries at such
    a point are ``Fraction``s over the product of the d_i^top_i.
    """
    tops = [max(column) for column in zip(*(exp for _slot, exp, _c in parts))]
    n, plans = len(tops), {}

    def plan(terms, left):
        if len(terms) == 1:  # a lone term is a chain of one factor each
            (exp, node), = terms
            for j in left:
                node = (j, node, (), exp[j]) if exp[j] else node
            return node
        if not (left and terms):
            return sum(c for _exp, c in terms)
        counts = [len(set(column)) for column in zip(*[exp for exp, _c in terms])]
        i = min(left, key=lambda j: (counts[j], -j))
        groups = {}
        for exp, c in terms:
            groups.setdefault(exp[i], []).append((exp, c))
        es, rest = sorted(groups, reverse=True), [j for j in left if j != i]
        steps = tuple([(e1 - e2, plan(groups[e2], rest)) for e1, e2 in zip(es, es[1:])])
        return i, plan(groups[es[0]], rest), steps, es[-1]

    def plans_for(rational):  # with denominators, variable n + i is d_i of exponent top_i - e_i
        if rational not in plans:
            left = [i for i, top in enumerate(tops * (1 + rational)) if top]
            plans[rational] = [plan([(exp + tuple([t - e for t, e in zip(tops, exp)]) if rational
                                      else exp, c) for s, exp, c in parts if s == slot], left)
                               for slot in range(width)]
        return plans[rational]

    def at(points):
        m, nums, dens = len(points), [None] * n, [None] * n
        for i in [i for i in range(n) if tops[i]]:
            nums[i] = xs = [p[i] for p in points]
            if any(type(x) is not int for x in xs):
                for x in [x for x in xs if type(x) is not int and type(x) is not Fraction]:
                    raise ValueError(f"coordinates must be int or Fraction, got {x!r}")
                nums[i], dens[i] = [x.numerator for x in xs], [x.denominator for x in xs]
        rational = any(d and any(v != 1 for v in d) for d in dens)
        base = nums + [d or [1] * m for d in dens] * rational
        power = cache(lambda j, k: base[j] if k == 1 else [x ** k for x in base[j]])

        def value(node):
            if type(node) is int:
                return [node] * m
            i, h, steps, low = node
            h = value(h)
            for gap, c in steps:
                h = [a * x + b for a, x, b in zip(h, power(i, gap), value(c))]
            return [a * x for a, x in zip(h, power(i, low))] if low else h

        columns = [value(node) for node in plans_for(rational)]
        del value  # it refers to itself: keeping it would keep this call's columns
        if not rational:
            return columns
        den = [prod(t) for t in zip(*[[d ** top for d in ds] for ds, top in zip(dens, tops) if ds])]
        return [[s if q == 1 else Fraction(s, q) for s, q in zip(col, den)] for col in columns]
    return at


# -- packed-monomial integer kernel -------------------------------------------

# Bits per variable in a packed monomial: the top bit of each field is a guard
# bit, so exponents stay below 2**(_FIELD_BITS - 1).
_FIELD_BITS = 16
_EXPONENT_LIMIT = 1 << (_FIELD_BITS - 1)
_FIELD_MASK = _EXPONENT_LIMIT - 1

# Sums of products of at least this many term products pack.
_PACK_MIN = 4096


class _Kernel:
    """Integer polynomial arithmetic on packed monomials over one table.

    A kernel value is a dict from packed monomial to nonzero ``int``; every
    ``WeightedPolynomial`` is stored as one.  Each variable owns one
    ``_FIELD_BITS``-wide field, variable 0 the most significant, so comparing
    keys as integers is the lexicographic monomial order and adding keys
    multiplies monomials.  A sum of two exponents below the limit fits its
    field, so a product can set a guard bit but never carry into the next
    field; a product that sets one raises OverflowError instead of wrapping.

    ``mul`` forms a * b in a schoolbook loop.  ``dot_div`` forms the exact
    quotient N / d of N = a_1 b_1 + ... + a_k b_k, and it alone packs, when
    it has at least ``_PACK_MIN`` term products and every operand and d are
    weighted-homogeneous, all a_i b_i of one weight.  Then one variable u is
    fixed by the others, e_u = (weight - weight of the rest) / w_u, so u is
    dropped (the one of widest exponent range in the largest operand), and a
    second variable v, the one leaving the fewest outer keys, is packed into
    the coefficients: {outer key: sum of c * 2^(slot * e_v)}.  The outer
    keys are multiplied pairwise as big ints and summed, divided by the
    packed d in the heap loop of ``exact_div``, and read back as balanced
    base 2^slot digits, with e_u restored from the weight.

    Two bounds make this exact.  A coefficient of a_i b_i sums at most
    min(len a_i, len b_i) products of magnitude at most max|a_i| * max|b_i|,
    and slot is one more than the bit length of the sum of these bounds, so
    every coefficient of N lies below 2^(slot - 1).  A quotient q is kept only if
    max|q| * max|d| * min(len q, len d) < 2^(slot - 1) too: then under every
    outer key q d and N are polynomials in v with coefficients below
    2^(slot - 1) and equal at v = 2^slot, so q d = N, and no product is
    formed to check it.  Otherwise, and when v does not halve the keys of the
    largest operand, an operand is not homogeneous, or the packed division
    leaves a remainder, the schoolbook loop and the plain division run.
    """

    __slots__ = ("table", "shifts", "guards")

    def __init__(self, table: VariableTable):
        n = len(table)
        self.table = table
        self.shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self.guards = sum(_EXPONENT_LIMIT << s for s in self.shifts)

    def pack(self, polys):
        """The kernel value of each polynomial, in a list."""
        return [p._value for p in polys]

    def poly(self, value) -> WeightedPolynomial:
        """The polynomial of a kernel value."""
        return WeightedPolynomial(self.table, value)

    def key(self, exponents) -> int:
        """The packed monomial of a tuple of ``int`` exponents over this table."""
        if len(exponents) != len(self.shifts) or any(
                type(e) is not int or e < 0 for e in exponents):
            raise ValueError(f"bad exponent vector {tuple(exponents)!r}")
        if max(exponents, default=0) >= _EXPONENT_LIMIT:
            raise OverflowError(f"exponent in {tuple(exponents)} exceeds the packing width")
        return sum(map(lshift, exponents, self.shifts))

    def exponents(self, key) -> tuple:
        return tuple((key >> s) & _FIELD_MASK for s in self.shifts)

    def weight(self, key) -> int:
        return sum(((key >> s) & _FIELD_MASK) * w for s, w in zip(self.shifts, self.table.weights))

    def split(self, polys, var):
        """A kernel over this table without ``var``, and the coefficients of
        each polynomial in ``var``, lowest power first, as its values: the
        fields above the one of ``var`` move down over it, those below stay."""
        names, weights, i = self.table.names, self.table.weights, self.table.index(var)
        s = self.shifts[i]
        high, low, out = s + _FIELD_BITS, (1 << s) - 1, []
        for value in self.pack(polys):
            coeffs = {}  # exponent of ``var`` -> its coefficient
            for key, c in value.items():
                coeffs.setdefault((key >> s) & _FIELD_MASK, {})[key >> high << s | key & low] = c
            out.append([coeffs.get(e, {}) for e in range(1 + max(coeffs, default=-1))])
        smaller = VariableTable(names[:i] + names[i + 1 :], weights[:i] + weights[i + 1 :])
        return smaller._kernel, out

    @staticmethod
    def add(a, b):
        out = dict(a)
        get = out.get
        for key, c in b.items():
            s = get(key, 0) + c
            if s:
                out[key] = s
            else:
                del out[key]
        return out

    @staticmethod
    def sub(a, b):
        return _Kernel.add(a, {key: -c for key, c in b.items()})

    def _check(self, key):
        if key & self.guards:
            raise OverflowError("monomial product exceeds the packing width")

    def mul(self, a, b):
        if len(a) < len(b):
            a, b = b, a
        terms = list(a.items())
        out = {}
        for kb, cb in b.items():
            for ka, ca in terms:
                key = ka + kb
                if key in out:
                    out[key] += ca * cb
                else:
                    out[key] = ca * cb
        self._check(reduce(or_, out, 0))
        return {key: c for key, c in out.items() if c}

    def dot_div(self, pairs, d):
        """The exact quotient (sum of a * b over ``pairs``) / d; raises
        NotDivisibleError with the remainder ``exact_div`` gives otherwise."""
        pairs = [(a, b) for a, b in pairs if a and b]
        if d and sum(len(a) * len(b) for a, b in pairs) >= _PACK_MIN:
            out = self._packed(pairs, d)
            if out is not None:
                return out
        return self.exact_div(reduce(self.add, [self.mul(a, b) for a, b in pairs], {}), d)

    def _packed(self, pairs, d):
        """The sum of a * b over ``pairs``, divided by d, as big ints (see the
        class docstring); None when the operands or the quotient do not suit
        it."""
        mask, shifts, weights = _FIELD_MASK, self.shifts, self.table.weights
        operands = [x for pair in pairs for x in pair]
        graded = []  # (exponent columns, weight) of each operand, then of d
        for value in operands + [d]:
            cols = [[(key >> s) & mask for key in value] for s in shifts]
            degrees = set(map(lambda *exp: sum(map(mul, weights, exp)), *cols))
            if len(degrees) != 1:
                return None
            graded.append((cols, degrees.pop()))
        # zip stops before d, which sits at an even index
        pair_grades = list(zip(graded[0::2], graded[1::2]))
        totals = {x[1] + y[1] for x, y in pair_grades}
        if len(totals) != 1:
            return None
        total = totals.pop() - graded[-1][1]  # weight of every output term
        # each product key lies fieldwise below the sum of the operands'
        # maxima, so checking that sum is the schoolbook loop's overflow check
        for (x, _), (y, _) in pair_grades:
            self._check(sum((max(i) + max(j)) << s for i, j, s in zip(x, y, shifts)))
        # drop u, whose exponent the weight fixes; pack v, which merges most keys
        largest = max(range(len(operands)), key=lambda i: len(operands[i]))
        a, cols = operands[largest], graded[largest][0]
        u = max(range(len(shifts)), key=lambda i: max(cols[i]) - min(cols[i]))
        outer = {}
        for v in range(len(shifts)):
            if v != u:
                keep = ~((mask << shifts[u]) | (mask << shifts[v]))
                outer[v] = (len({key & keep for key in a}), keep)
        v = min(outer, key=outer.get)
        if 2 * outer[v][0] > len(a):
            return None
        keep, sv, su = outer[v][1], shifts[v], shifts[u]
        slot = sum(max(map(abs, x.values())) * max(map(abs, y.values())) * min(len(x), len(y))
                   for x, y in pairs).bit_length() + 1

        def packed(value):
            out = {}
            for key, c in value.items():
                k = key & keep
                out[k] = out.get(k, 0) + (c << slot * ((key >> sv) & mask))
            return out

        terms = {}
        for x, y in pairs:
            px = list(packed(x).items())
            for ky, cy in packed(y).items():
                for kx, cx in px:
                    key = kx + ky
                    if key in terms:
                        terms[key] += cx * cy
                    else:
                        terms[key] = cx * cy
        try:
            terms, exact = self._divide(sorted(terms.items(), reverse=True), packed(d))
        except OverflowError:  # only a division that is not exact gets here
            return None
        if not exact:
            return None
        # balanced base-2^slot digits
        full, digit = 1 << slot, (1 << slot) - 1
        half = full >> 1
        wu, wv = weights[u], weights[v]
        out = []
        for key, p in terms:
            rest = total - self.weight(key)
            e = 0
            while p:
                c = p & digit
                p >>= slot
                if c & half:
                    c -= full
                    p += 1
                if c:
                    eu, r = divmod(rest - wv * e, wu)
                    if r or eu < 0:
                        return None
                    out.append((key | e << sv | eu << su, c))
                e += 1
        if out and (max(abs(c) for _, c in out) * max(map(abs, d.values()))
                    * min(len(out), len(d))).bit_length() >= slot:
            return None
        return dict(out)

    def pow(self, a, k: int):
        result = {0: 1}
        while k:
            if k & 1:
                result = self.mul(result, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return result

    def exact_div(self, a, b):
        """Quotient a / b over Z; raises NotDivisibleError otherwise."""
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        quotient, exact = self._divide(sorted(a.items(), reverse=True), b)
        if not exact:
            raise NotDivisibleError(self.poly(self.sub(a, self.mul(dict(quotient), b))))
        return dict(quotient)

    def _divide(self, dividend, b):
        """(quotient terms, True) for the descending term list ``dividend``
        over b, or (the terms so far, False) at the first term that the
        leading term of b does not divide.

        Division driven by a max-heap of monomials (Monagan and Pearce, J.
        Symb. Comput. 46, 2011): the quotient comes out in descending key
        order, each new quotient term adds its products with the divisor's
        tail into ``owed``, and the heap yields the next key to cancel.  Each
        key enters the heap once, since every new product lies below the key
        just cancelled.
        """
        (lead_key, lead_c), *tail = sorted(b.items(), reverse=True)
        guards = self.guards
        # fieldwise maximum of the divisor's exponents: q * b overflows some
        # field exactly when q times this does
        mask = _FIELD_MASK
        reach = sum(max((key >> s) & mask for key in b) << s for s in self.shifts)
        quotient = []
        owed = {}  # key -> what the quotient so far contributes there
        heap = []  # negated keys of ``owed``
        i, n = 0, len(dividend)
        while i < n or heap:
            key = -heap[0] if heap else -1
            c = 0
            if i < n and dividend[i][0] >= key:
                key, c = dividend[i]
                i += 1
            if key in owed:
                heappop(heap)
                c -= owed.pop(key)
            if not c:
                continue
            # with every guard bit set no field borrows; a guard bit that is
            # cleared marks a divisor exponent above the remainder's
            shifted = (key | guards) - lead_key
            q_c, r = divmod(c, lead_c)
            if shifted & guards != guards or r:
                return quotient, False
            q_key = shifted ^ guards
            quotient.append((q_key, q_c))
            self._check(q_key + reach)
            for t_key, t_c in tail:
                k = q_key + t_key
                if k in owed:
                    owed[k] += q_c * t_c
                else:
                    owed[k] = q_c * t_c
                    heappush(heap, -k)
        return quotient, True


# -- text format ------------------------------------------------------------

# Each pattern is matched where the last match ended and takes the blanks
# after its symbols, so every match starts at a symbol or at the end.
_HEAD = re.compile(r"([+-])?\s*(?:(\d+)\s*)?")  # sign, coefficient
_FACTOR = re.compile(r"\*\s*|([A-Za-z_][A-Za-z_0-9]*)\s*(?:(\^)\s*(?:(\d+)\s*)?)?")
_STRAY = re.compile(r"[^\s\dA-Za-z_+\-*^()]")  # neither blank nor in a symbol


def parse(text: str, table: VariableTable) -> WeightedPolynomial:
    """The polynomial ``text`` writes in the text format of the module docstring.

    Like terms add up, and a term that sums to zero is left out.  A stray
    character is reported before any other error, wherever it stands.
    """
    stray = _STRAY.search(text)
    if stray:
        raise PolynomialSyntaxError("unexpected character", stray.start())
    first = pos = len(text) - len(text.lstrip())
    if pos == len(text):
        raise PolynomialSyntaxError("empty input", 0)
    value = {}
    while True:
        m = _HEAD.match(text, pos)
        sign, num = m.groups()
        if pos > first and not sign:  # only the first term may go without a sign
            raise PolynomialSyntaxError("expected '+' or '-'", pos)
        coeff = -1 if sign == "-" else 1
        if num:
            coeff *= int(num)
        seen, exps, pos = num, [0] * len(table), m.end()
        while m := _FACTOR.match(text, pos):
            name, caret, power = m.groups()
            if name:
                try:
                    i = table.index(name)
                except KeyError:
                    raise UnknownVariableError(f"unknown variable {name!r}", m.start()) from None
                if caret and power is None:
                    raise PolynomialSyntaxError("expected exponent", m.start())
                exps[i] += int(power or 1)
                seen = name
            pos = m.end()
        if not seen:
            raise PolynomialSyntaxError("expected a term", pos)
        # like terms add up, and one that sums to zero leaves the map, as in ``_Kernel.add``
        key = table._kernel.key(exps)
        s = value.get(key, 0) + coeff
        if s:
            value[key] = s
        else:
            value.pop(key, None)
        if pos == len(text):
            return WeightedPolynomial(table, value)


def render_terms(table: VariableTable, terms) -> str:
    """Canonical text of a term map with ``int`` or ``Fraction``
    coefficients: descending weighted degree, explicit '*', no '^1'."""
    if not terms:
        return "0"
    wd = table.weighted_degree_of
    pieces = []
    ordered = sorted(terms.items(), key=lambda kv: (wd(kv[0]), kv[0]), reverse=True)
    for idx, (exp, coeff) in enumerate(ordered):
        mag = abs(coeff)
        factors = []
        for name, e in zip(table.names, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if factors:
            body = "*".join(factors) if mag == 1 else f"{mag}*" + "*".join(factors)
        else:
            body = str(mag)
        if idx == 0:
            pieces.append(body if coeff > 0 else "-" + body)
        else:
            pieces.append((" + " if coeff > 0 else " - ") + body)
    return "".join(pieces)


def render(p: WeightedPolynomial) -> str:
    return render_terms(p.table, p.terms)
