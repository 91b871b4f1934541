"""Sparse multivariate polynomials over the integers with weighted grading.

A ``WeightedPolynomial`` stores its terms as a map from exponent tuples to
nonzero ``int`` coefficients, so equal polynomials always have identical term
maps.  The canonical term order is descending weighted degree, ties broken by
descending lexicographic exponent order in declared variable order.

Multiplication, powers and exact division in Z[t] run on a private integer
kernel: each operand is converted once into a map from packed monomial to
``int`` (see ``_Kernel``).  A large sum of products of weighted-homogeneous
operands divided exactly, as in each step of the subresultant chain of the
weight-180 discriminant, is formed from big-int products with one variable
packed into each coefficient (``_Kernel.dot_div``).

Rationals appear only in evaluation, which takes a rational point, and in the
text format, whose ``num/den`` coefficients ``parse_terms`` reads and
``render_terms`` writes.  Evaluation runs on an index form that each
polynomial builds at most once and keeps, which is sound because no operation
mutates ``terms`` after construction.

The text format is a regular grammar, read term by term with anchored ``re``
matches: an optional sign (required before every term but the first), an
optional coefficient ``int`` or ``int/int``, then factors ``name`` or
``name^int``, with ``*`` optional between them; blanks may stand anywhere
between symbols, and every term needs a coefficient or a name.

Dense univariate arithmetic, over Z and over F_p, lives in ``upoly``.
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from operator import lshift, mul, or_

# Re-exported, not used here: benchmarks/tracing.py looks factor_mod_p up in
# this module by name to time it.
from .upoly import factor_mod_p  # noqa: F401

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
    by value."""

    __slots__ = ("names", "weights")

    def __init__(self, names, weights):
        self.names = tuple(names)
        self.weights = tuple(int(w) for w in weights)
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")

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

    ``terms`` is never mutated once the polynomial is built: every operation
    returns a new polynomial, and the index form cached in ``_integral``
    relies on that.  Arithmetic and ``==`` take polynomials and ``int``s
    only, so a polynomial never equals a ``Fraction`` or a ``float``.
    """

    __slots__ = ("table", "terms", "_integral")

    def __init__(self, table: VariableTable, terms: dict):
        self.table = table
        self.terms = terms
        self._integral = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: VariableTable) -> "WeightedPolynomial":
        return WeightedPolynomial(table, {})

    @staticmethod
    def constant(table: VariableTable, value: int) -> "WeightedPolynomial":
        _check_coefficient(value)
        return WeightedPolynomial(table, {(0,) * len(table): value} if value else {})

    @staticmethod
    def variable(table: VariableTable, name: str) -> "WeightedPolynomial":
        i = table.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(table)))
        return WeightedPolynomial(table, {exp: 1})

    @staticmethod
    def from_terms(table: VariableTable, mapping) -> "WeightedPolynomial":
        terms = {}
        n = len(table)
        for exp, coeff in dict(mapping).items():
            exp = tuple(exp)
            if len(exp) != n or any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r}")
            _check_coefficient(coeff)
            if coeff:
                terms[exp] = coeff
        return WeightedPolynomial(table, terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), 0)

    def coefficient(self, exponents) -> int:
        return self.terms.get(tuple(exponents), 0)

    def term_count(self) -> int:
        return len(self.terms)

    def weighted_degree(self):
        if not self.terms:
            return NEG_INFINITY
        wd = self.table.weighted_degree_of
        return max(wd(exp) for exp in self.terms)

    def is_weighted_homogeneous(self) -> bool:
        if not self.terms:
            return True
        wd = self.table.weighted_degree_of
        degrees = {wd(exp) for exp in self.terms}
        return len(degrees) == 1

    def degree_in(self, var: str):
        if not self.terms:
            return NEG_INFINITY
        i = self.table.index(var)
        return max(exp[i] for exp in self.terms)

    def leading_term(self):
        """(exponents, coefficient) that is maximal in the canonical order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        wd = self.table.weighted_degree_of
        exp = max(self.terms, key=lambda e: (wd(e), e))
        return exp, self.terms[exp]

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
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        return WeightedPolynomial(self.table, _Kernel.add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return WeightedPolynomial(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        return WeightedPolynomial(self.table, _Kernel.sub(self.terms, other.terms))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        kernel = _Kernel(self.table)
        return kernel.poly(kernel.mul(*kernel.pack([self, other])))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        kernel = _Kernel(self.table)
        (base,) = kernel.pack([self])
        return kernel.poly(kernel.pow(base, k))

    # -- evaluation and substitution ---------------------------------------

    def _integer_form(self):
        """(tops, indices), built on first use.

        ``tops`` holds the top exponent of each variable.  ``indices[k]``
        lists the nonzero (variable, exponent) pairs of the k-th term of
        ``terms``, in dict order, as positions ``offset[variable] + exponent``
        in the concatenated power rows that ``_power_rows`` builds for these
        ``tops``.
        """
        form = self._integral
        if form is None:
            tops = [0] * len(self.table)
            for exp in self.terms:
                tops = [max(t, e) for t, e in zip(tops, exp)]
            offsets, end = [], 0
            for top in tops:
                offsets.append(end)
                end += top + 1
            indices = [[o + e for o, e in zip(offsets, exp) if e] for exp in self.terms]
            form = self._integral = (tops, indices)
        return form

    def evaluate(self, point) -> Fraction:
        """Exact value at a point given as one rational per variable.

        Runs on the index form, built once per polynomial, and one row of
        powers per coordinate.  At an integer point the sum is all ``int``
        and only the result is made a ``Fraction``.
        """
        if len(point) != len(self.table):
            raise ValueError("point length does not match variable table")
        tops, indices = self._integer_form()
        rows = _power_rows(tops, point)
        total = 0
        for c, index in zip(self.terms.values(), indices):
            for k in index:
                c *= rows[k]
            total += c
        return Fraction(total)

    def univariate_at(self, var: str, point):
        """``univariate_view(var)`` evaluated at ``point``, in one pass.

        ``point`` holds one rational per variable; the entry for ``var`` is
        ignored.  At an integer point every coefficient is an ``int``.  The
        zero polynomial gives ``[]``.
        """
        i = self.table.index(var)
        if len(point) != len(self.table):
            raise ValueError("point length does not match variable table")
        tops, indices = self._integer_form()
        rows = _power_rows(tops, point, skip=i)
        out = [0] * (tops[i] + 1) if indices else []
        for (exp, c), index in zip(self.terms.items(), indices):
            for k in index:
                c *= rows[k]
            out[exp[i]] += c
        return out

    def substitute(self, assignments: dict) -> "WeightedPolynomial":
        """Compose with polynomial assignments for some of the variables.

        ``assignments`` maps variable names to polynomials sharing one common
        target table; unassigned variables must exist in the target table under
        the same name.
        """
        if not assignments:
            return self
        targets = list(assignments.values())
        target_table = targets[0].table
        if any(t.table != target_table for t in targets):
            raise TableMismatchError("assignment targets use different tables")
        images = []
        for name in self.table.names:
            if name in assignments:
                images.append(assignments[name])
            else:
                images.append(WeightedPolynomial.variable(target_table, name))
        result = WeightedPolynomial.zero(target_table)
        power_cache = [dict() for _ in images]
        for exp, coeff in self.terms.items():
            prod = WeightedPolynomial.constant(target_table, coeff)
            for i, e in enumerate(exp):
                if e:
                    cache = power_cache[i]
                    if e not in cache:
                        cache[e] = images[i] ** e
                    prod = prod * cache[e]
            result = result + prod
        return result

    def change_table(self, new_table: VariableTable) -> "WeightedPolynomial":
        """Re-express over another table, matching variables by name.

        Variables absent from the new table must not occur in any term.
        """
        positions = []
        for name in self.table.names:
            positions.append(new_table.names.index(name) if name in new_table.names else None)
        terms = {}
        for exp, coeff in self.terms.items():
            new_exp = [0] * len(new_table)
            for i, e in enumerate(exp):
                if e:
                    if positions[i] is None:
                        raise ValueError(
                            f"variable {self.table.names[i]!r} occurs but is not in the new table"
                        )
                    new_exp[positions[i]] = e
            terms[tuple(new_exp)] = coeff
        return WeightedPolynomial(new_table, terms)

    def derivative(self, var: str) -> "WeightedPolynomial":
        i = self.table.index(var)
        terms = {}
        for exp, coeff in self.terms.items():
            if exp[i]:
                new_exp = exp[:i] + (exp[i] - 1,) + exp[i + 1 :]
                terms[new_exp] = terms.get(new_exp, 0) + coeff * exp[i]
        return WeightedPolynomial.from_terms(self.table, terms)

    # -- division ----------------------------------------------------------

    def exact_div(self, divisor) -> "WeightedPolynomial":
        """Exact quotient self / divisor in Z[t] for a polynomial or ``int``
        divisor; raises NotDivisibleError otherwise."""
        other = self._coerce(divisor)
        if other is NotImplemented:
            raise TypeError(f"cannot divide a polynomial by {type(divisor).__name__}")
        self._check_table(other)
        kernel = _Kernel(self.table)
        return kernel.poly(kernel.exact_div(*kernel.pack([self, other])))

    def univariate_view(self, var: str):
        """Coefficient list indexed by the power of ``var``.

        Entries are polynomials over the same table with zero exponent in
        ``var``.  The zero polynomial yields an empty list.
        """
        i = self.table.index(var)
        if self.is_zero():
            return []
        top = max(exp[i] for exp in self.terms)
        coeffs = [dict() for _ in range(top + 1)]
        for exp, coeff in self.terms.items():
            reduced = exp[:i] + (0,) + exp[i + 1 :]
            coeffs[exp[i]][reduced] = coeff
        return [WeightedPolynomial(self.table, t) for t in coeffs]


def _power_rows(tops, point, skip=-1):
    """For each coordinate x the row x^e, e = 0..top, concatenated.

    An integral coordinate gives an ``int`` row, so at an integer point every
    product is an ``int``; only a coordinate with a denominator gives a
    ``Fraction`` row.  The row of variable ``skip`` is all ones.
    """
    rows = []
    for i, (x, top) in enumerate(zip(point, tops)):
        if i == skip:
            rows += [1] * (top + 1)
            continue
        if type(x) is not int:
            x = Fraction(x)
            if x.denominator == 1:
                x = x.numerator
        p = 1
        rows.append(p)
        for _ in range(top):
            p *= x
            rows.append(p)
    return rows


# -- packed-monomial integer kernel -------------------------------------------

# Bits per variable in a packed monomial: the top bit of each field is a guard
# bit, so exponents stay below 2**(_FIELD_BITS - 1).
_FIELD_BITS = 16
_EXPONENT_LIMIT = 1 << (_FIELD_BITS - 1)

# Sums of products of at least this many term products pack.
_PACK_MIN = 4096


class _Kernel:
    """Integer polynomial arithmetic on packed monomials over one table.

    A kernel value is a dict from packed monomial to nonzero ``int``.  Each
    variable owns one ``_FIELD_BITS``-wide field, variable 0 the most
    significant, so comparing keys as integers is the lexicographic monomial
    order and adding keys multiplies monomials.  A sum of two exponents below
    the limit fits its field, so a product can set a guard bit but never
    carry into the next field.  Products are checked, and one that sets a
    guard bit raises OverflowError instead of wrapping.

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
        shifts = self.shifts
        values = []
        for p in polys:
            value = {}
            for exp, c in p.terms.items():
                if exp and max(exp) >= _EXPONENT_LIMIT:
                    raise OverflowError(f"exponent in {exp} exceeds the packing width")
                value[sum(map(lshift, exp, shifts))] = c
            values.append(value)
        return values

    def poly(self, value) -> WeightedPolynomial:
        """The polynomial of a kernel value."""
        mask = _EXPONENT_LIMIT - 1
        shifts = self.shifts
        terms = {tuple((key >> s) & mask for s in shifts): c for key, c in value.items()}
        return WeightedPolynomial(self.table, terms)

    @staticmethod
    def one():
        return {0: 1}

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
        out = dict(a)
        get = out.get
        for key, c in b.items():
            s = get(key, 0) - c
            if s:
                out[key] = s
            else:
                del out[key]
        return out

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
        mask, shifts, weights = _EXPONENT_LIMIT - 1, self.shifts, self.table.weights
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
            rest = total - sum(map(mul, weights, [(key >> s) & mask for s in shifts]))
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
        result = self.one()
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
            remainder = self.sub(a, self.mul(dict(quotient), b))
            raise NotDivisibleError(self.poly(remainder))
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
        mask = _EXPONENT_LIMIT - 1
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
_HEAD = re.compile(r"([+-])?\s*(?:(\d+)\s*(?:(/)\s*(?:(\d+)\s*)?)?)?")  # sign, coefficient
_FACTOR = re.compile(r"\*\s*|([A-Za-z_][A-Za-z_0-9]*)\s*(?:(\^)\s*(?:(\d+)\s*)?)?")
_STRAY = re.compile(r"[^\s\dA-Za-z_+\-*/^()]")  # neither blank nor in a symbol


def parse_terms(text: str, table: VariableTable) -> dict:
    """Parse the polynomial text grammar into its summed term map.

    A coefficient is an ``int``, or a ``Fraction`` where ``num/den`` is
    written; like terms add up, and a term that sums to zero is left out.  A
    stray character is reported before any other error, wherever it stands.
    """
    stray = _STRAY.search(text)
    if stray:
        raise PolynomialSyntaxError("unexpected character", stray.start())
    first = pos = len(text) - len(text.lstrip())
    if pos == len(text):
        raise PolynomialSyntaxError("empty input", 0)
    terms = {}
    while True:
        m = _HEAD.match(text, pos)
        sign, num, slash, den = m.groups()
        if pos > first and not sign:  # only the first term may go without a sign
            raise PolynomialSyntaxError("expected '+' or '-'", pos)
        if slash and den is None:
            raise PolynomialSyntaxError("expected denominator", m.start(3))
        if den and not int(den):
            raise PolynomialSyntaxError("zero denominator", m.start(4))
        coeff = -1 if sign == "-" else 1
        if num:
            coeff *= Fraction(int(num), int(den)) if den else int(num)
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
        exp = tuple(exps)
        s = terms.get(exp, 0) + coeff
        if s:
            terms[exp] = s
        else:
            terms.pop(exp, None)
        if pos == len(text):
            return terms


def parse(text: str, table: VariableTable) -> WeightedPolynomial:
    """The polynomial ``text`` writes; raises ValueError on a non-integer coefficient."""
    terms = parse_terms(text, table)
    for c in terms.values():
        _check_coefficient(c)
    return WeightedPolynomial(table, terms)


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
