"""Sparse multivariate polynomials over exact rationals with weighted grading.

A ``WeightedPolynomial`` stores its terms as a map from exponent tuples to
nonzero ``Fraction`` coefficients, so equal polynomials always have identical
term maps.  The canonical term order is descending weighted degree, ties
broken by descending lexicographic exponent order in declared variable order.

Multiplication, powers and exact division run on a private integer kernel:
each operand is converted once into a scale ``Fraction`` times a map from
packed monomial to ``int`` (see ``_Kernel``), and the result is converted back
once, so ``Fraction`` arithmetic appears only at these boundaries.

Evaluation runs on an integer form that each polynomial builds at most once
(see ``WeightedPolynomial.evaluate``).  The form is kept with the polynomial,
which is sound because no operation mutates ``terms`` after construction.

Dense univariate arithmetic, over Z and over F_p, lives in ``upoly``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from heapq import heappop, heappush
from math import gcd, lcm
from operator import lshift, or_

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


@dataclass(frozen=True)
class VariableTable:
    """Ordered variable names with positive integer weights."""

    names: tuple
    weights: tuple

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "weights", tuple(int(w) for w in self.weights))
        if len(self.names) != len(self.weights):
            raise ValueError("names and weights differ in length")
        if len(set(self.names)) != len(self.names):
            raise ValueError("variable names must be unique")
        if any(w < 1 for w in self.weights):
            raise ValueError("weights must be >= 1")

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
    """A sparse polynomial over Q, graded by the table's variable weights.

    ``terms`` is never mutated once the polynomial is built: every operation
    returns a new polynomial, and the integer form cached in ``_integral``
    relies on that.
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
    def constant(table: VariableTable, value) -> "WeightedPolynomial":
        c = Fraction(value)
        if c == 0:
            return WeightedPolynomial.zero(table)
        return WeightedPolynomial(table, {(0,) * len(table): c})

    @staticmethod
    def variable(table: VariableTable, name: str) -> "WeightedPolynomial":
        i = table.index(name)
        exp = tuple(1 if j == i else 0 for j in range(len(table)))
        return WeightedPolynomial(table, {exp: Fraction(1)})

    @staticmethod
    def from_terms(table: VariableTable, mapping) -> "WeightedPolynomial":
        terms = {}
        n = len(table)
        for exp, coeff in dict(mapping).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n or any(e < 0 for e in exp):
                raise ValueError(f"bad exponent vector {exp!r}")
            c = Fraction(coeff)
            if c != 0:
                terms[exp] = c
        return WeightedPolynomial(table, terms)

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in exp) for exp in self.terms)

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()), Fraction(0))

    def coefficient(self, exponents) -> Fraction:
        return self.terms.get(tuple(exponents), Fraction(0))

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

    def total_degree(self):
        if not self.terms:
            return NEG_INFINITY
        return max(sum(exp) for exp in self.terms)

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

    def sorted_terms(self):
        wd = self.table.weighted_degree_of
        return sorted(self.terms.items(), key=lambda kv: (wd(kv[0]), kv[0]), reverse=True)

    # -- ring operations ---------------------------------------------------

    def _check_table(self, other):
        if self.table != other.table:
            raise TableMismatchError("operands use different variable tables")

    def _coerce(self, other):
        if isinstance(other, WeightedPolynomial):
            return other
        if isinstance(other, (int, Fraction)):
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
        terms = dict(self.terms)
        for exp, c in other.terms.items():
            s = terms.get(exp, 0) + c
            if s:
                terms[exp] = s
            else:
                terms.pop(exp, None)
        return WeightedPolynomial(self.table, terms)

    __radd__ = __add__

    def __neg__(self):
        return WeightedPolynomial(self.table, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_table(other)
        kernel = _Kernel(self.table)
        scale, (a, b) = kernel.pack([self, other])
        return kernel.poly(kernel.mul(a, b), scale * scale)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        c = Fraction(scalar)
        if c == 0:
            raise ZeroDivisionError("division by zero scalar")
        return WeightedPolynomial(self.table, {e: v / c for e, v in self.terms.items()})

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        kernel = _Kernel(self.table)
        scale, (base,) = kernel.pack([self])
        return kernel.poly(kernel.pow(base, k), scale ** k)

    # -- evaluation and substitution ---------------------------------------

    def _integer_form(self):
        """(den, tops, coeffs, indices), built on first use.

        ``coeffs[k] / den`` is the coefficient of the k-th term of ``terms``,
        in dict order, with ``coeffs[k]`` an ``int``.  ``tops`` holds the top
        exponent of each variable.  ``indices[k]`` lists the term's nonzero
        (variable, exponent) pairs as positions ``offset[variable] +
        exponent`` in the concatenated power rows that ``_power_rows`` builds
        for these ``tops``.
        """
        form = self._integral
        if form is None:
            den = lcm(*[c.denominator for c in self.terms.values()])
            tops = [0] * len(self.table)
            for exp in self.terms:
                tops = [max(t, e) for t, e in zip(tops, exp)]
            offsets, end = [], 0
            for top in tops:
                offsets.append(end)
                end += top + 1
            coeffs, indices = [], []
            for exp, c in self.terms.items():
                coeffs.append(c.numerator * (den // c.denominator))
                indices.append([o + e for o, e in zip(offsets, exp) if e])
            form = self._integral = (den, tops, coeffs, indices)
        return form

    def evaluate(self, point) -> Fraction:
        """Exact value at a point given as one rational per variable.

        Runs on the integer form, built once per polynomial: ``int``
        coefficients over a common denominator, and one row of powers per
        coordinate.  At an integer point the sum is all ``int`` and only the
        final division builds a ``Fraction``.
        """
        if len(point) != len(self.table):
            raise ValueError("point length does not match variable table")
        den, tops, coeffs, indices = self._integer_form()
        rows = _power_rows(tops, point)
        total = 0
        for c, index in zip(coeffs, indices):
            for k in index:
                c *= rows[k]
            total += c
        return Fraction(total, den)

    def univariate_at(self, var: str, point):
        """(numerators, den): ``univariate_view(var)`` evaluated at ``point``,
        each coefficient as ``numerators[k] / den``, in one pass.

        ``point`` holds one rational per variable; the entry for ``var`` is
        ignored.  The zero polynomial gives ``([], 1)``.
        """
        i = self.table.index(var)
        if len(point) != len(self.table):
            raise ValueError("point length does not match variable table")
        den, tops, coeffs, indices = self._integer_form()
        rows = _power_rows(tops, point, skip=i)
        out = [0] * (tops[i] + 1) if coeffs else []
        for c, index, exp in zip(coeffs, indices, self.terms):
            for k in index:
                c *= rows[k]
            out[exp[i]] += c
        if not all([type(c) is int for c in out]):
            # a coordinate with a denominator left Fraction entries
            lam = lcm(*[c.denominator for c in out])
            out = [c.numerator * (lam // c.denominator) for c in out]
            den *= lam
        return out, den

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

    def exact_div(self, divisor: "WeightedPolynomial") -> "WeightedPolynomial":
        """Exact quotient self / divisor; raises NotDivisibleError otherwise."""
        divisor = self._coerce(divisor)
        self._check_table(divisor)
        if divisor.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        kernel = _Kernel(self.table)
        scale, (num,) = kernel.pack([self])
        den_scale, (den,) = kernel.pack([divisor])
        # A primitive integral divisor keeps the quotient integral (Gauss's lemma).
        content = gcd(*den.values())
        den = {key: c // content for key, c in den.items()}
        try:
            quotient = kernel.exact_div(num, den)
        except NotDivisibleError as exc:
            raise NotDivisibleError(exc.remainder * scale) from None
        return kernel.poly(quotient, scale / (den_scale * content))

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

    def content_in_var(self, var: str) -> "ContentResult":
        """Heuristic gcd of the coefficients of the ``var``-univariate view.

        A bounded number of candidate divisors is tried and every candidate is
        verified by exact division.  When no candidate certifies, the result is
        content 1 flagged inconclusive.
        """
        one = WeightedPolynomial.constant(self.table, 1)
        coeffs = [c for c in self.univariate_view(var) if not c.is_zero()]
        if not coeffs:
            return ContentResult(WeightedPolynomial.zero(self.table), True)
        if any(c.is_constant() for c in coeffs):
            return ContentResult(one, True)
        # candidates: the smallest coefficients by term count
        candidates = sorted(coeffs, key=lambda c: c.term_count())[:4]
        for cand in candidates:
            try:
                for c in coeffs:
                    c.exact_div(cand)
            except NotDivisibleError:
                continue
            return ContentResult(cand, True)
        return ContentResult(one, False)


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


@dataclass(frozen=True)
class ContentResult:
    content: WeightedPolynomial
    conclusive: bool


# -- packed-monomial integer kernel -------------------------------------------

# Bits per variable in a packed monomial: the top bit of each field is a guard
# bit, so exponents stay below 2**(_FIELD_BITS - 1).
_FIELD_BITS = 16
_EXPONENT_LIMIT = 1 << (_FIELD_BITS - 1)


class _Kernel:
    """Integer polynomial arithmetic on packed monomials over one table.

    A kernel value is a dict from packed monomial to nonzero ``int``.  Each
    variable owns one ``_FIELD_BITS``-wide field, variable 0 the most
    significant, so comparing keys as integers is the lexicographic monomial
    order and adding keys multiplies monomials.  A sum of two exponents below
    the limit fits its field, so a product can set a guard bit but never
    carry into the next field.  Products are checked, and one that sets a
    guard bit raises OverflowError instead of wrapping.
    """

    __slots__ = ("table", "shifts", "guards")

    def __init__(self, table: VariableTable):
        n = len(table)
        self.table = table
        self.shifts = tuple(_FIELD_BITS * (n - 1 - i) for i in range(n))
        self.guards = sum(_EXPONENT_LIMIT << s for s in self.shifts)

    def pack(self, polys):
        """(scale, values) with ``polys[i] == scale * values[i]`` and each
        value integral; ``scale`` is 1 over the common denominator."""
        den = lcm(*(c.denominator for p in polys for c in p.terms.values()))
        shifts = self.shifts
        values = []
        for p in polys:
            value = {}
            for exp, c in p.terms.items():
                if exp and max(exp) >= _EXPONENT_LIMIT:
                    raise OverflowError(f"exponent in {exp} exceeds the packing width")
                value[sum(map(lshift, exp, shifts))] = c.numerator * (den // c.denominator)
            values.append(value)
        return Fraction(1, den), values

    def poly(self, value, scale=Fraction(1)) -> WeightedPolynomial:
        """The polynomial ``scale * value``."""
        mask = _EXPONENT_LIMIT - 1
        shifts = self.shifts
        num, den = scale.numerator, scale.denominator
        terms = {}
        for key, c in value.items():
            exp = tuple((key >> s) & mask for s in shifts)
            terms[exp] = Fraction(c) if num == den == 1 else Fraction(c * num, den)
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
        """Quotient a / b over Z; raises NotDivisibleError otherwise.

        Division driven by a max-heap of monomials (Monagan and Pearce, J.
        Symb. Comput. 46, 2011): the quotient comes out in descending key
        order, each new quotient term adds its products with the divisor's
        tail into ``owed``, and the heap yields the next key to cancel.  Each
        key enters the heap once, since every new product lies below the key
        just cancelled.
        """
        if not b:
            raise ZeroDivisionError("division by zero polynomial")
        dividend = sorted(a.items(), reverse=True)
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
            if shifted & guards != guards or c % lead_c:
                remainder = self.sub(a, self.mul(dict(quotient), b))
                raise NotDivisibleError(self.poly(remainder))
            q_key, q_c = shifted ^ guards, c // lead_c
            quotient.append((q_key, q_c))
            self._check(q_key + reach)
            for t_key, t_c in tail:
                k = q_key + t_key
                if k in owed:
                    owed[k] += q_c * t_c
                else:
                    owed[k] = q_c * t_c
                    heappush(heap, -k)
        return dict(quotient)


# -- text format ------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([+\-*/^()]))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise PolynomialSyntaxError("unexpected character", pos)
        if m.group(1) is not None:
            tokens.append(("int", int(m.group(1)), m.start(1)))
        elif m.group(2) is not None:
            tokens.append(("name", m.group(2), m.start(2)))
        else:
            tokens.append(("op", m.group(3), m.start(3)))
        pos = m.end()
    return tokens


def parse(text: str, table: VariableTable) -> WeightedPolynomial:
    """Parse the polynomial text grammar into canonical form."""
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialSyntaxError("empty input", 0)
    n = len(table)
    result = WeightedPolynomial.zero(table)
    i = 0

    def parse_term(i, sign):
        # optional coefficient
        coeff = Fraction(sign)
        exps = [0] * n
        saw_anything = False
        if i < len(tokens) and tokens[i][0] == "int":
            num = tokens[i][1]
            i += 1
            saw_anything = True
            if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "/":
                i += 1
                if i >= len(tokens) or tokens[i][0] != "int":
                    raise PolynomialSyntaxError(
                        "expected denominator", tokens[i - 1][2]
                    )
                coeff *= Fraction(num, tokens[i][1])
                i += 1
            else:
                coeff *= num
        while i < len(tokens):
            kind, val, pos = tokens[i]
            if kind == "op" and val == "*":
                i += 1
                continue
            if kind == "name":
                try:
                    vi = table.index(val)
                except KeyError:
                    raise UnknownVariableError(f"unknown variable {val!r}", pos)
                i += 1
                power = 1
                if i < len(tokens) and tokens[i][0] == "op" and tokens[i][1] == "^":
                    i += 1
                    if i >= len(tokens) or tokens[i][0] != "int":
                        raise PolynomialSyntaxError("expected exponent", pos)
                    power = tokens[i][1]
                    i += 1
                exps[vi] += power
                saw_anything = True
                continue
            break
        if not saw_anything:
            pos = tokens[i][2] if i < len(tokens) else len(tokens)
            raise PolynomialSyntaxError("expected a term", pos)
        return i, tuple(exps), coeff

    sign = 1
    if tokens[0][0] == "op" and tokens[0][1] in "+-":
        sign = -1 if tokens[0][1] == "-" else 1
        i = 1
    while True:
        i, exp, coeff = parse_term(i, sign)
        result = result + WeightedPolynomial(table, {exp: coeff} if coeff else {})
        if i >= len(tokens):
            break
        kind, val, pos = tokens[i]
        if kind != "op" or val not in "+-":
            raise PolynomialSyntaxError("expected '+' or '-'", pos)
        sign = -1 if val == "-" else 1
        i += 1
    return result


def render(p: WeightedPolynomial) -> str:
    """Canonical text: descending weighted degree, explicit '*', no '^1'."""
    if p.is_zero():
        return "0"
    pieces = []
    for idx, (exp, coeff) in enumerate(p.sorted_terms()):
        mag = abs(coeff)
        factors = []
        for name, e in zip(p.table.names, exp):
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
