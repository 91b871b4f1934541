"""Elliptic fibrations over the projective line in Weierstrass form.

The model convention follows z^2 = y^3 + g2(x0) y + g3(x0) (note the plus
signs), with discriminant Delta = 4 g2^3 + 27 g3^2.  A model of height h has
degree bounds (4h, 6h, 12h) for (g2, g3, Delta); K3 surfaces have h = 2.

Fiber classification never factors polynomials over the rationals: the roots
of Delta are grouped into squarefree strata on which the vanishing orders of
g2, g3 and Delta are constant, so the Kodaira type is decided per stratum.

A model holds g2, g3 and the primitive part of Delta over Z, cleared of
denominators once when it is built, and the strata, gcds, multiplicities and
valuations are computed in Z[x] (see ``upoly``) on Delta and on the primitive
parts of g2 and g3.  ``Fraction`` returns only at the boundary: the monic
strata of ``squarefree_strata`` and rational places.  A stratum of several roots keeps its integer polynomial as
its place; only the error for a model not minimal along it renders one.

The classification is cached on the model: the Yun strata of Delta, the
minimal model and the fiber configuration are each computed at most once per
``WeierstrassModel``.  A minimal model minimalizes to itself, so classifying a
point and then asking ``is_k3`` runs one squarefree decomposition in all.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from . import upoly
from .wpoly import VariableTable, render_terms

INFINITY = math.inf

_X0_TABLE = VariableTable(("x0",), (1,))

_KODAIRA_EULER = {
    "I0": 0, "II": 2, "III": 3, "IV": 4,
    "IV*": 8, "III*": 9, "II*": 10,
}


class IdenticallyZeroError(ValueError):
    """The discriminant of the model vanishes identically."""


class InconsistentValuationsError(ArithmeticError):
    """Valuation triple matches no row of the Kodaira table: a fault in the
    caller, not in the input."""


class KodairaType:
    """Kodaira symbol of a singular fiber, e.g. I1, II*, I0*; equal and
    hashed by value."""

    __slots__ = ("tag", "n")

    def __init__(self, tag: str, n: int = 0):
        if tag not in ("I", "I*") and tag not in _KODAIRA_EULER:
            raise ValueError(f"unknown Kodaira tag {tag!r}")
        self.tag = tag
        self.n = n

    def __eq__(self, other):
        if not isinstance(other, KodairaType):
            return NotImplemented
        return self.tag == other.tag and self.n == other.n

    def __hash__(self):
        return hash((self.tag, self.n))

    @property
    def euler_number(self) -> int:
        if self.tag == "I":
            return self.n
        if self.tag == "I*":
            return 6 + self.n
        return _KODAIRA_EULER[self.tag]

    @property
    def symbol(self) -> str:
        if self.tag == "I":
            return f"I{self.n}"
        if self.tag == "I*":
            return f"I{self.n}*"
        return self.tag

    def __str__(self):
        return self.symbol


NON_MINIMAL = "NonMinimal"


# -- the model over Z ----------------------------------------------------------


def _scaled(coeffs, m):
    """m * coeffs as an int tuple, for coeffs whose denominators divide m."""
    return tuple([c.numerator * (m // c.denominator) for c in coeffs])


def _monic(a):
    return tuple([Fraction(c, a[-1]) for c in a])


def squarefree_strata(a):
    """Yun decomposition a = lc * prod f_k^k as a list of (f_k, k).

    Each f_k is monic squarefree of positive degree; distinct f_k are coprime.
    """
    a = upoly.trim(Fraction(c) for c in a)
    part = _scaled(a, math.lcm(*(c.denominator for c in a)))
    return [(_monic(f), k) for f, k in upoly.squarefree(part)]


def _multiplicity(a, f):
    """How many times the nonconstant primitive f divides a; INFINITY for a = 0.

    For f = x0 that is the number of low zero coefficients of a.
    """
    if not a:
        return INFINITY
    if f == (0, 1):
        return upoly.split_x(a)[0]
    count = 0
    while (a := upoly.exact_div(a, f)) is not None:
        count += 1
    return count


def _mult_partition(f, poly):
    """Partition a squarefree primitive f by multiplicity of its factors in poly.

    Returns a list of (g, m) with the g primitive, squarefree, pairwise
    coprime, prod g = f up to sign, and every irreducible factor of g dividing
    poly exactly m times.  A zero poly gives [(f, INFINITY)], and a linear f
    is not split.
    """
    if len(f) == 2 or not poly:
        return [(f, _multiplicity(poly, f))]
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


class WeierstrassModel:
    """Fibration z^2 = y^3 + g2(x0) y + g3(x0) of a given height over P^1.

    Rational g2 and g3 are cleared of denominators once: with l the lcm of
    all of them, the model stores l^4 g2 and l^6 g3 as ``int`` tuples, the
    same surface over Q (y -> y / l^2, z -> z / l^3), and ``delta``, the
    primitive part of 4 g2^3 + 27 g3^2.  Two models are equal when g2, g3
    and the height are.  ``delta_strata``, ``minimal_model`` and
    ``configuration`` are cached on first use; a configuration that raises
    is not cached, so a non-minimal model raises on every call.
    """

    def __init__(self, g2, g3, height: int = 2):
        g2 = upoly.trim([c if type(c) is int else Fraction(c) for c in g2])
        g3 = upoly.trim([c if type(c) is int else Fraction(c) for c in g3])
        if height < 0:
            raise ValueError("height must be >= 0")
        if len(g2) > 4 * height + 1 or len(g3) > 6 * height + 1:
            raise ValueError("coefficient degree exceeds the height bounds")
        den = math.lcm(*(c.denominator for c in g2 + g3))
        self.g2 = _scaled(g2, den ** 4)
        self.g3 = _scaled(g3, den ** 6)
        self.delta = upoly.primitive(upoly.combine(
            upoly.power(self.g2, 3), 4, upoly.power(self.g3, 2), 27))[1]
        if not self.delta:
            raise IdenticallyZeroError("discriminant vanishes identically")
        self.height = height

    def __eq__(self, other):
        if not isinstance(other, WeierstrassModel):
            return NotImplemented
        return (self.g2, self.g3, self.height) == (other.g2, other.g3, other.height)

    def degree_bounds(self):
        return 4 * self.height, 6 * self.height, 12 * self.height

    @cached_property
    def delta_strata(self):
        """Yun's decomposition of delta as ``upoly.squarefree`` returns it."""
        return upoly.squarefree(self.delta)

    @cached_property
    def _reduction(self):
        """The minimal model, or None when that is this model: a model that
        kept a reference to itself would wait for the cycle collector."""
        minimal = _minimalize(self)
        return None if minimal is self else minimal

    @cached_property
    def _primitive(self):
        """The primitive parts of g2 and g3, which give the same multiplicity
        at every finite place without the l^4 and l^6 of the denominators."""
        return upoly.primitive(self.g2)[1], upoly.primitive(self.g3)[1]

    @property
    def minimal_model(self) -> "WeierstrassModel":
        return self._reduction or self

    @cached_property
    def configuration(self) -> "FiberConfiguration":
        return _classify(self)


def local_valuations(model: WeierstrassModel, point):
    """Vanishing orders (v(g2), v(g3), v(Delta)) at a rational point or INFINITY.

    At infinity the valuation of a polynomial of degree d is bound - d where
    the bounds are the model's (4h, 6h, 12h); an identically zero g2 or g3
    reports INFINITY.
    """
    parts = (*model._primitive, model.delta)
    if point is INFINITY:
        return tuple([
            INFINITY if not p else bound - (len(p) - 1)
            for p, bound in zip(parts, model.degree_bounds())
        ])
    point = Fraction(point)
    linear = (-point.numerator, point.denominator)
    return tuple([_multiplicity(p, linear) for p in parts])


def kodaira_from_valuations(v2, v3, vd):
    """Kodaira type from a char-0 valuation triple, or NON_MINIMAL.

    Raises InconsistentValuationsError when the triple matches no table row
    (which signals a bug in the caller, not bad user data).
    """
    if vd == 0:
        return KodairaType("I", 0)
    if v2 >= 4 and v3 >= 6:
        return NON_MINIMAL
    if v2 == 0 and v3 == 0 and vd >= 1:
        return KodairaType("I", int(vd))
    if v2 >= 1 and v3 == 1 and vd == 2:
        return KodairaType("II")
    if v2 == 1 and v3 >= 2 and vd == 3:
        return KodairaType("III")
    if v2 >= 2 and v3 == 2 and vd == 4:
        return KodairaType("IV")
    if vd == 6 and ((v2 == 2 and v3 >= 3) or (v2 >= 2 and v3 == 3)):
        return KodairaType("I*", 0)
    if v2 == 2 and v3 == 3 and vd >= 7:
        return KodairaType("I*", int(vd) - 6)
    if v2 >= 3 and v3 == 4 and vd == 8:
        return KodairaType("IV*")
    if v2 == 3 and v3 >= 5 and vd == 9:
        return KodairaType("III*")
    if v2 >= 4 and v3 == 5 and vd == 10:
        return KodairaType("II*")
    raise InconsistentValuationsError(f"no table row for {(v2, v3, vd)}")


def _twist(model: WeierstrassModel, f):
    """The model with g2 / f^4 and g3 / f^6 and its height lowered by deg f,
    or None when f^4 does not divide g2 or f^6 not g3.  For a primitive f
    the quotients lie in Z[x] (Gauss's lemma)."""
    q2 = upoly.exact_div(model.g2, upoly.power(f, 4))
    q3 = upoly.exact_div(model.g3, upoly.power(f, 6))
    if q2 is None or q3 is None:
        return None
    return WeierstrassModel(q2, q3, model.height - (len(f) - 1))


def minimalize_everywhere(model: WeierstrassModel) -> WeierstrassModel:
    """Remove every (4, 6)-divisible locus, rational or not.

    A twist at infinity lowers the height and keeps g2 and g3; a twist along
    a stratum f of Delta divides g2 by f^4 and g3 by f^6 and lowers the
    height by deg f, which leaves the valuations at infinity unchanged.
    The result is cached on the model, and a minimal model is its own result.
    """
    return model.minimal_model


def _minimalize(model: WeierstrassModel) -> WeierstrassModel:
    current = model
    while True:
        v2, v3, _vd = local_valuations(current, INFINITY)
        if v2 >= 4 and v3 >= 6:
            current = WeierstrassModel(current.g2, current.g3, current.height - 1)
            continue
        for f, vd in current.delta_strata:
            if vd >= 12 and (twisted := _twist(current, f)) is not None:
                current = twisted
                break
        else:
            return current


class FiberEntry(NamedTuple):
    """One stratum of singular fibers: place, type, number of fibers."""

    # a Fraction, INFINITY, or for a stratum of several roots its primitive
    # integer polynomial (constant term first), not rendered
    place: object
    kodaira: KodairaType
    count: int = 1


class FiberConfiguration(NamedTuple):
    """All singular fibers of a model with the total Euler number."""

    fibers: tuple

    @property
    def total_euler(self) -> int:
        return sum(e.count * e.kodaira.euler_number for e in self.fibers)

    def counts_by_symbol(self):
        counts = {}
        for e in self.fibers:
            counts[e.kodaira.symbol] = counts.get(e.kodaira.symbol, 0) + e.count
        return counts

    def summary(self) -> str:
        counts = self.counts_by_symbol()
        euler = {e.kodaira.symbol: e.kodaira.euler_number for e in self.fibers}
        order = sorted(counts, key=lambda s: (-euler[s], s))
        parts = [s if counts[s] == 1 else f"{counts[s]} {s}" for s in order]
        return " + ".join(parts) if parts else "smooth"


def fiber_configuration(model: WeierstrassModel) -> FiberConfiguration:
    """Classify the fiber over every root of Delta and over infinity.

    Roots are never computed: Delta is split into squarefree strata, each
    stratum is refined until the valuations of g2 and g3 are constant on it,
    and each root of a refined stratum contributes one fiber of the common
    type.  The model must already be minimal (use minimalize_everywhere).
    The result is cached on the model.
    """
    return model.configuration


def _classify(model: WeierstrassModel) -> FiberConfiguration:
    """The configuration of a minimal model, read on the primitive parts of
    g2 and g3.  A stratum of Delta of multiplicity 1 is typed I1 at once:
    by Kodaira's table (Tate, LNM 476, 1975) v(Delta) = 1 forces v(g2) =
    v(g3) = 0, so its two ``_mult_partition`` chains could not split it."""
    entries = []
    v2, v3, vd = local_valuations(model, INFINITY)
    t_inf = kodaira_from_valuations(v2, v3, vd)
    if t_inf is NON_MINIMAL:
        raise ValueError("model is not minimal at infinity")
    if t_inf.euler_number:
        entries.append(FiberEntry(INFINITY, t_inf, 1))
    g2, g3 = model._primitive
    for f, k in model.delta_strata:
        parts = [(f, 0, 0)] if k == 1 else [
            (h, m2, m3) for g, m2 in _mult_partition(f, g2)
            for h, m3 in _mult_partition(g, g3)]
        for h, m2, m3 in parts:
            t = kodaira_from_valuations(m2, m3, k)
            if t is NON_MINIMAL:
                raise ValueError(f"model is not minimal along {_render(_monic(h))}")
            if t.euler_number == 0:
                continue
            if len(h) == 2:
                entries.append(FiberEntry(Fraction(-h[0], h[1]), t, 1))
            else:
                entries.append(FiberEntry(h, t, len(h) - 1))
    return FiberConfiguration(tuple(entries))


def _render(coeffs):
    return render_terms(_X0_TABLE, {(i,): c for i, c in enumerate(coeffs) if c})


def is_k3(model: WeierstrassModel) -> bool:
    """True iff the minimal model has Euler number 24 (with singular fibers).

    Reads the minimal model and its configuration cached on ``model``.
    """
    minimal = model.minimal_model
    if minimal.height != 2:
        return False
    config = minimal.configuration
    return config.total_euler == 24 and bool(config.fibers)

