"""The concrete verification targets: the family S(t), its discriminant
factorization, the printed weight-90 polynomial, the CD specialization,
dimension counts, and the irreducibility certificate.

The printed polynomials ship as golden data files; every derived polynomial is
diffed against its golden counterpart, and a mismatch raises
ConsistencyFailure naming the offending monomials.
"""
from __future__ import annotations

import json
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import NamedTuple

from . import upoly
from .eliminate import DeltaFactors, PitConfig, delta_factors, resultant, sample_point, splitmix64
from .upoly import irreducible_mod_p
from .weierstrass import WeierstrassModel
from .wpoly import VariableTable, WeightedPolynomial, parse, render, specializer

# Not used here: benchmarks/test_benchmark.py reads it to check the tracer.
from .eliminate import discriminant  # noqa: F401

T_TABLE = VariableTable(("t4", "t6", "t10", "t12", "t18"), (4, 6, 10, 12, 18))

# x0 carries weight 6: this makes both the affine model (g2 of weight 28, g3 of
# weight 42) and the degree-6 polynomial R (weight 36) weighted-homogeneous.
TX_TABLE = VariableTable(
    ("t4", "t6", "t10", "t12", "t18", "x0"), (4, 6, 10, 12, 18, 6)
)

CD_TABLE = VariableTable(("alpha", "beta", "gamma", "delta"), (4, 6, 10, 12))
CDX_TABLE = VariableTable(
    ("alpha", "beta", "gamma", "delta", "x1"), (4, 6, 10, 12, 1)
)
MIX_TABLE = VariableTable(
    ("alpha", "beta", "gamma", "delta", "x0"), (4, 6, 10, 12, 6)
)


class ConsistencyFailure(AssertionError):
    """A derived polynomial disagrees with its printed golden counterpart."""


class ParameterPoint:
    """A nonzero point (t4, t6, t10, t12, t18) of the weighted parameter
    space, equal by value, with ``int`` coordinates kept and ``Fraction``s
    from ``Fraction`` or exact text such as "-3/2", never ``float`` or ``bool``."""

    __slots__ = ("t4", "t6", "t10", "t12", "t18")

    def __init__(self, t4, t6, t10, t12, t18):
        for v in (t4, t6, t10, t12, t18):
            if isinstance(v, bool) or not isinstance(v, (int, Fraction, str)):
                raise ValueError(f"coordinates must be int, Fraction or text, got {v!r}")
        self.t4, self.t6, self.t10, self.t12, self.t18 = [
            v if type(v) is int else Fraction(v) for v in (t4, t6, t10, t12, t18)]
        if not any(self.as_tuple()):
            raise ValueError("parameter point must be nonzero")

    def __eq__(self, other):
        if not isinstance(other, ParameterPoint):
            return NotImplemented
        return self.as_tuple() == other.as_tuple()

    def as_tuple(self):
        return (self.t4, self.t6, self.t10, self.t12, self.t18)


def _load_text(filename: str) -> str:
    path = os.path.join(os.path.dirname(__file__), "data", filename)
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _var(table, name):
    return WeightedPolynomial.variable(table, name)


# -- the family S(t) -----------------------------------------------------------


def build_s(point: ParameterPoint) -> WeierstrassModel:
    """Affine model of S(t): g2 = t4 x0^4 + t10 x0^3, g3 = x0^7 + t6 x0^6
    + t12 x0^5 + t18 x0^4."""
    t4, t6, t10, t12, t18 = point.as_tuple()
    return WeierstrassModel(
        (0, 0, 0, t10, t4), (0, 0, 0, 0, t18, t12, t6, 1), height=2
    )


def _s_model(t4, t6, t10, t12, t18, x0):
    """g2/x0^3 and g3/x0^4 of the affine model, over any ring."""
    return t4 * x0 + t10, x0 ** 3 + t6 * x0 ** 2 + t12 * x0 + t18


def dual_polynomials():
    """g2/x0^3 and g3/x0^4 over TX_TABLE: the degree-1 and degree-3
    polynomials whose resultant is r(t)."""
    return _s_model(*(_var(TX_TABLE, name) for name in TX_TABLE.names))


@lru_cache(maxsize=1)
def big_r_symbolic() -> WeightedPolynomial:
    """The degree-6 polynomial R(x0, t) = 4 x0 (g2/x0^3)^3 + 27 (g3/x0^4)^2,
    i.e. (4 g2^3 + 27 g3^2) / x0^8, normalized with leading coefficient 27."""
    g2v, g3v = dual_polynomials()
    x0 = _var(TX_TABLE, "x0")
    return 4 * x0 * g2v ** 3 + 27 * g3v ** 2


@lru_cache(maxsize=1)
def r_poly() -> WeightedPolynomial:
    """The resultant r(t), normalized so the t10^3 coefficient is +1.

    Derived as -res(g2/x0^3, g3/x0^4) and diffed against the printed four-term
    golden file.
    """
    g2v, g3v = dual_polynomials()
    derived = -resultant(g2v, g3v, "x0")
    printed = parse(_load_text("r.poly"), T_TABLE)
    diff = derived - printed
    if not diff.is_zero():
        raise ConsistencyFailure(f"r(t) derivation mismatch: {render(diff)}")
    return printed


@lru_cache(maxsize=1)
def printed_d90() -> WeightedPolynomial:
    """The printed weight-90 polynomial, loaded from the golden data file."""
    return parse(_load_text("d90.poly"), T_TABLE)


def _read_off(factors, ab: WeightedPolynomial, divisor: WeightedPolynomial):
    """(c, q / c) for q = N * H / ``divisor`` once res(a, b) = ``ab``: c is
    the content of q, signed so that q / c has a positive leading term."""
    if factors.ab != ab:
        raise ConsistencyFailure(f"res(a, b) = {render(factors.ab)}, not {render(ab)}")
    q = (factors.numerator * factors.hg).exact_div(divisor)
    c = gcd(*q.terms.values()) * (-1 if q.leading_term()[1] < 0 else 1)
    return c, q.exact_div(c)


class DiscFactorization(NamedTuple):
    """disc_{x0}(R) = c * r^3 * d90 with the fitted constant c, read off the
    ``delta_factors`` of res(R, R')."""

    c: int
    d90_derived: WeightedPolynomial
    factors: DeltaFactors
    # disc(R) = -res(R, R') / 27, assembled from the factors on each read
    disc = property(lambda self: self.factors.product().exact_div(-27))


@lru_cache(maxsize=1)
def disc_factorization() -> DiscFactorization:
    """Symbolic factorization of the weight-180 discriminant of R.

    disc(R) = -res(R, R') / 27 = -N H res(a, b)^3 / (27 D) by ``delta_factors``
    of the dual polynomials (e = 1), so with res(a, b) = -r, c d90 = N H / (27 D):
    its content is the constant c and its primitive part is the derived d90.
    Nothing is assumed about c; it is reported in the result.
    """
    factors = delta_factors(*dual_polynomials(), 1, "x0")
    c, d90 = _read_off(factors, -r_poly(), 27 * factors.denominator)
    return DiscFactorization(c=c, d90_derived=d90, factors=factors)


def d90_poly() -> WeightedPolynomial:
    """The derived d90, diffed term-for-term against the printed golden file."""
    derived = disc_factorization().d90_derived
    diff = derived - printed_d90()
    if not diff.is_zero():
        raise ConsistencyFailure(
            f"d90 derivation differs from the printed polynomial in "
            f"{diff.term_count()} monomials: {render(diff)}"
        )
    return printed_d90()


def delta_t_poly() -> WeightedPolynomial:
    """Delta_T = t18 * d90, the weight-108 branch polynomial."""
    return _var(T_TABLE, "t18") * printed_d90()


def _pit_specialization():
    """The ``specializer`` of r, d90 and R over T_TABLE, in slots 0, 1 and
    2 + e for the x0^e coefficient of R, whose terms leave out the exponent
    of x0: at integer points every column is ``int``."""
    parts = [(0, exp, c) for exp, c in r_poly().terms.items()]
    parts += [(1, exp, c) for exp, c in printed_d90().terms.items()]
    parts += [(2 + exp[5], exp[:5], c) for exp, c in big_r_symbolic().terms.items()]
    return specializer(parts, 9)


_PIT_CHUNK = 64  # trials per specializer call: spreads each step, keeps memory flat


def pit_disc_factorization(cfg: PitConfig):
    """Numeric check disc(R) = c * r^3 * d90 without symbolic elimination.

    R is specialized at random integer parameter points, its univariate
    discriminant in x0 is computed exactly, and the constant c is fitted
    from the first usable trial and then required to be constant across all
    trials.  Each chunk of ``_PIT_CHUNK`` trials is specialized by
    ``_pit_specialization`` and reduced by ``upoly.discriminants`` in ``int``,
    then scanned in trial order: disc * den == num * r^3 * d90 for c = num / den.
    Returns (c, trials_used, ok, witness) with c a ``Fraction`` and witness
    the first failing point if any.
    """
    specialize, c_fit, used = _pit_specialization(), None, 0
    for start in range(0, cfg.trials, _PIT_CHUNK):
        points = [sample_point(cfg, t, 5) for t in range(start, cfg.trials)[:_PIT_CHUNK]]
        r_vals, d_vals, *coeffs = specialize(points)
        discs = upoly.discriminants(list(zip(*coeffs)))  # lc(R) = 27
        for t_point, r_val, d_val, disc_val in zip(points, r_vals, d_vals, discs):
            rhs = r_val ** 3 * d_val
            used += 1
            if rhs == 0:
                if disc_val != 0:
                    return c_fit, used, False, t_point
                continue
            if c_fit is None:
                c_fit = Fraction(disc_val, rhs)
                num, den = c_fit.numerator, c_fit.denominator
            elif disc_val * den != num * rhs:
                return c_fit, used, False, t_point
    return c_fit, used, c_fit is not None, None


# -- the CD family --------------------------------------------------------------


def build_scd_symbolic():
    """The CD model in the x1 chart over CDX_TABLE: g2 = -3a x1^4 - g x1^5,
    g3 = x1^5 - 2b x1^6 + d x1^7."""
    a, b, g, d, x1 = (_var(CDX_TABLE, name) for name in CDX_TABLE.names)
    g2 = -(3 * a * x1 ** 4) - g * x1 ** 5
    g3 = x1 ** 5 - 2 * b * x1 ** 6 + d * x1 ** 7
    return g2, g3


@lru_cache(maxsize=1)
def cd_r0_poly() -> WeightedPolynomial:
    """r0 = 9 a^2 d + 6 a b g + g^2, the resultant of the classical-form
    coefficient polynomials 3a + g x1 and -1 + 2b x1 - d x1^2 (sign normalized
    so the g^2 coefficient is +1)."""
    a, b, g, d, x1 = (_var(CDX_TABLE, name) for name in CDX_TABLE.names)
    f = 3 * a + g * x1
    q = -1 + 2 * b * x1 - d * x1 ** 2
    res = resultant(f, q, "x1")
    if res.coefficient((0, 0, 2, 0)) < 0:
        res = -res
    return res


class CdDiscFactorization(NamedTuple):
    """disc_{x1}(R0) = c' * gamma^3 * r0^3 * d0 with the fitted constant c',
    where ``disc`` is taken in the resultant normalization res(R0, R0'), read
    off its ``delta_factors``."""

    c_prime: int
    r0: WeightedPolynomial
    d0: WeightedPolynomial
    factors: DeltaFactors
    disc = property(lambda self: self.factors.product())  # assembled on each read


@lru_cache(maxsize=1)
def cd_disc_factorization() -> CdDiscFactorization:
    """Factor the discriminant of the degree-5 polynomial R0 of the CD model.

    R0 = 4 x1^2 a^3 + 27 b^2 for a = g2 / x1^4 and b = g3 / x1^5, so with
    res(a, b) = r0 the ``delta_factors`` (e = 2) give c' gamma^3 d0 = N H / D in
    the resultant normalization res(R0, R0'), which keeps the leading coefficient
    -4 gamma^3 of the quintic as a factor: the gamma^3 in the stated product
    (the lc-divided discriminant carries only r0^3 * d0).
    """
    g2, g3 = build_scd_symbolic()
    x1 = _var(CDX_TABLE, "x1")
    factors = delta_factors(g2.exact_div(x1 ** 4), g3.exact_div(x1 ** 5), 2, "x1")
    gamma = _var(CD_TABLE, "gamma")
    c_prime, d0 = _read_off(factors, cd_r0_poly(), factors.denominator * gamma ** 3)
    return CdDiscFactorization(c_prime=c_prime, r0=cd_r0_poly(), d0=d0, factors=factors)


_CD_SUBSTITUTION = {"t4": "-3*alpha", "t6": "-2*beta", "t10": "-gamma", "t12": "delta", "t18": "0"}


def cd_specialize_check(substitution=None):
    """Prop 2.5 chart check: the x0-chart form of the CD model equals S(t)
    under t4 = -3a, t6 = -2b, t10 = -g, t12 = d, t18 = 0.

    Returns (True, None) on success or (False, witness) with the nonzero
    difference polynomials.
    """
    assignments = {**_CD_SUBSTITUTION, **(substitution or {})}
    x0 = _var(MIX_TABLE, "x0")
    g2v, g3v = _s_model(*(parse(assignments[name], MIX_TABLE) for name in T_TABLE.names), x0)
    g2_cd, g3_cd = build_scd_symbolic()
    diff2 = x0 ** 3 * g2v - _chart_swap(g2_cd, 8)
    diff3 = x0 ** 4 * g3v - _chart_swap(g3_cd, 12)
    if diff2.is_zero() and diff3.is_zero():
        return True, None
    return False, (render(diff2), render(diff3))


def _chart_swap(p: WeightedPolynomial, bound: int) -> WeightedPolynomial:
    """x0^bound * p(1/x0) over MIX_TABLE for p over CDX_TABLE: each x1^e
    becomes x0^(bound - e)."""
    if p.degree_in("x1") > bound:
        raise ValueError("chart swap bound too small")
    return WeightedPolynomial.from_terms(
        MIX_TABLE, {exp[:-1] + (bound - exp[-1],): c for exp, c in p.terms.items()})


# -- dimension counts ------------------------------------------------------------


@lru_cache(maxsize=8)
def _monomial_counts(limit: int):
    counts = [0] * (limit + 1)
    counts[0] = 1
    for w in T_TABLE.weights:
        for k in range(w, limit + 1):
            counts[k] += counts[k - w]
    return counts


def dim_forms(k: int, character: str = "id") -> int:
    """Dimension of the weight-k space: monomial count in weights (4, 6, 10,
    12, 18) for the trivial character, shifted by 54 for the determinant."""
    if k < 0:
        raise ValueError("weight must be >= 0")
    if character == "det":
        k -= 54
        if k < 0:
            return 0
    elif character != "id":
        raise ValueError("character must be 'id' or 'det'")
    return _monomial_counts(max(k, 0))[k]


def dim_forms_bruteforce(k: int) -> int:
    """Monomial count by direct exponent enumeration (cross-check path)."""
    count = 0
    w4, w6, w10, w12, w18 = T_TABLE.weights
    for e18 in range(k // w18 + 1):
        k18 = k - w18 * e18
        for e12 in range(k18 // w12 + 1):
            k12 = k18 - w12 * e12
            for e10 in range(k12 // w10 + 1):
                k10 = k12 - w10 * e10
                for e6 in range(k10 // w6 + 1):
                    if (k10 - w6 * e6) % w4 == 0:
                        count += 1
    return count


# -- irreducibility certificate ---------------------------------------------------

_CERTIFICATE_PRIMES = (2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59)


class IrreducibilityCertificate(NamedTuple):
    """Outcome of the d90 irreducibility search."""

    certified: bool
    prime: int = None
    specialization: tuple = None
    trials: int = 0
    reason: str = ""


def irreducibility_certificate(
    poly: WeightedPolynomial,
    var: str,
    cfg: PitConfig = PitConfig(trials=64),
) -> IrreducibilityCertificate:
    """Certify irreducibility over Q of a polynomial primitive in ``var``.

    Requires (a) a nonzero var-free coefficient, and some coefficient in var
    that is a nonzero constant, so that the content in var is 1, and (b) a
    rational specialization of the remaining variables and a prime p for
    which the specialized univariate polynomial is irreducible mod p with
    full degree.  Specializing can merge factors but never split them, so
    one hit certifies irreducibility.
    """
    var_index = poly.table.index(var)
    degree = poly.degree_in(var)
    if all(exp[var_index] for exp in poly.terms):
        return IrreducibilityCertificate(
            False, reason=f"the coefficient of {var}^0 vanishes: {var} divides a factor"
        )
    if not any(sum(exp) == exp[var_index] for exp in poly.terms):
        return IrreducibilityCertificate(False, reason="content check inconclusive")
    for trial in range(cfg.trials):
        state = splitmix64((cfg.seed + 0x5EED + trial) & ((1 << 64) - 1))
        values = [
            splitmix64((state + 977 * (i + 1)) & ((1 << 64) - 1)) % 41 - 20
            for i in range(len(poly.table) - 1)
        ]
        point = values[:var_index] + [0] + values[var_index:]
        coeffs = poly.univariate_at(var, point)
        if coeffs[degree] == 0:
            continue
        for p in _CERTIFICATE_PRIMES:
            if coeffs[degree] % p == 0:
                continue
            if irreducible_mod_p(coeffs, p):
                return IrreducibilityCertificate(
                    True,
                    prime=p,
                    specialization=tuple(values),
                    trials=trial + 1,
                )
    return IrreducibilityCertificate(
        False, trials=cfg.trials, reason="budget exhausted"
    )


def d90_irreducibility_certificate(cfg: PitConfig = PitConfig(trials=64)):
    """Irreducibility certificate for the printed d90, viewed as a quintic in
    t18 over the remaining parameters."""
    return irreducibility_certificate(printed_d90(), "t18", cfg)


# -- bookkeeping and sample points -----------------------------------------------


def genericity_certificate(point: ParameterPoint) -> dict:
    """Exact values of t18, r and d90 at the point; all nonzero means generic."""
    t = point.as_tuple()
    return {
        "t18": Fraction(t[4]),
        "r": r_poly().evaluate(t),
        "d90": printed_d90().evaluate(t),
    }


def is_generic_point(point: ParameterPoint) -> bool:
    return all(v != 0 for v in genericity_certificate(point).values())


def sample_points():
    """Named fixture points with their documented roles."""
    obj = json.loads(_load_text("sample_points.json"))
    out = []
    for entry in obj["points"]:
        point = ParameterPoint(*(Fraction(v) for v in entry["t"]))
        out.append({"name": entry["name"], "point": point, "role": entry["role"]})
    return out


def random_certified_points(count: int, seed: int = 0, t18_zero: bool = False):
    """Deterministic parameter points with r * d90 != 0 (and t18 != 0 unless
    t18_zero, in which case t18 is pinned to 0)."""
    cfg = PitConfig(seed=seed, sample_bound=50)
    points = []
    trial = 0
    while len(points) < count:
        values = list(sample_point(cfg, trial, 5))
        if t18_zero:
            values[4] = 0
        trial += 1
        if not any(values):
            continue
        point = ParameterPoint(*values)
        cert = genericity_certificate(point)
        if cert["r"] == 0 or cert["d90"] == 0:
            continue
        if not t18_zero and cert["t18"] == 0:
            continue
        points.append(point)
    return points
