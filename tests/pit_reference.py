"""The PIT of ``families.pit_disc_factorization`` run one trial at a time, for
the tests: each trial is specialized by summing the terms of r, d90 and R at
its own point and its discriminant is taken by ``eliminate.discriminant``, so
the reference shares neither the specializer nor the column chain with the
code under test."""
from fractions import Fraction
from math import prod

from k3verify import families
from k3verify.eliminate import discriminant, sample_point
from k3verify.wpoly import VariableTable, WeightedPolynomial

X0 = VariableTable(("x0",), (1,))


def value_at(poly, t):
    """The value of ``poly`` at ``t``, term by term."""
    return sum(c * prod(x ** e for x, e in zip(t, exp)) for exp, c in poly.terms.items())


def reference_pit(cfg):
    """(c, trials_used, ok, witness) as the trial-by-trial loop gives them."""
    big_r, r, d90 = families.big_r_symbolic(), families.r_poly(), families.printed_d90()
    c_fit, used = None, 0
    for trial in range(cfg.trials):
        t = sample_point(cfg, trial, 5)
        coeffs = [0] * 7
        for exp, c in big_r.terms.items():
            coeffs[exp[5]] += c * prod(x ** e for x, e in zip(t, exp[:5]))
        if coeffs[-1] == 0:
            continue
        f = WeightedPolynomial.from_terms(X0, {(e,): c for e, c in enumerate(coeffs) if c})
        disc = discriminant(f, "x0").coefficient(())
        rhs = value_at(r, t) ** 3 * value_at(d90, t)
        used += 1
        if rhs == 0:
            if disc != 0:
                return c_fit, used, False, t
            continue
        if c_fit is None:
            c_fit = Fraction(disc, rhs)
        elif disc != c_fit * rhs:
            return c_fit, used, False, t
    return c_fit, used, c_fit is not None, None
