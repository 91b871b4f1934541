"""Batch verification harness with machine-readable reports.

Every subcommand produces a CheckReport; ``--json`` prints the stable JSON
schema {"suite", "checks", "seed", "runtime_ms", "constants"}.  Exit code 0
means no check failed, 1 means at least one failure, 2 means a usage error
(a bad flag, or a ``ValueError`` or ``OSError`` from user input), 3 means an
internal error (any other exception escaped a suite; nothing was verified or
refuted).
``all`` runs the suites one after another in manifest order; its
``disc-factor`` is the symbolic one, which checks the constant c exactly.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import families, lattice, weierstrass
from .eliminate import PitConfig
from .wpoly import WeightedPolynomial


@dataclass
class CheckReport:
    suite: str
    checks: list = field(default_factory=list)
    seed: int = 0
    runtime_ms: int = 0
    constants: dict = field(default_factory=dict)

    def add(self, name, status, details="", witness=None):
        entry = {"name": name, "status": status, "details": str(details)}
        if witness is not None:
            entry["witness"] = str(witness)
        self.checks.append(entry)

    def check(self, name, ok, details="", witness=None):
        self.add(name, "pass" if ok else "fail", details, witness)

    @property
    def failed(self) -> bool:
        return any(c["status"] == "fail" for c in self.checks)

    def merge(self, other: "CheckReport"):
        for c in other.checks:
            merged = dict(c)
            merged["name"] = f"{other.suite}.{c['name']}"
            self.checks.append(merged)
        self.constants.update(other.constants)

    def to_json(self) -> str:
        return json.dumps(
            {
                "suite": self.suite,
                "checks": self.checks,
                "seed": self.seed,
                "runtime_ms": self.runtime_ms,
                "constants": {k: str(v) for k, v in self.constants.items()},
            },
            indent=2,
        )

    def to_text(self) -> str:
        lines = [f"suite: {self.suite}"]
        for c in self.checks:
            line = f"  [{c['status']:<12}] {c['name']}"
            if c.get("details"):
                line += f"  -- {c['details']}"
            if c.get("witness"):
                line += f"  (witness: {c['witness']})"
            lines.append(line)
        for k, v in self.constants.items():
            lines.append(f"  constant {k} = {v}")
        lines.append(f"  runtime: {self.runtime_ms} ms")
        return "\n".join(lines)


# The constants of the two factorizations as README states them.
_README_C = 2176782336  # 6^12
_README_C_PRIME = 544195584


def _pit_config(args) -> PitConfig:
    return PitConfig(trials=args.trials, seed=args.seed)


def run_disc_factor(args) -> CheckReport:
    report = CheckReport(suite="disc-factor", seed=args.seed)
    if args.pit:
        c, used, ok, witness = families.pit_disc_factorization(_pit_config(args))
        report.check(
            "disc(R) = c * r^3 * d90 (probabilistic)",
            ok,
            f"{used} trials, all residuals zero" if ok else "nonzero residual",
            witness,
        )
        report.check(f"c = {_README_C}", c == _README_C, f"c = {c}")
        if c is not None:
            report.constants["c"] = c
    else:
        fac = families.disc_factorization()
        product = fac.c * families.r_poly() ** 3 * families.printed_d90()
        report.check(
            "disc(R) = c * r^3 * d90 (symbolic)",
            fac.disc == product,
            f"disc(R) has {fac.disc.term_count()} terms, c * r^3 * d90 has "
            f"{product.term_count()}",
        )
        report.check(f"c = {_README_C}", fac.c == _README_C, f"c = {fac.c}")
        report.check(
            "disc(R) weighted-homogeneous of weight 180",
            fac.disc.is_weighted_homogeneous() and fac.disc.weighted_degree() == 180,
            f"weight {fac.disc.weighted_degree()}",
        )
        report.constants["c"] = fac.c
    return report


_D90_SPOT_CONSTANTS = (
    ((0, 0, 9, 0, 0), 3125),
    ((0, 0, 0, 0, 5), 14348907),
    ((0, 6, 0, 0, 3), 314928),
    ((1, 1, 8, 0, 0), -5625),
    ((9, 0, 0, 0, 3), 1024),
)


def run_d90_check(args) -> CheckReport:
    report = CheckReport(suite="d90-check", seed=args.seed)
    try:
        derived = families.d90_poly()
        report.check("derived d90 equals printed d90 term-for-term", True,
                     f"{derived.term_count()} terms")
    except families.ConsistencyFailure as exc:
        report.check("derived d90 equals printed d90 term-for-term", False, exc)
        return report
    for exponents, value in _D90_SPOT_CONSTANTS:
        actual = derived.coefficient(exponents)
        report.check(
            f"spot constant {value}",
            actual == value,
            f"coefficient at {exponents} is {actual}",
        )
    report.constants["c"] = families.disc_factorization().c
    return report


def run_lattices(args) -> CheckReport:
    report = CheckReport(suite="lattices", seed=args.seed)
    user = None
    if args.lattice:  # read and validated before any built-in check runs
        with open(args.lattice) as handle:
            user = lattice.lattice_from_json(handle.read())
    a = lattice.a_lattice()
    big_l = lattice.k3_lattice()
    m = lattice.m_lattice()
    report.check("signature(A) = (2,4)", lattice.signature(a) == (2, 4),
                 lattice.signature(a))
    report.check("signature(L) = (3,19)", lattice.signature(big_l) == (3, 19),
                 lattice.signature(big_l))
    report.check("signature(M) = (1,15)", lattice.signature(m) == (1, 15),
                 lattice.signature(m))
    report.check("|det M| = 3", abs(m.det()) == 3, f"det M = {m.det()}")
    q_a = lattice.discriminant_group(a)
    report.check("A-dual/A is cyclic of order 3",
                 q_a.generator_orders == (3,), q_a.generator_orders)
    count, _autos = lattice.finite_form_automorphisms(q_a)
    report.check("O(q_A) has order 2", count == 2, f"count = {count}")
    for lat, expected in (
        (a, "pass"),
        (lattice.a_s_lattice(), "fail"),
        (lattice.a_msy_lattice(), "fail"),
        (lattice.a_cms_lattice(), "fail"),
    ):
        kn = lattice.kneser_check(lat, search_bound=args.bound)
        report.check(
            f"kneser_check({lat.label}) expected {expected}",
            kn.overall == expected,
            f"verdict {kn.overall}, details {kn.details}",
        )
    basis = lattice.m_sublattice_basis()
    report.check("M is a primitive sublattice of L",
                 lattice.is_primitive_sublattice(big_l, basis))
    comp = lattice.orthogonal_complement(big_l, basis)
    report.check(
        "complement of M in L has the genus invariants of A",
        lattice.same_genus_invariants(comp, a),
        f"complement signature {lattice.signature(comp)}, det {comp.det()}",
    )
    if user is not None:
        kn = lattice.kneser_check(user, search_bound=args.bound)
        report.add(
            f"kneser_check({user.label or 'user lattice'})",
            kn.overall,
            f"signature {lattice.signature(user)}, det {user.det()}, "
            f"details {kn.details}",
        )
    return report


def _parse_t(text: str) -> families.ParameterPoint:
    try:
        parts = [Fraction(p) for p in text.split(",")]
    except (ValueError, ZeroDivisionError):
        parts = None
    if parts is None or len(parts) != 5:
        raise ValueError(f"--t needs five comma-separated rationals, got {text!r}")
    return families.ParameterPoint(*parts)


def run_fibers(args) -> CheckReport:
    report = CheckReport(suite="fibers", seed=args.seed)
    if args.t:
        point = _parse_t(args.t)
        model = families.build_s(point)
        minimal = weierstrass.minimalize_everywhere(model)
        config = weierstrass.fiber_configuration(minimal)
        cert = families.genericity_certificate(point)
        report.add(
            "fiber configuration",
            "pass",
            f"{config.summary()}; euler {config.total_euler}; "
            f"k3 {weierstrass.is_k3(model)}; genericity {cert}",
        )
        report.check("euler number is 12 * height",
                     config.total_euler == 12 * minimal.height,
                     f"euler {config.total_euler}, height {minimal.height}")
        return report
    expected = {
        "generic": ("II* + IV* + 6 I1", True),
        "d90-root": ("II* + IV* + I2 + 4 I1", True),
        "r-root": ("II* + IV* + II + 4 I1", True),
        "t18-zero": ("II* + III* + 5 I1", True),
        "non-k3": (None, False),
    }
    for entry in families.sample_points():
        name = entry["name"]
        model = families.build_s(entry["point"])
        summary_expected, k3_expected = expected[name]
        k3 = weierstrass.is_k3(model)
        if summary_expected is None:
            report.check(f"{name}: not a K3 surface", k3 == k3_expected,
                         f"is_k3 {k3}")
            continue
        config = weierstrass.fiber_configuration(model)
        report.check(
            f"{name}: {summary_expected}",
            config.summary() == summary_expected and k3 == k3_expected,
            f"got {config.summary()}, euler {config.total_euler}, is_k3 {k3}",
        )
    return report


def run_cd(args) -> CheckReport:
    report = CheckReport(suite="cd", seed=args.seed)
    ok, witness = families.cd_specialize_check()
    report.check("CD chart specialization matches S(t)", ok, witness=witness)
    fac = families.cd_disc_factorization()
    gamma = WeightedPolynomial.variable(families.CD_TABLE, "gamma")
    product = fac.c_prime * gamma ** 3 * fac.r0 ** 3 * fac.d0
    report.check(
        "disc(R0) = c' * gamma^3 * r0^3 * d0",
        fac.disc == product,
        f"disc(R0) has {fac.disc.term_count()} terms, d0 has {fac.d0.term_count()}",
    )
    report.check(f"c' = {_README_C_PRIME}", fac.c_prime == _README_C_PRIME,
                 f"c' = {fac.c_prime}")
    report.check(
        "weighted degrees (gamma^3, r0^3, d0) = (30, 60, 60)",
        fac.r0.weighted_degree() * 3 == 60 and fac.d0.weighted_degree() == 60,
        f"r0 weight {fac.r0.weighted_degree()}, d0 weight {fac.d0.weighted_degree()}",
    )
    report.constants["c_prime"] = fac.c_prime
    return report


def run_irreducible(args) -> CheckReport:
    report = CheckReport(suite="irreducible", seed=args.seed)
    cert = families.d90_irreducibility_certificate(
        PitConfig(trials=args.trials, seed=args.seed)
    )
    if cert.certified:
        report.add(
            "d90 irreducible over Q",
            "pass",
            f"specialization {cert.specialization} is irreducible "
            f"mod {cert.prime} (trial {cert.trials})",
        )
    else:
        report.add("d90 irreducible over Q", "inconclusive", cert.reason)
    return report


def run_dims(args) -> CheckReport:
    report = CheckReport(suite="dims", seed=args.seed)
    table = {}
    consistent = True
    for k in range(args.max_weight + 1):
        value = families.dim_forms(k, "id")
        if value != families.dim_forms_bruteforce(k):
            consistent = False
        table[k] = (value, families.dim_forms(k, "det"))
    report.check(
        f"dimension table consistent with direct enumeration to weight "
        f"{args.max_weight}",
        consistent,
    )
    report.check("dim(54, det) = 1 and dim(53, det) = 0",
                 families.dim_forms(54, "det") == 1
                 and families.dim_forms(53, "det") == 0)
    nonzero = {k: v for k, v in table.items() if v != (0, 0)}
    report.add("dimension table (weight: id, det)", "pass", nonzero)
    return report


_MANIFEST = (
    ("d90-check", run_d90_check),
    ("disc-factor", run_disc_factor),
    ("lattices", run_lattices),
    ("fibers", run_fibers),
    ("cd", run_cd),
    ("irreducible", run_irreducible),
    ("dims", run_dims),
)


def run_all(args) -> CheckReport:
    report = CheckReport(suite="all", seed=args.seed)
    for _name, runner in _MANIFEST:
        report.merge(runner(args))
    return report


# The brute-force cross-check of ``dims`` grows as about k^4: weight 400
# takes about a second, weight 800 about half a minute.
_MAX_WEIGHT_LIMIT = 400


def _int_from_zero(high=None):
    """An argparse type for the integers from 0 to ``high`` (None: no limit)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = -1
        if value < 0 or (high is not None and value > high):
            wanted = "a nonnegative integer" if high is None else f"an integer from 0 to {high}"
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="k3verify",
        description="Exact verification suite for the K3 family S(t): "
        "discriminant factorization, fiber configurations, lattice invariants.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit the JSON report")
    common.add_argument("--seed", type=int, default=0, help="PIT seed (default 0)")
    common.add_argument("--trials", type=int, default=100,
                        help="randomized trial budget (default 100)")
    common.add_argument("--bound", type=_int_from_zero(), default=2,
                        help="box bound for the norm -2 search (default 2)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("disc-factor", parents=[common],
                       help="verify disc(R) = c * r^3 * d90")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--symbolic", dest="pit", action="store_false",
                       help="exact symbolic factorization (default)")
    group.add_argument("--pit", dest="pit", action="store_true",
                       help="fast probabilistic identity test")
    p.set_defaults(pit=False, runner=run_disc_factor)

    p = sub.add_parser("d90-check", parents=[common],
                       help="diff the derived d90 against the printed polynomial")
    p.set_defaults(runner=run_d90_check)

    p = sub.add_parser("lattices", parents=[common],
                       help="signatures, discriminant forms, Kneser reports")
    p.add_argument("--lattice", metavar="FILE",
                   help='JSON file {"label": str, "gram": [[int]]} to check')
    p.set_defaults(runner=run_lattices, lattice=None)

    p = sub.add_parser("fibers", parents=[common],
                       help="Kodaira fiber configurations of S(t)")
    p.add_argument("--t", metavar="v4,v6,v10,v12,v18",
                   help="parameter point (five rationals)")
    p.set_defaults(runner=run_fibers, t=None)

    p = sub.add_parser("cd", parents=[common],
                       help="CD-family specialization and factorization")
    p.set_defaults(runner=run_cd)

    p = sub.add_parser("irreducible", parents=[common],
                       help="irreducibility certificate for d90")
    p.set_defaults(runner=run_irreducible)

    p = sub.add_parser("dims", parents=[common],
                       help="modular-form dimension table")
    p.add_argument("--max-weight", type=_int_from_zero(_MAX_WEIGHT_LIMIT), default=60,
                   help=f"top weight of the table, 0 to {_MAX_WEIGHT_LIMIT} (default 60)")
    p.set_defaults(runner=run_dims)

    p = sub.add_parser("all", parents=[common], help="run every suite")
    p.add_argument("--lattice", metavar="FILE", help=argparse.SUPPRESS)
    p.add_argument("--t", help=argparse.SUPPRESS)
    p.add_argument("--max-weight", type=_int_from_zero(_MAX_WEIGHT_LIMIT), default=60,
                   help=argparse.SUPPRESS)
    p.set_defaults(runner=run_all, lattice=None, t=None, pit=False)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = args.runner(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a crash is not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    print(report.to_json() if args.json else report.to_text())
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
