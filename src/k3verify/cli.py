"""Batch verification harness with machine-readable reports.

Every subcommand produces a CheckReport; ``--json`` prints the stable JSON
schema {"suite", "checks", "seed", "runtime_ms", "constants"}, to which
``all`` adds "suite_runtime_ms", each suite's milliseconds in manifest order.
A subcommand takes ``--json`` and only the flags its suite reads: ``--seed``
and ``--trials`` on disc-factor, irreducible and all, ``--bound`` on lattices
and all, ``--pit``, ``--lattice``, ``--t`` and ``--max-weight`` on one
subcommand each; a report of a suite without ``--seed`` carries seed 0.
Exit code 0 means no check failed, 1 means at least one failure, 2 means a
usage error (a flag the subcommand does not take, a bad value, or a ``--t``
or ``--lattice`` that ``main`` refuses while it reads them, before any suite
runs), 3 means an internal error (any exception escaped a suite, a
``ValueError`` included; that suite verified or refuted nothing).  A reader
that closes the pipe early does not change the exit code.
``all`` runs the suites one after another in manifest order, each under its
own guard: a suite that raises becomes one check named after it, with status
``error`` and the exception's type and message, and the rest still run and
report.  Its ``disc-factor`` is the symbolic one, which checks the constant c
exactly.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import time
from fractions import Fraction

from . import families, lattice, weierstrass
from .eliminate import PitConfig
from .wpoly import WeightedPolynomial


class CheckReport:
    """The checks of one suite, its constants and its run time."""

    __slots__ = ("suite", "checks", "seed", "runtime_ms", "constants", "suite_runtime_ms")

    def __init__(self, suite: str, seed: int = 0):
        self.suite = suite
        self.checks = []
        self.seed = seed
        self.runtime_ms = 0
        self.constants = {}
        self.suite_runtime_ms = {}  # set by ``all`` only

    def add(self, name, status, details="", witness=None):
        entry = {"name": name, "status": status, "details": str(details)}
        if witness is not None:
            entry["witness"] = str(witness)
        self.checks.append(entry)

    def check(self, name, ok, details="", witness=None):
        self.add(name, "pass" if ok else "fail", details, witness)

    @property
    def exit_code(self) -> int:
        """3 if a suite of ``all`` raised, else 1 if a check failed, else 0."""
        statuses = {c["status"] for c in self.checks}
        return 3 if "error" in statuses else 1 if "fail" in statuses else 0

    def merge(self, other: "CheckReport"):
        for c in other.checks:
            merged = dict(c)
            merged["name"] = f"{other.suite}.{c['name']}"
            self.checks.append(merged)
        self.constants.update(other.constants)

    def to_json(self) -> str:
        report = {
            "suite": self.suite,
            "checks": self.checks,
            "seed": self.seed,
            "runtime_ms": self.runtime_ms,
            "constants": {k: str(v) for k, v in self.constants.items()},
        }
        if self.suite_runtime_ms:
            report["suite_runtime_ms"] = self.suite_runtime_ms
        return json.dumps(report, indent=2)

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
        for name, ms in self.suite_runtime_ms.items():
            lines.append(f"  suite {name}: {ms} ms")
        lines.append(f"  runtime: {self.runtime_ms} ms")
        return "\n".join(lines)


# The constants of the two factorizations as README states them.
_README_C = 2176782336  # 6^12
_README_C_PRIME = 544195584


# disc(R) - c * r^3 * d90 is a form of weight 180 in t4, ..., t18, whose least
# weight is 4, so its total degree is at most 45.  By Schwartz-Zippel a trial
# with coordinates drawn from the 2B + 1 integers in [-B, B] misses a nonzero
# difference with probability at most 45 / (2B + 1).
_PIT_DEGREE = 45


def _pit_error_bound(cfg: PitConfig, used: int) -> str:
    """The error bounds of a passing ``disc-factor --pit`` run: per trial, and
    for the ``used - 1`` independent trials after the first one fitted c."""
    width = 2 * cfg.sample_bound + 1
    per_trial = f"{_PIT_DEGREE}/{width}"
    trials = max(used - 1, 0)
    exponent = math.ceil(trials * math.log10(_PIT_DEGREE / width))
    return (f"per-trial error bound {per_trial} (degree {_PIT_DEGREE}, "
            f"B = {cfg.sample_bound}); after c is fitted, {trials} trials "
            f"bound the error by ({per_trial})^{trials} <= 1e{exponent}")


def run_disc_factor(args) -> CheckReport:
    report = CheckReport(suite="disc-factor", seed=args.seed)
    if args.pit:
        cfg = PitConfig(trials=args.trials, seed=args.seed)
        c, used, ok, witness = families.pit_disc_factorization(cfg)
        report.check(
            "disc(R) = c * r^3 * d90 (probabilistic)",
            ok,
            f"{used} trials, all residuals zero; {_pit_error_bound(cfg, used)}"
            if ok else "nonzero residual",
            witness,
        )
        report.check(f"c = {_README_C}", c == _README_C, f"c = {c}")
        if c is not None:
            report.constants["c"] = c
    else:
        fac = families.disc_factorization()
        (n, d, ab, hg), r, d90 = fac.factors, families.r_poly(), families.printed_d90()
        report.check(
            "disc(R) = c * r^3 * d90 (symbolic)",
            ab == -r and n * hg == 27 * fac.c * d * d90,
            "res(a, b) = -r and N * H = 27 * c * D * d90 for H = res(h, g)/B^2; terms of "
            f"res(a, b), N, H, D, d90: {[p.term_count() for p in (ab, n, hg, d, d90)]}",
        )
        report.check(f"c = {_README_C}", fac.c == _README_C, f"c = {fac.c}")
        wr, wd = r.weighted_degree(), d90.weighted_degree()
        report.check(
            "disc(R) weighted-homogeneous of weight 180",
            r.is_weighted_homogeneous() and d90.is_weighted_homogeneous() and 3 * wr + wd == 180,
            f"r and d90 homogeneous of weights {wr} and {wd}: 3 * {wr} + {wd} = {3 * wr + wd}",
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
    a = lattice.a_lattice()
    big_l = lattice.k3_lattice()
    m = lattice.m_lattice()
    sig_a, sig_l, sig_m = (lattice.signature(x) for x in (a, big_l, m))
    det_m = m.det()
    report.check("signature(A) = (2,4)", sig_a == (2, 4), sig_a)
    report.check("signature(L) = (3,19)", sig_l == (3, 19), sig_l)
    report.check("signature(M) = (1,15)", sig_m == (1, 15), sig_m)
    report.check("|det M| = 3", abs(det_m) == 3, f"det M = {det_m}")
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
    user = args.lattice
    if user is not None:
        kn = lattice.kneser_check(user, search_bound=args.bound)
        report.add(
            f"kneser_check({user.label or 'user lattice'})",
            kn.overall,
            f"signature {lattice.signature(user)}, det {user.det()}, "
            f"details {kn.details}",
        )
    return report


# A coordinate of --t is refused when its numerator or denominator would have
# more than this many decimal digits.  The check reads the text, in a form
# wider than the one Fraction accepts, so 1e200000 is never expanded.
_MAX_T_DIGITS = 100
_T_NUMBER = re.compile(r"\s*[-+]?([\d_]*)"  # whole, then /denom or .decimal and exponent
                       r"(?:\s*/\s*([\d_]*)|(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]*))?)\s*")


def _too_long(part: str) -> bool:
    match = _T_NUMBER.fullmatch(part)
    if match is None:
        return False  # Fraction rejects it
    whole, denom, decimal, exp = (g.replace("_", "") if g else "" for g in match.groups())
    if len(exp.lstrip("+-").lstrip("0")) > 4:
        return True
    shift = (int(exp) if exp.lstrip("+-") else 0) - len(decimal)
    # the value is int(whole + decimal) * 10^shift
    return (len((whole + decimal).lstrip("0")) + max(shift, 0) > _MAX_T_DIGITS
            or max(len(denom.lstrip("0")), 1 - min(shift, 0)) > _MAX_T_DIGITS)


def _parse_t(text: str) -> families.ParameterPoint:
    texts = text.split(",")
    for k, part in enumerate(texts, 1):
        if _too_long(part):
            raise ValueError(f"--t coordinate {k} has a numerator or denominator "
                             f"of more than {_MAX_T_DIGITS} digits")
    parts = []
    for part in texts:
        try:
            parts.append(Fraction(part))
        except (ValueError, ZeroDivisionError):
            break
    if len(texts) != 5 or len(parts) != 5:
        # name the fields, not the text, which may be of any length
        bad = f"; coordinate {len(parts) + 1} is not a rational" if len(parts) < len(texts) else ""
        raise ValueError(f"--t needs five comma-separated rationals, got {len(texts)} fields{bad}")
    return families.ParameterPoint(*parts)


def run_fibers(args) -> CheckReport:
    report = CheckReport(suite="fibers", seed=args.seed)
    point = args.t
    if point is not None:
        model = families.build_s(point)
        minimal = weierstrass.minimalize_everywhere(model)
        config = weierstrass.fiber_configuration(minimal)
        cert = families.genericity_certificate(point)
        report.add(
            "fiber configuration",
            "info",
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
    n, d, ab, hg = fac.factors
    gamma = WeightedPolynomial.variable(families.CD_TABLE, "gamma")
    report.check(
        "disc(R0) = c' * gamma^3 * r0^3 * d0",
        ab == fac.r0 and n * hg == fac.c_prime * d * gamma ** 3 * fac.d0,
        "res(a, b) = r0 and N * H = c' * D * gamma^3 * d0 for H = res(h, g)/B^2; terms of "
        f"res(a, b), N, H, D, d0: {[p.term_count() for p in (ab, n, hg, d, fac.d0)]}",
    )
    report.check(f"c' = {_README_C_PRIME}", fac.c_prime == _README_C_PRIME,
                 f"c' = {fac.c_prime}")
    report.check(
        "weighted degrees (gamma^3, r0^3, d0) = (30, 60, 60)",
        fac.r0.is_weighted_homogeneous() and fac.d0.is_weighted_homogeneous()
        and fac.r0.weighted_degree() * 3 == 60 and fac.d0.weighted_degree() == 60,
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
    for name, runner in _MANIFEST:
        start = time.monotonic()
        try:
            report.merge(runner(args))
        except Exception as exc:  # one crashed suite hides none of the others
            report.add(name, "error", f"{type(exc).__name__}: {exc}")
        report.suite_runtime_ms[name] = int((time.monotonic() - start) * 1000)
    return report


# The brute-force cross-check of ``dims`` grows as about k^4: weight 400
# takes about a second, weight 800 about half a minute.
_MAX_WEIGHT_LIMIT = 400
_DEFAULT_MAX_WEIGHT = 60  # the table of ``dims`` and of ``all``


# A PIT trial of disc-factor --pit takes about 0.05 ms with Python 3.11 on a
# shared 2-vCPU Xeon (10,000 trials in 0.50 s), and trials run in chunks of 64,
# so the largest budget runs for about 5 s in flat memory.
_MAX_TRIALS = 100_000


def _int_in_range(low, high=None):
    """An argparse type for the integers from ``low`` to ``high`` (None: no
    upper limit)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low or (high is not None and value > high):
            wanted = (f"an integer from {low} to {high}" if high is not None
                      else f"an integer of at least {low}")
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return parse


def _build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is spelled in full, never read as the flag
    # it is a prefix of
    parser = argparse.ArgumentParser(
        prog="k3verify",
        allow_abbrev=False,
        description="Exact verification suite for the K3 family S(t): "
        "discriminant factorization, fiber configurations, lattice invariants.",
    )
    # what a suite reads where its subcommand has no flag to set it
    parser.set_defaults(seed=0, pit=False, t=None, lattice=None, max_weight=_DEFAULT_MAX_WEIGHT)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, runner, text in (
        ("disc-factor", run_disc_factor, "verify disc(R) = c * r^3 * d90"),
        ("d90-check", run_d90_check, "diff the derived d90 against the printed polynomial"),
        ("lattices", run_lattices, "signatures, discriminant forms, Kneser reports"),
        ("fibers", run_fibers, "Kodaira fiber configurations of S(t)"),
        ("cd", run_cd, "CD-family specialization and factorization"),
        ("irreducible", run_irreducible, "irreducibility certificate for d90"),
        ("dims", run_dims, "modular-form dimension table"),
        ("all", run_all, "run every suite"),
    ):
        p = commands[name] = sub.add_parser(name, help=text, allow_abbrev=False)
        p.add_argument("--json", action="store_true", help="emit the JSON report")
        p.set_defaults(runner=runner)
    for name in ("disc-factor", "irreducible", "all"):
        p = commands[name]
        p.add_argument("--seed", type=int, default=0, help="seed of the random trials (default 0)")
        p.add_argument("--trials", type=_int_in_range(1, _MAX_TRIALS), default=100,
                       help=f"randomized trial budget, 1 to {_MAX_TRIALS} (default 100)")
    for name in ("lattices", "all"):
        commands[name].add_argument("--bound", type=_int_in_range(0), default=2,
                                    help="box bound for the norm -2 search (default 2)")
    commands["disc-factor"].add_argument(
        "--pit", action="store_true",
        help="fast probabilistic identity test in place of the exact symbolic factorization")
    commands["lattices"].add_argument(
        "--lattice", metavar="FILE",
        help='JSON file {"label": str, "gram": [[int]]} to check, '
        f"rank at most {lattice._MAX_JSON_RANK}")
    commands["fibers"].add_argument(
        "--t", metavar="v4,v6,v10,v12,v18",
        help="parameter point (five rationals); write --t=-1/2,3,1,1,1 "
        "when the first one is negative")
    commands["dims"].add_argument(
        "--max-weight", type=_int_in_range(0, _MAX_WEIGHT_LIMIT), default=_DEFAULT_MAX_WEIGHT,
        help=f"top weight of the table, 0 to {_MAX_WEIGHT_LIMIT} (default %(default)s)")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    start = time.monotonic()
    try:
        try:  # the one input step: only what it refuses is a usage error
            if args.t is not None:
                args.t = _parse_t(args.t)
            if args.lattice is not None:
                with open(args.lattice) as handle:
                    args.lattice = lattice.lattice_from_json(handle.read())
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        report = args.runner(args)
    except Exception as exc:
        # a crash is not a failed check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    report.runtime_ms = int((time.monotonic() - start) * 1000)
    try:
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except BrokenPipeError:
        # the reader left early, which changes no verdict; what is still
        # buffered goes to devnull, so the interpreter's last flush is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
