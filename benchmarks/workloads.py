"""The three workloads, their inputs, and the known answers they must meet.

Inputs come from the benchmark's own ``random.Random(seed)``; the program
receives only the generated values.  Every expected value below is fixed
from the paper, the README or the fixture roles in ``sample_points.json``,
never from a program run.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import re
import time
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("full-verify", "sweep", "lattice")

KNOWN = {
    "c": 6 ** 12,  # 2176782336
    "c_prime": 544195584,
    "disc_terms": 616,
    "d90_terms": 102,
    "d0_terms": 24,
    "generic": "II* + IV* + 6 I1",
    "t18_zero": "II* + III* + 5 I1",
    "k3_euler": 24,
    "fixtures": {
        "generic": ("II* + IV* + 6 I1", True),
        "d90-root": ("II* + IV* + I2 + 4 I1", True),
        "r-root": ("II* + IV* + II + 4 I1", True),
        "t18-zero": ("II* + III* + 5 I1", True),
        "non-k3": (None, False),  # a rational elliptic surface: Euler number 12
    },
    "non_k3_euler": 12,
    "reflection_det": -1,
    "reflection_fixes_discriminant_group": True,
    # rescale(A, 2): every norm is 0 mod 4, so the box search finds no -2 vector
    "rescaled_a_kneser": "fail",
    "rescaled_a_minus_two": "inconclusive",
    "rescaled_a_rank_mod_2": 0,
}

# U + U + A2(-1), the lattice A of the paper.
A_GRAM = (
    (0, 1, 0, 0, 0, 0),
    (1, 0, 0, 0, 0, 0),
    (0, 0, 0, 1, 0, 0),
    (0, 0, 1, 0, 0, 0),
    (0, 0, 0, 0, -2, 1),
    (0, 0, 0, 0, 1, -2),
)

SWEEP_GENERIC_POINTS = 150
SWEEP_T18_ZERO_POINTS = 50
SWEEP_PIT_TRIALS = 500
SWEEP_CERTIFICATE_SEEDS = 8
LATTICE_REFLECTIONS = 250
KNESER_BOUND = 2
COORD_BOUND = 12
T_NAMES = ("t4", "t6", "t10", "t12", "t18")


class Gate:
    """Known-answer checks; every mismatch or exception is a named failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, name, actual, expected):
        self.attempted += 1
        if actual != expected:
            self.failures.append(f"{name}: got {actual!r}, expected {expected!r}")

    def error(self, name, exc):
        self.attempted += 1
        self.failures.append(f"{name}: raised {type(exc).__name__}: {exc}")


# -- golden data and inputs ----------------------------------------------------


def data_dir(root: Path) -> Path:
    return root / "src" / "k3verify" / "data"


def load_golden(k3, root: Path):
    """Set-up work: read and parse the golden files and build the catalog
    lattices, without filling any of the program's caches."""
    wpoly, families, lattice = k3["wpoly"], k3["families"], k3["lattice"]
    data = data_dir(root)
    return {
        "d90": wpoly.parse((data / "d90.poly").read_text(), families.T_TABLE),
        "r": wpoly.parse((data / "r.poly").read_text(), families.T_TABLE),
        "fixtures": families.sample_points(),
        "lattices": {
            "L": lattice.k3_lattice(),
            "A": lattice.a_lattice(),
            "A_S": lattice.a_s_lattice(),
            "A_MSY": lattice.a_msy_lattice(),
            "A_CMS": lattice.a_cms_lattice(),
        },
    }


_TERM_RE = re.compile(r"([+-]?)([^+-]+)")


def parse_terms(text: str):
    """Integer polynomial text like '3*t4^2*t10 - t18' as [(coeff, exps)]."""
    terms = []
    for sign, body in _TERM_RE.findall(text.replace(" ", "").replace("\n", "")):
        coeff = -1 if sign == "-" else 1
        exps = [0] * len(T_NAMES)
        for factor in body.split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, power = factor.partition("^")
                exps[T_NAMES.index(name)] += int(power or 1)
        terms.append((coeff, tuple(exps)))
    return terms


def evaluate_terms(terms, point) -> int:
    total = 0
    for coeff, exps in terms:
        value = coeff
        for x, e in zip(point, exps):
            value *= x ** e
        total += value
    return total


def make_inputs(workload: str, seed: int, root: Path):
    rng = random.Random(seed)
    if workload == "full-verify":
        return {"argv": ["all", "--json", "--seed", str(seed)]}
    if workload == "sweep":
        data = data_dir(root)
        r_terms = parse_terms((data / "r.poly").read_text())
        d90_terms = parse_terms((data / "d90.poly").read_text())

        def draw(count, t18_zero):
            points = []
            while len(points) < count:
                t = [rng.randint(-COORD_BOUND, COORD_BOUND) for _ in range(5)]
                if t18_zero:
                    t[4] = 0
                elif t[4] == 0:
                    continue
                if evaluate_terms(r_terms, t) and evaluate_terms(d90_terms, t):
                    points.append(tuple(t))
            return points

        return {
            "generic": draw(SWEEP_GENERIC_POINTS, False),
            "t18_zero": draw(SWEEP_T18_ZERO_POINTS, True),
            "pit_trials": SWEEP_PIT_TRIALS,
            "pit_seed": rng.randrange(1 << 32),
            "certificate_seeds": [rng.randrange(1 << 32) for _ in range(SWEEP_CERTIFICATE_SEEDS)],
        }
    if workload == "lattice":
        deltas = [norm_minus_two_vector(rng) for _ in range(LATTICE_REFLECTIONS)]
        return {"seed": seed, "bound": KNESER_BOUND, "deltas": deltas}
    raise ValueError(f"unknown workload {workload!r}")


def gram_norm(gram, v) -> int:
    return sum(gram[i][j] * v[i] * v[j] for i in range(len(v)) for j in range(len(v)))


def norm_minus_two_vector(rng):
    """A random v in A with v.v = -2: draw every coordinate but the second,
    fix the first to +-1 and solve the first hyperbolic plane for the second."""
    v = [rng.randint(-3, 3) for _ in range(6)]
    v[0] = rng.choice((-1, 1))
    v[1] = 0
    rest = gram_norm(A_GRAM, v)  # even, since A is even
    v[1] = (-2 - rest) // (2 * v[0])
    return tuple(v)


# -- workload bodies (timed) -----------------------------------------------------


def run_full_verify(k3, inputs, _golden, _items):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = k3["cli"].main(inputs["argv"])
    return {"exit_code": code, "stdout": out.getvalue()}


def run_sweep(k3, inputs, golden, items):
    """Classify every point, then the PIT run and the certificates.

    ``items`` receives the seconds each point took."""
    families, weierstrass = k3["families"], k3["weierstrass"]
    eliminate = k3["eliminate"]
    named = [("generic", f"generic point {i}", p) for i, p in enumerate(inputs["generic"])]
    named += [("t18-zero", f"t18-zero point {i}", p) for i, p in enumerate(inputs["t18_zero"])]
    named += [("fixture", f["name"], f["point"]) for f in golden["fixtures"]]
    clock = time.perf_counter
    points = []
    for kind, name, t in named:
        start = clock()
        point = t if isinstance(t, families.ParameterPoint) else families.ParameterPoint(*t)
        model = families.build_s(point)
        minimal = weierstrass.minimalize_everywhere(model)
        config = weierstrass.fiber_configuration(minimal)
        k3_flag = weierstrass.is_k3(model)
        items.append(clock() - start)
        points.append((kind, name, config.summary(), config.total_euler, minimal.height, k3_flag))
    pit = families.pit_disc_factorization(
        eliminate.PitConfig(trials=inputs["pit_trials"], seed=inputs["pit_seed"])
    )
    certificates = [
        families.d90_irreducibility_certificate(eliminate.PitConfig(trials=64, seed=s))
        for s in inputs["certificate_seeds"]
    ]
    return {"points": points, "pit": pit, "certificates": certificates}


def run_lattice(k3, inputs, golden, _items):
    cli, lattice = k3["cli"], k3["lattice"]
    args = argparse.Namespace(seed=inputs["seed"], bound=inputs["bound"], lattice=None)
    report = cli.run_lattices(args)
    a = golden["lattices"]["A"]
    reflections = [lattice.reflection(a, delta) for delta in inputs["deltas"]]
    kneser = lattice.kneser_check(lattice.rescale(a, 2), search_bound=inputs["bound"])
    return {"report": report, "reflections": reflections, "kneser": kneser}


RUN = {"full-verify": run_full_verify, "sweep": run_sweep, "lattice": run_lattice}


# -- known-answer gates (untimed) -------------------------------------------------


def gate_full_verify(gate, facts, known=KNOWN):
    """``facts``: the exit code and JSON report of ``all``, and term counts
    and the d90 comparison read from the program's cached results."""
    gate.expect("all: exit code", facts["exit_code"], 0)
    report = facts["report"]
    for check in report["checks"]:
        gate.expect(f"all: {check['name']}", check["status"], "pass")
    gate.expect("all: constant c", report["constants"].get("c"), str(known["c"]))
    gate.expect("all: constant c_prime", report["constants"].get("c_prime"),
                str(known["c_prime"]))
    gate.expect("disc_factorization: c", facts["c"], known["c"])
    gate.expect("disc(R): term count", facts["disc_terms"], known["disc_terms"])
    gate.expect("derived d90: term count", facts["d90_terms"], known["d90_terms"])
    gate.expect("derived d90 equals the golden file", facts["d90_equals_golden"], True)
    gate.expect("cd: c_prime", facts["c_prime"], known["c_prime"])
    gate.expect("cd: d0 term count", facts["d0_terms"], known["d0_terms"])


def full_verify_facts(k3, golden, out):
    families = k3["families"]
    fac = families.disc_factorization()
    cd = families.cd_disc_factorization()
    return {
        "exit_code": out["exit_code"],
        "report": json.loads(out["stdout"]),
        "c": fac.c,
        "disc_terms": fac.disc.term_count(),
        "d90_terms": fac.d90_derived.term_count(),
        "d90_equals_golden": fac.d90_derived.terms == golden["d90"].terms,
        "c_prime": cd.c_prime,
        "d0_terms": cd.d0.term_count(),
    }


def gate_sweep(gate, out, known=KNOWN):
    for kind, name, summary, euler, height, k3_flag in out["points"]:
        if kind == "generic":
            expected = (known["generic"], known["k3_euler"], True)
        elif kind == "t18-zero":
            expected = (known["t18_zero"], known["k3_euler"], True)
        elif known["fixtures"][name][0] is None:
            expected = (summary, known["non_k3_euler"], False)
            gate.expect(f"{name}: euler = 12 * height", euler, 12 * height)
        else:
            expected = (known["fixtures"][name][0], known["k3_euler"], True)
        gate.expect(f"{name}: fibers, euler, is_k3", (summary, euler, k3_flag), expected)
    c, _used, ok, witness = out["pit"]
    gate.expect("pit: verdict", (ok, witness), (True, None))
    gate.expect("pit: c", c, Fraction(known["c"]))
    for i, cert in enumerate(out["certificates"]):
        gate.expect(f"irreducibility certificate {i}: certified", cert.certified, True)


def gate_lattice(gate, out, a_gram, known=KNOWN):
    gate.expect("a_lattice Gram matrix", tuple(map(tuple, a_gram)), A_GRAM)
    for check in out["report"].checks:
        gate.expect(f"lattices: {check['name']}", check["status"], "pass")
    for i, iso in enumerate(out["reflections"]):
        gate.expect(
            f"reflection {i}: det, fixes A*/A",
            (iso.det, iso.fixes_discriminant_group),
            (known["reflection_det"], known["reflection_fixes_discriminant_group"]),
        )
    kn = out["kneser"]
    gate.expect("kneser_check(A(2)): verdict", kn.overall, known["rescaled_a_kneser"])
    gate.expect("kneser_check(A(2)): -2 vector", kn.minus_two_vector,
                known["rescaled_a_minus_two"])
    gate.expect("kneser_check(A(2)): rank mod 2", kn.details["rank_mod_2"],
                known["rescaled_a_rank_mod_2"])


def apply_gate(workload, gate, k3, golden, out):
    if workload == "full-verify":
        gate_full_verify(gate, full_verify_facts(k3, golden, out))
    elif workload == "sweep":
        gate_sweep(gate, out)
    else:
        gate_lattice(gate, out, golden["lattices"]["A"].gram.to_int_rows())
