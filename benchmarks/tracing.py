"""Spans recorded around k3verify's public functions, from outside the program.

A traced run patches each measured function with a wrapper that records one
span (name, start, end, parent) per call and, for a few functions, exact work
counts.  A name is patched wherever a caller looks it up: in the defining
module, in every k3verify module that imported it by name, on the class for
methods, and inside ``cli._MANIFEST``.  ``installed()`` restores every
original object on exit.  Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import Counter, defaultdict

# (span name, module, attribute); "Class.method" patches a class attribute.
TRACED = (
    ("wpoly.mul", "wpoly", "WeightedPolynomial.__mul__"),
    ("wpoly.exact_div", "wpoly", "WeightedPolynomial.exact_div"),
    ("wpoly.evaluate", "wpoly", "WeightedPolynomial.evaluate"),
    ("wpoly.factor_mod_p", "wpoly", "factor_mod_p"),
    ("eliminate.resultant", "eliminate", "resultant"),
    ("eliminate.discriminant", "eliminate", "discriminant"),
    ("families.build_s", "families", "build_s"),
    ("families.disc_factorization", "families", "disc_factorization"),
    ("families.cd_disc_factorization", "families", "cd_disc_factorization"),
    ("families.pit_disc_factorization", "families", "pit_disc_factorization"),
    ("families.d90_irreducibility_certificate", "families",
     "d90_irreducibility_certificate"),
    ("families.irreducibility_certificate", "families", "irreducibility_certificate"),
    ("weierstrass.minimalize_everywhere", "weierstrass", "minimalize_everywhere"),
    ("weierstrass.fiber_configuration", "weierstrass", "fiber_configuration"),
    ("weierstrass.is_k3", "weierstrass", "is_k3"),
    ("lattice.orthogonal_complement", "lattice", "orthogonal_complement"),
    ("lattice.m_lattice", "lattice", "m_lattice"),
    ("lattice.discriminant_group", "lattice", "discriminant_group"),
    ("lattice.reflection", "lattice", "reflection"),
    ("lattice.kneser_check", "lattice", "kneser_check"),
    ("lattice.norm", "lattice", "GramLattice.norm"),
    ("exactalg.smith_normal_form", "exactalg", "smith_normal_form"),
    ("exactalg.inertia", "exactalg", "inertia"),
    ("exactalg.det_fraction_free", "exactalg", "det_fraction_free"),
    ("exactalg.inverse", "exactalg", "ExactMatrix.inverse"),
)

SUITES = ("d90-check", "disc-factor", "lattices", "fibers", "cd", "irreducible", "dims")


def _count_mul(counters, args, _result):
    a, b = args[0], args[1]
    na = len(a.terms)
    nb = len(b.terms) if hasattr(b, "terms") else (1 if b else 0)
    counters["wpoly.mul.term_products"] += na * nb
    counters["wpoly.mul.max_terms"] = max(counters["wpoly.mul.max_terms"], na, nb)


def _count_pit(counters, _args, result):
    counters["families.pit.trials"] += result[1]


COUNTERS = {"wpoly.mul": _count_mul, "families.pit_disc_factorization": _count_pit}


class Tracer:
    """Spans of one single-threaded run, kept as (name, start, end, parent).

    ``parent`` is the index of the enclosing span in ``spans``, or -1.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = Counter()
        self._stack = []

    def wrap(self, name, fn, count=None):
        spans, stack, clock, counters = self.spans, self._stack, self.clock, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                count(counters, args, result)
            return result

        return wrapper


MODULES = ("wpoly", "exactalg", "eliminate", "lattice", "weierstrass", "families", "cli")


def owners():
    """Every k3verify module and every class defined in one: the places where
    a caller can look up a traced name."""
    modules = [importlib.import_module(f"k3verify.{name}") for name in MODULES]
    classes = {v for m in modules for v in vars(m).values()
               if isinstance(v, type) and v.__module__.startswith("k3verify")}
    return modules + sorted(classes, key=lambda c: c.__qualname__)


@contextlib.contextmanager
def installed(tracer):
    """Patch every function in TRACED and each suite runner of ``cli`` at
    every place that holds it; restore the originals on exit, also when the
    body raises."""
    cli = importlib.import_module("k3verify.cli")
    manifest = cli._MANIFEST
    wrappers = {}  # id(original) -> (original, wrapper)
    for span_name, module_name, attr in TRACED:
        owner = importlib.import_module(f"k3verify.{module_name}")
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = vars(owner)[name]
        wrappers[id(original)] = (original, tracer.wrap(span_name, original, COUNTERS.get(span_name)))
    for suite, runner in manifest:
        wrappers[id(runner)] = (runner, tracer.wrap(f"cli.suite.{suite}", runner))
    undo = [(cli, "_MANIFEST", manifest)]
    try:
        cli._MANIFEST = tuple((suite, wrappers[id(runner)][1]) for suite, runner in manifest)
        for owner in owners():
            for attr, value in list(vars(owner).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    undo.append((owner, attr, value))
                    setattr(owner, attr, entry[1])
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


def self_times(spans):
    """Per span: its duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for _name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(spans, counters):
    """Self time and call count per span name, plus the exact work counts.

    ``cli.suite.<name>_s`` is the suite's whole duration, not its self time:
    the suites are the top-level spans of ``all`` and their totals split
    ``verdict_s``.
    """
    seconds = defaultdict(float)
    calls = Counter()
    totals = defaultdict(float)
    for (name, start, end, _parent), own in zip(spans, self_times(spans)):
        seconds[name] += own
        calls[name] += 1
        totals[name] += end - start
    metrics = {}
    for span_name, _module, _attr in TRACED:
        metrics[f"{span_name}_s"] = seconds[span_name]
        metrics[f"{span_name}.calls"] = calls[span_name]
    for suite in SUITES:
        metrics[f"cli.suite.{suite}_s"] = totals[f"cli.suite.{suite}"]
    metrics["wpoly.mul.term_products"] = counters["wpoly.mul.term_products"]
    metrics["wpoly.mul.max_terms"] = counters["wpoly.mul.max_terms"]
    metrics["lattice.norm.points"] = calls["lattice.norm"]
    trials = counters["families.pit.trials"]
    pit_total = totals["families.pit_disc_factorization"]
    metrics["families.pit.trial_ms"] = 1000 * pit_total / trials if trials else 0.0
    return metrics


def top_level_seconds(spans):
    """Time covered by spans that have no parent."""
    return sum(end - start for _name, start, end, parent in spans if parent < 0)
