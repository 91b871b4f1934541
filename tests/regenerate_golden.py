"""Regenerate the pinned outputs under ``tests/golden/``.

Each ``.json`` report there is the ``--json`` output of one command, with its
run-time fields removed, and each ``.txt`` report the text output of one
command, with its run-time lines removed; ``test_golden.py`` compares the live
output with it.  ``fiber_table.json`` holds the fiber results at the fixtures,
at the ``sweep`` benchmark points of seeds 1-5 and at seeded certified points;
``test_fiber_table.py`` recomputes them.

The proof that a change keeps every output bit-exact is one command:

    PYTHONPATH=src python3 -m pytest -q tests/test_golden.py tests/test_fiber_table.py

Run this script only when an output changes on purpose, and name each changed
key in CHANGES.md:

    PYTHONPATH=src python3 tests/regenerate_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

from k3verify.cli import main
from k3verify.families import ParameterPoint, build_s, random_certified_points, sample_points
from k3verify.weierstrass import fiber_configuration, is_k3, minimalize_everywhere

GOLDEN = Path(__file__).resolve().parent / "golden"

# report file -> arguments of ``k3verify`` (``--json`` is added for a ``.json`` file)
CASES = {
    "all.json": ["all"],
    "lattices_bound3.json": ["lattices", "--bound", "3"],
    "lattices_a_msy.json": ["lattices", "--lattice", str(GOLDEN / "a_msy_gram.json"),
                            "--bound", "2"],
    "disc_factor.json": ["disc-factor"],
    "disc_factor_pit.json": ["disc-factor", "--pit"],
    "d90_check.json": ["d90-check"],
    "cd.json": ["cd"],
    "fibers.json": ["fibers"],
    "fibers_t.json": ["fibers", "--t", "1/2,3,-1/3,2,5"],
    "irreducible_seed3.json": ["irreducible", "--seed", "3", "--trials", "20"],
    "dims_120.json": ["dims", "--max-weight", "120"],
    "all.txt": ["all"],
}

# the "suite NAME: N ms" and "runtime: N ms" lines of a text report
_RUN_TIME_LINE = re.compile(r"^  (?:suite \S+|runtime): \d+ ms\n", re.MULTILINE)


def report(name: str) -> str:
    """The report pinned as ``name``, from ``k3verify CASES[name]``, with
    ``--json`` added for a ``.json`` name, without its run times."""
    text = name.endswith(".txt")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(CASES[name] if text else [*CASES[name], "--json"])
    if text:
        return _RUN_TIME_LINE.sub("", out.getvalue())
    obj = json.loads(out.getvalue())
    del obj["runtime_ms"]
    obj.pop("suite_runtime_ms", None)
    return json.dumps(obj, indent=2) + "\n"


FIBER_TABLE = "fiber_table.json"


def fiber_row(source: str, point: ParameterPoint) -> dict:
    """The fiber results at one point, as ``fiber_table.json`` lists them."""
    model = build_s(point)
    minimal = minimalize_everywhere(model)
    config = fiber_configuration(minimal)
    return {
        "source": source,
        "t": [str(x) for x in point.as_tuple()],
        "summary": config.summary(),
        "total_euler": config.total_euler,
        "is_k3": is_k3(model),
        "height": minimal.height,
    }


def fiber_table(sweep) -> str:
    """The text of ``fiber_table.json``.  ``sweep`` lists ``(source, t)`` for
    the benchmark points; the fixtures and the certified points are drawn here,
    so a change to either shows as a drift."""
    named = [(f"fixture {f['name']}", f["point"]) for f in sample_points()]
    named += [(source, ParameterPoint(*t)) for source, t in sweep]
    named += [(f"certified seed 11 #{i}", p)
              for i, p in enumerate(random_certified_points(20, seed=11))]
    named += [(f"certified seed 11 t18=0 #{i}", p)
              for i, p in enumerate(random_certified_points(10, seed=11, t18_zero=True))]
    rows = [json.dumps(fiber_row(source, point)) for source, point in named]
    return '{"points": [\n' + ",\n".join(rows) + "\n]}\n"


def sweep_points():
    """``(source, t)`` for the generic and t18-zero inputs of the ``sweep``
    benchmark workload at seeds 1-5, read from ``benchmarks/workloads.py``."""
    root = GOLDEN.parents[1]
    sys.path.insert(0, str(root / "benchmarks"))
    import workloads

    points = []
    for seed in range(1, 6):
        inputs = workloads.make_inputs("sweep", seed, root)
        for kind in ("generic", "t18_zero"):
            points += [(f"sweep seed {seed} {kind} #{i}", t) for i, t in enumerate(inputs[kind])]
    return points


if __name__ == "__main__":
    for name in CASES:
        (GOLDEN / name).write_text(report(name), encoding="utf-8")
    (GOLDEN / FIBER_TABLE).write_text(fiber_table(sweep_points()), encoding="utf-8")
