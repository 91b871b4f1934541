"""Regenerate the pinned CLI reports under ``tests/golden/``.

Each ``.json`` report there is the ``--json`` output of one command, with its
run-time fields removed, and each ``.txt`` report the text output of one
command, with its run-time lines removed; ``test_golden.py`` compares the live
output with it.
Run this only when an output changes on purpose, and name each changed key in
CHANGES.md:

    PYTHONPATH=src python3 tests/regenerate_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

from k3verify.cli import main

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


if __name__ == "__main__":
    for name in CASES:
        (GOLDEN / name).write_text(report(name), encoding="utf-8")
