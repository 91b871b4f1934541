"""Regenerate the pinned CLI reports under ``tests/golden/``.

Each ``.json`` report there is the ``--json`` output of one command, with its
run-time fields removed; ``test_golden.py`` compares the live output with it.
Run this only when an output changes on purpose, and name each changed key in
CHANGES.md:

    PYTHONPATH=src python3 tests/regenerate_golden.py
"""
from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

from k3verify.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# report file -> arguments of ``k3verify`` (``--json`` is added)
CASES = {
    "all.json": ["all"],
    "lattices_bound3.json": ["lattices", "--bound", "3"],
    "lattices_a_msy.json": ["lattices", "--lattice", str(GOLDEN / "a_msy_gram.json"),
                            "--bound", "2"],
}


def report(argv) -> str:
    """The JSON report of ``k3verify argv --json`` without its run times."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main([*argv, "--json"])
    obj = json.loads(out.getvalue())
    del obj["runtime_ms"]
    obj.pop("suite_runtime_ms", None)
    return json.dumps(obj, indent=2) + "\n"


if __name__ == "__main__":
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(report(argv), encoding="utf-8")
