"""Tests of the benchmark itself: span arithmetic, wrapper removal, the
known-answer gate and the exactness of the traced counts.

    python3 -m pytest -q benchmarks
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402
from child import _import_program  # noqa: E402


@pytest.fixture(scope="module")
def k3():
    return _import_program()


@pytest.fixture
def cold(k3):
    """Empty the program's caches before and after a test."""
    def clear():
        for value in vars(k3["families"]).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    clear()
    yield
    clear()


def test_self_time_of_nested_spans():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("a.x", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("root", 11.0, 12.0, -1),
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 4.0, 1.0]
    assert tracing.top_level_seconds(spans) == 11.0


def test_self_time_counts_overlapping_children_once():
    spans = [("p", 0.0, 10.0, -1), ("c", 1.0, 5.0, 0), ("c", 3.0, 7.0, 0), ("c", 8.0, 12.0, 0)]
    assert tracing.self_times(spans)[0] == 10.0 - 6.0 - 2.0


def test_tracer_records_parents_and_self_time():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: (inner(), inner()))
    outer()
    assert tracer.spans == [
        ("outer", 0.0, 5.0, -1),
        ("inner", 1.0, 2.0, 0),
        ("inner", 3.0, 4.0, 0),
    ]
    assert tracing.self_times(tracer.spans) == [3.0, 1.0, 1.0]


def _all_sites():
    """Every attribute of every place a traced name can be looked up in."""
    return {(owner, attr): value for owner in tracing.owners() for attr, value in vars(owner).items()}


def test_wrappers_are_removed_after_a_traced_run(k3, cold):
    before = _all_sites()
    manifest = k3["cli"]._MANIFEST
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer):
            assert k3["cli"]._MANIFEST is not manifest
            assert k3["families"].discriminant is not before[(k3["families"], "discriminant")]
            point = k3["families"].ParameterPoint(1, 1, 1, 1, 2)
            k3["weierstrass"].is_k3(k3["families"].build_s(point))
            raise RuntimeError("leave the traced block early")
    assert tracer.spans, "the traced block recorded nothing"
    after = _all_sites()
    assert after.keys() == before.keys()
    assert all(after[site] is before[site] for site in before)
    assert k3["cli"]._MANIFEST is manifest


def test_gate_reports_a_wrong_constant():
    facts = {
        "exit_code": 0,
        "report": {"checks": [{"name": "x", "status": "pass"}],
                   "constants": {"c": "2176782336", "c_prime": "544195584"}},
        "c": Fraction(2176782336),
        "disc_terms": 616,
        "d90_terms": 102,
        "d90_equals_golden": True,
        "c_prime": Fraction(544195584),
        "d0_terms": 24,
    }
    gate = workloads.Gate()
    workloads.gate_full_verify(gate, facts)
    assert gate.failures == [] and gate.attempted == 10

    wrong = dict(workloads.KNOWN, c=6 ** 12 + 1)
    gate = workloads.Gate()
    workloads.gate_full_verify(gate, facts, known=wrong)
    assert gate.attempted == 10
    assert [f.split(":")[:2] for f in gate.failures] == [
        ["all", " constant c"], ["disc_factorization", " c"]
    ]


def test_gate_counts_an_exception_as_a_failure():
    gate = workloads.Gate()
    gate.error("sweep: workload", ZeroDivisionError("boom"))
    assert gate.attempted == 1
    assert gate.failures == ["sweep: workload: raised ZeroDivisionError: boom"]


def _traced_counts(k3, workload, inputs, golden):
    for value in vars(k3["families"]).values():
        if hasattr(value, "cache_clear"):
            value.cache_clear()
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        out = workloads.RUN[workload](k3, inputs, golden, [])
    gate = workloads.Gate()
    workloads.apply_gate(workload, gate, k3, golden, out)
    assert gate.failures == []
    metrics = tracing.layer_metrics(tracer.spans, tracer.counters)
    return metrics["lattice.norm.points"], metrics["wpoly.mul.term_products"]


def test_traced_counts_repeat_exactly(k3, cold):
    golden = workloads.load_golden(k3, ROOT)
    sweep = workloads.make_inputs("sweep", 5, ROOT)
    sweep.update(generic=sweep["generic"][:3], t18_zero=sweep["t18_zero"][:2],
                 pit_trials=20, certificate_seeds=sweep["certificate_seeds"][:2])
    lattice = workloads.make_inputs("lattice", 5, ROOT)
    lattice.update(bound=1, deltas=lattice["deltas"][:4])

    first = _traced_counts(k3, "sweep", sweep, golden)
    assert first[1] > 0
    assert _traced_counts(k3, "sweep", sweep, golden) == first

    first = _traced_counts(k3, "lattice", lattice, golden)
    assert first[0] == 3 ** 6 - 1 + 4  # the box search, plus one norm per reflection
    assert _traced_counts(k3, "lattice", lattice, golden) == first


def test_inputs_depend_only_on_the_seed():
    assert workloads.make_inputs("sweep", 3, ROOT) == workloads.make_inputs("sweep", 3, ROOT)
    assert workloads.make_inputs("lattice", 3, ROOT) != workloads.make_inputs("lattice", 4, ROOT)
    for delta in workloads.make_inputs("lattice", 3, ROOT)["deltas"]:
        assert workloads.gram_norm(workloads.A_GRAM, delta) == -2


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "benchmarks").mkdir()
    for source in BENCH.glob("*.py"):
        shutil.copy(source, tmp_path / "benchmarks")
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "lattice", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
