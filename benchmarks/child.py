"""One cold-start iteration of a workload in a fresh interpreter.

    python3 benchmarks/child.py --workload sweep --seed 0 [--trace] [--spans FILE]
    python3 benchmarks/child.py --setup-only

Times set-up (importing k3verify and loading its golden data), checks that
the program's caches are still empty, times the workload, applies its
known-answer gate and prints one JSON object.  With ``--trace`` the workload
runs under the span wrappers of ``tracing.py`` and the JSON also carries the
per-layer metrics.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import resource
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    sys.path.insert(0, str(ROOT / "src"))
    k3 = {name: importlib.import_module(f"k3verify.{name}") for name in tracing.MODULES}
    source = Path(k3["cli"].__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"k3verify was imported from {source}, not from {ROOT / 'src'}")
    return k3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="write the trace's spans here, one JSON list a line")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    start = time.perf_counter()
    k3 = _import_program()
    golden = workloads.load_golden(k3, ROOT)
    setup_s = time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    gate = workloads.Gate()
    caches = {n: f for n, f in vars(k3["families"]).items() if hasattr(f, "cache_info")}
    for name, cached in sorted(caches.items()):
        gate.expect(f"cold start: families.{name} cache size", cached.cache_info().currsize, 0)

    inputs = workloads.make_inputs(args.workload, args.seed, ROOT)
    tracer = tracing.Tracer() if args.trace else None
    items = []
    out = None
    with tracing.installed(tracer) if tracer else contextlib.nullcontext():
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            out = workloads.RUN[args.workload](k3, inputs, golden, items)
        except Exception as exc:  # a crash is a failed run, reported by name
            gate.error(f"{args.workload}: workload", exc)
        verdict_s = time.perf_counter() - t0
        cpu_s = time.process_time() - cpu0
    if out is not None:
        try:
            workloads.apply_gate(args.workload, gate, k3, golden, out)
        except Exception as exc:
            gate.error(f"{args.workload}: known-answer gate", exc)

    result = {
        "setup_s": setup_s,
        "verdict_s": verdict_s,
        "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "items_s": items,
        "attempted": gate.attempted,
        "failures": gate.failures,
    }
    if tracer:
        result["layers"] = tracing.layer_metrics(tracer.spans, tracer.counters)
        result["top_level_s"] = tracing.top_level_seconds(tracer.spans)
        result["spans"] = len(tracer.spans)
        if args.spans:
            with open(args.spans, "w") as handle:
                for span in tracer.spans:
                    handle.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
