"""The k3verify benchmark.

    python3 benchmarks/run.py --workload full-verify --seed 0 --seconds 20 --trace 0
    python3 benchmarks/run.py                    # every workload, seed 0

Each iteration is a fresh interpreter (``child.py``) with cold caches.  With
``--trace 0`` the run repeats whole iterations until ``--seconds`` is spent
(at least one) and reports the median of each end-to-end metric; set-up is
also timed in separate set-up-only interpreters.  With ``--trace 1`` it runs
one untraced and one traced iteration, serially, and reports the per-layer
metrics.  Metric names and units come from ``BENCHMARK.json``.  The last line
of standard output is one JSON object; a copy with the run's metadata is
written under ``benchmarks/results/``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_PROBES = 4  # set-up-only interpreters before and again after the iterations
RUN_LIMIT_S = 170  # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def spawn(args, deadline, serial=False):
    """Run child.py in a fresh interpreter and return its JSON result; kill
    it if it is still running at ``deadline`` (a ``time.monotonic()``)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("K3VERIFY_THREADS", None)
    if serial:  # traced spans must not interleave across the pool's threads
        env["K3VERIFY_THREADS"] = "1"
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), *args],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child {args} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def item_metrics(items_s):
    """Points classified per second and the 95th-percentile point latency."""
    if not items_s:
        return {"items_per_s": 0.0, "item_p95_ms": 0.0}
    return {
        "items_per_s": len(items_s) / sum(items_s),
        "item_p95_ms": 1000 * statistics.quantiles(items_s, n=20)[-1],
    }


def measure(workload, seed, seconds, deadline):
    """End-to-end metrics: medians over cold-start iterations."""
    def probe_setup():
        return [spawn(["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    spawn(["--setup-only"], deadline)  # untimed: leaves compiled bytecode behind
    start = time.perf_counter()
    setups = probe_setup()
    runs = []
    while True:
        began = time.perf_counter()
        runs.append(spawn(["--workload", workload, "--seed", str(seed)], deadline))
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    # probes on both sides, so set-up is sampled across the whole run
    setups += probe_setup() + [r["setup_s"] for r in runs]
    metrics = {
        "verdict_s": statistics.median(r["verdict_s"] for r in runs),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(r["cpu_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    samples = {
        "setup_s": setups,
        **{k: [r[k] for r in runs] for k in ("verdict_s", "cpu_s", "peak_rss_mb")},
    }
    extra = item_metrics([x for r in runs for x in r["items_s"]])
    return metrics, runs, samples, extra


def trace(workload, seed, spans_path, deadline):
    """Per-layer metrics from one traced iteration, plus the tracing overhead
    against one untraced iteration of the same serial code path."""
    spawn(["--setup-only"], deadline)
    args = ["--workload", workload, "--seed", str(seed)]
    reference = spawn(args, deadline, serial=True)
    traced = spawn(args + ["--trace", "--spans", str(spans_path)], deadline, serial=True)
    metrics = dict(traced["layers"])
    metrics["trace.verdict_s"] = traced["verdict_s"]
    metrics["trace.overhead_s"] = traced["verdict_s"] - reference["verdict_s"]
    metrics["trace.coverage"] = traced["top_level_s"] / traced["verdict_s"]
    metrics.update(item_metrics(reference["items_s"]))
    samples = {"reference_verdict_s": reference["verdict_s"], "spans": traced["spans"]}
    return metrics, [reference, traced], samples, {}


def git_revision():
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


def run_workload(spec, workload, seed, seconds, traced):
    wanted = spec["per_layer"] if traced else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    load_start = os.getloadavg()
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload}-seed{seed}-trace{int(traced)}"
    if traced:
        spans = stem.with_suffix(".spans.jsonl")
        measured, runs, samples, extra = trace(workload, seed, spans, deadline)
    else:
        measured, runs, samples, extra = measure(workload, seed, seconds, deadline)
    attempted = sum(r["attempted"] for r in runs)
    failures = [f for r in runs for f in r["failures"]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    metadata = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "repeats": len(runs),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "git_revision": git_revision(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
    }
    record = {"metadata": metadata, "result": result, "samples": samples,
              "all_metrics": {**measured, **extra}, "failures": failures}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    for failure in failures:
        print(f"{workload}  FAILED  {failure}")
    ratio = len(failures) / attempted if attempted else 1.0
    print(f"{workload}  fail_ratio  {ratio:g}  ({len(failures)} of {attempted} known-answer checks)")
    for name, entry in result["metrics"].items():
        print(f"{workload}  {name}  {entry['value']:.6g} {entry['unit']}")
    for name, value in extra.items():
        print(f"{workload}  {name}  {value:.6g}  (not in BENCHMARK.json)")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "k3verify" / "__init__.py").is_file():
        print(f"error: no k3verify sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload != "all" and args.workload not in names:
        parser.error(f"--workload must be one of {names} or all")
    chosen = names if args.workload == "all" else [args.workload]
    try:
        results = {w: run_workload(spec, w, args.seed, args.seconds, bool(args.trace))
                   for w in chosen}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[chosen[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": results,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
