"""xoverlab benchmark: one closed-loop client, one process, fresh interpreters.

Usage, from the repository root:
    python3 perfbench/run.py --workload pairs|docs|om|all --seed N \
        --seconds S --trace 0|1

Each pass of a workload runs in a fresh interpreter (perfbench/worker.py),
so lru_caches and peak RSS start cold as they do for a CLI user.  Passes
repeat until --seconds is spent, and at least until the pooled item
latencies give ten samples beyond the 90th percentile.  Times are wall
clock (perf_counter) scaled to a reference CPU speed by a probe timed
around and during every item (see worker.py); the unscaled times are
printed too.

--trace 0 prints the end-to-end metrics: wall_s (median time of one pass
over the fixed item list), item_p50_ms and item_p90_ms (pooled item
latencies), setup_s (median time to import xoverlab.cli and build its
parser in fresh subprocesses, two before each pass and at least seven) and
peak_rss_mb (median over passes of the worker's ru_maxrss).
--trace 1 alternates plain and traced passes and prints the per-layer
metrics of the traced ones plus trace.overhead_ratio.  Every item's output
is checked exactly; the last stdout line is one JSON object with correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pairs", "docs", "om")
SETUP_REPS_PER_PASS = 2
MIN_SETUP_REPS = 7
PASS_TIMEOUT_S = 150
MIN_TAIL_SAMPLES = 10
HERE = Path(__file__).resolve().parent

SETUP_CODE = """
import io, sys, time
from worker import REFERENCE_PROBE_S, InItemProbe, calibrate
with InItemProbe() as sampler:
    before = calibrate()
    t0 = time.perf_counter()
    sampler.active = True
    import xoverlab.cli as cli
    sys.stdout = io.StringIO()
    try:
        cli.main(["--version"])
    except SystemExit:
        pass
    sampler.active = False
    raw = time.perf_counter() - t0 - sampler.paused_s
    sys.stdout = sys.__stdout__
    probes = [before] + sampler.samples + [calibrate()]
print(raw, raw * REFERENCE_PROBE_S * len(probes) / sum(probes))
"""


class BenchError(RuntimeError):
    """A subprocess failed; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    path = os.pathsep.join([str(root / "src"), str(HERE)])
    env["PYTHONPATH"] = path + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv: list[str], root: Path) -> str:
    try:
        proc = subprocess.run(argv, cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out after {PASS_TIMEOUT_S} s: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"exit {proc.returncode}: {argv}\n{proc.stderr}")
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(root: Path) -> tuple[float, float]:
    """(raw, normalized) seconds to import xoverlab.cli and build its parser."""
    raw, normalized = run_child([sys.executable, "-c", SETUP_CODE], root).split()
    return float(raw), float(normalized)


def run_pass(workload: str, seed: int, root: Path, trace_path: Path | None) -> dict:
    argv = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if trace_path is not None:
        argv.append(str(trace_path))
    return json.loads(run_child(argv, root))


def passes(workload: str, seed: int, seconds: float, root: Path, traced: bool):
    """Plain passes, or plain and traced passes in turn, for the time budget.

    Plain runs also time the CLI set-up before each pass, so that set-up and
    passes sample the same stretch of machine time.
    """
    plain, tracedp, setup = [], [], []
    trace_dir = root / ".perfbench"
    start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - start
        done_min = plain and (not traced or tracedp)
        if not traced and plain:
            pooled = sum(len(p["latencies_s"]) for p in plain)
            done_min = pooled >= 10 * MIN_TAIL_SAMPLES and len(plain) >= 2
        if done_min and elapsed + last > seconds:
            break
        t0 = time.perf_counter()
        if traced and len(tracedp) < len(plain):
            trace_dir.mkdir(exist_ok=True)
            path = trace_dir / f"trace-{workload}-{len(tracedp)}.jsonl"
            result = run_pass(workload, seed, root, path)
            result["trace_path"] = path
            tracedp.append(result)
        else:
            if not traced:
                setup += [measure_setup(root) for _ in range(SETUP_REPS_PER_PASS)]
            plain.append(run_pass(workload, seed, root, None))
        last = time.perf_counter() - t0
    while not traced and len(setup) < MIN_SETUP_REPS:
        setup.append(measure_setup(root))
    return plain, tracedp, setup


def end_to_end(plain: list[dict], setup: list[tuple[float, float]]) -> dict[str, tuple[float, str]]:
    pooled = [t for p in plain for t in p["latencies_s"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in plain), "s"),
        "item_p50_ms": (statistics.median(pooled) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(pooled, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(n for _, n in setup), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
    }


def per_layer(plain: list[dict], traced: list[dict]) -> dict[str, tuple[float, str]]:
    import spans

    rows = []
    for p in traced:
        with open(p["trace_path"]) as fh:
            rows.append(spans.summarize(fh))
    out = {}
    for name in rows[0]:
        value = statistics.median(r[name] for r in rows)
        out[name] = (value, spans.unit_of(name))
    ratio = (statistics.median(p["wall_s"] for p in traced)
             / statistics.median(p["wall_s"] for p in plain))
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 root: Path) -> dict:
    plain, traced, setup = passes(workload, seed, seconds, root, trace)
    runs = plain + traced
    items = sum(len(p["latencies_s"]) for p in runs)
    failures = [f for p in runs for f in p["failures"]]
    digests = {p["digest"] for p in runs}
    for f in failures[:20]:
        print(f"FAIL {workload}: {f}", file=sys.stderr)
    if len(digests) != 1:
        print(f"FAIL {workload}: outputs differ between passes "
              f"(traced and plain digests must match)", file=sys.stderr)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setup)
    pooled = sum(len(p["latencies_s"]) for p in plain)
    print(f"# {workload}: seed {seed}, {len(plain)} plain + {len(traced)} traced "
          f"passes, {pooled} pooled item samples ({math.floor(pooled * 0.1)} beyond "
          f"p90), {len(setup)} set-up samples; closed loop, 1 client, 1 process")
    for name, (value, unit) in metrics.items():
        print(f"{workload}  {name:42s} {value:>16.6f} {unit}")
    if not trace:
        raw = [t for p in plain for t in p["raw_latencies_s"]]
        print(f"# {workload} as measured, before speed normalization: wall_s "
              f"{statistics.median(p['raw_wall_s'] for p in plain):.6f} s, item_p50_ms "
              f"{statistics.median(raw) * 1e3:.6f} ms, item_p90_ms "
              f"{statistics.quantiles(raw, n=10)[8] * 1e3:.6f} ms, setup_s "
              f"{statistics.median(r for r, _ in setup):.6f} s")
    print(f"{workload}  {'failed_ratio':42s} {len(failures) / items:>16.6f} ratio")
    return {
        "correct": not failures and len(digests) == 1,
        "attempted": items,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "xoverlab" / "__init__.py").is_file():
        print("error: run from the repository root; src/xoverlab not found",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {w: run_workload(w, args.seed, args.seconds, bool(args.trace), root)
                   for w in names}
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{name}": m for w, r in results.items()
                        for name, m in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
