"""One pass of one workload in a fresh interpreter.

Usage: python3 perfbench/worker.py WORKLOAD SEED [TRACE_PATH]

Runs the workload's item list once, closed loop (each item starts after the
previous one returned and was checked), and prints one JSON object: item
latencies, the summed wall time, peak RSS, check failures and an output
digest.  With TRACE_PATH the layers are wrapped first and their spans are
written there as JSON lines when the pass ends.

Latencies are reported at a reference CPU speed, because shared machines
such as the 2-vCPU KVM guest of the baseline change speed by up to 1.7x for
seconds to minutes at a time, with no steal time reported.  calibrate() times a fixed
pure-Python probe that uses no library code, before every item, after the
last one, and every InItemProbe.PERIOD_S while an item runs.  An item's
latency excludes the probes taken inside it and is scaled by
REFERENCE_PROBE_S over the mean of the probe times around and inside it.
Library changes cannot move the probe, so a faster library shows in the
normalized times as it does in the raw ones, which are reported too.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

# calibrate() on the reference machine (2-vCPU Xeon at 2.1 GHz, Python
# 3.11.7) in its faster speed state.
REFERENCE_PROBE_S = 1.5e-4
_PROBE_TABLE = {i: (i, i * i) for i in range(256)}


def probe() -> int:
    """Fixed interpreter work: tuple building, dict lookups, set inserts."""
    acc = 0
    seen = set()
    for j in range(600):
        a, b = _PROBE_TABLE[(j * 2654435761) & 255]
        t = (a, b & 7, j)
        seen.add(t)
        acc += len(t) + (b & 3)
    return acc + len(seen)


def calibrate() -> float:
    """Median of three timed probes after one that warms the caches.

    The collector is off meanwhile, so that the probe's allocations cannot
    trigger a collection whose cost depends on the workload's heap.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        probe()
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            probe()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return sorted(times)[1]


class InItemProbe:
    """Times calibrate() on a timer signal while an item runs."""

    PERIOD_S = 0.05

    def __init__(self):
        self.samples: list[float] = []
        self.paused_s = 0.0
        self.active = False

    def _on_alarm(self, signum, frame):
        if self.active:
            t0 = time.perf_counter()
            self.samples.append(calibrate())
            self.paused_s += time.perf_counter() - t0

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def normalize(latencies: list[float], cals: list[float],
              inside: list[list[float]]) -> list[float]:
    """Latencies at the reference speed; cals[i] and cals[i + 1] bracket
    item i, inside[i] are the probe times taken while it ran."""
    out = []
    for i, t in enumerate(latencies):
        probes = [cals[i], *inside[i], cals[i + 1]]
        out.append(t * REFERENCE_PROBE_S * len(probes) / sum(probes))
    return out


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    trace_path = argv[2] if len(argv) > 2 else None
    root = Path.cwd()

    import workloads

    items = workloads.items_for(workload, seed, root)
    rec = None
    if trace_path:
        import spans

        rec = spans.Recorder()
        spans.install(rec)

    latencies = []
    cals = []  # probe time before each item, then one after the last
    inside = []  # probe times taken while each item ran
    failures = []
    digest = hashlib.sha256()
    with InItemProbe() as sampler:
        for i, item in enumerate(items):
            cals.append(calibrate())
            if rec is not None:
                rec.start_item(i)
            n0, paused = len(sampler.samples), sampler.paused_s
            t0 = time.perf_counter()
            sampler.active = True
            try:
                out = item.run()
                error = None
            except Exception as exc:  # a raising item counts as failed
                out, error = None, exc
            sampler.active = False
            latencies.append(time.perf_counter() - t0 - (sampler.paused_s - paused))
            inside.append(sampler.samples[n0:])
            if rec is not None:
                rec.end_item()
            if error is not None:
                failures.append(f"{item.label}: raised {type(error).__name__}: {error}")
                continue
            bad = item.check(out)
            if bad:
                failures.append(f"{item.label}: {'; '.join(bad)}")
            digest.update(item.digest(out).encode())
            del out
    cals.append(calibrate())
    normalized = normalize(latencies, cals, inside)
    if rec is not None:
        rec.write(trace_path)

    print(json.dumps({
        "latencies_s": normalized,
        "wall_s": sum(normalized),
        "raw_latencies_s": latencies,
        "raw_wall_s": sum(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failures": failures,
        "digest": digest.hexdigest(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
