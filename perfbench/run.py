"""End-to-end and per-layer benchmark of vcut's three exact drivers.

    python3 perfbench/run.py --workload {unweighted,weighted,gabow} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; vcut is imported from ./src.  One
process, no threads or pools.  The seed draws the workload's graphs, which
are serialized to graph text; every timed call parses its own copy, so no
cache inside vcut sees the same graph object twice.  A call is timed from
the parsed graph to the returned answer.

Untraced runs (--trace 0) cycle over the instances, timing calls until
--seconds have passed, every instance has been called twice and at least
MIN_SAMPLES calls are timed.  Every repeat call must reproduce the first
call's answer and Counters exactly.  Traced runs (--trace 1) call every
instance untraced and then traced, which gives the trace overhead and the
determinism check, and report per-layer metrics from the traced calls.

References are computed after the timed region and every answer is checked
against them; the last stdout line is the JSON result.  See README.md for
the metrics and what each layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
MIN_SAMPLES = 40  # so instance_s.p75 has at least 10 samples beyond it
SETUP_REPEATS = 7
# Calibration: the shared host's speed drifts by tens of percent within a
# minute, far more than a run's own noise.  A fixed benchmark-owned loop is
# timed after every measured call, and each time is reported in reference
# seconds: measured seconds * CAL_REF_S / (median loop time around the
# call, see ReferenceClock.reference).  CAL_REF_S is the loop's time on the
# 2-vCPU Intel Xeon VM (Python 3.11) the benchmark was written on.  Raw
# wall times are printed and recorded next to the calibrated ones.
CAL_REF_S = 0.0065
CAL_WINDOW = 2

# Setup as a user pays it: a fresh interpreter importing vcut and the
# driver's module (which selects the flow backend), then parsing every
# graph text.  Interpreter start-up itself is excluded.
SETUP_SCRIPT = """
import sys, time
texts = sys.stdin.read().split("\\0")
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import importlib, vcut
importlib.import_module(sys.argv[2])
graphs = [vcut.parse_graph(t) for t in texts]
print(time.perf_counter() - t0)
"""


class ReferenceClock:
    """Calibration loop timings taken around a series of measurements: one
    before the first and one after each (`tick`)."""

    def __init__(self):
        rng = random.Random(20250326)
        self.adj = [rng.sample(range(400), 6) for _ in range(400)]
        # The same graph as linked arc arrays, the layout of the flow solver.
        self.head, self.nxt, self.to = [-1] * 400, [], []
        for u, row in enumerate(self.adj):
            for v in row:
                self.to.append(v)
                self.nxt.append(self.head[u])
                self.head[u] = len(self.to) - 1
        self.loops = [self.loop()]

    def loop(self):
        """Seconds taken by breadth-first searches over a fixed random
        graph, once with dicts and lists and once over arc arrays: the two
        kinds of work that dominate vcut's Python code."""
        adj, head, nxt, to = self.adj, self.head, self.nxt, self.to
        t0 = time.perf_counter()
        for root in range(0, 400, 32):
            dist = {root: 0}
            queue = [root]
            for u in queue:
                du = dist[u] + 1
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = du
                        queue.append(v)
            level = [-1] * 400
            level[root] = 0
            queue = [root]
            for u in queue:
                e = head[u]
                while e != -1:
                    v = to[e]
                    if level[v] < 0:
                        level[v] = level[u] + 1
                        queue.append(v)
                    e = nxt[e]
        return time.perf_counter() - t0

    def tick(self):
        self.loops.append(self.loop())

    def reference(self, raw):
        """Reference seconds for the measurements `raw` (one per tick): each
        is scaled by CAL_REF_S over the median of the CAL_WINDOW loop times
        before it and the CAL_WINDOW after it, which tracks drift without
        passing one loop's noise into one measurement."""
        loops = self.loops
        return [
            seconds * CAL_REF_S / statistics.median(loops[max(0, i + 1 - CAL_WINDOW): i + 1 + CAL_WINDOW])
            for i, seconds in enumerate(raw)
        ]


def harrell_davis(values, q):
    """Harrell-Davis estimate of the q-quantile: a weighted mean of all
    order statistics, weights from the Beta((n+1)q, (n+1)(1-q)) law.  With
    a few dozen calls from a mix of sizes it varies less from run to run
    than the one or two order statistics a plain quantile reads."""
    grid = 4000  # trapezoid steps for the Beta CDF
    xs = sorted(values)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    density = [0.0] + [
        math.exp((a - 1) * math.log(k / grid) + (b - 1) * math.log(1 - k / grid) - log_beta)
        for k in range(1, grid)
    ] + [0.0]
    cdf = [0.0]
    for k in range(grid):
        cdf.append(cdf[-1] + (density[k] + density[k + 1]) / (2 * grid))

    def cdf_at(x):
        pos = x * grid
        k = min(int(pos), grid - 1)
        return cdf[k] + (cdf[k + 1] - cdf[k]) * (pos - k)

    weights = [cdf_at((i + 1) / n) - cdf_at(i / n) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / cdf[-1]


END_TO_END = {
    "setup_s": "s",
    "instance_s.p50": "s",
    "instance_s.p75": "s",
    "instances_per_s": "1/s",
    "correct_share": "share",
    "peak_rss_mb": "MB",
}


def load_vcut():
    """Import vcut from this checkout's src, never from anywhere else."""
    if not (SRC / "vcut" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no vcut sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import vcut

    if Path(vcut.__file__).resolve().parent != (SRC / "vcut").resolve():
        raise SystemExit(f"perfbench: imported vcut from {vcut.__file__}, not {SRC}")


class Workload:
    """The driver, instance design and checks of one named workload."""

    def __init__(self, name, seed, scale=None):
        from vcut.gabow import gabow_vc
        from vcut.unweighted import vertex_connectivity_unweighted
        from vcut.weighted import vertex_connectivity_weighted

        import workloads

        self.name = name
        self.module, self.driver = {
            "unweighted": ("vcut.unweighted", vertex_connectivity_unweighted),
            "weighted": ("vcut.weighted", vertex_connectivity_weighted),
            "gabow": ("vcut.gabow", gabow_vc),
        }[name]
        self.instances = workloads.GENERATORS[name](seed, scale or workloads.SCALES[name])

    def call(self, inst, tracer=None, instance_id=-1):
        """Parse, then time one driver call.  Returns (seconds, graph,
        result or exception, Counters dict)."""
        from vcut import parse_graph
        from vcut.instrument import Counters

        g = parse_graph(inst.text)
        stats = Counters()
        args = (g,) if inst.k is None else (g, inst.k)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = self.driver(*args, stats=stats)
            else:
                result = tracer.call(instance_id, self.driver, *args, stats=stats)
        except Exception as exc:  # a failed answer, counted and reported
            result = exc
        return time.perf_counter() - t0, g, result, stats.as_dict()

    def setup_seconds(self):
        """Median over SETUP_REPEATS fresh interpreters, (raw, reference) s."""
        payload = "\0".join(inst.text for inst in self.instances)
        clock = ReferenceClock()
        raw = []
        for _ in range(SETUP_REPEATS):
            done = subprocess.run(
                [sys.executable, "-c", SETUP_SCRIPT, str(SRC), self.module],
                input=payload, capture_output=True, text=True, timeout=120, check=True,
            )
            raw.append(float(done.stdout.split()[-1]))
            clock.tick()
        return statistics.median(raw), statistics.median(clock.reference(raw))


class Ledger:
    """Every call's outcome, with the first answer per instance kept for the
    repeat comparison and the reference check."""

    def __init__(self, workload):
        self.workload = workload
        self.first = {}  # instance index -> ((fingerprint, Counters), graph, result)
        self.calls = []  # (instance index, failure reason or None)

    def record(self, idx, graph, result, counters):
        import workloads

        if isinstance(result, Exception):
            self.calls.append((idx, f"raised {type(result).__name__}: {result}"))
            return
        seen = (workloads.fingerprint(result), counters)
        if idx not in self.first:
            self.first[idx] = (seen, graph, result)
            self.calls.append((idx, None))
        elif seen != self.first[idx][0]:
            self.calls.append((idx, "repeat call differs (answer or Counters)"))
        else:
            self.calls.append((idx, None))

    def failures(self):
        """Compute references (outside every timed region) and return
        (instance label, reason) for every failed call; a repeat of a wrong
        answer is wrong too."""
        import workloads

        instances = self.workload.instances
        workloads.compute_references(instances)
        wrong = {}
        for idx, (_, graph, result) in self.first.items():
            why = workloads.check_answer(instances[idx], graph, result)
            if why is not None:
                wrong[idx] = why
        return [
            (instances[idx].label, reason or wrong[idx])
            for idx, reason in self.calls
            if reason or idx in wrong
        ]


def run_untraced(wl, seconds):
    raw_setup, setup_s = wl.setup_seconds()
    ledger = Ledger(wl)
    clock = ReferenceClock()
    raw = []
    n = len(wl.instances)
    start = time.perf_counter()
    while len(raw) < max(2 * n, MIN_SAMPLES) or time.perf_counter() - start < seconds:
        idx = len(raw) % n
        dt, g, result, counters = wl.call(wl.instances[idx])
        clock.tick()
        raw.append(dt)
        ledger.record(idx, g, result, counters)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failures = ledger.failures()
    times = clock.reference(raw)
    passes = [times[i:i + n] for i in range(0, len(times) - n + 1, n)]
    metrics = {
        "setup_s": setup_s,
        "instance_s.p50": harrell_davis(times, 0.5),
        "instance_s.p75": harrell_davis(times, 0.75),
        "instances_per_s": statistics.median(n / sum(p) for p in passes),
        "correct_share": 1 - len(failures) / len(ledger.calls),
        "peak_rss_mb": peak_rss_mb,
    }
    info = {
        "samples": len(times),
        "passes": len(passes),
        "raw_setup_s": round(raw_setup, 4),
        "raw_instance_s.p50": round(harrell_davis(raw, 0.5), 4),
        "raw_instance_s.p75": round(harrell_davis(raw, 0.75), 4),
    }
    series = {"raw_s": raw, "calibration_s": clock.loops}
    return metrics, END_TO_END, ledger, failures, info, series


def run_traced(wl, seconds):
    import spans

    tracer = spans.Tracer()
    ledger = Ledger(wl)
    calls = []
    n = len(wl.instances)
    start = time.perf_counter()
    while len(calls) < n or time.perf_counter() - start < seconds:
        idx = len(calls) % n
        inst = wl.instances[idx]
        plain_s, g, result, counters = wl.call(inst)
        ledger.record(idx, g, result, counters)
        traced_s, g, result, counters = wl.call(inst, tracer, len(calls))
        ledger.record(idx, g, result, counters)
        calls.append({
            "first_pass": len(calls) < n,
            "untraced_s": plain_s,
            "traced_s": traced_s,
            "counters": counters,
            "final": getattr(result, "value", None),
            "min_degree": g.min_degree() if wl.name == "unweighted" else None,
        })
    failures = ledger.failures()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{wl.name}.spans.tsv")
    metrics = spans.summarize(tracer, calls)
    info = {"traced_calls": len(calls), "spans": len(tracer.spans)}
    series = {"untraced_s": [c["untraced_s"] for c in calls], "traced_s": [c["traced_s"] for c in calls]}
    return metrics, spans.PER_LAYER, ledger, failures, info, series


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("unweighted", "weighted", "gabow"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    load_vcut()
    import vcut.maxflow

    wl = Workload(args.workload, args.seed)
    runner = run_traced if args.trace else run_untraced
    metrics, units, ledger, failures, info, series = runner(wl, args.seconds)
    attempted = len(ledger.calls)
    info.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        instances=len(wl.instances), backend=vcut.maxflow.BACKEND,
        python=platform.python_version(), error_rate=len(failures) / attempted,
    )
    for label, reason in failures:
        print(f"FAILED {label}: {reason}")
    print("perfbench " + " ".join(f"{k}={v}" for k, v in info.items()))
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, info=info, failures=failures, series=series)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
