"""Self-test of the benchmark harness on tiny instances.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json lists exactly the harness's metrics, that a
tiny untraced and traced run of every workload finishes and emits exactly
those metric names with no failed answer, that a deliberately corrupted
reference value is counted as a failure, and that span self times are
never negative and the tracer leaves vcut unpatched.
Exits 1 with a message on the first failed check.
"""

from __future__ import annotations

import json
import sys
import time

import run
import spans

TINY = {
    "unweighted": {"n": (12,), "reps": 1, "planted": 1},
    "weighted": {"n": (10,), "reps": 1, "planted": 1},
    "gabow": {"n": (24,), "reps": 1},
}


def check(ok, message):
    if not ok:
        raise SystemExit(f"selftest FAILED: {message}")


def benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for key, names in (("end_to_end", run.END_TO_END), ("per_layer", spans.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        check(listed == names, f"BENCHMARK.json {key} differs from the harness")
    check([w["name"] for w in spec["workloads"]] == list(TINY), "BENCHMARK.json workloads")
    print("ok  BENCHMARK.json matches the harness")


def quantiles():
    check(abs(run.harrell_davis([2.5] * 50, 0.75) - 2.5) < 1e-9, "quantile of a constant")
    check(abs(run.harrell_davis(list(range(1, 42)), 0.5) - 21) < 1e-9, "median of 1..41")
    low, high = run.harrell_davis(list(range(100)), 0.5), run.harrell_davis(list(range(100)), 0.75)
    check(45 < low < high < 80, f"quantiles of 0..99: {low}, {high}")
    print("ok  Harrell-Davis quantiles")


def tiny_runs():
    for name, scale in TINY.items():
        for runner, names in ((run.run_untraced, run.END_TO_END), (run.run_traced, spans.PER_LAYER)):
            t0 = time.perf_counter()
            metrics, units, ledger, failures, _, _ = runner(run.Workload(name, 1, scale), 0)
            elapsed = time.perf_counter() - t0
            check(set(metrics) == set(names) == set(units), f"{name}: metric names {sorted(metrics)}")
            check(not failures, f"{name}: unexpected failures {failures}")
            check(all(isinstance(v, (int, float)) for v in metrics.values()), f"{name}: non-numeric metric")
            check(elapsed < 60, f"{name}: tiny {runner.__name__} took {elapsed:.1f}s")
            print(f"ok  tiny {runner.__name__} {name}: {len(ledger.calls)} calls, {elapsed:.1f}s")


def corrupted_reference():
    import workloads

    original = workloads.compute_references

    def corrupted(instances):
        original(instances)
        instances[0].reference += 1

    wl = run.Workload("unweighted", 1, TINY["unweighted"])
    workloads.compute_references = corrupted
    try:
        metrics, _, ledger, failures, _, _ = run.run_untraced(wl, 0)
    finally:
        workloads.compute_references = original
    first = wl.instances[0].label
    visits = sum(1 for idx, _ in ledger.calls if idx == 0)
    check(len(failures) == visits > 0, f"corrupted reference gave failures {failures}")
    check(all(label == first for label, _ in failures), "failures outside the corrupted instance")
    check(metrics["correct_share"] < 1, "correct_share ignores the corrupted reference")
    print(f"ok  corrupted reference: {len(failures)} of {len(ledger.calls)} calls counted as failed")


def span_self_times():
    import vcut.maxflow

    wl = run.Workload("unweighted", 2, TINY["unweighted"])
    tracer = spans.Tracer()
    before = {(m.__name__, attr): getattr(m, attr) for m, attr, _, _ in tracer._patches}
    for i, inst in enumerate(wl.instances):
        wl.call(inst, tracer, i)
    after = {(m.__name__, attr): getattr(m, attr) for m, attr, _, _ in tracer._patches}
    check(before == after, "tracer left wrappers installed")
    check(getattr(vcut.maxflow.min_st_cut, "__wrapped__", None) is None, "min_st_cut still wrapped")
    own = spans.self_times(tracer.spans)
    names = {s[0]: tracer.names[s[2]] for s in tracer.spans}
    nested = sum(1 for s in tracer.spans if names.get(s[1], spans.ROOT) != spans.ROOT)
    check(nested > 0, "no nested spans recorded")
    check(min(own.values()) >= 0, f"negative self time {min(own.values())} ns")
    roots = [s for s in tracer.spans if s[1] < 0]
    check(len(roots) == len(wl.instances), "one root span per call expected")
    print(f"ok  self times: {len(own)} spans, {nested} nested below a layer span, none negative")


def main():
    run.load_vcut()
    benchmark_json()
    quantiles()
    tiny_runs()
    corrupted_reference()
    span_self_times()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
