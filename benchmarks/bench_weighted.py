"""Count and time the weighted driver's pair loops: the package's loops,
which skip covered lopsided clusters, share one distance table over the
ell guesses and stop the symmetric loop once every pair is evaluated,
against the former loops, which redo that work at every guess.

Cases: the perfbench weighted instances (seed 7, full design) and
`random_digraph(n, 0.3, 64, n)` at n = 24, 32 and 48.  Per case and loop
("settled", the package's; "every_guess", a copy of the former loops kept
in this file) it records one call of `four_call_weighted` (in
`tests/conftest.py`), which runs both loops on the digraph and on its
reverse, where the package's driver skips some `lopsided_vc` calls: the
best wall time over `--rounds` calls, and from one further call with counting
wrappers the calls of `lopsided_pairs`, `symmetric_pairs` and
`weighted_symdiff` and the `flow_calls` and `path_skips` counters.  It
checks that both loops give the same cut (value, L, S, R) and counters.
The rows and the mean and median per call over the perfbench instances go
into `BENCH_weighted.json` in the repository root under `--label`.  Run:

    python3 benchmarks/bench_weighted.py --label change [--rounds 3]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
OUT = os.path.join(ROOT, "BENCH_weighted.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from conftest import four_call_weighted  # noqa: E402
from vcut import cnc, weighted  # noqa: E402
from vcut.graphs import VertexCut, better_cut, min_out_neighborhood_cut  # noqa: E402
from vcut.instrument import Counters  # noqa: E402
from vcut.maxflow import BACKEND, packing_reaches  # noqa: E402
from vcut.oracle import random_digraph  # noqa: E402

PERFBENCH_SEED = 7
SIZES = (24, 32, 48)
COUNTED = ((weighted, "lopsided_pairs"), (weighted, "symmetric_pairs"), (cnc, "weighted_symdiff"))


def every_guess_lopsided(d, cfg=weighted.DEFAULT, stats=None):
    """The former `weighted.lopsided_vc`: every distinct cluster of every
    guess is bucketed again, and each clustering computes its own
    distances."""
    best = min_out_neighborhood_cut(d)
    total = d.weight_of(range(d.n))
    naive = d.m
    evaluated = set()
    parts = {}
    for ell in weighted._powers_up_to(total):
        clusters = weighted.weighted_cnc(d, ell, stats=stats)
        seen_clusters = set()
        for cluster in clusters:
            ckey = frozenset(cluster)
            if ckey in seen_clusters:
                continue
            seen_clusters.add(ckey)
            v_low = weighted.identify_vlow(d, cluster)
            if not v_low:
                continue
            part = parts.get(ckey)
            if part is None:
                part = parts[ckey] = weighted._ClusterParts(d, ckey)
            fam = weighted.lopsided_pairs(
                d, cluster, v_low, ell, weighted._powers_up_to(total), cfg
            )
            for s, t in fam.pairs:
                if s == t or d.has_arc(s, t):
                    continue
                key = (s, t, ckey)
                if key in evaluated:
                    continue
                evaluated.add(key)
                if stats is not None:
                    count = part.arc_count(s, t)
                    stats.add("sparsified_instances")
                    stats.add("sparsified_edges", count)
                    stats.add("naive_edges", naive)
                    stats.add("sparsified_edges_lopsided", count)
                    stats.add("naive_edges_lopsided", naive)
                limit = best.value if isinstance(best, VertexCut) else None
                if packing_reaches(d.out_adj, d.weights, s, part.ends(t), limit, stats):
                    continue
                ids, arcs = weighted.lopsided_arcs(d, s, t, cluster)
                h = weighted._instance(d, ids, arcs)
                cand = weighted._digraph_pair_cut(d, h, ids, s, t, limit, stats)
                best = better_cut(best, cand)
    return best


def every_guess_symmetric(d, cfg=weighted.DEFAULT, stats=None):
    """The former `weighted.symmetric_vc`: a family for every guess, even
    after every pair has been evaluated."""
    best = min_out_neighborhood_cut(d)
    total = d.weight_of(range(d.n))
    evaluated = set()
    for ell in weighted._powers_up_to(total):
        fam = weighted.symmetric_pairs(d, ell, cfg)
        for u, v in fam:
            for s, t in ((u, v), (v, u)):
                if s == t or d.has_arc(s, t) or (s, t) in evaluated:
                    continue
                evaluated.add((s, t))
                limit = best.value if isinstance(best, VertexCut) else None
                if packing_reaches(d.out_adj, d.weights, s, d.in_set(t), limit, stats):
                    continue
                h = weighted.sparsify_symmetric(d, s, t)
                if stats is not None:
                    stats.add("sparsified_instances")
                    stats.add("sparsified_edges", h.m)
                    stats.add("naive_edges", d.m)
                cand = weighted._digraph_pair_cut(d, h, list(range(d.n)), s, t, limit, stats)
                best = better_cut(best, cand)
    return best


LOOPS = {
    "settled": (weighted.lopsided_vc, weighted.symmetric_vc),
    "every_guess": (every_guess_lopsided, every_guess_symmetric),
}


def call(d, branches, calls=None):
    """One four-call driver call with `branches` (lopsided, symmetric); with
    a Counter `calls`, the COUNTED helpers count their calls into it.
    Returns (cut, Counters, seconds)."""
    patches = []
    if calls is not None:
        for module, name in COUNTED:
            real = getattr(module, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)

            patches.append(((module, name), counted))
    originals = [(target, getattr(*target)) for target, _ in patches]
    for (module, name), fn in patches:
        setattr(module, name, fn)
    stats = Counters()
    try:
        t0 = time.perf_counter()
        cut = four_call_weighted(d, stats=stats, branches=branches)
        return cut, stats, time.perf_counter() - t0
    finally:
        for (module, name), fn in originals:
            setattr(module, name, fn)


def measure(d, rounds):
    row = {}
    seen = {}
    for name, branches in LOOPS.items():
        best = min(call(d, branches)[2] for _ in range(rounds))
        calls = Counter()
        cut, stats, _ = call(d, branches, calls)
        seen[name] = ((cut.value, cut.L, cut.S, cut.R), stats.as_dict(), stats.events)
        row[name] = {
            "wall_s": round(best, 5),
            **{fn: calls[fn] for _, fn in COUNTED},
            "flow_calls": stats.get("flow_calls"),
            "path_skips": stats.get("path_skips"),
        }
    row["value"] = seen["settled"][0][0]
    row["same_cut_and_counters"] = seen["settled"] == seen["every_guess"]
    return row


def cases():
    from workloads import SCALES, weighted_instances

    out = [
        (inst.label, inst.graph, True)
        for inst in weighted_instances(PERFBENCH_SEED, SCALES["weighted"])
    ]
    out += [(f"digraph n={n} p=0.3 W=64 seed={n}", random_digraph(n, 0.3, 64, n), False)
            for n in SIZES]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()

    rows = []
    for name, d, perfbench in cases():
        row = {"case": name, "n": d.n, "perfbench": perfbench, **measure(d, args.rounds)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    assert all(row["same_cut_and_counters"] for row in rows), "the settled loops changed a cut"
    bench = [row for row in rows if row["perfbench"]]
    keys = ("wall_s", *(fn for _, fn in COUNTED), "flow_calls", "path_skips")
    per_call = {
        name: {
            key: {
                "mean": round(statistics.mean(row[name][key] for row in bench), 5),
                "median": round(statistics.median(row[name][key] for row in bench), 5),
            }
            for key in keys
        }
        for name in LOOPS
    }
    print(json.dumps({"perfbench_per_call": per_call}), flush=True)
    try:
        with open(OUT) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"description": " ".join(__doc__.split("\n\n")[0].split()), "runs": {}}
    record["runs"][args.label] = {
        "backend": BACKEND,
        "python": platform.python_version(),
        "rounds": args.rounds,
        "perfbench_per_call": per_call,
        "rows": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
