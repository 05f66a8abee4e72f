"""Time Even's sweep with and without its connectivity certificate.

The new sweep is `maxflow.even_sweep`, which returns as soon as
`maxflow.connectivity_at_least` proves kappa >= the sweep's limit from
packings over the Esfahanian-Hakimi pair set; the former sweep is
`former_even_sweep` in `tests/conftest.py`, which probes every pair from
sources below the limit.

Cases: the perfbench gabow design at seeds 7, 8 and 11 (28 decisions
each, every one taking the sweep fallback, run as one pass of `gabow_vc`
with the former sweep patched in for the "former" path), and G(n, 8/n),
seed 3, at n = 96, 192, 384 and 768, swept from the min-degree cut.  Per
case and path it records the best wall time over `--rounds` calls (the
two paths take turns, each call on a fresh copy of the graph, so no pair
ledger carries over), the `flow_calls` and `path_skips` of one call, and
whether both paths gave the same answers (`same_cut`).  The rows go into
`BENCH_sweep.json` in the repository root under `--label`.  Run:

    python3 benchmarks/bench_sweep.py --label change [--rounds 3]
"""

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
OUT = os.path.join(ROOT, "BENCH_sweep.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from conftest import former_even_sweep, perfbench_graphs  # noqa: E402
from vcut import gabow, maxflow  # noqa: E402
from vcut.gabow import gabow_vc  # noqa: E402
from vcut.graphs import Graph, min_degree_cut  # noqa: E402
from vcut.instrument import Counters  # noqa: E402
from vcut.oracle import random_graph  # noqa: E402

GABOW_SEEDS = (7, 8, 11)
SIZES = (96, 192, 384, 768)
SEED = 3
SWEEPS = {"new": maxflow.even_sweep, "former": former_even_sweep}


def gabow_pass(graphs, sweep, stats):
    """One pass of the gabow design's decisions (k = delta -/+ 1) with
    `sweep` as the fallback; the answers, as their reprs."""
    gabow.even_sweep = sweep
    try:
        return [
            repr(gabow_vc(Graph(g.n, g.adj), k, stats=stats))
            for g in graphs
            for k in (g.min_degree() - 1, g.min_degree() + 1)
        ]
    finally:
        gabow.even_sweep = maxflow.even_sweep


def sweep_call(g, sweep, stats):
    got = sweep(Graph(g.n, g.adj), min_degree_cut(g), stats=stats)
    return [got.value, got.L, got.S, got.R]


def cases():
    for seed in GABOW_SEEDS:
        graphs = list({id(g): g for g in perfbench_graphs("gabow", seed)}.values())
        yield f"perfbench gabow seed={seed}", 2 * len(graphs), graphs, gabow_pass
    for n in SIZES:
        yield f"gnp n={n} p=8/n seed={SEED}", 1, random_graph(n, 8 / n, SEED), sweep_call


def measure(case, rounds):
    name, calls, graph, run = case
    best, answers, stats = {}, {}, {}
    for _ in range(rounds):
        for path, sweep in SWEEPS.items():
            stats[path] = Counters()
            t0 = time.perf_counter()
            answers[path] = run(graph, sweep, stats[path])
            dt = time.perf_counter() - t0
            best[path] = min(best.get(path, dt), dt)
    row = {"case": name, "calls": calls, "same_cut": answers["new"] == answers["former"]}
    for path in SWEEPS:
        row[path] = {
            "wall_s": round(best[path], 4),
            "flow_calls": stats[path].get("flow_calls"),
            "path_skips": stats[path].get("path_skips"),
        }
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()
    rows = []
    for case in cases():
        row = measure(case, args.rounds)
        print(json.dumps(row), flush=True)
        rows.append(row)
    try:
        with open(OUT) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"description": " ".join(__doc__.split("\n\n")[0].split()), "runs": {}}
    record["runs"][args.label] = {
        "backend": maxflow.BACKEND,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rounds": args.rounds,
        "rows": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
