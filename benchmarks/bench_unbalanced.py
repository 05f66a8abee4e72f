"""Time the unbalanced branch (`unweighted.unbalanced_vc`) past perfbench's
sizes.

Cases: seeded G(n, 8/n) at n = 32, 48, 64, 96 and 128, each sparsified
as the driver does (`ni_sparsify` at the min degree), plus one planted
`unbalanced` instance with n = 47, whose cut is below the min degree.  Per
case it records the value, the best wall time over `--rounds` calls, and
the `flow_calls`, `path_skips` and `kernel_edges` counters of one call.
No pair family is built or cached: each call walks its pairs in closed
form (`crossing_pairs`), so every round pays the same work.
The rows go into `BENCH_unbalanced.json` in the repository root under
`--label`, so the file holds runs of several source trees side by side.
vcut is imported from the repository's `src/` unless `--src` names
another tree.  Run:

    python3 benchmarks/bench_unbalanced.py --label change [--rounds 3]
"""

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, os.pardir, "BENCH_unbalanced.json")
SIZES = (32, 48, 64, 96, 128)
SEED = 3
PLANTED = ("unbalanced", {"l": 3, "s": 4, "r": 40}, 1)


def cases():
    from vcut.graphs import ni_sparsify
    from vcut.oracle import generate_planted, random_graph

    out = []
    for n in SIZES:
        g = random_graph(n, 8 / n, SEED)
        out.append((f"gnp n={n} p=8/n seed={SEED}", ni_sparsify(g, g.min_degree())))
    kind, params, seed = PLANTED
    g = generate_planted(kind, params, seed).graph
    out.append((f"planted {kind} n={g.n} seed={seed}", ni_sparsify(g, g.min_degree())))
    return out


def measure(g, rounds):
    from vcut.instrument import Counters
    from vcut.unweighted import unbalanced_vc

    best = None
    for _ in range(rounds):
        stats = Counters()
        t0 = time.perf_counter()
        cut = unbalanced_vc(g, stats=stats)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return {
        "value": cut.value,
        "wall_s": round(best, 4),
        "flow_calls": stats.get("flow_calls"),
        "path_skips": stats.get("path_skips"),
        "kernel_edges": stats.get("kernel_edges"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--rounds", type=int, default=3)
    ap.add_argument("--src", default=os.path.join(HERE, os.pardir, "src"))
    args = ap.parse_args()
    sys.path.insert(0, os.path.abspath(args.src))
    from vcut.maxflow import BACKEND

    rows = []
    for name, g in cases():
        row = {"case": name, "n": g.n, "min_degree": g.min_degree(), **measure(g, args.rounds)}
        print(" ".join(f"{k}={v}" for k, v in row.items()), flush=True)
        rows.append(row)
    try:
        with open(OUT) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"description": " ".join(__doc__.split("\n\n")[0].split()), "runs": {}}
    record["runs"][args.label] = {
        "backend": BACKEND,
        "python": platform.python_version(),
        "rounds": args.rounds,
        "rows": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
