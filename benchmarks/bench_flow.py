"""Benchmark the compiled flow core against the pure-Python twin.

The solvers share one contract (see vcut._pyflow), so the comparison runs
identical split networks through each, uncapped and at the limits 1..5,
checks that every answer (value, reach mask, completion) equals the
pure-Python one, and times the solvers in a rotating order, one pass over
all networks and limits per solver and round.  The compiled core is built
from `src/vcut/_core.c` with the test suite's `build_core`;
`--baseline-source` adds a second C core (say, an older `_core.c`) timed
against it.  `--json` writes the agreement counts and the round times.
Run:

    python3 benchmarks/bench_flow.py [--rounds 20] [--baseline-source FILE] [--json FILE]
"""

import argparse
import itertools
import json
import os
import platform
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, os.path.join(HERE, os.pardir, "tests"))

from conftest import CORE_SOURCE, build_core, core_build_problem  # noqa: E402
from vcut import _pyflow  # noqa: E402
from vcut.oracle import random_digraph, random_graph  # noqa: E402

LIMITS = (None, 1, 2, 3, 4, 5)


def split_network(n, arcs, caps, s, t):
    inf = n * max(caps) + 1
    tails = [2 * v for v in range(n)]
    heads = [2 * v + 1 for v in range(n)]
    acaps = list(caps)
    for u, v in arcs:
        tails.append(2 * u + 1)
        heads.append(2 * v)
        acaps.append(inf)
    tails += [2 * n, 2 * t]
    heads += [2 * s + 1, 2 * n + 1]
    acaps += [inf, inf]
    return 2 * n + 2, tails, heads, acaps, 2 * n, 2 * n + 1


def workload():
    """A batch of (network, description) covering the pipelines' shapes."""
    out = []
    for seed in range(6):
        g = random_graph(40, 0.25, seed)
        arcs = [(u, v) for u in range(g.n) for v in g.adj[u]]
        pairs = [
            (s, t)
            for s, t in itertools.combinations(range(g.n), 2)
            if not g.has_edge(s, t)
        ][:40]
        for s, t in pairs:
            out.append(split_network(g.n, arcs, [1] * g.n, s, t))
    for seed in range(4):
        d = random_digraph(20, 0.35, 8, seed)
        arcs = list(d.arcs())
        pairs = [
            (s, t)
            for s, t in itertools.permutations(range(d.n), 2)
            if not d.has_arc(s, t)
        ][:40]
        for s, t in pairs:
            out.append(split_network(d.n, arcs, list(d.weights), s, t))
    return out


def run(solver, nets):
    """Seconds for one pass over `nets` at every limit, and the answers."""
    t0 = time.perf_counter()
    results = [solver(*net, limit) for limit in LIMITS for net in nets]
    return time.perf_counter() - t0, results


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--rounds", type=int, default=20)
    ap.add_argument("--baseline-source", help="a second C flow core to time")
    ap.add_argument("--json", help="file to write the results to")
    args = ap.parse_args()

    nets = workload()
    solvers = {"python": _pyflow.solve}
    problem = core_build_problem()
    with tempfile.TemporaryDirectory() as tmp:
        if problem is None:
            for name, source in (("compiled", CORE_SOURCE), ("baseline", args.baseline_source)):
                if source is not None:
                    os.mkdir(os.path.join(tmp, name))
                    solvers[name] = build_core(source, os.path.join(tmp, name)).solve
        else:
            print(f"compiled core: not built ({problem})")
        print(f"{len(nets)} networks at limits {LIMITS}: "
              f"{len(nets) * len(LIMITS)} solves per solver and round, {args.rounds} rounds")

        names = list(solvers)
        times = {name: [] for name in names}
        answers = {}
        for r in range(args.rounds):
            # Rotate the order so that no solver always runs first.
            for name in names[r % len(names):] + names[: r % len(names)]:
                seconds, answers[name] = run(solvers[name], nets)
                times[name].append(seconds * 1000)

    record = {
        "description": " ".join(__doc__.split("\n\n")[0].split()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "networks": len(nets),
        "limits": [str(limit) for limit in LIMITS],
        "rounds": args.rounds,
        "agreement": {},
        "round_ms": {name: [round(ms, 3) for ms in times[name]] for name in names},
        "best_ms": {name: round(min(times[name]), 3) for name in names},
        "median_ms": {name: round(statistics.median(times[name]), 3) for name in names},
    }
    for name in names:
        print(f"{name:9s}: best {min(times[name]):8.2f} ms, "
              f"median {statistics.median(times[name]):8.2f} ms per round")
    mismatches = 0
    want = answers["python"]
    for name in names[1:]:
        agree = {}
        for i, limit in enumerate(LIMITS):
            block = slice(i * len(nets), (i + 1) * len(nets))
            agree[str(limit)] = sum(a == b for a, b in zip(want[block], answers[name][block]))
            mismatches += len(nets) - agree[str(limit)]
        record["agreement"][name] = agree
        print(f"{name:9s}: agrees with python on {agree} of {len(nets)} networks per limit")
    if "baseline" in times:
        faster = sum(c < b for c, b in zip(times["compiled"], times["baseline"]))
        record["compiled_faster_rounds"] = faster
        print(f"compiled faster than baseline in {faster} of {args.rounds} rounds")
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
