"""Count and time the expander probes of the unweighted driver: probes
capped at the separator size that could still split a piece, against the
former uncapped probe loop.

Cases: the perfbench unweighted instances (seed 7, full design) and seeded
G(n, 8/n) at n = 32, 48, 64 and 96 (seed 3).  Each case replays the
driver's `expander_decomposition` calls: `vertex_connectivity_unweighted`
with the unbalanced branch left out and `balanced_terminal_vc` answering
NoCut.  Neither feeds the terminal sets of later rounds, so the replay
makes the decompositions of a full driver call at a fraction of its cost.
Per case and probe loop ("capped", the package's; "uncapped", the former
loop `conftest.uncapped_sparsest_cut`, at every piece size as the capped
loop runs now) it records the decomposition calls, the
`flow_calls` and `path_skips` made inside them and their summed wall time
(best of `--rounds` replays), and checks that both loops give the same
decompositions.  The rows and the mean and median per call over the
perfbench instances go into `BENCH_expander.json` in the repository root
under `--label`.  Run:

    python3 benchmarks/bench_expander.py --label change [--rounds 3]
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
OUT = os.path.join(ROOT, "BENCH_expander.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import conftest  # noqa: E402
from vcut import unweighted  # noqa: E402
from vcut.graphs import NoCut  # noqa: E402
from vcut.instrument import Counters  # noqa: E402
from vcut.maxflow import BACKEND  # noqa: E402
from vcut.oracle import random_graph  # noqa: E402

PERFBENCH_SEED = 7
SIZES = (32, 48, 64, 96)
SEED = 3


# The probes of the uncapped loop in one replay, per piece subgraph (by
# identity; the driver's sparsified graph keeps each piece for the call).
PROBES = {}


def uncapped_sparsest_cut(g, terminals, phi, probe_budget, stats):
    """The former `unweighted._sparsest_canonical_cut` probe loop
    (`conftest.uncapped_sparsest_cut`: every pair probe an uncapped flow),
    kept per piece for the replay, at every piece size."""
    probes = PROBES.setdefault(id(g), {})
    return conftest.uncapped_sparsest_cut(g, terminals, probe_budget, stats, probes)


CAPPED = unweighted._sparsest_canonical_cut
LOOPS = {"capped": CAPPED, "uncapped": uncapped_sparsest_cut}


def replay(g, loop):
    """(decompositions, flow_calls, path_skips, seconds) of the driver's
    expander decompositions on g with the probe loop `loop`."""
    PROBES.clear()
    decomps = []
    spent = [0.0]
    stats = Counters()
    real = unweighted.expander_decomposition

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        d = real(*args, **kwargs)
        spent[0] += time.perf_counter() - t0
        decomps.append((d.x, d.pieces, d.phi))
        return d

    counted = [0, 0]

    def count(*args, **kwargs):
        before = stats.get("flow_calls"), stats.get("path_skips")
        got = loop(*args, **kwargs)
        counted[0] += stats.get("flow_calls") - before[0]
        counted[1] += stats.get("path_skips") - before[1]
        return got

    saved = (unweighted.expander_decomposition, unweighted._sparsest_canonical_cut,
             unweighted.balanced_terminal_vc)
    unweighted.expander_decomposition = timed
    unweighted._sparsest_canonical_cut = count
    unweighted.balanced_terminal_vc = lambda *args, **kwargs: NoCut(None)
    try:
        unweighted.vertex_connectivity_unweighted(g, stats=stats, unbalanced=False)
    finally:
        (unweighted.expander_decomposition, unweighted._sparsest_canonical_cut,
         unweighted.balanced_terminal_vc) = saved
    return decomps, counted[0], counted[1], spent[0]


def measure(g, rounds):
    row = {}
    results = {}
    for name, loop in LOOPS.items():
        best = None
        for _ in range(rounds):
            decomps, flows, skips, spent = replay(g, loop)
            best = spent if best is None else min(best, spent)
        results[name] = decomps
        row[name] = {"flow_calls": flows, "path_skips": skips, "wall_s": round(best, 5)}
    row["decompositions"] = len(results["capped"])
    row["same_decompositions"] = results["capped"] == results["uncapped"]
    return row


def cases():
    from workloads import SCALES, unweighted_instances

    out = [
        (inst.label, inst.graph, True)
        for inst in unweighted_instances(PERFBENCH_SEED, SCALES["unweighted"])
    ]
    out += [(f"gnp n={n} p=8/n seed={SEED}", random_graph(n, 8 / n, SEED), False) for n in SIZES]
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()

    rows = []
    for name, g, perfbench in cases():
        row = {"case": name, "n": g.n, "perfbench": perfbench, **measure(g, args.rounds)}
        print(json.dumps(row), flush=True)
        rows.append(row)
    assert all(row["same_decompositions"] for row in rows), "capped probes changed a decomposition"
    bench = [row for row in rows if row["perfbench"]]
    per_call = {
        name: {
            key: {
                "mean": round(statistics.mean(row[name][key] for row in bench), 5),
                "median": round(statistics.median(row[name][key] for row in bench), 5),
            }
            for key in ("flow_calls", "path_skips", "wall_s")
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
