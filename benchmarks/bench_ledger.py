"""Count and time the unweighted driver's pair questions: the package's
driver, whose (s, t) questions on the sparsified graph of one call are
all answered through that graph's pair ledger (`maxflow.min_st_cut`),
against the former driver, which solves each balanced-search probe,
cluster probe and unbalanced-branch pair on its own, and walks every pair
of the balanced search's pair regime, with no stop at the connectivity
certificate (`unledgered_driver` in `tests/conftest.py`, probing with
`bare_min_st_cut`).

Cases: the perfbench unweighted design at seeds 1 and 7 (30 instances
each), and G(n, 8/n), seed 3, at n = 48, 64 and 96.  Per case and path
("ledger" and "former") it records one `vertex_connectivity_unweighted`
call, or one pass over the design's instances: the best wall time over
`--rounds` calls (the two paths take turns), and from one further call
with counting wrappers

- `packings`: `maxflow.weighted_paths` runs (every packing of the call,
  the kernel query's included);
- `probes`: balanced-search pair probes (`isocut._balanced_search`, and
  the former path's `conftest.certificate_free_search`);
- `probes_to_maxflow`: those that ran a packing or a flow, rather than
  being answered from the ledger or the graph's adjacency;
- `flows`: the `flow_calls` counter.

The counts and times of a row are totals over its `calls`.  It checks
that both paths give the same cut (value, L, S, R) and the same
`Counters.events`.  The expander pieces of both paths are kept on the
sparsified graph (`unweighted._piece`), so the former path's piece probes
are counted as this package makes them.  The rows go into `BENCH_ledger.json` in the
repository root under `--label`.  Run:

    python3 benchmarks/bench_ledger.py --label change [--rounds 3]
"""

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
OUT = os.path.join(ROOT, "BENCH_ledger.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

import conftest  # noqa: E402
from conftest import unledgered_driver  # noqa: E402
from vcut import isocut, maxflow  # noqa: E402
from vcut.graphs import VertexCut  # noqa: E402
from vcut.instrument import Counters  # noqa: E402
from vcut.oracle import random_graph  # noqa: E402
from vcut.unweighted import vertex_connectivity_unweighted  # noqa: E402

PERFBENCH_SEEDS = (1, 7)
SIZES = (48, 64, 96)
SEED = 3
PATHS = {"ledger": vertex_connectivity_unweighted, "former": unledgered_driver}
# maxflow functions whose call marks a probe as reaching the engine.
ENGINE = ("weighted_paths", "_flow")
# The balanced searches whose probes are counted: the package's, and the
# former path's pair regime.
SEARCHES = ((isocut, "_balanced_search"), (conftest, "certificate_free_search"))


def cases():
    from workloads import SCALES, unweighted_instances

    out = []
    for seed in PERFBENCH_SEEDS:
        graphs = [inst.graph for inst in unweighted_instances(seed, SCALES["unweighted"])]
        out.append((f"perfbench unweighted seed={seed} ({len(graphs)} calls)", graphs))
    for n in SIZES:
        out.append((f"gnp n={n} p=8/n seed={SEED}", [random_graph(n, 8 / n, SEED)]))
    return out


def fingerprint(cut):
    if isinstance(cut, VertexCut):
        return [cut.value, list(cut.L), list(cut.S), list(cut.R)]
    return [type(cut).__name__, cut.value]


def counted(driver, graphs):
    """(answers, events, counts) of one pass of `driver` over `graphs` with
    counting wrappers on the maxflow engine and the balanced search."""
    calls = dict.fromkeys(ENGINE, 0)
    counts = {"packings": 0, "probes": 0, "probes_to_maxflow": 0, "flows": 0}
    saved = {name: getattr(maxflow, name) for name in ENGINE}
    real_searches = [getattr(module, name) for module, name in SEARCHES]

    def wrap(name):
        def inner(*args, **kwargs):
            calls[name] += 1
            return saved[name](*args, **kwargs)
        return inner

    def counting(real_search):
        def search(g, terms, k, best, probe, stats):
            def counted_probe(a, b, limit):
                before = sum(calls.values())
                got = probe(a, b, limit)
                counts["probes"] += 1
                counts["probes_to_maxflow"] += sum(calls.values()) > before
                return got
            return real_search(g, terms, k, best, counted_probe, stats)
        return search

    answers, events = [], []
    for name in ENGINE:
        setattr(maxflow, name, wrap(name))
    for (module, name), real_search in zip(SEARCHES, real_searches):
        setattr(module, name, counting(real_search))
    try:
        for g in graphs:
            stats = Counters()
            answers.append(fingerprint(driver(g, stats=stats)))
            events.append(stats.events)
            counts["flows"] += stats.get("flow_calls")
    finally:
        for name in ENGINE:
            setattr(maxflow, name, saved[name])
        for (module, name), real_search in zip(SEARCHES, real_searches):
            setattr(module, name, real_search)
    counts["packings"] = calls["weighted_paths"]
    return answers, events, counts


def measure(graphs, rounds):
    """The row of one case: per path, the best wall time over `rounds`
    (the paths alternate within each round) and the counts."""
    walls = {label: [] for label in PATHS}
    for _ in range(rounds):
        for label, driver in PATHS.items():
            t0 = time.perf_counter()
            for g in graphs:
                driver(g)
            walls[label].append(time.perf_counter() - t0)
    row = {}
    answers = {}
    for label, driver in PATHS.items():
        got, events, counts = counted(driver, graphs)
        answers[label] = (got, events)
        row[label] = {"wall_s": round(min(walls[label]), 4), **counts}
    assert answers["ledger"] == answers["former"], "the two paths disagree"
    row["values"] = sorted({a[0] for a in answers["ledger"][0]}, key=str)
    row["same_cuts_and_events"] = True
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--rounds", type=int, default=3)
    args = ap.parse_args()

    rows = []
    for name, graphs in cases():
        row = {"case": name, "calls": len(graphs), **measure(graphs, args.rounds)}
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
        "rounds": args.rounds,
        "rows": rows,
    }
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
