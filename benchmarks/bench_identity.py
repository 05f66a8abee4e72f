"""Scan the exact drivers for identical cuts on seeded instances.

Weighted: `vertex_connectivity_weighted`, which runs `lopsided_vc` on an
orientation only where the complete symmetric search did not return its
baseline, against the former driver, which ran both branches on the digraph
and on its reverse every time (`four_call_weighted` in `tests/conftest.py`).
The design has 1,000 digraphs: `random_digraph(n, p, W, seed=n)` for every
n = 5..48, p in P and W in W_MAX (880), and the four planted kinds of the
perfbench weighted workload at seeds 0..29 (120).  A row is one class of
digraphs (one (p, W), or one planted kind).  Its `differences` count the
digraphs whose cuts (value, L, S, R) differ, and must be 0.  In every
row `value_differences` count the instances whose values differ (or one
side's sentinel), and must be 0 too: both sides are exact.  Its `lopsided_run`
and `lopsided_skipped` count the orientations of the digraphs with a cut to
search (`searched`: not complete).

Unweighted, as data: the unbalanced branch stays on the default path of
`vertex_connectivity_unweighted` (its docstring says why), and this scan
records where leaving it out (`unbalanced=False`) would change the cut.
The design has 1,075 graphs with n <= 64: `random_graph(n, deg / (n - 1),
seed)` for every n = 8..64, deg in DEGREES and seed = 0..3 (912), the four
planted kinds of the perfbench unweighted workload at seeds 0..14 (60), tori
C_r x C_c (3 <= r <= c, rc <= 64: 49) and two cliques K_k sharing s
vertices (k = 4..12, s = 1..k-2: 54).  `large` adds
G(n, 8/n), seed 3, for n = 96, 128, 160 and 192, on the compiled backend
only.

Each side gets its own copy of every instance, the sides take turns going
first, and a row's `*_s` fields are the wall time summed over its instances.
Backends: `python` (`vcut._pyflow`) and `compiled` (`src/vcut/_core.c`,
built with the test suite's `build_core`; skipped where it cannot be
built).  The runs go into `BENCH_identity.json` in the repository root,
under the part and the backend, so the file keeps the other parts.  Run:

    python3 benchmarks/bench_identity.py [--part weighted|unweighted|large|all]
                                         [--backend python|compiled|both]
"""

import argparse
import itertools
import json
import os
import platform
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.join(HERE, os.pardir)
OUT = os.path.join(ROOT, "BENCH_identity.json")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "tests"))

from conftest import CORE_SOURCE, build_core, core_build_problem, four_call_weighted  # noqa: E402
from vcut import _pyflow, maxflow, weighted  # noqa: E402
from vcut.graphs import Graph, VertexCut, WeightedDigraph  # noqa: E402
from vcut.oracle import random_digraph, random_graph  # noqa: E402
from vcut.unweighted import vertex_connectivity_unweighted  # noqa: E402

P = (0.15, 0.25, 0.35, 0.5, 0.7)
W_MAX = (1, 4, 64, 1000)
DEGREES = (3, 4, 6, 8)
LARGE = (96, 128, 160, 192)


def weighted_design(max_n=48, planted_seeds=30):
    """(class, n, digraph) for every digraph of the weighted scan; a
    smaller `max_n` or `planted_seeds` gives a slice of it."""
    for p, wmax in itertools.product(P, W_MAX):
        for n in range(5, max_n + 1):
            yield f"random p={p} W={wmax}", n, random_digraph(n, p, wmax, n)
    from workloads import weighted_instances

    for seed in range(planted_seeds):
        for inst in weighted_instances(seed, {"n": (), "reps": 0, "planted": 4}):
            yield f"planted {inst.label}", inst.graph.n, inst.graph


def _torus(rows, cols):
    def vid(r, c):
        return (r % rows) * cols + c % cols

    edges = {tuple(sorted((vid(r, c), vid(r + dr, c + dc))))
             for r in range(rows) for c in range(cols) for dr, dc in ((0, 1), (1, 0))}
    return Graph.from_edges(rows * cols, sorted(edges))


def _cliques_sharing(k, shared):
    n = 2 * k - shared
    edges = set(itertools.combinations(range(k), 2))
    edges |= set(itertools.combinations(range(k - shared, n), 2))
    return Graph.from_edges(n, sorted(edges))


def unweighted_design(max_n=64, seeds=4, planted_seeds=15):
    """(class, n, graph) for every graph of the unweighted scan; smaller
    arguments give a slice of it."""
    for deg in DEGREES:
        for n in range(8, max_n + 1):
            for seed in range(seeds):
                yield f"gnp deg={deg}", n, random_graph(n, min(1.0, deg / (n - 1)), seed)
    from workloads import unweighted_instances

    for seed in range(planted_seeds):
        for inst in unweighted_instances(seed, {"n": (), "reps": 0, "planted": 4}):
            yield f"planted {inst.label}", inst.graph.n, inst.graph
    for rows in range(3, 9):
        for cols in range(rows, max_n // rows + 1):
            yield "torus", rows * cols, _torus(rows, cols)
    for k in range(4, 13):
        for shared in range(max(1, 2 * k - max_n), k - 1):
            yield "two cliques", 2 * k - shared, _cliques_sharing(k, shared)


def large_design():
    for n in LARGE:
        yield "gnp p=8/n seed=3", n, random_graph(n, 8 / n, 3)


def _copy(graph):
    if isinstance(graph, WeightedDigraph):
        return WeightedDigraph(graph.n, graph.out_adj, graph.weights)
    return Graph(graph.n, graph.adj)


def _answer(cut):
    if isinstance(cut, VertexCut):
        return (cut.value, cut.L, cut.S, cut.R)
    return (type(cut).__name__, cut.value)


def _weighted_sides():
    """The two weighted sides; the new one counts its `lopsided_vc` calls."""
    calls = [0]
    real = weighted.lopsided_vc

    def counted(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    def new(d):
        weighted.lopsided_vc = counted
        try:
            return weighted.vertex_connectivity_weighted(d)
        finally:
            weighted.lopsided_vc = real

    return {"new": new, "old": four_call_weighted}, calls


def scan(part, instances):
    """Rows, one per class, of both sides run on every (class, n, graph) of
    `instances`, on the backend `vcut.maxflow` solves with."""
    if part == "weighted":
        sides, calls = _weighted_sides()
    else:
        sides, calls = {
            "default": vertex_connectivity_unweighted,
            "terminal": lambda g: vertex_connectivity_unweighted(g, unbalanced=False),
        }, None
    rows = {}
    for turn, (label, n, graph) in enumerate(instances):
        row = rows.setdefault(label, {"class": label, "instances": 0, "searched": 0,
                                      "differences": 0, "value_differences": 0,
                                      "n": [n, n]})
        if part == "weighted":
            row.setdefault("lopsided_run", 0)
            row.setdefault("lopsided_skipped", 0)
        row["instances"] += 1
        row["n"] = [min(row["n"][0], n), max(row["n"][1], n)]
        searched = not graph.is_complete()
        row["searched"] += searched
        names = list(sides)
        if turn % 2:
            names.reverse()
        answers = {}
        for name in names:
            copy = _copy(graph)
            before = calls[0] if calls else 0
            t0 = time.perf_counter()
            answers[name] = _answer(sides[name](copy))
            row[f"{name}_s"] = row.get(f"{name}_s", 0.0) + time.perf_counter() - t0
            if calls and name == "new" and searched:
                ran = calls[0] - before
                row["lopsided_run"] += ran
                row["lopsided_skipped"] += 2 - ran
        a, b = answers.values()
        row["differences"] += a != b
        row["value_differences"] += a[:2] != b[:2]
        if a != b:
            row.setdefault("differing", []).append(n)
    for row in rows.values():
        for key in list(row):
            if key.endswith("_s"):
                row[key] = round(row[key], 3)
    return list(rows.values())


def total(rows):
    out = {}
    for row in rows:
        for key, value in row.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out[key] = out.get(key, 0) + value
    return {k: round(v, 3) if isinstance(v, float) else v for k, v in out.items()}


DESIGNS = {"weighted": weighted_design, "unweighted": unweighted_design, "large": large_design}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--part", choices=(*DESIGNS, "all"), default="all")
    ap.add_argument("--backend", choices=("python", "compiled", "both"), default="both")
    args = ap.parse_args()
    parts = list(DESIGNS) if args.part == "all" else [args.part]
    backends = ["python", "compiled"] if args.backend == "both" else [args.backend]
    try:
        with open(OUT) as fh:
            record = json.load(fh)
    except FileNotFoundError:
        record = {"description": " ".join(__doc__.split("\n\n")[0].split())}
    record["python"] = platform.python_version()
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        for backend in backends:
            if backend == "python":
                module = _pyflow
            else:
                problem = core_build_problem()
                if problem is not None:
                    print(f"compiled core: not built ({problem})", flush=True)
                    continue
                module = build_core(CORE_SOURCE, tmp)
            maxflow._backend = module
            for part in parts:
                if part == "large" and backend == "python":
                    continue
                rows = scan(part, DESIGNS[part]())
                for row in rows:
                    print(json.dumps({"part": part, "backend": backend, **row}), flush=True)
                summary = {"total": total(rows), "rows": rows}
                print(json.dumps({"part": part, "backend": backend, "total": summary["total"]}),
                      flush=True)
                record.setdefault(part, {})[backend] = summary
                failed |= part == "weighted" and summary["total"]["differences"] > 0
    with open(OUT, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
