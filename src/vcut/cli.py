"""Batch command-line surface.

Subcommands: `compute` (JSON run report to stdout), `verify` (re-validate a
report against its graph), `check-pr` (pseudorandom object certificates),
and `bench` (CSV timing/value table over a generated suite).  Reports are
bit-identical across reruns except for the wall-time field.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from . import maxflow
from .errors import ConstructionFailed, InvariantError, ParseError, VcutError
from .gabow import KConnected, gabow_vc
from .graphs import Graph, NoCut, VertexCut, parse_graph, validate_cut
from .instrument import Counters
from .oracle import (
    brute_kappa,
    check_disperser,
    check_selector,
    check_symmetric_crossing,
    oracle_guard,
    random_digraph,
    random_graph,
)
from .unweighted import unbalanced_vc, vertex_connectivity_unweighted
from .weighted import vertex_connectivity_weighted

# Algorithms a run report can name (`auto` is resolved before reporting).
ALGORITHMS = ("unweighted", "weighted", "gabow", "unbalanced", "terminal")

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_PARSE = 2
EXIT_INVARIANT = 3


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _oracle_too_large(graph) -> bool:
    """True, after printing a usage error, when `--oracle` cannot run on
    `graph` because it exceeds the brute-force oracle's size guard."""
    guard = oracle_guard(graph)
    if graph.n <= guard:
        return False
    print(
        f"usage error: --oracle needs n <= {guard} for this kind of graph, got n={graph.n}",
        file=sys.stderr,
    )
    return True


def _run_algorithm(graph, algo, k, stats):
    directed = not isinstance(graph, Graph)
    if algo == "auto":
        algo = "weighted" if directed else "unweighted"
    if algo == "unweighted":
        if directed:
            raise InvariantError("unweighted algorithm needs an undirected graph")
        return algo, vertex_connectivity_unweighted(graph, stats)
    if algo == "weighted":
        if not directed:
            raise InvariantError("weighted algorithm needs a directed graph")
        return algo, vertex_connectivity_weighted(graph, stats)
    if algo == "gabow":
        if directed:
            raise InvariantError("the gap-based algorithm needs an undirected graph")
        return algo, gabow_vc(graph, k, stats)
    if algo == "unbalanced":
        if directed:
            raise InvariantError("the unbalanced algorithm needs an undirected graph")
        if not graph.is_connected():
            rest = set(range(graph.n)) - set(graph.components()[0])
            return algo, VertexCut(graph.components()[0], (), rest, 0)
        return algo, unbalanced_vc(graph, stats)
    if algo == "terminal":
        if directed:
            raise InvariantError("the terminal algorithm needs an undirected graph")
        return algo, vertex_connectivity_unweighted(graph, stats, unbalanced=False)
    raise InvariantError(f"unknown algorithm {algo!r}")


def _report(graph, algo, result, stats, wall_ms, digest, k):
    rep = {
        "schema": 1,
        "input": digest,
        "algorithm": algo,
        "backend": maxflow.BACKEND,
        "n": graph.n,
        "m": graph.m,
        "directed": not isinstance(graph, Graph),
        "counters": stats.as_dict(),
        "wall_time_ms": wall_ms,
    }
    if k is not None:
        rep["k"] = k
    if isinstance(result, NoCut):
        rep["complete"] = True
        rep["value"] = result.value
    elif isinstance(result, KConnected):
        rep["k_connected"] = True
        rep["value"] = None
    else:
        rep["complete"] = False
        rep["value"] = result.value
        rep["cut"] = {
            "L": list(result.L),
            "S": list(result.S),
            "R": list(result.R),
        }
    return rep


def cmd_compute(args) -> int:
    try:
        data = open(args.path, "rb").read()
        graph = parse_graph(data)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvariantError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    if args.algo == "gabow" and (args.k is None or args.k < 1):
        print("usage error: --algo gabow needs --k >= 1", file=sys.stderr)
        return EXIT_PARSE
    if args.oracle and _oracle_too_large(graph):
        return EXIT_PARSE
    stats = Counters()
    start = time.perf_counter()
    try:
        algo, result = _run_algorithm(graph, args.algo, args.k, stats)
    except VcutError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    wall = round((time.perf_counter() - start) * 1000.0, 3)
    rep = _report(graph, algo, result, stats, wall, _digest(data), args.k)
    if args.oracle:
        want = brute_kappa(graph)
        rep["oracle_value"] = want[0] if isinstance(want, tuple) else want.value
    print(json.dumps(rep, sort_keys=True))
    return EXIT_OK


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _malformed(report):
    """Why `report` does not carry a well-typed claim, or None."""
    if not isinstance(report, dict):
        return "not a JSON object"
    if not (_is_int(report.get("schema")) and report["schema"] == 1):
        return "'schema' must be 1"
    if report.get("algorithm") not in ALGORITHMS:
        return f"'algorithm' must be one of {', '.join(ALGORITHMS)}"
    counters = report.get("counters")
    if not isinstance(counters, dict) or not all(map(_is_int, counters.values())):
        return "'counters' must map names to integers"
    if report.get("complete"):
        if "value" in report and (report["value"] is None or _is_int(report["value"])):
            return None
        return "'value' must be an integer or null"
    if report.get("k_connected"):
        k = report.get("k")
        return None if _is_int(k) and k >= 1 else "'k' must be a positive integer"
    cut = report.get("cut")
    if not isinstance(cut, dict) or not all(
        isinstance(cut.get(side), list) and all(map(_is_int, cut[side])) for side in "LSR"
    ):
        return "'cut' must map L, S and R to lists of vertex ids"
    if not _is_int(report.get("value")):
        return "'value' must be an integer"
    return None


def _cut_below(g: Graph, k) -> bool:
    """True when kappa(g) < k, by Even's sweep (`maxflow.even_sweep` with
    limit k).  No graph on n vertices is n-connected."""
    return k > g.n - 1 or isinstance(maxflow.even_sweep(g, cap=k), VertexCut)


def cmd_verify(args) -> int:
    try:
        data = open(args.graph, "rb").read()
        graph = parse_graph(data)
        report = json.load(open(args.report))
    except (OSError, ValueError, RecursionError) as exc:  # JSONDecodeError, nesting
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (ParseError, InvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    if args.oracle and _oracle_too_large(graph):
        return EXIT_PARSE
    reason = _malformed(report)
    if reason is not None:
        print(f"verify: malformed report: {reason}", file=sys.stderr)
        return EXIT_PARSE
    if report.get("input") != _digest(data):
        print("verify: input digest mismatch", file=sys.stderr)
        return EXIT_MISMATCH
    if report.get("complete"):
        if not graph.is_complete():
            print("verify: report claims complete but graph is not", file=sys.stderr)
            return EXIT_MISMATCH
        # kappa of a complete graph is n-1; a digraph reports no value.
        expected = max(0, graph.n - 1) if isinstance(graph, Graph) else None
        if report["value"] != expected:
            print(
                f"verify: complete graph has value {json.dumps(expected)}, "
                f"report says {json.dumps(report['value'])}",
                file=sys.stderr,
            )
            return EXIT_MISMATCH
    elif report.get("k_connected"):
        if not isinstance(graph, Graph):
            print("verify: k_connected claim needs an undirected graph", file=sys.stderr)
            return EXIT_MISMATCH
        if _cut_below(graph, report["k"]):
            print(f"verify: graph has a vertex cut below k={report['k']}", file=sys.stderr)
            return EXIT_MISMATCH
    else:
        cut = report["cut"]
        vc = VertexCut(cut["L"], cut["S"], cut["R"], report["value"])
        if not validate_cut(graph, vc):
            print("verify: cut does not validate", file=sys.stderr)
            return EXIT_MISMATCH
        weight = (
            len(vc.S)
            if isinstance(graph, Graph)
            else graph.weight_of(vc.S)
        )
        if weight != report["value"]:
            print("verify: separator value mismatch", file=sys.stderr)
            return EXIT_MISMATCH
    if args.oracle:
        want = brute_kappa(graph)
        kappa = want[0] if isinstance(want, tuple) else want.value
        got = report.get("value")
        if report.get("k_connected"):
            if kappa is not None and kappa < report.get("k", 0):
                print(f"verify: oracle kappa={kappa} below k", file=sys.stderr)
                return EXIT_MISMATCH
        elif got != kappa:
            print(f"verify: oracle kappa={kappa}, report value={got}", file=sys.stderr)
            return EXIT_MISMATCH
    print("ok")
    return EXIT_OK


def cmd_check_pr(args) -> int:
    from .pseudorandom import (
        build_disperser,
        build_mixing_graph,
        build_selector,
        selector_method,
        symmetric_crossing_family,
    )

    try:
        eps = Fraction(args.eps)
    except (ValueError, ZeroDivisionError):
        print(f"usage error: --eps needs a number such as 1/2, got {args.eps!r}", file=sys.stderr)
        return EXIT_PARSE
    if args.n < 1:
        print(f"usage error: -n needs a value >= 1, got {args.n}", file=sys.stderr)
        return EXIT_PARSE
    if not (math.isfinite(args.alpha) and args.alpha > 0):
        print(f"usage error: --alpha needs a finite value > 0, got {args.alpha}", file=sys.stderr)
        return EXIT_PARSE
    if args.d < 1:
        print(f"usage error: -d needs a value >= 1, got {args.d}", file=sys.stderr)
        return EXIT_PARSE
    # The exhaustive checks are gated on n before anything is built: the
    # families they would check hold n^2 pairs and n(n-1)/2 subsets.
    cert = {"object": args.object, "params": {}, "verdict": None}
    try:
        if args.object == "crossing":
            cert["params"] = {"n": args.n, "alpha": args.alpha}
            if args.n > 14:
                cert["verdict"] = "skipped"
                cert["reason"] = "exhaustive check gated at n <= 14"
            else:
                fam = symmetric_crossing_family(args.n, args.alpha)
                ok, witness = check_symmetric_crossing(fam.pairs, args.n, args.alpha)
                cert["property"] = "crossing"
                cert["method"] = "exhaustive"
                cert["verdict"] = bool(ok)
                cert["degree_bound_declared"] = fam.degree_bound
                cert["max_degree"] = fam.max_degree()
                if witness:
                    cert["counterexample"] = witness
        elif args.object == "selector":
            cert["params"] = {"n": args.n, "k": args.k, "eps": str(eps)}
            cert["family"] = selector_method(args.n, args.k, eps)
            if args.n > 12:
                cert["verdict"] = "skipped"
                cert["reason"] = "exhaustive check gated at n <= 12"
            else:
                fam = build_selector(args.n, args.k, eps)
                ok, witness = check_selector(fam.sets, args.n, args.k, eps)
                cert["property"] = "selection"
                cert["method"] = "exhaustive"
                cert["verdict"] = bool(ok)
                cert["sizes_ok"] = all(len(s) >= 2 for s in fam.sets)
                if witness:
                    cert["counterexample"] = witness
        elif args.object == "disperser":
            cert["params"] = {"n": args.n, "k": args.k, "d": args.d, "eps": str(eps)}
            bip = build_disperser(args.n, args.k, args.d, eps)
            ok, method, witness = check_disperser(bip, args.k, eps)
            cert["property"] = "coverage"
            cert["method"] = method
            cert["verdict"] = bool(ok)
            cert["right_size"] = bip.n_right
            cert["degree"] = bip.degree
            if witness:
                cert["counterexample"] = witness
        elif args.object == "mixing":
            cert["params"] = {"n": args.n, "d": args.d}
            mg = build_mixing_graph(args.n, args.d)
            cert["property"] = "pair-mixing"
            # A circulant is certified by its closed-form spectrum; the
            # complete graph needs none (every pair is an edge).
            cert["method"] = "closed-form" if mg.method == "circulant" else "complete"
            cert["verdict"] = True
            cert["lambda"] = mg.lam
            cert["pair_threshold"] = mg.pair_threshold
            cert["max_degree"] = mg.max_degree
        else:
            print(f"unknown object {args.object!r}", file=sys.stderr)
            return EXIT_PARSE
    except ConstructionFailed as exc:
        cert["verdict"] = "skipped"
        cert["reason"] = str(exc)
    except VcutError as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    print(json.dumps(cert, sort_keys=True))
    return EXIT_OK


def _suite_row(line):
    """(kind, n, p, seed, wmax) of a suite line `graph n p seed` or
    `digraph n p seed [wmax]` (wmax defaults to 8); ParseError otherwise."""
    kind, *fields = line.split()
    if kind not in ("graph", "digraph"):
        raise ParseError(f"unknown suite row kind {kind!r}")
    if len(fields) not in ((3,) if kind == "graph" else (3, 4)):
        usage = "graph n p seed" if kind == "graph" else "digraph n p seed [wmax]"
        raise ParseError(f"expected '{usage}', got {line!r}")
    try:
        n, p, seed = int(fields[0]), float(fields[1]), int(fields[2])
        wmax = int(fields[3]) if len(fields) > 3 else 8
    except ValueError as exc:
        raise ParseError(f"{exc} in {line!r}") from None
    if n < 0 or not 0 <= p <= 1 or wmax < 1:
        raise ParseError(f"need n >= 0, 0 <= p <= 1 and wmax >= 1, got {line!r}")
    if n * wmax >= 2**62:
        raise ParseError(f"n*wmax must be below 2^62 (64-bit weight sums), got {line!r}")
    return kind, n, p, seed, wmax


def _bench_row(row):
    kind, n, p, seed, wmax = row
    if kind == "graph":
        g = random_graph(n, p, seed)
        algo = "unweighted"
    else:
        g = random_digraph(n, p, wmax, seed)
        algo = "weighted"
    stats = Counters()
    start = time.perf_counter()
    _, result = _run_algorithm(g, algo, None, stats)
    wall = round((time.perf_counter() - start) * 1000.0, 3)
    value = result.value if not isinstance(result, KConnected) else None
    return {
        "kind": kind,
        "n": g.n,
        "m": g.m,
        "seed": seed,
        "algo": algo,
        "value": value,
        "wall_ms": wall,
        "flow_calls": stats.get("flow_calls"),
    }


def cmd_bench(args) -> int:
    suite = []
    try:
        with open(args.suite) as fh:
            for number, line in enumerate(fh, 1):
                line = line.strip()
                if line and not line.startswith("#"):
                    suite.append(_suite_row(line))
        # Opened before any row runs, so a bad path costs no computation.
        out = open(args.out, "w", newline="")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ParseError as exc:
        print(f"parse error: suite line {number}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    fields = ["kind", "n", "m", "seed", "algo", "value", "wall_ms", "flow_calls"]
    workers = min(args.jobs, len(suite), os.cpu_count() or 1)
    with out:
        if workers > 1:
            # Processes, not threads: the drivers are pure Python and hold the GIL.
            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_bench_row, suite))
        else:
            rows = [_bench_row(row) for row in suite]
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    print(f"wrote {len(rows)} rows to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="vcut", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="compute a minimum vertex cut")
    p.add_argument("path")
    p.add_argument(
        "--algo",
        default="auto",
        choices=["auto", *ALGORITHMS],
    )
    p.add_argument("--k", type=int, default=None, help="cut parameter (gabow)")
    p.add_argument("--oracle", action="store_true", help="include the brute-force value")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="re-validate a run report")
    p.add_argument("graph")
    p.add_argument("report")
    p.add_argument("--oracle", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("check-pr", help="pseudorandom object certificate")
    p.add_argument("object", choices=["crossing", "selector", "disperser", "mixing"])
    p.add_argument("-n", type=int, required=True)
    p.add_argument("-k", type=int, default=2)
    p.add_argument("-d", type=int, default=4)
    p.add_argument("-e", "--eps", default="1/2")
    p.add_argument("--alpha", type=float, default=2.0)
    p.set_defaults(func=cmd_check_pr)

    p = sub.add_parser("bench", help="run a generated suite, write CSV")
    p.add_argument("suite")
    p.add_argument("out")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
