"""Seeded workload instances, their independent references, and the answer
check.

Each workload is a fixed design of instance classes; the seed only draws
the random graphs inside each class, so medians are comparable across
seeds.  Instances travel as graph text (what a user hands to
``vcut compute``) and every timed call parses its own copy.

References never touch vcut's flow engine:

- random graphs and digraphs: ``oracle.brute_kappa`` (the oracle's own
  augmenting-path flow over all pairs);
- planted instances: the planted certificate, which ``generate_planted``
  has already confirmed against ``brute_kappa``;
- k-decisions: Even's sweep below, over ``oracle.brute_pair_kappa``.
"""

from __future__ import annotations

from dataclasses import dataclass

from vcut import serialize_graph, validate_cut
from vcut.gabow import KConnected
from vcut.graphs import NoSeparator, VertexCut
from vcut.oracle import brute_kappa, brute_pair_kappa, generate_planted, random_digraph, random_graph


@dataclass
class Instance:
    label: str
    text: str
    graph: object  # the generator's own copy, used only by the reference
    k: int | None = None  # decision threshold (gabow workload only)
    planted: int | None = None  # certified minimum cut value, when planted
    reference: int | None = None  # kappa, filled in by `compute_references`


def gnp_with_min_degree(n, degree, delta, seed):
    """First G(n, p = degree/(n-1)) draw of the seed's sequence with minimum
    degree exactly `delta`.  Cost tracks delta closely (a degree-1 graph
    stops its search early), so fixing it per class keeps run medians
    comparable across seeds."""
    for attempt in range(1000):
        g = random_graph(n, degree / (n - 1), seed * 1_000_000 + attempt)
        if g.min_degree() == delta:
            return g
    raise RuntimeError(f"no G({n}, deg {degree}) draw with min degree {delta}")


def _random_unweighted(seed, scale):
    out = []
    for n in scale["n"]:
        for degree, delta in ((3, 2), (6, 4)):
            for rep in range(scale["reps"]):
                g = gnp_with_min_degree(n, degree, delta, seed * 100 + rep)
                out.append(Instance(f"gnp n={n} deg={degree}", serialize_graph(g), g))
    return out


def _planted(kinds, seed):
    out = []
    for kind, params in kinds:
        inst = generate_planted(kind, params, seed)
        out.append(
            Instance(
                f"{kind} n={inst.graph.n}", serialize_graph(inst.graph), inst.graph,
                planted=inst.cut.value,
            )
        )
    return out


def unweighted_instances(seed, scale):
    """G(n,p) at average degree 3 and 6, plus planted instances whose
    minimum cut is below the minimum degree."""
    planted = [
        ("unbalanced", {"l": 2, "s": 3, "r": 15}),
        ("unbalanced", {"l": 3, "s": 4, "r": 17}),
        ("balanced-terminal", {"side": 8, "s": 3}),
        ("balanced-terminal", {"side": 10, "s": 4}),
    ][: scale["planted"]]
    return _random_unweighted(seed, scale) + _planted(planted, seed)


def weighted_instances(seed, scale):
    """Random strongly connected digraphs over several weight ranges W,
    plus planted lopsided and symmetric instances."""
    out = []
    for n in scale["n"]:
        for wmax in (4, 64):
            for rep in range(scale["reps"]):
                d = random_digraph(n, 0.3, wmax, seed * 1000 + rep)
                out.append(Instance(f"digraph n={n} W={wmax}", serialize_graph(d), d))
    planted = [
        ("lopsided", {"l": 2, "s": 3, "r": 10, "W": 8}),
        ("symmetric", {"l": 3, "s": 3, "r": 8, "W": 8}),
        ("lopsided", {"l": 2, "s": 4, "r": 12, "W": 16}),
        ("symmetric", {"l": 3, "s": 4, "r": 10, "W": 16}),
    ][: scale["planted"]]
    return out + _planted(planted, seed)


def gabow_instances(seed, scale):
    """Two decisions per G(n,p) graph of minimum degree delta, at k = delta-1
    and k = delta+1: kappa is usually delta, so both verdicts occur."""
    out = []
    for n in scale["n"]:
        for degree, delta in ((6, 3), (10, 6)):
            for rep in range(scale["reps"]):
                g = gnp_with_min_degree(n, degree, delta, seed * 100 + rep)
                text = serialize_graph(g)
                for k in (delta - 1, delta + 1):
                    out.append(Instance(f"gnp n={n} deg={degree} k={k}", text, g, k=k))
    return out


def even_sweep(g, limit):
    """min(kappa(g), limit) for a connected, non-complete graph, by Even's
    algorithm: some vertex among v_0..v_kappa lies outside a minimum
    separator S and every vertex of S's far side has a larger index, so
    pairs (v_i, v_j), i <= kappa < j, include a separated pair."""
    best = min(limit, g.min_degree())
    i = 0
    while i <= best:
        for j in range(i + 1, g.n):
            got = brute_pair_kappa(g, i, j, limit=best)
            if got is not NoSeparator and got < best:
                best = got
        i += 1
    return best


def compute_references(instances):
    """Fill in `reference` (kappa) for every instance; graphs shared by
    several decisions are swept once."""
    swept = {}
    for inst in instances:
        if inst.planted is not None:
            inst.reference = inst.planted
        elif inst.k is not None:
            key = id(inst.graph)
            if key not in swept:
                swept[key] = even_sweep(inst.graph, inst.graph.n)
            inst.reference = swept[key]
        else:
            inst.reference = brute_kappa(inst.graph)[0]


def check_answer(inst, graph, result):
    """None when `result` is right for `inst`, else the reason it is not.
    `graph` is the parsed copy the driver received."""
    if inst.k is not None and inst.reference >= inst.k:
        if isinstance(result, KConnected) and result.k == inst.k:
            return None
        return f"expected KConnected({inst.k}), got {result!r}"
    if not isinstance(result, VertexCut):
        return f"expected a cut of value {inst.reference}, got {result!r}"
    if not validate_cut(graph, result):
        return "returned cut fails validate_cut"
    if result.value != inst.reference:
        return f"value {result.value} != reference {inst.reference}"
    return None


def fingerprint(result):
    """Everything a repeat call must reproduce bit for bit."""
    if isinstance(result, VertexCut):
        return ("cut", result.value, result.L, result.S, result.R)
    return (type(result).__name__, getattr(result, "value", None), getattr(result, "k", None))


# Full-size designs; selftest.py runs smaller ones.  Every n in
# a range, rather than a few far-apart sizes, spreads the call times evenly,
# so the run's median and p75 never sit in a gap between two size classes.
SCALES = {
    "unweighted": {"n": range(16, 29), "reps": 1, "planted": 4},
    "weighted": {"n": range(14, 19), "reps": 2, "planted": 4},
    "gabow": {"n": range(40, 65, 4), "reps": 1},
}
GENERATORS = {
    "unweighted": unweighted_instances,
    "weighted": weighted_instances,
    "gabow": gabow_instances,
}
