import itertools

import pytest

from vcut.graphs import Graph, VertexCut, WeightedDigraph, better_cut
from vcut.maxflow import min_st_cut


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return Graph.from_edges(10, outer + inner + spokes)


def cycle(n) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n) -> Graph:
    return Graph.from_edges(n, list(itertools.combinations(range(n), 2)))


def path(n) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def grid(rows, cols) -> Graph:
    def vid(r, c):
        return r * cols + c

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def star(leaves) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def two_cliques_sharing(k, shared) -> Graph:
    """Two K_k's sharing `shared` vertices."""
    n = 2 * k - shared
    a = list(range(k))
    b = list(range(k - shared, n))
    edges = set()
    for grp in (a, b):
        for u, v in itertools.combinations(grp, 2):
            edges.add((u, v))
    return Graph.from_edges(n, sorted(edges))


def separator_first(kappa, side) -> Graph:
    """K_n minus all edges between two interleaved sides of `side` vertices
    each: the unique minimum separator is {0..kappa-1}, so v_kappa is the
    first vertex outside it."""
    n = kappa + 2 * side
    return Graph.from_edges(
        n,
        [(u, v) for u, v in itertools.combinations(range(n), 2) if u < kappa or (v - u) % 2 == 0],
    )


def all_pairs_probe(g, best=None, cap=None, stats=None):
    """Reference for Even's sweep: every non-adjacent pair (s,t), t > s, in
    lexicographic order, each limited by `best.value` (else `cap`)."""
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if g.has_edge(s, t):
                continue
            limit = best.value if isinstance(best, VertexCut) else cap
            res = min_st_cut(g, s, t, limit=limit, stats=stats)
            if res[1] is not None:
                best = better_cut(best, res[1])
    return best


def directed_cycle(weights) -> WeightedDigraph:
    n = len(weights)
    return WeightedDigraph.from_arcs(n, [(i, (i + 1) % n) for i in range(n)], weights)


def complete_digraph(weights) -> WeightedDigraph:
    n = len(weights)
    return WeightedDigraph.from_arcs(
        n, [(a, b) for a in range(n) for b in range(n) if a != b], weights
    )


@pytest.fixture
def petersen_graph():
    return petersen()
