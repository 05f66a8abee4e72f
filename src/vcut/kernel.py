"""Cluster index over low-degree vertices and compressed per-pair flow
instances (kernels) answering one-sided connectivity queries.

A query kappa~(s,t) runs a min-separator on each kernel graph of a cluster
containing s and returns the smallest value found; it never undershoots
kappa(s,t), and it equals kappa(G) whenever some minimum cut has its small
side inside a small-enough cluster with s on it and t on the far side.
"""

from __future__ import annotations

import math

from .cnc import TOO_LARGE, cnc, sketch_construct, sketch_recover
from .config import DEFAULT, Config
from .errors import EmptyKernel, InvariantError
from .graphs import Graph, symdiff_size
from .maxflow import vertex_max_flow


class KernelIndex:
    __slots__ = (
        "graph", "ell", "delta", "v_low", "clusters", "index",
        "sketches", "size_gate", "cfg", "_parts_cache",
    )

    def __init__(self, graph, ell, delta, v_low, clusters, sketches, size_gate, cfg):
        self.graph = graph
        self.ell = ell
        self.delta = delta
        self.v_low = v_low
        self.clusters = clusters
        self.sketches = sketches
        self.size_gate = size_gate
        self.cfg = cfg
        index = {}
        for i, cluster in enumerate(clusters):
            for v in cluster:
                index.setdefault(v, []).append(i)
        self.index = index
        self._parts_cache = {}

    def clusters_of(self, v):
        return self.index.get(v, [])

    def __repr__(self):
        return (
            f"KernelIndex(n={self.graph.n}, ell={self.ell}, "
            f"z={len(self.clusters)}, gate={self.size_gate})"
        )


def build_kernel_index(g: Graph, ell, cfg: Config = DEFAULT, stats=None) -> KernelIndex:
    """Cluster the low-degree vertices by neighborhood similarity at radius
    4*ell and attach recovery sketches at threshold ell * ceil(log2 n)^2."""
    if ell < 1:
        raise InvariantError("ell must be >= 1")
    delta = g.min_degree()
    v_low = [v for v in range(g.n) if g.degree(v) <= cfg.clow_mult * delta]
    logn = max(1, math.ceil(math.log2(max(2, g.n))))
    sub, ids = g.induced(v_low)

    def dist(a, b):
        return symdiff_size(g, ids[a], ids[b])

    clustering = cnc(sub, dist, 4 * ell, candidates="edges", stats=stats)
    clusters = [
        tuple(ids[v] for v in cluster)
        for partition in clustering.partitions
        for cluster in partition
    ]
    sketches = sketch_construct(g, ell * logn * logn, cfg=cfg)
    gate = cfg.kernel_gate_mult * delta * logn
    return KernelIndex(g, ell, delta, v_low, clusters, sketches, gate, cfg)


def _neighbors_minus(index: KernelIndex, u, s):
    """N(u) \\ N(s) via sketch recovery, direct diff when out of range."""
    g = index.graph
    diff = sketch_recover(index.sketches[u], index.sketches[s])
    if diff is TOO_LARGE:
        return g.neighbor_set(u) - g.neighbor_set(s)
    nu = g.neighbor_set(u)
    return {v for v in diff if v in nu}


def _kernel_parts(index: KernelIndex, i, s):
    """(cluster, per-u reduced neighbor lists, boundary contributions) for a
    (cluster, source) pair; t-independent and cached."""
    key = (i, s)
    got = index._parts_cache.get(key)
    if got is not None:
        return got
    g = index.graph
    cluster = index.clusters[i]
    if s not in cluster:
        raise InvariantError("s is not in the requested cluster")
    cset = set(cluster)
    reduced = {u: tuple(sorted(_neighbors_minus(index, u, s))) for u in cluster}
    outside = {u: tuple(v for v in g.adj[u] if v not in cset) for u in cluster}
    parts = (cluster, cset, reduced, outside)
    index._parts_cache[key] = parts
    return parts


def _assemble_kernel(index: KernelIndex, i, s, t):
    """Vertex list, edge set and boundary (the vertices joined to t) of the
    kernel for (cluster i, s, t)."""
    g = index.graph
    cluster, cset, reduced, outside = _kernel_parts(index, i, s)
    nt = g.neighbor_set(t)
    core = [v for v in cluster if v != t and v not in nt]
    if not core:
        raise EmptyKernel(f"cluster {i} is contained in N[t]")
    core_set = set(core)
    vertices = set(core)
    vertices.add(s)
    vertices.add(t)
    edges = set()
    boundary = set()
    for u in core:
        for v in reduced[u]:
            vertices.add(v)
            edges.add((u, v) if u < v else (v, u))
            if v not in core_set:
                boundary.add(v)
        for v in outside[u]:
            vertices.add(v)
            boundary.add(v)
        for v in g.adj[u]:
            if v in cset and v not in core_set:
                vertices.add(v)
                boundary.add(v)
    ns = g.neighbor_set(s)
    for v in ns:
        if v in vertices:
            edges.add((s, v) if s < v else (v, s))
    for u in boundary:
        if u != t:
            edges.add((u, t) if u < t else (t, u))
    return sorted(vertices), edges, boundary


def kernel_graph(index: KernelIndex, i, s, t):
    """Compressed flow instance for cluster i and query pair (s,t), as a
    Graph plus the position->original id map.  Raises EmptyKernel when
    pruning t's closed neighborhood empties the cluster."""
    ids, edges, _ = _assemble_kernel(index, i, s, t)
    pos = {v: j for j, v in enumerate(ids)}
    kernel = Graph.from_edges(len(ids), sorted((pos[a], pos[b]) for a, b in edges))
    return kernel, ids, pos[s], pos[t]


def query_kappa_upper(index: KernelIndex, s, t, cap=None, stats=None):
    """Upper bound kappa~(s,t) >= kappa_G(s,t); n when no usable cluster.

    Clusters above the size gate are skipped; kernels where s and t touch
    directly contribute nothing.  `cap` is the internal early-stop bound
    (values >= cap come back as cap); the default is the exact value.

    In a kernel t is joined to every boundary vertex and s only to its own
    neighbours, so the two-hop paths s - v - t have their middle vertices
    in N(s) & boundary (t is never in N(s)).  When there are at least as
    many as the flow's limit, the capped flow could not lower `best`, and
    it is skipped (counted as `two_hop_skips`).
    """
    g = index.graph
    if s == t:
        raise InvariantError("s == t")
    usable = [
        i for i in index.clusters_of(s) if len(index.clusters[i]) <= index.size_gate
    ]
    if not usable:
        return g.n
    best = g.n
    if g.has_edge(s, t):
        return best  # every kernel carries the direct (s,t) edge
    ns = g.neighbor_set(s)
    for i in usable:
        try:
            ids, edges, boundary = _assemble_kernel(index, i, s, t)
        except EmptyKernel:
            continue
        if stats is not None:
            stats.add("kernel_edges", len(edges))
        limit = best if cap is None else min(best, cap)
        if len(boundary & ns) >= limit:
            if stats is not None:
                stats.add("two_hop_skips")
            continue
        pos = {v: j for j, v in enumerate(ids)}
        arcs = []
        for a, b in edges:
            arcs.append((pos[a], pos[b]))
            arcs.append((pos[b], pos[a]))
        caps = [1] * len(ids)
        value, sep, _, completed = vertex_max_flow(
            len(ids), arcs, caps, [pos[s]], [pos[t]], limit=limit, stats=stats
        )
        if completed and value < best:
            best = value
    return best
