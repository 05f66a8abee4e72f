"""Cluster index over low-degree vertices and compressed per-pair flow
instances (kernels) answering one-sided connectivity queries.

A query kappa~(s,t) runs a min-separator on each kernel graph of a cluster
containing s and returns the smallest value found; it never undershoots
kappa(s,t), and it equals kappa(G) whenever some minimum cut has its small
side inside a small-enough cluster with s on it and t on the far side.

Most kernel flows only confirm "no better than the best so far".  Each
kernel is assembled once as an adjacency; a greedy packing of vertex-
disjoint s-t paths on it (a lower bound on the kernel's max flow) decides
those flows without building a flow network, and only the rest run.
"""

from __future__ import annotations

import math

from .cnc import TOO_LARGE, cnc, sketch_construct, sketch_recover
from .config import DEFAULT, Config
from .errors import EmptyKernel, InvariantError
from .graphs import Graph, symdiff_size
from .maxflow import disjoint_paths, vertex_max_flow


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
    """(cluster as a set, per-u reduced neighbor lists, and for each vertex
    the cluster members whose reduced list holds it) for a (cluster,
    source) pair; t-independent and cached."""
    key = (i, s)
    got = index._parts_cache.get(key)
    if got is not None:
        return got
    cluster = index.clusters[i]
    if s not in cluster:
        raise InvariantError("s is not in the requested cluster")
    reduced = {u: tuple(sorted(_neighbors_minus(index, u, s))) for u in cluster}
    reverse = {}
    for u in cluster:
        for v in reduced[u]:
            reverse.setdefault(v, []).append(u)
    parts = (set(cluster), reduced, reverse)
    index._parts_cache[key] = parts
    return parts


def _assemble_kernel(index: KernelIndex, i, s, t):
    """Sorted vertex list and adjacency (vertex -> set of neighbours) of the
    kernel for (cluster i, s, t).

    The core is the cluster minus N[t]; each core vertex u keeps its edges
    to N(u) \\ N(s).  The boundary N(core) \\ core is joined to t, and s
    is joined to its neighbours in the kernel."""
    g = index.graph
    cset, reduced, reverse = _kernel_parts(index, i, s)
    core = cset.difference(g.neighbor_set(t))
    core.discard(t)
    if not core:
        raise EmptyKernel(f"cluster {i} is contained in N[t]")
    adj = {u: set(reduced[u]) for u in core}
    for u in core:
        adj[u].update(core.intersection(reverse.get(u, ())))
    boundary = set().union(*(g.adj[u] for u in core)) - core
    for v in boundary:
        back = core.intersection(reverse.get(v, ()))
        back.add(t)
        adj[v] = back
    adj[t] = boundary
    near_s = adj.setdefault(s, set())
    for v in g.neighbor_set(s) & adj.keys():
        near_s.add(v)
        adj[v].add(s)
    return sorted(adj), adj


def kernel_graph(index: KernelIndex, i, s, t):
    """Compressed flow instance for cluster i and query pair (s,t), as a
    Graph plus the position->original id map.  Raises EmptyKernel when
    pruning t's closed neighborhood empties the cluster."""
    ids, adj = _assemble_kernel(index, i, s, t)
    pos = {v: j for j, v in enumerate(ids)}
    kernel = Graph(len(ids), [sorted(pos[v] for v in adj[u]) for u in ids])
    return kernel, ids, pos[s], pos[t]


def query_kappa_upper(index: KernelIndex, s, t, cap=None, stats=None):
    """Upper bound kappa~(s,t) >= kappa_G(s,t); n when no usable cluster.

    Clusters above the size gate are skipped; kernels where s and t touch
    directly contribute nothing.  `cap` is the internal early-stop bound
    (values >= cap come back as cap); the default is the exact value.

    Before each kernel's capped flow, a greedy packing of disjoint s-t
    paths in the kernel (`maxflow.disjoint_paths`, on the same adjacency
    the flow is built from) bounds its max flow from below.  When the
    packing reaches the flow's limit, the flow could not lower `best`, and
    it is skipped (counted as `path_skips`).
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
    for i in usable:
        try:
            ids, adj = _assemble_kernel(index, i, s, t)
        except EmptyKernel:
            continue
        if stats is not None:
            stats.add("kernel_edges", sum(map(len, adj.values())) // 2)
        limit = best if cap is None else min(best, cap)
        if disjoint_paths(adj, s, t, limit) >= limit:
            if stats is not None:
                stats.add("path_skips")
            continue
        pos = {v: j for j, v in enumerate(ids)}
        arcs = [(pos[u], pos[v]) for u in ids for v in adj[u]]
        caps = [1] * len(ids)
        value, sep, _, completed = vertex_max_flow(
            len(ids), arcs, caps, [pos[s]], [pos[t]], limit=limit, stats=stats
        )
        if completed and value < best:
            best = value
    return best
