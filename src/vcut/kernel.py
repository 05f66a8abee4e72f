"""Cluster index over low-degree vertices and compressed per-pair flow
instances (kernels) answering one-sided connectivity queries.

The kernel of (cluster, s, t) keeps the cluster minus N[t] (the core):
each core vertex u keeps its edges to N(u) \\ N(s), read from the
graph's neighbour sets; the boundary N(core) \\ core is joined to t; and s is
joined to every neighbour it has in the kernel.  `kernel_graph` builds it
as a Graph.  A query kappa~(s,t) asks `maxflow.min_st_cut` on the kernel of
each usable cluster containing s, capped at the smallest value found so
far, and returns that smallest value; it never undershoots kappa(s,t), and
it equals kappa(G) whenever some minimum cut has its small side inside a
small-enough cluster with s on it and t on the far side.  Each kernel is
built per query, so what its pair ledger learns dies with the query.

Most pairs never reach a query.  `unweighted.unbalanced_vc` first asks
the graph's pair ledger (`maxflow.kappa_at_least`) whether kappa_G(s,t)
>= the cap `best.value` (from the limit the ledger has certified for the
whole graph, a stored probe of the pair, or a whole-graph packing of
paths from s to N(t), kept for the call), and skips the pair (no query,
no flow) when it is.  The skip is exact: the certified limit is <=
kappa(G) <= kappa_G(s,t), and the packing and a stored bound are <=
kappa_G(s,t) (Menger); a query never undershoots kappa_G(s,t), so it
would have answered >= cap and led to no flow; and the cap never rises
within a call, so a pair settled at one cap stays settled.  The index thus decides only the pairs that the ledger
leaves open (on the benchmark's unweighted workload at seed 7, 4 queries
over its 30 driver calls).
"""

from __future__ import annotations

from .cnc import cnc
from .errors import EmptyKernel, InvariantError
from .graphs import Graph, _log2ceil, symdiff_size
from .maxflow import min_st_cut

# Kernel index: V_low threshold |N(v)| <= CLOW_MULT * delta, cluster size
# gate |V_i| <= KERNEL_GATE_MULT * delta * ceil(log2 n).
CLOW_MULT = 8
KERNEL_GATE_MULT = 8


class KernelIndex:
    __slots__ = ("graph", "ell", "delta", "v_low", "clusters", "index", "size_gate")

    def __init__(self, graph, ell, delta, v_low, clusters, size_gate):
        self.graph = graph
        self.ell = ell
        self.delta = delta
        self.v_low = v_low
        self.clusters = clusters
        self.size_gate = size_gate
        index = {}
        for i, cluster in enumerate(clusters):
            for v in cluster:
                index.setdefault(v, []).append(i)
        self.index = index

    def clusters_of(self, v):
        return self.index.get(v, [])

    def __repr__(self):
        return (
            f"KernelIndex(n={self.graph.n}, ell={self.ell}, "
            f"z={len(self.clusters)}, gate={self.size_gate})"
        )


def build_kernel_index(g: Graph, ell, stats=None, cache=None) -> KernelIndex:
    """Cluster the low-degree vertices by neighborhood similarity at radius
    4*ell.

    Neither the low-degree set nor the distances depend on ell, so the
    indexes of one graph at several scales may share one distance `cache`
    dict (see `cnc`); None starts a fresh one."""
    if ell < 1:
        raise InvariantError("ell must be >= 1")
    delta = g.min_degree()
    v_low = [v for v in range(g.n) if g.degree(v) <= CLOW_MULT * delta]
    logn = _log2ceil(g.n)
    sub, ids = g.induced(v_low)

    def dist(a, b):
        return symdiff_size(g, ids[a], ids[b])

    clustering = cnc(sub, dist, 4 * ell, candidates="edges", stats=stats, cache=cache)
    clusters = [
        tuple(ids[v] for v in cluster)
        for partition in clustering.partitions
        for cluster in partition
    ]
    gate = KERNEL_GATE_MULT * delta * logn
    return KernelIndex(g, ell, delta, v_low, clusters, gate)


def kernel_graph(index: KernelIndex, i, s, t):
    """Compressed flow instance for cluster i and query pair (s,t), as a
    Graph plus the position->original id map and the positions of s and t.
    InvariantError when s is not in cluster i; EmptyKernel when pruning t's
    closed neighborhood empties the cluster."""
    g = index.graph
    cluster = index.clusters[i]
    if s not in cluster:
        raise InvariantError("s is not in the requested cluster")
    core = set(cluster).difference(g.neighbor_set(t), (t,))
    if not core:
        raise EmptyKernel(f"cluster {i} is contained in N[t]")
    adj = {v: set() for v in (*core, s, t)}
    n_s = g.neighbor_set(s)
    for u in core:
        reduced = g.neighbor_set(u) - n_s  # N(u) \ N(s)
        adj[u] |= reduced
        for v in reduced:
            adj.setdefault(v, set()).add(u)
    boundary = set().union(*(g.adj[u] for u in core)) - core
    adj[t] |= boundary
    for v in boundary:
        adj.setdefault(v, set()).add(t)
    near_s = n_s & adj.keys()
    adj[s] |= near_s
    for v in near_s:
        adj[v].add(s)
    ids = sorted(adj)
    pos = {v: j for j, v in enumerate(ids)}
    kernel = Graph._unchecked(len(ids), [[pos[v] for v in sorted(adj[u])] for u in ids])
    return kernel, ids, pos[s], pos[t]


def query_kappa_upper(index: KernelIndex, s, t, cap=None, stats=None):
    """Upper bound kappa~(s,t) >= kappa_G(s,t); n when no usable cluster.

    Clusters above the size gate are skipped; when s and t touch directly
    every kernel carries the edge and the answer is n.  `cap` is the
    internal early-stop bound (values >= cap come back as cap); the default
    is the exact value.

    Each usable cluster's kernel is built (`kernel_graph`), its edges are
    counted as `kernel_edges`, and `maxflow.min_st_cut` answers the kernel
    pair under the limit min(best so far, cap): its packing skips the flow
    when the kernel's paths already reach the limit (`path_skips`), else a
    capped flow runs.
    """
    g = index.graph
    if s == t:
        raise InvariantError("s == t")
    usable = [
        i for i in index.clusters_of(s) if len(index.clusters[i]) <= index.size_gate
    ]
    best = g.n
    if not usable or g.has_edge(s, t):
        return best
    for i in usable:
        # s is in cluster i and outside N[t], so the kernel is never empty.
        kernel, _, ks, kt = kernel_graph(index, i, s, t)
        if stats is not None:
            stats.add("kernel_edges", kernel.m)
        limit = best if cap is None else min(best, cap)
        value, cut = min_st_cut(kernel, ks, kt, limit, stats)
        if cut is not None and value < best:
            best = value
    return best
