"""Cluster index over low-degree vertices and compressed per-pair flow
instances (kernels) answering one-sided connectivity queries.

A query kappa~(s,t) runs a min-separator on each kernel graph of a cluster
containing s and returns the smallest value found; it never undershoots
kappa(s,t), and it equals kappa(G) whenever some minimum cut has its small
side inside a small-enough cluster with s on it and t on the far side.

Most kernel flows only confirm "no better than the best so far", so a
query reads each kernel implicitly.  The parts that depend on s alone
(reduced lists, cached per (cluster, s)) and on t alone (core, boundary
and neighbour counts, cached per (cluster, t)) give the kernel's rows on
demand and its edge count by arithmetic.  The one skip rule of the flow
engine (`maxflow.packing_reaches`: a unit-capacity packing of s-t paths
over those rows, a lower bound on the kernel's max flow) decides the flow;
only the kernels it leaves open are assembled as a Graph (`kernel_graph`)
and get a capped flow.

Most pairs never reach a query.  `unweighted.unbalanced_vc` first asks
the graph's pair ledger (`maxflow.kappa_at_least`) whether kappa_G(s,t)
>= the cap `best.value` (from a stored probe of the pair, or a
whole-graph packing of paths from s to N(t), kept for the call), and
skips the pair (no query, no flow) when it is.  The skip is exact: the
packing and a stored bound are <= kappa_G(s,t) (Menger); a query never
undershoots kappa_G(s,t), so it would have answered >= cap and led to no
flow; and the cap never rises within a call, so a pair settled at one cap
stays settled.  The index thus decides only the pairs that the ledger
leaves open (on the benchmark's unweighted workload at seed 7, 4 queries
over its 30 driver calls, against about 1,570 per call with no skip).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain

from .cnc import TOO_LARGE, cnc, sketch_construct, sketch_recover
from .config import DEFAULT, Config
from .errors import EmptyKernel, InvariantError
from .graphs import Graph, _log2ceil, symdiff_size
from .maxflow import _graph_flow, packing_reaches


class KernelIndex:
    __slots__ = (
        "graph", "ell", "delta", "v_low", "clusters", "index",
        "sketches", "size_gate", "cfg", "_parts_cache", "_side_cache",
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
        self._parts_cache = {}  # (cluster, s) -> _SourceParts
        self._side_cache = {}  # (cluster, t) -> _TargetSide

    def clusters_of(self, v):
        return self.index.get(v, [])

    def __repr__(self):
        return (
            f"KernelIndex(n={self.graph.n}, ell={self.ell}, "
            f"z={len(self.clusters)}, gate={self.size_gate})"
        )


def build_kernel_index(g: Graph, ell, cfg: Config = DEFAULT, stats=None,
                       cache=None) -> KernelIndex:
    """Cluster the low-degree vertices by neighborhood similarity at radius
    4*ell and attach recovery sketches at threshold ell * ceil(log2 n)^2.

    Neither the low-degree set nor the distances depend on ell, so the
    indexes of one graph at several scales may share one distance `cache`
    dict (see `cnc`); None starts a fresh one."""
    if ell < 1:
        raise InvariantError("ell must be >= 1")
    delta = g.min_degree()
    v_low = [v for v in range(g.n) if g.degree(v) <= cfg.clow_mult * delta]
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


class _SourceParts:
    """The t-independent parts of the kernels of (cluster, s).

    `reduced[u]` is N(u) \\ N(s) for each cluster member u, and `reverse[v]`
    lists the members whose reduced list holds v.  `rows` is what the
    packing reads: N(s) for s, and reduced[u] plus reverse[u] for every
    other member (see `_implicit_kernel`).
    """

    __slots__ = ("reduced", "reverse", "rows")

    def __init__(self, g: Graph, cluster, s, reduced):
        self.reduced = reduced
        reverse = {}
        for u in cluster:
            for v in reduced[u]:
                reverse.setdefault(v, []).append(u)
        self.reverse = reverse
        rows = {u: [*reduced[u], *reverse.get(u, ())] for u in cluster}
        rows[s] = g.adj[s]
        self.rows = rows


def _source_parts(index: KernelIndex, i, s) -> _SourceParts:
    """The cached `_SourceParts` of a (cluster, source) pair."""
    key = (i, s)
    got = index._parts_cache.get(key)
    if got is not None:
        return got
    cluster = index.clusters[i]
    if s not in cluster:
        raise InvariantError("s is not in the requested cluster")
    reduced = {u: tuple(sorted(_neighbors_minus(index, u, s))) for u in cluster}
    parts = _SourceParts(index.graph, cluster, s, reduced)
    index._parts_cache[key] = parts
    return parts


class _TargetSide:
    """The s-independent parts of the kernels of (cluster, t): the core
    (the cluster minus N[t]), the boundary N(core) \\ core, `degree[v]`,
    the number of v's neighbours in the core for v in the core or the
    boundary, and `base_edges`, the number of edges of g inside the core or
    between the core and the boundary, plus |boundary|."""

    __slots__ = ("core", "boundary", "degree", "base_edges")

    def __init__(self, g: Graph, core):
        self.core = core
        self.degree = degree = Counter(chain.from_iterable(g.adj[u] for u in core))
        self.boundary = frozenset(degree.keys() - core)
        twice_inside = sum([degree[u] for u in core])
        self.base_edges = degree.total() - twice_inside // 2 + len(self.boundary)


def _target_side(index: KernelIndex, i, t) -> _TargetSide:
    """The cached `_TargetSide` of (cluster i, t).  Raises EmptyKernel when
    the core is empty."""
    key = (i, t)
    got = index._side_cache.get(key)
    if got is not None:
        return got
    g = index.graph
    core = frozenset(index.clusters[i]).difference(g.neighbor_set(t), (t,))
    if not core:
        raise EmptyKernel(f"cluster {i} is contained in N[t]")
    side = _TargetSide(g, core)
    index._side_cache[key] = side
    return side


def _assemble_kernel(index: KernelIndex, i, s, t):
    """Sorted vertex list and adjacency (vertex -> set of neighbours) of the
    kernel for (cluster i, s, t).

    The core is the cluster minus N[t]; each core vertex u keeps its edges
    to N(u) \\ N(s).  The boundary N(core) \\ core is joined to t, and s
    is joined to its neighbours in the kernel."""
    g = index.graph
    parts = _source_parts(index, i, s)
    side = _target_side(index, i, t)
    core = set(side.core)
    reverse = parts.reverse
    adj = {u: set(parts.reduced[u]) for u in core}
    for u in core:
        adj[u].update(core.intersection(reverse.get(u, ())))
    for v in side.boundary:
        back = core.intersection(reverse.get(v, ()))
        back.add(t)
        adj[v] = back
    adj[t] = set(side.boundary)
    near_s = adj.setdefault(s, set())
    for v in g.neighbor_set(s) & adj.keys():
        near_s.add(v)
        adj[v].add(s)
    return sorted(adj), adj


def _implicit_kernel(index: KernelIndex, i, s, t):
    """(rows, boundary, edge count) of the kernel for (cluster i, s, t), s
    in the core, without assembling it.

    Kernel facts: s's kernel neighbours are exactly N(s); a core vertex u
    has kernel neighbours reduced[u] plus the core members of reverse[u];
    every other kernel vertex but t is a boundary vertex, joined to t.

    `rows` is the kernel adjacency as the packing reads it: the cached
    rows of (cluster, s).  The packing's ends are the boundary, t's kernel
    neighbours.  A core row may also hold members of N(s) \\ core that are
    not its kernel neighbours (from reverse[u]); they are the middles of the
    two-hop paths s - v - t, which the packing takes (and blocks) before any
    longer path, so it never steps onto them.  The packing expands core
    vertices only and ends each path at the first boundary vertex, so it
    never reads a boundary row or t's row (when t is in the cluster, its
    row here is not its kernel row).

    Counted edges: the kernel keeps every edge of g inside the core or
    between the core and the boundary (`base_edges`), except the edges
    inside core & N(s) and those from core - {s} to N(s) \\ core, and adds
    one edge from t to each boundary vertex (also in `base_edges`).
    """
    g = index.graph
    parts = _source_parts(index, i, s)
    side = _target_side(index, i, t)
    core = side.core
    ns = g.neighbor_set(s)
    inside = core & ns
    outside = ns - core
    twice_inside = sum([len(inside & g.neighbor_set(v)) for v in inside])
    # Each v in N(s) \\ core also has the edge to s, which the kernel keeps.
    cross = sum([side.degree[v] for v in outside]) - len(outside)
    return parts.rows, side.boundary, side.base_edges - twice_inside // 2 - cross


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

    Each kernel is first read implicitly (`_implicit_kernel`): its edges
    are counted, and a unit-capacity packing of s-t paths over the
    kernel's rows bounds its max flow from below.  When the packing reaches
    the flow's limit (`maxflow.packing_reaches`), the flow could not lower
    `best`, and it is skipped (counted as `path_skips`); only the other
    kernels are assembled and get a capped flow.
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
    unit = [1] * g.n
    for i in usable:
        # s is in cluster i and outside N[t], so the core is never empty.
        rows, boundary, edges = _implicit_kernel(index, i, s, t)
        if stats is not None:
            stats.add("kernel_edges", edges)
        limit = best if cap is None else min(best, cap)
        if packing_reaches(rows, unit, s, boundary, limit, stats):
            continue
        kernel, _, ks, kt = kernel_graph(index, i, s, t)
        value, _, _, completed = _graph_flow(kernel, [ks], [kt], limit=limit, stats=stats)
        if completed and value < best:
            best = value
    return best
