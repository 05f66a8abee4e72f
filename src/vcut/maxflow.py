"""Vertex-capacitated max flow / minimum separator engine.

Every query runs Dinic's blocking flow on the standard vertex-splitting
transform: v becomes v_in -> v_out with capacity w(v), original arcs get an
effectively-infinite capacity (n*W+1), and terminals are wired to bypass
their own split arc, so separators never contain them.

The canonical separator returned everywhere is the minimum cut closest to
the source (saturated split arcs on the residual source-reachable frontier),
which is unique, so results are deterministic and backend-independent.

One builder and one solve path serve every query.  `_split_network`
builds the split network as immutable tuples, and `_flow` solves it.  A
single-source, single-sink query runs the backend on those tuples directly,
from s_out (2s+1) to t_in (2t); this is the bypass-arc network minus its two
terminal arcs, with the same flow value and the same reach mask over the
split nodes, and it lets the pure-Python backend reuse its memoized residual
structure.  Larger terminal sets copy the tuples and append the bypass arcs.
`vertex_max_flow` builds a network per call from an arc list;
`_graph_flow` builds one per Graph or WeightedDigraph and keeps it in the
graph's `_network` slot, so repeated flows on one graph share it.

Capped queries are answered without a flow when a path packing already
reaches the cap.  Paths that respect the vertex capacities form a feasible
flow, so their total is a lower bound on the max flow (Ford-Fulkerson;
Menger).  A query with limit L returns (L, None) exactly when the max flow
is >= L, so `min_st_cut` and `min_st_separator` return it directly when
the packing reaches L, counting `path_skips` instead of a flow.  The check
sits in those two entry points and not in `_graph_flow`, whose counters
stay those of the bypass-arc network.

There are two packing helpers, both greedy shortest-path BFS without
residual arcs, and both take every two-hop path first:
- `disjoint_paths` packs internally vertex-disjoint paths in an undirected
  unit-capacity graph to a sink set.  It serves undirected pairs, the
  kernel query (over implicit kernel rows) and the isocut pair flows (to a
  sink set of two vertices).  It is most of a gabow call, so it keeps its
  own lean loop rather than carrying capacities it never needs.
- `weighted_paths` packs vertex-capacitated paths along out-arcs to a set
  of end vertices, each path taking its bottleneck from every vertex on it.
  It serves digraph pairs (ends: the in-neighbours of t) and the weighted
  driver's sparsified pair instances.

The inner solver is the compiled `vcut._core` when available, else the
pure-Python `vcut._pyflow`; set VCUT_PURE_PYTHON=1 to force the fallback.
"""

from __future__ import annotations

import os

from .errors import InvariantError
from .graphs import Graph, NoCut, NoSeparator, VertexCut, better_cut

if os.environ.get("VCUT_PURE_PYTHON"):
    from . import _pyflow as _backend
else:
    try:
        from . import _core as _backend  # type: ignore[attr-defined]
    except ImportError:
        from . import _pyflow as _backend

BACKEND = _backend.BACKEND_NAME


def _split_network(n, arcs, caps):
    """The vertex-split network of a graph on [0, n) with directed `arcs`
    and vertex capacities `caps` (None: uncuttable), as tuples `(tails,
    heads, arc_caps, vertex_caps, inf)`.  Node 2v is v_in and 2v+1 is v_out;
    arc v is the split arc v_in -> v_out, and arc n+i is u_out -> v_in for
    the i-th arc (u, v).  Uncuttable split arcs and original arcs get capacity
    `inf`; `vertex_caps` counts an uncuttable vertex as 1."""
    inf = n * max((c for c in caps if c is not None), default=1) + 1
    tails = [2 * v for v in range(n)]
    heads = [2 * v + 1 for v in range(n)]
    arc_caps = [inf if c is None else c for c in caps]
    for u, v in arcs:
        tails.append(2 * u + 1)
        heads.append(2 * v)
        arc_caps.append(inf)
    vertex_caps = tuple(1 if c is None else c for c in caps)
    return tuple(tails), tuple(heads), tuple(arc_caps), vertex_caps, inf


def _flow(n, network, sources, sinks, limit, stats):
    """Max flow from `sources` to `sinks` on a `_split_network`, with the
    canonical separator: `(value, separator, reach, completed)`.

    A single pair is solved on the network itself, from s_out to t_in.  A
    larger terminal set is solved on a copy with a super-source wired to
    each s_out and each t_in wired to a super-sink.  Both have the flows
    and reach of the bypass-arc network, whose arc count is recorded as
    `flow_edges`.  A limit <= 0 is reached before any flow, so it returns
    the capped answer uncounted."""
    if limit is not None and limit <= 0:
        return limit, None, None, False
    tails, heads, arc_caps, caps, inf = network
    if len(sources) == 1 and len(sinks) == 1:
        num_nodes, source, sink = 2 * n, 2 * sources[0] + 1, 2 * sinks[0]
        num_arcs = len(tails) + 2
    else:
        num_nodes, source, sink = 2 * n + 2, 2 * n, 2 * n + 1
        tails = list(tails) + [source] * len(sources) + [2 * t for t in sinks]
        heads = list(heads) + [2 * s + 1 for s in sources] + [sink] * len(sinks)
        arc_caps = list(arc_caps) + [inf] * (len(sources) + len(sinks))
        num_arcs = len(tails)
    if stats is not None:
        stats.add("flow_calls")
        stats.add("flow_edges", num_arcs)
    value, reach, completed = _backend.solve(
        num_nodes, tails, heads, arc_caps, source, sink, limit
    )
    if not completed:
        return limit, None, None, False
    if value >= inf:
        # Only possible via a direct source-sink adjacency the caller should
        # have screened; surface it as an invariant breach.
        raise InvariantError("no finite separator exists (adjacent terminals)")
    separator = [v for v in range(n) if reach[2 * v] and not reach[2 * v + 1]]
    sep_weight = sum(caps[v] for v in separator)
    assert sep_weight == value, "max-flow / min-separator duality violated"
    reach_orig = [bool(reach[2 * v + 1]) for v in range(n)]
    return value, separator, reach_orig, True


def vertex_max_flow(n, arcs, caps, sources, sinks, limit=None, stats=None):
    """Min vertex separator between vertex sets via one max-flow call.

    `arcs` are directed pairs over [0,n); `caps[v]` is v's removal cost and
    may be None for uncuttable vertices.  Terminal vertices are never part
    of the separator (flow bypasses their split arc).  Returns
    `(value, separator, reach, completed)` where `reach[v]` is true when v
    lies strictly on the source side; when `limit` is hit early the result
    is `(limit, None, None, False)`.
    """
    sources = sorted(set(sources))
    sinks = sorted(set(sinks))
    if set(sources) & set(sinks):
        raise InvariantError("source and sink sets overlap")
    return _flow(n, _split_network(n, arcs, caps), sources, sinks, limit, stats)


def _graph_flow(g, sources, sinks, limit=None, stats=None):
    """`vertex_max_flow` on a whole Graph (unit capacities) or
    WeightedDigraph (its weights), on a split network built once per graph
    and kept in its `_network` slot (graphs are immutable).  The
    terminal lists are used as given."""
    if g._network is None:
        if isinstance(g, Graph):
            g._network = _split_network(g.n, g.flow_arcs(), [1] * g.n)
        else:
            g._network = _split_network(g.n, g.arcs(), g.weights)
    return _flow(g.n, g._network, sources, sinks, limit, stats)


def _reach_cut(n, value, separator, reach):
    """The cut (L, S, R) of a completed flow on n vertices: L the vertices
    the source side reaches, S the separator, R the rest."""
    left = {v for v in range(n) if reach[v]}
    sep_set = set(separator)
    return VertexCut(left, sep_set, set(range(n)) - left - sep_set, value)


def disjoint_paths(adj, s, sinks, limit, paths=None):
    """Greedy packing of paths from s to the sink set `sinks` in the
    undirected unit-capacity graph `adj`, internally vertex-disjoint (sinks
    are uncuttable, so paths may share their end): repeat a BFS for a
    shortest path from s to a sink through vertices that no earlier path
    used.  Returns the number of paths found, a lower bound on the max flow
    from s to the sink set (Menger).

    `adj` is any view indexed by vertex whose rows can be iterated; the
    packing reads the rows of s, of the sinks, and of the vertices it
    expands, and expands no neighbour of a sink.  s must not be adjacent to
    a sink.  The packing stops at `limit` paths (None: no limit) or when no
    further path exists.  Every two-hop path s - v - sink is a shortest
    path, so all of them are taken first, in the order of adj[s].  When
    `paths` is a list, each path found is appended to it as a tuple from s
    to a sink.
    """
    into = set()
    for x in sinks:
        into.update(adj[x])
    if s in into:
        raise InvariantError("disjoint paths need a source not adjacent to the sinks")
    if limit is not None and limit <= 0:
        return 0
    used = [v for v in adj[s] if v in into][:limit]
    if paths is not None:
        paths.extend((s, v, _sink_next_to(adj, sinks, v)) for v in used)
    count = len(used)
    blocked = {s, *sinks, *used}
    while limit is None or count < limit:
        parent = {}
        frontier = [s]
        last = None
        while frontier and last is None:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if v in blocked or v in parent:
                        continue
                    parent[v] = u
                    if v in into:
                        last = v
                        break
                    nxt.append(v)
                if last is not None:
                    break
            frontier = nxt
        if last is None:
            break
        path = [_sink_next_to(adj, sinks, last)] if paths is not None else []
        v = last
        while v != s:
            blocked.add(v)
            path.append(v)
            v = parent[v]
        count += 1
        if paths is not None:
            path.append(s)
            paths.append(tuple(reversed(path)))
    return count


def _sink_next_to(adj, sinks, v):
    """The first sink adjacent to v (the end of a packed path)."""
    return next(x for x in sinks if v in adj[x])


def weighted_paths(out_adj, weights, s, ends, limit, paths=None):
    """Greedy packing of vertex-capacitated paths from s to the end set
    `ends` in the digraph `out_adj` with vertex capacities `weights`.

    Each path runs from s along out-arcs through vertices with capacity
    left, and stops at the first end vertex it reaches; its bottleneck (the
    least capacity left on it, s excluded) is subtracted from every vertex
    on it, the end included.  No residual arcs are used, so the paths form
    a feasible flow from s to the ends and their total is a lower bound on
    the max flow from s to any sink that every end has an arc to.

    Every end adjacent to s (a two-hop middle) is taken first, at full
    weight.  Then each path is a shortest one from s, so it never uses an
    arc between two out-neighbours of s; end vertices are never expanded,
    so no arc out of an end is used either.  The packing stops once the
    total reaches `limit` (None: no limit) or when no further path exists,
    and returns the total.  s must not be an end.  When `paths` is a list,
    each path found is appended to it as (vertices from s to its end,
    amount)."""
    if s in ends:
        raise InvariantError("weighted paths need a source outside the end set")
    if limit is not None and limit <= 0:
        return 0
    left = list(weights)
    total = 0
    for v in out_adj[s]:
        if v in ends:
            total += left[v]
            if paths is not None:
                paths.append(((s, v), left[v]))
            left[v] = 0
            if limit is not None and total >= limit:
                return total
    while limit is None or total < limit:
        parent = {s: s}
        frontier = [s]
        last = None
        while frontier and last is None:
            nxt = []
            for u in frontier:
                for v in out_adj[u]:
                    if v in parent or not left[v]:
                        continue
                    parent[v] = u
                    if v in ends:
                        last = v
                        break
                    nxt.append(v)
                if last is not None:
                    break
            frontier = nxt
        if last is None:
            break
        path = []
        v = last
        while v != s:
            path.append(v)
            v = parent[v]
        amount = min(left[v] for v in path)
        for v in path:
            left[v] -= amount
        total += amount
        if paths is not None:
            paths.append(((s, *reversed(path)), amount))
    return total


def _pair_screen(g, s, t, limit, stats):
    """NoSeparator for adjacent terminals, (limit, None) when a path
    packing already reaches `limit`, else None (a flow is needed)."""
    if s == t:
        raise InvariantError("s == t")
    adjacent = g.has_edge(s, t) if isinstance(g, Graph) else g.has_arc(s, t)
    if adjacent:
        return NoSeparator
    if limit is None:
        return None
    if isinstance(g, Graph):
        found = disjoint_paths(g.adj, s, (t,), limit)
    else:
        found = weighted_paths(g.out_adj, g.weights, s, g.in_set(t), limit)
    if found >= limit:
        if stats is not None:
            stats.add("path_skips")
        return limit, None
    return None


def min_st_separator(g, s, t, limit=None, stats=None):
    """Minimum (s,t) vertex separator; NoSeparator when t is adjacent to s.

    Returns (value, separator_tuple).  With `limit`, values >= limit come
    back as (limit, None) and are exact below it.
    """
    screened = _pair_screen(g, s, t, limit, stats)
    if screened is not None:
        return screened
    value, sep, _, completed = _graph_flow(g, [s], [t], limit=limit, stats=stats)
    if not completed:
        return value, None
    return value, tuple(sep)


def min_st_cut(g, s, t, limit=None, stats=None):
    """Like min_st_separator but returns the full (L,S,R) cut."""
    screened = _pair_screen(g, s, t, limit, stats)
    if screened is not None:
        return screened
    value, sep, reach, completed = _graph_flow(g, [s], [t], limit=limit, stats=stats)
    if not completed:
        return value, None
    return value, _reach_cut(g.n, value, sep, reach)


def min_s_to_set_separator(g: Graph, s: int, terminals, limit=None, stats=None):
    """Minimum separator between s and a super-sink attached to all of
    `terminals` (simultaneous separation; terminals are uncuttable).

    NoSeparator when some terminal is adjacent to s.
    """
    terminals = sorted(set(terminals))
    if not terminals:
        raise InvariantError("empty terminal set")
    if s in terminals:
        raise InvariantError("s in terminal set")
    nb = g.neighbor_set(s)
    if any(t in nb for t in terminals):
        return NoSeparator
    value, sep, _, completed = _graph_flow(g, [s], terminals, limit=limit, stats=stats)
    if not completed:
        return value, None
    return value, tuple(sep)


def rooted_connectivity(g: Graph, a: int, stats=None):
    """kappa(a) = min over t outside N[a] of kappa(a,t), with the achieving
    cut (A, C, B), a in A.  NoCut when N[a] covers the whole graph.
    """
    candidates = [t for t in range(g.n) if t != a and not g.has_edge(a, t)]
    if not candidates:
        return NoCut(g.n - 1)
    best_value = g.degree(a) + 1
    best_cut = None
    for t in candidates:
        res = min_st_cut(g, a, t, limit=best_value, stats=stats)
        if res is NoSeparator:
            continue
        value, cut = res
        if cut is not None and value < best_value:
            best_value = value
            best_cut = cut
    assert best_cut is not None  # N(a) always separates a from a non-neighbor
    return best_value, best_cut


def even_sweep(g: Graph, best=None, cap=None, stats=None):
    """Even's sweep: the best of `best` and every (s,t) cut, t > s
    non-adjacent, of value below the current limit (`best.value`, else
    `cap`; None is no limit), probed in lexicographic pair order with
    sources s < limit only.

    Exact: let S be a minimum separator and v_i the first vertex outside
    it.  Then i <= |S|, and every vertex on the far side of S from v_i has
    a larger index, so source v_i finds a cut of value |S| unless the
    limit is already <= |S|.  Once s reaches the limit, no later pair can
    improve the result, so it equals that of probing every pair.
    """
    for s in range(g.n):
        for t in range(s + 1, g.n):
            limit = best.value if isinstance(best, VertexCut) else cap
            if limit is not None and s >= limit:
                return best
            if g.has_edge(s, t):
                continue
            res = min_st_cut(g, s, t, limit=limit, stats=stats)
            if res[1] is not None:
                best = better_cut(best, res[1])
    return best


def weak_separator(g: Graph, terminals, stats=None):
    """Minimum number of vertices, terminals included, whose removal leaves
    some terminal disconnected from some surviving non-terminal vertex.

    Realized through the rooted connectivity of a new vertex joined to all
    terminals, restricted to separators that keep a terminal alive on the
    near side (otherwise the candidate is not a vertex cut of g at all):
    each terminal v in turn is forced onto the near side by making it a
    second source.  The separator may intersect the terminal set.  NoCut
    when no candidate has a valid far side.
    """
    tset = sorted(set(terminals))
    if not tset or len(tset) >= g.n:
        raise InvariantError("terminal set must be a nonempty strict subset")
    aug = [list(row) for row in g.adj] + [list(tset)]
    for v in tset:
        aug[v] = sorted(set(aug[v]) | {g.n})
    gt = Graph(g.n + 1, aug)
    virtual = g.n
    best_value = None
    best_cut = None
    terminal_set = set(tset)
    for v in tset:
        blocked = gt.neighbor_set(v) | terminal_set | {v}
        for u in range(g.n):
            if u in blocked:
                continue
            limit = None if best_value is None else best_value
            value, sep, reach, completed = _graph_flow(
                gt, [virtual, v], [u], limit=limit, stats=stats
            )
            if not completed:
                continue
            if best_value is None or value < best_value:
                best_value = value
                best_cut = _reach_cut(g.n, value, sep, reach)
    if best_cut is None:
        return NoCut(g.n - 1)
    return best_value, best_cut
