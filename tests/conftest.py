import importlib.machinery
import importlib.util
import itertools
import os
import shlex
import shutil
import subprocess
import sysconfig
from fractions import Fraction

import pytest

from vcut import _pyflow, isocut, maxflow, unweighted, weighted
from vcut.config import DEFAULT
from vcut.errors import InvariantError
from vcut.graphs import (
    Graph,
    NoCut,
    NoSeparator,
    VertexCut,
    WeightedDigraph,
    _log2ceil,
    better_cut,
    min_degree_cut,
    min_out_neighborhood_cut,
    ni_sparsify,
    validate_cut,
)
from vcut.kernel import build_kernel_index, query_kappa_upper
from vcut.maxflow import min_s_to_set_separator, weighted_paths
from vcut.pseudorandom import symmetric_crossing_family


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


def bare_min_st_cut(g, s, t, limit=None, stats=None):
    """`maxflow.min_st_cut` with nothing stored: the adjacency, then the
    packing from s to the vertices with an arc into t, then a flow.  This
    is the package's former single-pair probe, before graphs kept a pair
    ledger; the references below probe with it, so that they stay
    independent of the ledger."""
    if s == t:
        raise InvariantError("source among the sinks")
    if isinstance(g, Graph):
        near, out_adj, weights = g.neighbor_set(t), g.adj, [1] * g.n
    else:
        near, out_adj, weights = g.in_set(t), g.out_adj, g.weights
    if s in near:
        return NoSeparator
    if maxflow.packing_reaches(out_adj, weights, s, near, limit, stats):
        return limit, None
    value, sep, reach, completed = maxflow._graph_flow(g, [s], [t], limit=limit, stats=stats)
    if not completed:
        return value, None
    return value, maxflow._reach_cut(g.n, value, sep, reach)


def all_pairs_probe(g, best=None, cap=None, stats=None):
    """Reference for Even's sweep: every non-adjacent pair (s,t), t > s, in
    lexicographic order, each limited by `best.value` (else `cap`)."""
    for s in range(g.n):
        for t in range(s + 1, g.n):
            if g.has_edge(s, t):
                continue
            limit = best.value if isinstance(best, VertexCut) else cap
            res = bare_min_st_cut(g, s, t, limit=limit, stats=stats)
            if res[1] is not None:
                best = better_cut(best, res[1])
    return best


def query_every_pair(g, cfg=DEFAULT, stats=None):
    """Reference for `unweighted.unbalanced_vc`: the same scales, cluster
    calls (`unledgered_subgraph_balanced_terminal_vc`) and pair order, but
    every non-adjacent pair goes to the kernel index in both orientations
    at every scale, with no whole-graph certificate before it.

    This is the package's former pair loop; `unbalanced_vc` must return the
    same cut, with no more kernel queries and no more flows."""
    if g.is_complete():
        return NoCut(max(0, g.n - 1))
    delta = g.min_degree()
    best = min_degree_cut(g)
    logn = _log2ceil(g.n)
    max_scale = _log2ceil(delta * logn)
    seen_clusters = set()
    for i in range(1, max_scale + 1):
        ell = 2 ** i
        alpha = max(1, Fraction(2 * delta, ell))
        family = symmetric_crossing_family(g.n, alpha, cfg)
        index = build_kernel_index(g, ell, cfg, stats)
        for cluster in index.clusters:
            key = frozenset(cluster)
            if key in seen_clusters or len(cluster) < 2:
                continue
            seen_clusters.add(key)
            cand = unledgered_subgraph_balanced_terminal_vc(
                g, cluster, delta * logn, cfg, stats, best=best
            )
            if isinstance(cand, VertexCut) and validate_cut(g, cand):
                best = better_cut(best, cand)
        for s, t in family.unordered():
            if isinstance(best, VertexCut) and best.value <= 1:
                break
            if g.has_edge(s, t):
                continue
            for a, b in ((s, t), (t, s)):
                cap = best.value if isinstance(best, VertexCut) else g.n
                kappa_hat = query_kappa_upper(index, a, b, cap=cap, stats=stats)
                if kappa_hat < cap:
                    res = bare_min_st_cut(g, a, b, stats=stats)
                    if res is not NoSeparator and res[1] is not None:
                        best = better_cut(best, res[1])
    return best


def unledgered_balanced_terminal_vc(g, terminals, k, cfg=DEFAULT, stats=None, best=None):
    """Reference for `isocut.balanced_terminal_vc`: the same search, but
    each pair probe is its own whole-graph `bare_min_st_cut`.  This is the
    package's former probe closure."""

    def probe(a, b, limit):
        res = bare_min_st_cut(g, a, b, limit=limit, stats=stats)
        return None if res is NoSeparator else res[1]

    return isocut._balanced_search(g, sorted(set(terminals)), k, cfg, best, probe)


def unledgered_subgraph_balanced_terminal_vc(g, terminals, k, cfg=DEFAULT, stats=None,
                                             best=None):
    """Reference for `isocut.subgraph_balanced_terminal_vc`: every pair
    probe is a flow to {b, super-vertex} on the auxiliary graph, also when
    the terminals are all of V.  This is the package's former probe
    closure."""
    terms = sorted(set(terminals))
    aux, nodes, virtual = isocut._terminal_subgraph(g, terms)
    pos = {v: j for j, v in enumerate(nodes)}

    def probe(a, b, limit):
        res = min_s_to_set_separator(aux, pos[a], (pos[b], virtual), limit, stats)
        if res is NoSeparator or res[1] is None:
            return None
        return isocut._remap_candidate(g, (nodes[x] for x in res[1]))

    return isocut._balanced_search(g, terms, k, cfg, best, probe)


def unledgered_unbalanced_vc(g, cfg=DEFAULT, stats=None):
    """Reference for `unweighted.unbalanced_vc`: the same scales, cluster
    calls and pair order, with the former per-call packing memo (each pair
    {s, t}, s < t, packed from s to N(t) once), the former cluster probes
    (`unledgered_subgraph_balanced_terminal_vc`), a fresh distance table
    per kernel index, and a full-graph `bare_min_st_cut` per improving
    query.
    This is the package's former loop, before the pair ledger."""
    if g.is_complete():
        return NoCut(max(0, g.n - 1))
    delta = g.min_degree()
    best = min_degree_cut(g)
    logn = _log2ceil(g.n)
    max_scale = _log2ceil(delta * logn)
    seen_clusters = set()
    unit = [1] * g.n
    packed = {}
    for i in range(1, max_scale + 1):
        ell = 2 ** i
        alpha = max(1, Fraction(2 * delta, ell))
        family = symmetric_crossing_family(g.n, alpha, cfg)
        index = build_kernel_index(g, ell, cfg, stats)
        for cluster in index.clusters:
            key = frozenset(cluster)
            if key in seen_clusters or len(cluster) < 2:
                continue
            seen_clusters.add(key)
            cand = unledgered_subgraph_balanced_terminal_vc(
                g, cluster, delta * logn, cfg, stats, best=best
            )
            if isinstance(cand, VertexCut) and validate_cut(g, cand):
                best = better_cut(best, cand)
        for s, t in family.unordered():
            if isinstance(best, VertexCut) and best.value <= 1:
                break
            if g.has_edge(s, t):
                continue
            for a, b in ((s, t), (t, s)):
                cap = best.value if isinstance(best, VertexCut) else g.n
                if maxflow.packing_reaches(
                    g.adj, unit, s, g.neighbor_set(t), cap, stats, packed, (s, t)
                ):
                    break
                kappa_hat = query_kappa_upper(index, a, b, cap=cap, stats=stats)
                if kappa_hat < cap:
                    res = bare_min_st_cut(g, a, b, stats=stats)
                    if res is not NoSeparator and res[1] is not None:
                        best = better_cut(best, res[1])
    return best


def unledgered_driver(g, cfg=DEFAULT, stats=None, unbalanced=True):
    """Reference for `unweighted.vertex_connectivity_unweighted`: the same
    driver with no pair ledger.  The unbalanced branch is
    `unledgered_unbalanced_vc`, every balanced-terminal call (the driver's
    rounds and terminal reduction's, through `unweighted`) is
    `unledgered_balanced_terminal_vc`.  Only the expander pieces probe
    with `maxflow.min_st_cut`, so the piece that is all of V shares no
    probe with the rest of the call."""
    if g.n <= 1 or len(g.components()) > 1 or g.is_complete():
        return unweighted.vertex_connectivity_unweighted(g, cfg, stats, unbalanced)
    gs = ni_sparsify(g, g.min_degree())
    k = max(1, gs.min_degree())
    best = min_degree_cut(g)

    def offer(candidate):
        nonlocal best
        if isinstance(candidate, VertexCut) and validate_cut(g, candidate):
            best = better_cut(best, candidate)

    if unbalanced:
        offer(unledgered_unbalanced_vc(gs, cfg, stats))
    terms = tuple(range(g.n))
    store = unweighted.PieceStore(gs)
    real = unweighted.balanced_terminal_vc
    unweighted.balanced_terminal_vc = unledgered_balanced_terminal_vc
    try:
        while terms:
            offer(unledgered_balanced_terminal_vc(gs, terms, k, cfg, stats, best=best))
            reduced, terms = unweighted.terminal_reduction(gs, terms, k, cfg, stats, store=store)
            offer(reduced)
    finally:
        unweighted.balanced_terminal_vc = real
    return best


def every_guess_lopsided(d, cfg=DEFAULT, stats=None):
    """Reference for `weighted.lopsided_vc`: the same guesses, clusters and
    pair order, but every distinct cluster of every guess is bucketed again
    (`identify_vlow`, `lopsided_pairs`) and each clustering computes its
    own distances.  Looks the helpers up on `vcut.weighted`, so a test that
    patches them there counts the calls of both loops.

    This is the package's former lopsided loop; `lopsided_vc` must return
    the same cut and counters, with no more calls of the helpers."""
    best = min_out_neighborhood_cut(d)
    total = d.weight_of(range(d.n))
    naive = d.m
    evaluated = set()
    parts = {}
    for ell in weighted._powers_up_to(total):
        clusters = weighted.weighted_cnc(d, ell, stats=stats)
        seen_clusters = set()
        for cluster in clusters:
            ckey = frozenset(cluster)
            if ckey in seen_clusters:
                continue
            seen_clusters.add(ckey)
            v_low = weighted.identify_vlow(d, cluster)
            if not v_low:
                continue
            part = parts.get(ckey)
            if part is None:
                part = parts[ckey] = weighted._ClusterParts(d, ckey)
            fam = weighted.lopsided_pairs(
                d, cluster, v_low, ell, weighted._powers_up_to(total), cfg
            )
            for s, t in fam.pairs:
                if s == t or d.has_arc(s, t):
                    continue
                key = (s, t, ckey)
                if key in evaluated:
                    continue
                evaluated.add(key)
                if stats is not None:
                    count = part.arc_count(s, t)
                    stats.add("sparsified_instances")
                    stats.add("sparsified_edges", count)
                    stats.add("naive_edges", naive)
                    stats.add("sparsified_edges_lopsided", count)
                    stats.add("naive_edges_lopsided", naive)
                limit = best.value if isinstance(best, VertexCut) else None
                if maxflow.packing_reaches(d.out_adj, d.weights, s, part.ends(t), limit, stats):
                    continue
                ids, arcs = weighted.lopsided_arcs(d, s, t, cluster)
                h = weighted._instance(d, ids, arcs)
                cand = weighted._digraph_pair_cut(d, h, ids, s, t, limit, stats)
                best = better_cut(best, cand)
    return best


def every_guess_symmetric(d, cfg=DEFAULT, stats=None):
    """Reference for `weighted.symmetric_vc`: the same pair order, but a
    family (`symmetric_pairs`, looked up on `vcut.weighted`) is built for
    every guess, even after every pair has been evaluated.

    This is the package's former symmetric loop; `symmetric_vc` must return
    the same cut and counters, with no more families."""
    best = min_out_neighborhood_cut(d)
    total = d.weight_of(range(d.n))
    evaluated = set()
    for ell in weighted._powers_up_to(total):
        fam = weighted.symmetric_pairs(d, ell, cfg)
        for u, v in fam:
            for s, t in ((u, v), (v, u)):
                if s == t or d.has_arc(s, t) or (s, t) in evaluated:
                    continue
                evaluated.add((s, t))
                limit = best.value if isinstance(best, VertexCut) else None
                if maxflow.packing_reaches(d.out_adj, d.weights, s, d.in_set(t), limit, stats):
                    continue
                h = weighted.sparsify_symmetric(d, s, t)
                if stats is not None:
                    stats.add("sparsified_instances")
                    stats.add("sparsified_edges", h.m)
                    stats.add("naive_edges", d.m)
                cand = weighted._digraph_pair_cut(d, h, list(range(d.n)), s, t, limit, stats)
                best = better_cut(best, cand)
    return best


def four_call_weighted(d, cfg=DEFAULT, stats=None, branches=None):
    """Reference for `weighted.vertex_connectivity_weighted`: both branches
    (default: `weighted.lopsided_vc`, `weighted.symmetric_vc`, or the pair
    `branches` in their place) on the digraph and on its reverse, every
    time, keeping the key()-minimum of the cuts that validate in d.

    This is the package's former driver, before it skipped `lopsided_vc`
    where a complete symmetric search returned its baseline; the driver
    must return the same cut."""
    if d.n <= 1 or len(d.strongly_connected_components()) > 1 or d.is_complete():
        return weighted.vertex_connectivity_weighted(d, cfg, stats)
    if branches is None:
        branches = (weighted.lopsided_vc, weighted.symmetric_vc)
    best = None
    for variant, flip in ((d, False), (d.reverse(), True)):
        for branch in branches:
            got = branch(variant, cfg, stats)
            if isinstance(got, VertexCut):
                if flip:
                    got = VertexCut(got.R, got.S, got.L, got.value)
                if validate_cut(d, got):
                    best = better_cut(best, got)
    return best


def exhaustive_sparsest(g, terminals):
    """Reference for the exhaustive branch of the sparsest canonical cut:
    every vertex subset A in increasing mask order, scored by h = |N(A)| /
    min(terminals in A | N(A), terminals outside A) over the subsets with a
    non-empty rest and terminal mass on both closed sides, the least h
    winning and ties broken by the least (separator mask, subset mask).
    Returns (h, L, S, R) as a Fraction and sorted tuples, or None.

    This is the package's former pure-Python subset loop; the numpy scan
    of `unweighted._sparsest_canonical_cut` must pick the same cut."""
    n = g.n
    adj_mask = [0] * n
    for v in range(n):
        for w in g.adj[v]:
            adj_mask[v] |= 1 << w
    tmask = 0
    for v in set(terminals):
        tmask |= 1 << v
    full = (1 << n) - 1
    nbr_or = [0] * (1 << n)
    b_num = b_den = 0
    best_bits = None
    for bits in range(1, full):
        low = bits & -bits
        sep_mask = nbr_or[bits ^ low] | adj_mask[low.bit_length() - 1]
        nbr_or[bits] = sep_mask
        sep = sep_mask & ~bits
        rest = full & ~bits & ~sep
        if not rest:
            continue
        lt = ((bits | sep) & tmask).bit_count()
        rt = ((rest | sep) & tmask).bit_count()
        denom = lt if lt < rt else rt
        if denom == 0:
            continue
        num = sep.bit_count()
        if best_bits is None or num * b_den < b_num * denom or (
            num * b_den == b_num * denom and (sep, bits) < (best_bits[1], best_bits[0])
        ):
            b_num, b_den = num, denom
            best_bits = (bits, sep, rest)
    if best_bits is None:
        return None
    sides = tuple(tuple(v for v in range(n) if mask >> v & 1) for mask in best_bits)
    return (Fraction(b_num, b_den), *sides)


def uncapped_sparsest_cut(g, terminals, probe_budget, stats=None, probes=None):
    """Reference for the probe branch of the sparsest canonical cut (graphs
    above `unweighted.EXHAUSTIVE_MAX` vertices): a cut per component when g
    is disconnected, then every non-adjacent terminal pair (u, v), u < v,
    in order, up to `probe_budget` pairs, each probed by an uncapped
    `bare_min_st_cut` (kept in the dict `probes`, when given, and reused
    from it).  The least (h, sorted S, sorted L) wins.  Returns (h, cut) or None.

    This is the package's former probe loop; with probes capped at
    `unweighted._probe_cap`, `expander_decomposition` must give the same X
    and pieces."""
    tset = set(terminals)
    n = g.n
    best = None

    def consider(left, sep, rest):
        nonlocal best
        if not left or not rest:
            return
        denom = min(len(tset & (left | sep)), len(tset & (rest | sep)))
        if denom == 0:
            return
        key = (Fraction(len(sep), denom), tuple(sorted(sep)), tuple(sorted(left)))
        if best is None or key < best[0]:
            best = (key, VertexCut(left, sep, rest, len(sep)))

    if probes is None:
        probes = {}
    comps = g.components()
    if len(comps) > 1:
        for comp in comps:
            consider(set(comp), set(), set(range(n)) - set(comp))
    pairs = [
        (u, v) for u, v in itertools.combinations(sorted(tset), 2) if not g.has_edge(u, v)
    ]
    for u, v in pairs[:probe_budget]:
        if (u, v) not in probes:
            probes[u, v] = bare_min_st_cut(g, u, v, stats=stats)
        _, cut = probes[u, v]
        consider(set(cut.L), set(cut.S), set(cut.R))
    if best is None:
        return None
    return best[0][0], best[1]


def disjoint_paths(adj, s, sinks, limit, paths=None):
    """Reference for the unit-capacity packing: greedy internally
    vertex-disjoint paths from s to the sink set `sinks` in the undirected
    graph `adj` (any view indexed by vertex).  Every two-hop path s - v -
    sink is taken first, in the order of adj[s]; then each path is a BFS
    shortest path through vertices that no earlier path used, stopping at
    the first neighbour of a sink.  Stops at `limit` paths (None: no limit)
    and returns their number; when `paths` is a list, each path is appended
    to it as a tuple from s to the first sink adjacent to its last vertex.

    This is the package's former undirected packer.  `maxflow.weighted_paths`
    with unit weights, ends the sinks' neighbours, must pack the same paths,
    less the final sink."""

    def sink_next_to(v):
        return next(x for x in sinks if v in adj[x])

    into = set()
    for x in sinks:
        into.update(adj[x])
    if s in into:
        raise InvariantError("disjoint paths need a source not adjacent to the sinks")
    if limit is not None and limit <= 0:
        return 0
    used = [v for v in adj[s] if v in into][:limit]
    if paths is not None:
        paths.extend((s, v, sink_next_to(v)) for v in used)
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
        path = [sink_next_to(last)] if paths is not None else []
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


def unit_paths(adj, n, s, sinks, limit, paths=None):
    """`maxflow.weighted_paths` as the package packs an undirected graph on
    [0, n) toward a sink set: unit weights, ends the sinks' neighbours."""
    ends = set().union(*(adj[x] for x in sinks))
    return weighted_paths(adj, [1] * n, s, ends, limit, paths)


def assert_matches_reference(adj, n, s, sinks, limit):
    """The unit-capacity packing and the reference `disjoint_paths` give the
    same count and the same paths (less the final sink), each of amount 1.
    Returns the reference paths."""
    mine, ref = [], []
    count = unit_paths(adj, n, s, sinks, limit, mine)
    assert count == disjoint_paths(adj, s, sinks, limit, ref) == len(ref)
    assert [p for p, _ in mine] == [r[:-1] for r in ref], (s, sinks, limit)
    assert all(amount == 1 for _, amount in mine)
    return ref


def two_hop_weight(g, s, t):
    """Summed weight of the middle vertices of the paths s -> v -> t: the
    two-hop part of every path packing, and a lower bound on the (s,t) max
    flow (the paths are vertex-disjoint)."""
    if isinstance(g, Graph):
        return len(g.neighbor_set(s) & g.neighbor_set(t))
    return g.weight_of(g.out_set(s) & g.in_set(t))


def bypass_network(g, sources, sinks, caps=None):
    """The split network of g with terminal bypass arcs, built by hand as
    lists: v_in (2v) -> v_out (2v+1) at caps[v] (None: uncuttable),
    u_out -> v_in for each arc (u, v), a super-source 2n -> s_out for each
    source and t_in -> 2n+1 super-sink for each sink, all but the split
    arcs at inf = n * max cap + 1.  `caps` defaults to 1 per vertex of a
    Graph and to the weights of a WeightedDigraph.

    Returns (num_nodes, tails, heads, arc_caps, super_source, super_sink)."""
    n = g.n
    if caps is None:
        caps = [1] * n if isinstance(g, Graph) else list(g.weights)
    arcs = g.flow_arcs() if isinstance(g, Graph) else list(g.arcs())
    inf = n * max((c for c in caps if c is not None), default=1) + 1
    tails = [2 * v for v in range(n)] + [2 * u + 1 for u, _ in arcs]
    heads = [2 * v + 1 for v in range(n)] + [2 * v for _, v in arcs]
    arc_caps = [inf if c is None else c for c in caps] + [inf] * len(arcs)
    tails += [2 * n] * len(sources) + [2 * t for t in sinks]
    heads += [2 * s + 1 for s in sources] + [2 * n + 1] * len(sinks)
    arc_caps += [inf] * (len(sources) + len(sinks))
    return 2 * n + 2, tails, heads, arc_caps, 2 * n, 2 * n + 1


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


CORE_SOURCE = os.path.join(os.path.dirname(__file__), os.pardir, "src", "vcut", "_core.c")


def core_build_problem():
    """Why `build_core` cannot run here (no C compiler through `sysconfig`,
    or no `Python.h`), or None when it can."""
    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    if not cc or shutil.which(cc[0]) is None:
        return f"no C compiler found through sysconfig (CC={cc!r})"
    include = sysconfig.get_paths()["include"]
    if not os.path.exists(os.path.join(include, "Python.h")):
        return f"Python.h not found in {include}"
    return None


def build_core(source, out_dir):
    """The flow core `source` (a C file), built into `out_dir` with the C
    compiler that `sysconfig` names (any warning fails the build) and
    loaded from there as `vcut._core`.  It is not put in `sys.modules` and
    not written to `src/`, so `vcut.maxflow` keeps the backend it chose."""
    cc = shlex.split(sysconfig.get_config_var("CC"))
    out = os.path.join(out_dir, "_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    flags = ["-shared", "-fPIC", "-O2", "-Wall", "-Werror"]
    cmd = cc + flags + ["-I", sysconfig.get_paths()["include"], source, "-o", out]
    built = subprocess.run(cmd, capture_output=True, text=True)
    assert built.returncode == 0, built.stderr[-2000:]
    loader = importlib.machinery.ExtensionFileLoader("vcut._core", out)
    spec = importlib.util.spec_from_file_location("vcut._core", out, loader=loader)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def compiled_core(tmp_path_factory):
    """The compiled flow backend, `build_core` of `src/vcut/_core.c` in a
    temporary directory.  Skips, with the reason, where it cannot be built."""
    problem = core_build_problem()
    if problem is not None:
        pytest.skip(problem)
    return build_core(CORE_SOURCE, str(tmp_path_factory.mktemp("core")))


@pytest.fixture
def python_backend(monkeypatch):
    """`vcut.maxflow` solving on the pure-Python backend for one test."""
    monkeypatch.setattr(maxflow, "_backend", _pyflow)
    return _pyflow


@pytest.fixture
def compiled_backend(compiled_core, monkeypatch):
    """`vcut.maxflow` solving on the compiled backend for one test (skipped,
    with the reason, where `compiled_core` cannot be built)."""
    monkeypatch.setattr(maxflow, "_backend", compiled_core)
    return compiled_core
