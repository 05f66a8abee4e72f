"""Gap-based k-connectivity decision: rich sets, gap enlargement, and
expander-pair enumeration.

`gabow_vc(G, k)` returns a minimum vertex cut when kappa < k and the
KConnected verdict otherwise.  All probe cuts (rooted connectivity, weak
separators, expander pairs, enlargement rounds) are collected as candidates
and validated in the original graph; the case analysis guarantees that one
of them has size exactly kappa whenever kappa < k.

When no positive rich-set margin exists (sparsified minimum degree <= k, or
tau <= 0 inside `large_gap_vc`), the decision falls back to Even's sweep
(`maxflow.even_sweep`): pairwise flows from sources v_0..v_{L-1} only, L the
value of the best cut so far (else k).  A minimum separator S misses some
v_i with i <= |S|, and every vertex on its far side has a larger index, so
the sweep meets a pair that S separates unless the limit is already <= |S|.
The sweep returns early, with the same cut and a prefix of its flows, once
`maxflow.connectivity_at_least` proves kappa >= the limit from packings
over the Esfahanian-Hakimi pair set (a minimum-degree vertex v with its
non-neighbours, and the non-adjacent pairs of N(v)), which no minimum
separator misses.  The fallback is recorded as the
`gabow_allpairs_fallback` counter.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import Exhausted, InvariantError
from .graphs import (
    Graph,
    NoCut,
    NoSeparator,
    VertexCut,
    better_cut,
    min_degree_cut,
    ni_sparsify,
    validate_cut,
)
from .maxflow import even_sweep, min_st_cut, rooted_connectivity, weak_separator
from .pseudorandom import build_mixing_graph

# Estimate of the mixing-backend constant in the mixing graph's degree
# formula (the graph's certificate is checked after construction).
GABOW_MIXING_C = 2.0


class KConnected:
    """Verdict: the graph has no vertex cut smaller than k."""

    __slots__ = ("k",)

    def __init__(self, k):
        self.k = k

    def __repr__(self):
        return f"KConnected(k={self.k})"


class RichSet:
    """A set certified to intersect both sides of some minimum cut in at
    least tau vertices (conditioned on kappa < k)."""

    __slots__ = ("vertices", "tau")

    def __init__(self, vertices, tau):
        self.vertices = tuple(sorted(vertices))
        self.tau = tau

    def __repr__(self):
        return f"RichSet(|T|={len(self.vertices)}, tau={self.tau})"


class GapState:
    """Current enlarged graph (compact ids + map), removed vertices, and the
    best cut seen (original ids)."""

    __slots__ = ("h", "ids", "removed", "best")

    def __init__(self, h, ids, removed, best):
        self.h = h
        self.ids = list(ids)
        self.removed = tuple(sorted(removed))
        self.best = best

    def __repr__(self):
        bv = self.best.value if isinstance(self.best, VertexCut) else None
        return f"GapState(n={self.h.n}, removed={len(self.removed)}, best={bv})"


def _offer(g, best, cut):
    if isinstance(cut, VertexCut) and validate_cut(g, cut):
        return better_cut(best, cut)
    return best


def rich_set_or_cut(g: Graph, k, stats=None):
    """Either candidate cuts of size < k or a tau-rich set, tau = (delta-k)/2.

    Returns (candidates, rich_or_none); candidates are always worth keeping
    even when a rich set is produced.
    """
    if not g.is_connected():
        raise InvariantError("graph must be connected")
    delta = g.min_degree()
    tau = Fraction(delta - k, 2)
    if delta > g.n / 2:
        return [], RichSet(range(g.n), tau)
    a = min(v for v in range(g.n) if g.degree(v) == delta)
    rooted = rooted_connectivity(g, a, stats=stats)
    if isinstance(rooted, NoCut):
        # N[a] covers the graph; with minimum degree delta <= n/2 this only
        # happens on tiny dense graphs where the whole set is as rich as
        # anything we could certify.
        return [], RichSet(range(g.n), tau)
    kappa_a, cut_a = rooted
    candidates = [cut_a]
    if kappa_a < k:
        return candidates, None
    if kappa_a >= k + tau:
        return candidates, RichSet(g.neighbor_set(a), tau)
    side = sorted(set(cut_a.L) | set(cut_a.R))
    probe = side[: min(k, len(side))]
    for tset in (cut_a.S, probe):
        tset = sorted(set(tset))
        if not tset or len(tset) >= g.n:
            continue
        got = weak_separator(g, tset, stats=stats)
        if not isinstance(got, NoCut):
            _, wcut = got
            if isinstance(wcut, VertexCut):
                candidates.append(wcut)
    best = min((c.value for c in candidates), default=None)
    if best is not None and best < k:
        return candidates, None
    return candidates, RichSet(cut_a.S, tau)


def large_gap_vc(h: Graph, k, stats=None):
    """Decision kappa(h) < k (a cut) versus KConnected, for a graph whose
    gap delta - kappa is large.

    Rich-set route: a mixing graph sized by the certified spectral constant
    enumerates candidate pairs across the rich set.  Degenerate tau falls
    back to Even's exact sweep (recorded in the counters).
    """
    best = None
    candidates, rich = rich_set_or_cut(h, k, stats=stats)
    for cand in candidates:
        best = _offer(h, best, cand)
    if rich is not None:
        if rich.tau <= 0:
            if stats is not None:
                stats.add("gabow_allpairs_fallback")
            best = even_sweep(h, best, cap=k, stats=stats)
        else:
            terms = list(rich.vertices)
            t_size = len(terms)
            rho = max(1, math.ceil(rich.tau))
            rho2 = max(rho, math.ceil(Fraction(t_size - k, 2)))
            c_est = GABOW_MIXING_C
            d = max(1, min(t_size - 1, 1 + math.ceil(4 * (c_est * t_size) ** 2 / (rho * rho2))))
            while True:
                mix = build_mixing_graph(t_size, d)
                if rho * rho2 >= mix.pair_threshold or d >= t_size - 1:
                    break
                d = min(t_size - 1, 2 * d)
            for xi, yi in mix.edges():
                x, y = terms[xi], terms[yi]
                if h.has_edge(x, y):
                    continue
                limit = min(
                    best.value if isinstance(best, VertexCut) else k, k
                )
                res = min_st_cut(h, x, y, limit=limit, stats=stats)
                if res is NoSeparator or res[1] is None:
                    continue
                best = _offer(h, best, res[1])
    if isinstance(best, VertexCut) and best.value < k:
        return best
    return KConnected(k)


def increase_gap(state: GapState, k, g: Graph, stats=None) -> GapState:
    """One gap-enlargement round: certify the smallest vertex into every
    remaining mincut (conditioned on kappa < k), remove it, and patch the
    degree of its neighbors with safe edges.

    Every probe cut, extended by the removed vertices, is offered as a
    candidate in the original graph g.  Raises Exhausted when no
    non-adjacent partner is available.
    """
    h, ids = state.h, state.ids
    best = state.best
    if h.is_complete():
        raise Exhausted("enlarged graph is complete")
    x_local = 0
    rooted = rooted_connectivity(h, x_local, stats=stats)
    if isinstance(rooted, NoCut):
        raise Exhausted("chosen vertex is adjacent to everything")
    _, cut_x = rooted
    lifted = _extend_local(g, cut_x, ids, state.removed)
    best = _offer(g, best, lifted)

    delta_h = h.min_degree()
    keep = [v for v in range(h.n) if v != x_local]
    sub, submap = h.induced(keep)
    adj = [set(row) for row in sub.adj]
    new_ids = [ids[keep[j]] for j in range(len(keep))]
    lowdeg = [
        j for j in range(sub.n)
        if keep[j] in h.neighbor_set(x_local) and sub.degree(j) == delta_h - 1
    ]
    for u in lowdeg:
        if len(adj[u]) >= delta_h:
            continue  # an earlier patch already restored this degree
        w = next(
            (w for w in range(sub.n) if w != u and w not in adj[u]), None
        )
        if w is None:
            raise Exhausted("no non-adjacent partner to patch degree")
        probe_graph = Graph(sub.n, [sorted(r) for r in adj])
        res = min_st_cut(probe_graph, u, w, stats=stats)
        if res is not NoSeparator and res[1] is not None:
            lifted = _extend_local(g, res[1], new_ids, set(state.removed) | {ids[x_local]})
            best = _offer(g, best, lifted)
        adj[u].add(w)
        adj[w].add(u)
    new_h = Graph(sub.n, [sorted(r) for r in adj])
    removed = set(state.removed) | {ids[x_local]}
    return GapState(new_h, new_ids, removed, best)


def _extend_local(g, cut, ids, removed):
    left = {ids[j] for j in cut.L}
    sep = {ids[j] for j in cut.S} | set(removed)
    rest = set(range(g.n)) - left - sep
    if not left or not rest:
        return None
    return VertexCut(left, sep, rest, len(sep))


def gabow_vc(g: Graph, k, stats=None):
    """Decide kappa(G) < k (returning a minimum cut) versus KConnected.

    Sparsifies to a k-certificate first; small k goes straight to the
    large-gap routine, larger k runs gap enlargement for ceil(delta/sqrt n)
    rounds.  Complete graphs surface the NoCut sentinel (kappa = n-1).
    """
    if k < 1:
        raise InvariantError("k must be >= 1")
    if g.n <= 1:
        return NoCut(max(0, g.n - 1))
    comps = g.components()
    if len(comps) > 1:
        rest = set(range(g.n)) - set(comps[0])
        return VertexCut(comps[0], (), rest, 0)
    if g.is_complete():
        return NoCut(g.n - 1)
    gs = ni_sparsify(g, k)
    delta = gs.min_degree()
    best = None

    def offer(cut):
        nonlocal best
        best = _offer(g, best, cut)

    offer(min_degree_cut(g))
    if delta <= k:
        # tau would be nonpositive; resolve by Even's exact sweep.
        if stats is not None:
            stats.add("gabow_allpairs_fallback")
        best = even_sweep(gs, best, cap=k, stats=stats)
    elif k < math.isqrt(g.n) + 1:
        got = large_gap_vc(gs, k, stats)
        if isinstance(got, VertexCut):
            offer(got)
    else:
        state = GapState(gs, list(range(gs.n)), (), min_degree_cut(gs))
        rounds = max(1, math.ceil(delta / math.sqrt(g.n)))
        for _ in range(rounds):
            if isinstance(state.best, VertexCut) and state.best.value < k:
                break
            try:
                state = increase_gap(state, k, g, stats=stats)
            except Exhausted:
                break
        if isinstance(state.best, VertexCut):
            offer(state.best)
        k_prime = k - len(state.removed)
        if not (isinstance(best, VertexCut) and best.value < k) and k_prime >= 1:
            got = large_gap_vc(state.h, k_prime, stats)
            if isinstance(got, VertexCut):
                lifted = _extend_local(g, got, state.ids, state.removed)
                offer(lifted)
    if isinstance(best, VertexCut) and best.value < k:
        return best
    return KConnected(k)
