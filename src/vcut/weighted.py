"""The weighted directed pipeline: lopsided case (clustering, the 0.9
in-weight split, bucketed crossing families, per-pair sparsified flow
instances) and the symmetric case, combined over the graph and its reverse.

Every separator extracted from a sparsified instance is re-validated in the
original digraph before it can become a candidate, so the returned cut is
always sound.  Where the symmetric branch's pair families are complete (on
every digraph measured so far), its search evaluates every ordered
non-adjacent pair and is exact by itself; the driver runs the lopsided
branch only where it can still change the cut (see
`vertex_connectivity_weighted`).

A pair skips its capped flow by the flow engine's one skip rule
(`maxflow.packing_reaches`, counted as `path_skips`): a greedy packing of
vertex-capacitated paths of its instance already carries the current best
value, so the flow could only report "no better".  The packing runs on d
itself, to ends that keep every packed path a path of the pair's instance,
so no instance is built for it: the symmetric instance of (s, t) drops the
arcs inside N_out(s) and inside N_in(t), and its ends are N_in(t); the
lopsided instance's ends are `_ClusterParts.ends`.  The packing takes
every two-hop path s -> v -> t first, so it skips every pair the two-hop
weight alone would skip.

The two bucketed unions are the only pair families this module
de-duplicates, where they are built: `lopsided_pairs` returns its union
sorted, the order `lopsided_vc` visits it in, and `symmetric_pairs` in
first-occurrence order; the pair loops take the pairs as they come.

Both branches guess ell = w(L) over the powers of two up to w(V) and
evaluate each pair (each (s, t, cluster) in the lopsided branch) at the
first guess that offers it.  Two rules skip work whose result is already
decided, so the pairs evaluated, and their order, stay the same:

- A lopsided cluster C is *covered* once its bucketed union has
  |C| * |v_low(C)| pairs (or v_low(C) is empty).  The union is distinct
  and lies in C x v_low(C), and v_low depends only on (d, C), so every
  pair a later guess could offer C has been evaluated or is skipped as
  s == t or an arc; later guesses skip C before `identify_vlow`.  The
  clusterings of all guesses share one distance table: the weighted
  symmetric difference does not depend on ell.
- The symmetric branch stops once it has evaluated all n(n-1) - m ordered
  non-adjacent pairs (`WeightedDigraph` has no self-loops and no duplicate
  arcs, so that is every pair a family can offer), and says whether it got
  there (`_symmetric_search`).

The lopsided branch counts the arcs of every evaluated pair's instance
(they feed the naive/sparsified edge ratio that the instrumentation
reports, which must not depend on which pairs were skipped) from
per-cluster parts (`_ClusterParts`), and selects and builds an instance
(`lopsided_arcs`, `_instance`) only for the pairs that get a flow.  The
symmetric branch counts only the instances it builds.
"""

from __future__ import annotations

import math

from .cnc import weighted_cnc
from .config import DEFAULT, Config
from .errors import InvariantError
from .graphs import (
    NoCut,
    VertexCut,
    WeightedDigraph,
    _log2ceil,
    better_cut,
    min_out_neighborhood_cut,
    validate_cut,
)
from .maxflow import _graph_flow, packing_reaches
from .pseudorandom import (
    PairFamily,
    asymmetric_crossing_family,
    map_pairs,
    symmetric_crossing_family,
)


def _bucket(w):
    """Weight buckets: bucket i holds weights in (2^(i-1), 2^i], bucket 1
    holds {1, 2}."""
    return _log2ceil(w)


def _powers_up_to(limit):
    out = []
    p = 1
    while p <= limit:
        out.append(p)
        p *= 2
    return out


def identify_vlow(d: WeightedDigraph, cluster):
    """Vertices whose in-neighborhood covers at most 0.9 of the cluster's
    weight; one scan over the cluster's out-arcs, compared in integers."""
    cset = set(cluster)
    wc = d.weight_of(cset)
    if wc <= 0:
        raise InvariantError("cluster weight must be positive")
    covered = [0] * d.n
    for u in cset:
        wu = d.weights[u]
        for v in d.out_adj[u]:
            covered[v] += wu
    return [v for v in range(d.n) if 10 * covered[v] <= 9 * wc]


def lopsided_pairs(d: WeightedDigraph, cluster, v_low, ell, r, cfg: Config = DEFAULT):
    """Bucketed union of asymmetric crossing families between the cluster
    and the low-coverage set, for one (ell, r) guess, or for every guess in
    `r` when it is a list; degenerate bucket parameters clamp to the
    complete fallback.

    A guess enters a bucket pair's family only through the clamped r_ij,
    so over a list of guesses each distinct (i, j, l_ij, r_ij) family is
    built once; the pairs are the union of the per-guess pairs, distinct
    and sorted (the order `lopsided_vc` visits them in), and the degree
    bound sums over the distinct families."""
    guesses = r if isinstance(r, list) else [r]
    if ell < 1 or min(guesses, default=0) < 1:
        raise InvariantError("ell and r must be >= 1 (powers of two)")
    logw = _log2ceil(d.max_weight)
    logn = _log2ceil(d.n)
    by_bucket_c = {}
    by_bucket_d = {}
    for u in cluster:
        by_bucket_c.setdefault(_bucket(d.weights[u]), []).append(u)
    for v in v_low:
        by_bucket_d.setdefault(_bucket(d.weights[v]), []).append(v)
    for bucket in (*by_bucket_c.values(), *by_bucket_d.values()):
        bucket.sort()
    pairs = []
    bound = 0
    for i in range(1, logw + 1):
        ci = by_bucket_c.get(i)
        if not ci:
            continue
        for j in range(1, logw + 1):
            dj = by_bucket_d.get(j)
            if not dj:
                continue
            l_i = min(max(1, math.ceil(ell / (2**i * logw))), len(ci))
            built_r = set()
            for guess in guesses:
                r_ij = len(dj) - math.ceil(d.n * ell * logw * logn * logn / guess)
                r_ij = max(1, min(r_ij, len(dj)))
                if r_ij in built_r:
                    continue
                built_r.add(r_ij)
                fam = asymmetric_crossing_family(ci, dj, min(l_i, r_ij), r_ij, cfg)
                pairs.extend(fam.pairs)
                bound += fam.degree_bound
    return PairFamily(sorted(set(pairs)), bound, "bucketed")


def lopsided_arcs(d: WeightedDigraph, s, t, cluster):
    """The arc selection of `sparsify_lopsided`: the instance's vertices
    (sorted original ids) and its arcs as a set of original-id pairs."""
    cset = set(cluster)
    if s not in cset:
        raise InvariantError("s must lie in the cluster")
    n_out = set()
    for u in cset:
        for v in d.out_adj[u]:
            if v not in cset:
                n_out.add(v)
    vertices = sorted(cset | n_out | {t})
    vset = set(vertices)
    ns = d.out_set(s)
    arcs = set()
    for u in vertices:
        u_in_c = u in cset
        for v in d.out_adj[u]:
            if v not in vset or not (u_in_c or v in cset):
                continue
            if u in ns and v in ns:
                continue
            arcs.add((u, v))
    for u in n_out:
        if u != t:
            arcs.add((u, t))
    return vertices, arcs


def _instance(d: WeightedDigraph, vertices, arcs):
    """The digraph on `vertices` (renumbered by position) with `arcs`."""
    pos = {v: i for i, v in enumerate(vertices)}
    local = sorted((pos[u], pos[v]) for u, v in arcs)
    weights = [d.weights[v] for v in vertices]
    return WeightedDigraph.from_arcs(len(vertices), local, weights)


def sparsify_lopsided(d: WeightedDigraph, s, t, cluster):
    """The per-pair compressed instance: arcs incident to the cluster minus
    arcs inside N_out(s), plus an arc from every cluster out-neighbor to t.

    Returns (digraph, ids) with ids mapping instance positions back to
    original vertices; any (s,t)-separator of the instance is an
    (s,t)-separator of the original graph.
    """
    vertices, arcs = lopsided_arcs(d, s, t, cluster)
    return _instance(d, vertices, arcs), vertices


def sparsify_symmetric(d: WeightedDigraph, s, t):
    """Drop arcs inside N_out(s) and arcs inside N_in(t); the minimum
    (s,t)-separator is unchanged."""
    if s == t:
        raise InvariantError("s == t")
    ns = d.out_set(s)
    nt = d.in_set(t)
    adj = []
    for u in range(d.n):
        row = [
            v for v in d.out_adj[u]
            if not (u in ns and v in ns) and not (u in nt and v in nt)
        ]
        adj.append(row)
    return WeightedDigraph(d.n, adj, d.weights)


class _ClusterParts:
    """What the lopsided instances of one cluster C of d share: n_out (the
    out-neighbours of C outside C), the vertices outside C, and the base
    arc count (the out-degrees of C's vertices plus the arcs from n_out
    into C), with a per-source cache of the dropped arcs."""

    __slots__ = ("d", "cluster", "n_out", "outside", "base", "_drops")

    def __init__(self, d: WeightedDigraph, cluster):
        self.d = d
        self.cluster = cluster
        self.n_out = frozenset(v for u in cluster for v in d.out_adj[u] if v not in cluster)
        self.outside = frozenset(range(d.n)) - cluster
        self.base = sum(len(d.out_adj[u]) for u in cluster) + sum(
            1 for u in self.n_out for v in d.out_adj[u] if v in cluster
        )
        self._drops = {}

    def _drop(self, s):
        """The arcs inside N_out(s) with an endpoint in the cluster."""
        got = self._drops.get(s)
        if got is None:
            d, c = self.d, self.cluster
            ns = d.out_set(s)
            got = sum(1 for u in ns for v in d.out_adj[u] if v in ns and (u in c or v in c))
            self._drops[s] = got
        return got

    def arc_count(self, s, t):
        """len(lopsided_arcs(d, s, t, cluster)[1]), without selecting them:
        the base, less the arcs inside N_out(s), plus the arcs n_out -> t,
        less those already in d when t is in C, plus the arcs from t into C
        when t is in neither C nor n_out."""
        d, c, n_out = self.d, self.cluster, self.n_out
        count = self.base - self._drop(s) + len(n_out) - (t in n_out)
        if t in c:
            count -= len(d.in_set(t) & n_out)
        elif t not in n_out:
            count += sum(1 for v in d.out_adj[t] if v in c)
        return count

    def ends(self, t):
        """The packing ends of the pair (s, t): every vertex outside C and
        the members of C with an arc to t.  So only members of C are
        expanded; every out-arc of one is an arc of the instance unless it
        lies inside N_out(s), and the packing reaches outside C only the
        vertices of n_out, each of which has an arc to t in the instance
        (t itself has an arc from no expanded vertex)."""
        return self.outside | (self.cluster & self.d.in_set(t))


def _digraph_pair_cut(d: WeightedDigraph, h: WeightedDigraph, ids, s, t,
                      limit, stats):
    """Min (s,t)-separator on the instance h, mapped back and validated as a
    cut of d.  Returns None when capped; counts (never expected) extraction
    failures so the acceptance suite can assert soundness."""
    pos = {v: i for i, v in enumerate(ids)}
    value, sep, _, completed = _graph_flow(h, [pos[s]], [pos[t]], limit=limit, stats=stats)
    if not completed:
        return None
    separator = {ids[j] for j in sep}
    reach = set(d.reachable_from(s, removed=frozenset(separator)))
    rest = set(range(d.n)) - reach - separator
    cut = VertexCut(reach, separator, rest, d.weight_of(separator)) if rest else None
    if cut is None or cut.value != value or not validate_cut(d, cut):
        if stats is not None:
            stats.add("sparsified_invalid")
        return None
    if stats is not None:
        stats.add("sparsified_valid")
    return cut


def lopsided_vc(d: WeightedDigraph, cfg: Config = DEFAULT, stats=None):
    """Cut search targeting minimum cuts whose far side carries most of the
    weight.  Always returns a valid cut; minimum under the lopsidedness
    promise."""
    best = min_out_neighborhood_cut(d)
    guesses = _powers_up_to(d.weight_of(range(d.n)))
    naive = d.m
    evaluated = set()
    parts = {}
    covered = set()
    distances = {}
    for ell in guesses:
        clusters = weighted_cnc(d, ell, stats=stats, cache=distances)
        seen_clusters = set()
        for cluster in clusters:
            ckey = frozenset(cluster)
            if ckey in seen_clusters or ckey in covered:
                continue
            seen_clusters.add(ckey)
            v_low = identify_vlow(d, cluster)
            if not v_low:
                covered.add(ckey)
                continue
            part = parts.get(ckey)
            if part is None:
                part = parts[ckey] = _ClusterParts(d, ckey)
            fam = lopsided_pairs(d, cluster, v_low, ell, guesses, cfg)
            if len(fam.pairs) == len(ckey) * len(v_low):
                covered.add(ckey)
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
                if packing_reaches(d.out_adj, d.weights, s, part.ends(t), limit, stats):
                    continue
                ids, arcs = lopsided_arcs(d, s, t, cluster)
                h = _instance(d, ids, arcs)
                cand = _digraph_pair_cut(d, h, ids, s, t, limit, stats)
                best = better_cut(best, cand)
    return best


def symmetric_pairs(d: WeightedDigraph, ell, cfg: Config = DEFAULT):
    """Bucket-pair union of symmetric crossing families with the
    directional inclusion rule (pairs kept when their source sits in the
    heavier bucket), de-duplicated in first-occurrence order."""
    if ell < 1:
        raise InvariantError("ell must be >= 1")
    lam = cfg.lam
    logw = _log2ceil(d.max_weight)
    logn = _log2ceil(d.n)
    buckets = {}
    for v in range(d.n):
        buckets.setdefault(_bucket(d.weights[v]), []).append(v)
    pairs = []
    bound = 0
    for i in range(1, logw + 1):
        vi = buckets.get(i, [])
        if not vi:
            continue
        for j in range(1, logw + 1):
            vj = buckets.get(j, [])
            if not vj:
                continue
            union = sorted(set(vi) | set(vj))
            if len(union) < 2:
                continue
            alpha = min(
                d.n,
                d.n * (2 ** max(i, j) / ell) * logw * lam * lam * logn,
            )
            fam = map_pairs(symmetric_crossing_family(len(union), alpha, cfg), union)
            heavy = set(vi if i >= j else vj)
            pairs.extend(p for p in fam.pairs if p[0] in heavy)
            bound += fam.degree_bound
    return PairFamily(dict.fromkeys(pairs), bound, "bucketed-symmetric")


def _symmetric_search(d: WeightedDigraph, cfg: Config = DEFAULT, stats=None):
    """`symmetric_vc`'s search: (best cut, complete), where complete says
    that it evaluated every ordered non-adjacent pair."""
    best = min_out_neighborhood_cut(d)
    total = d.weight_of(range(d.n))
    evaluated = set()
    evaluable = d.n * (d.n - 1) - d.m
    for ell in _powers_up_to(total):
        if len(evaluated) == evaluable:
            break
        fam = symmetric_pairs(d, ell, cfg)
        for u, v in fam:
            for s, t in ((u, v), (v, u)):
                if s == t or d.has_arc(s, t) or (s, t) in evaluated:
                    continue
                evaluated.add((s, t))
                limit = best.value if isinstance(best, VertexCut) else None
                if packing_reaches(d.out_adj, d.weights, s, d.in_set(t), limit, stats):
                    continue
                h = sparsify_symmetric(d, s, t)
                if stats is not None:
                    stats.add("sparsified_instances")
                    stats.add("sparsified_edges", h.m)
                    stats.add("naive_edges", d.m)
                cand = _digraph_pair_cut(
                    d, h, list(range(d.n)), s, t, limit, stats
                )
                best = better_cut(best, cand)
    return best, len(evaluated) == evaluable


def symmetric_vc(d: WeightedDigraph, cfg: Config = DEFAULT, stats=None):
    """Cut search for weight-balanced minimum cuts: pair flows on
    arc-dropped instances, both orientations per pair."""
    return _symmetric_search(d, cfg, stats)[0]


def vertex_connectivity_weighted(d: WeightedDigraph, cfg: Config = DEFAULT, stats=None):
    """Exact minimum weighted vertex cut driver.

    Handles non-strongly-connected inputs (weight-0 cut from a sink
    component) and complete digraphs (NoCut sentinel, no numeric value).
    Otherwise, on the graph and on its reverse: the symmetric search, then
    `lopsided_vc` unless that search was complete and returned its
    baseline B = `min_out_neighborhood_cut` of the orientation.  The
    result is the key()-minimum of the cuts that validate in d.

    Skipping `lopsided_vc` there leaves the value and the cut unchanged
    (a complete pair search is exact, Even 1975):

    - Both branches start from the same B.  Each replaces its best cut
      only with a validated cut strictly lighter than it (a capped flow
      completes only below its limit, the best value so far).
    - A complete symmetric search evaluated every ordered non-adjacent
      pair (s, t).  Its instance of (s, t) keeps exactly the digraph's
      (s, t)-separators, so every extraction validates, and a packing
      that skips a pair is a flow of that pair's instance.  If the search still
      returns B, each pair was skipped, capped or solved at weight
      >= w(B).  So kappa = w(B), and `lopsided_vc`, which can only go
      strictly below B, returns B as well.
    - The driver keeps the key()-minimum, and equal keys mean the same
      cut, so a call that returns B again changes nothing, in any order.

    `lopsided_vc` still runs when the symmetric search went below B, since
    its first cut of that weight can be key()-smaller, and when the search
    was incomplete (its families never offered some ordered pair), since
    then nothing bounds kappa from below.
    """
    if d.n <= 1:
        return NoCut(None)
    sccs = d.strongly_connected_components()
    if len(sccs) > 1:
        sink = sccs[0]  # Tarjan emits a sink component first
        rest = set(range(d.n)) - set(sink)
        return VertexCut(sink, (), rest, 0)
    if d.is_complete():
        return NoCut(None)
    best = None
    for variant, flip in ((d, False), (d.reverse(), True)):
        got, complete = _symmetric_search(variant, cfg, stats)
        found = [got]
        if not complete or got.value < min_out_neighborhood_cut(variant).value:
            found.append(lopsided_vc(variant, cfg, stats))
        for cut in found:
            if flip:
                cut = VertexCut(cut.R, cut.S, cut.L, cut.value)
            if validate_cut(d, cut):
                best = better_cut(best, cut)
    assert isinstance(best, VertexCut)
    return best
