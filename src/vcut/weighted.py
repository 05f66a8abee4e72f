"""The weighted directed pipeline: lopsided case (clustering, the 0.9
in-weight split, every cluster-to-low-set pair, per-pair sparsified flow
instances) and the symmetric case, combined over the graph and its reverse.

Every separator extracted from a lopsided instance is re-validated in the
original digraph before it can become a candidate, so the returned cut is
always sound.  The symmetric branch asks `maxflow.min_st_cut` on d itself
for every ordered non-adjacent pair of `symmetric_pairs`, so it is exact
by itself; the driver runs the lopsided branch only where it can still
change the cut (see `vertex_connectivity_weighted`).

A pair skips its capped flow by the flow engine's one skip rule
(`maxflow.packing_reaches`, counted as `path_skips`): a greedy packing of
vertex-capacitated paths already carries the current best value, so the
flow could only report "no better".  `min_st_cut` applies it to the
symmetric pairs, packing on d to N_in(t).  The lopsided loop applies it on
d itself, to ends that keep every packed path a path of the pair's
instance (`_ClusterParts.ends`), so no instance is built for it.  The
packing takes every two-hop path s -> v -> t first, so it skips every pair
the two-hop weight alone would skip.

The lopsided branch guesses ell = w(L) over the powers of two up to w(V)
and visits each distinct cluster C once, evaluating all of C x v_low(C):
the union of the paper's bucketed crossing families over every guess
(`lopsided_pairs`) is all of it, since the guess 1 makes each bucket
pair's family complete (see `lopsided_vc`).  The clusterings of all
guesses share one distance table: the weighted symmetric difference does
not depend on ell.  The symmetric branch needs no guess: it walks its one
pair list once.

Both searches take an optional `floor`, the exact kappa that the driver's
first symmetric search proves.  Under it every packing and flow is capped
at min(best, kappa + 1), and the search returns at once when its baseline
weighs kappa, else right after its first cut of weight kappa.  That is the
cut it returns without the floor: which pairs it evaluates, and in what
order, never depends on the best cut, and a pair whose minimum cut weighs
kappa is neither skipped nor capped under either limit, so it yields the
same s-closest minimum cut.  Without the floor no flow completes after
that cut anyway.

The lopsided branch counts the arcs of every evaluated pair's instance
(they feed the naive/sparsified edge ratio that the instrumentation
reports; without a floor they do not depend on which pairs were skipped,
under one they stop where the search stops) from per-cluster parts
(`_ClusterParts`), and builds an instance (`sparsify_lopsided`) only for
the pairs that get a flow.  The symmetric branch builds no instance, so
the `sparsified_*` and `naive_edges` counters are the lopsided branch's.
"""

from __future__ import annotations

import itertools
import math

from .cnc import weighted_cnc
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
from .maxflow import _graph_flow, min_st_cut, packing_reaches
from .pseudorandom import PairFamily, asymmetric_crossing_family


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


def lopsided_pairs(d: WeightedDigraph, cluster, v_low, ell, r):
    """Bucketed union of asymmetric crossing families between the cluster
    and the low-coverage set, for one (ell, r) guess, or for every guess in
    `r` when it is a list; degenerate bucket parameters clamp to the
    complete fallback.

    A guess enters a bucket pair's family only through the clamped r_ij,
    so over a list of guesses each distinct (i, j, l_ij, r_ij) family is
    built once; the pairs are the union of the per-guess pairs, distinct
    and sorted, and the degree bound sums over the distinct families.
    Over a list that holds the guess 1 the pairs are all of
    cluster x v_low, which `lopsided_vc` walks without building them."""
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
    # r_ij depends on bucket j only through |dj|: the distinct clamped
    # values are found once per bucket j, outside the loop over i.
    scale = d.n * ell * logw * logn * logn
    r_by_bucket = {
        j: dict.fromkeys(max(1, min(len(dj) - math.ceil(scale / g), len(dj))) for g in guesses)
        for j, dj in by_bucket_d.items()
    }
    pairs = []
    bound = 0
    for i in range(1, logw + 1):
        ci = by_bucket_c.get(i)
        if not ci:
            continue
        l_i = min(max(1, math.ceil(ell / (2**i * logw))), len(ci))
        for j in range(1, logw + 1):
            dj = by_bucket_d.get(j)
            if not dj:
                continue
            for r_ij in r_by_bucket[j]:
                fam = asymmetric_crossing_family(ci, dj, min(l_i, r_ij), r_ij)
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


def _limit(best, floor):
    """A pair flow's limit: the best value so far (None: no cut yet), and
    under a floor kappa at most kappa + 1, so only a flow of weight kappa
    completes."""
    limit = best.value if isinstance(best, VertexCut) else None
    if floor is not None and (limit is None or limit > floor + 1):
        limit = floor + 1
    return limit


def _at_floor(best, floor):
    """Whether `best` already weighs the floor, so no pair can beat it."""
    return floor is not None and isinstance(best, VertexCut) and best.value <= floor


def lopsided_vc(d: WeightedDigraph, stats=None, floor=None):
    """Cut search targeting minimum cuts whose far side carries most of the
    weight.  Always returns a valid cut; minimum under the lopsidedness
    promise.

    Each distinct cluster C is visited once, at the first guess whose
    clustering yields it, and its pairs (s, t) are sorted C x v_low(C),
    less s == t and arcs.  That is `lopsided_pairs(d, C, v_low, ell,
    guesses)` at every ell, so no guess could offer C a new pair:
    - the guesses (powers of two up to w(V) >= 1) hold g = 1;
    - at g = 1, r_ij = max(1, min(|D_j| - ceil(n ell logW log^2 n), |D_j|))
      = 1, since ell >= 1 and `_log2ceil` >= 1 give n ell logW log^2 n
      >= n >= |D_j|;
    - `asymmetric_crossing_family(C_i, D_j, 1, 1)` is then C_i x D_j
      ("complete" for |D_j| >= 2, "single-target" for |D_j| = 1);
    - each weight lies in one bucket 1..logW, so the union over (i, j) is
      C x v_low, which sorted is the product of sorted C and v_low.

    `floor`, when given, must be kappa(d) (see the module docstring): the
    search returns its first cut of weight kappa, the cut it returns
    without the floor, or where it finds none a cut heavier than kappa.
    The `sparsified_*` and `naive_edges*` counters then stop where the
    search stops; without a floor they count every evaluated pair."""
    best = min_out_neighborhood_cut(d)
    if _at_floor(best, floor):
        return best
    naive = d.m
    seen = set()
    distances = {}
    for ell in _powers_up_to(d.weight_of(range(d.n))):
        for cluster in weighted_cnc(d, ell, stats=stats, cache=distances):
            ckey = frozenset(cluster)
            if ckey in seen:
                continue
            seen.add(ckey)
            v_low = identify_vlow(d, cluster)
            if not v_low:
                continue
            part = _ClusterParts(d, ckey)
            for s, t in itertools.product(sorted(ckey), v_low):
                if s == t or d.has_arc(s, t):
                    continue
                if stats is not None:
                    count = part.arc_count(s, t)
                    stats.add("sparsified_instances")
                    stats.add("sparsified_edges", count)
                    stats.add("naive_edges", naive)
                    stats.add("sparsified_edges_lopsided", count)
                    stats.add("naive_edges_lopsided", naive)
                limit = _limit(best, floor)
                if packing_reaches(d.out_adj, d.weights, s, part.ends(t), limit, stats):
                    continue
                h, ids = sparsify_lopsided(d, s, t, ckey)
                cand = _digraph_pair_cut(d, h, ids, s, t, limit, stats)
                best = better_cut(best, cand)
                if _at_floor(best, floor):
                    return best
    return best


def symmetric_pairs(d: WeightedDigraph):
    """Every ordered pair (s, t) of distinct vertices once, as a tuple.

    With the non-empty weight buckets B_1 < ... < B_m, each sorted, the
    pairs come in blocks: (B_1, B_1), then (B_j, B_1 | B_j) for j >= 2 (the
    union sorted), then (B_j, B_i) for 2 <= i < j, i the outer loop.  The
    block (H, U) yields, for a in H and b in U, the pair (a, b) followed by
    (b, a), and skips any b in H with b <= a (given already, or a itself).
    This is the first-occurrence order of the bucket-pair union of complete
    pair families (for each bucket pair in row-major order, the sorted
    union with sources in the heavier bucket), each pair and its reverse."""
    key = [_bucket(w) for w in d.weights]
    buckets = [[v for v in range(d.n) if key[v] == k] for k in sorted(set(key))]
    if not buckets:
        return ()
    first, *rest = buckets
    blocks = [(first, first), *((h, sorted(first + h)) for h in rest)]
    blocks += [(h, u) for i, u in enumerate(rest) for h in rest[i + 1:]]
    return tuple(
        pair
        for heavy, union in blocks
        for a in heavy
        for b in union
        if b > a or key[b] != key[a]
        for pair in ((a, b), (b, a))
    )


def symmetric_vc(d: WeightedDigraph, stats=None, floor=None):
    """Cut search for weight-balanced minimum cuts: `maxflow.min_st_cut`
    of every ordered non-adjacent pair of `symmetric_pairs(d)` under the
    best value so far; exact (Even 1975).  `floor`, when given, must be
    kappa(d): the search then returns its first cut of weight kappa (see
    the module docstring).  The pairs are asked of a copy of d, so its pair
    ledger lives for this call only and a later call flows as this one.

    The flows run on d itself.  The instance `sparsify_symmetric(d, s, t)`
    drops only the arcs inside N_out(s) and inside N_in(t), so it has
    exactly d's (s, t)-separators, each with the same source side: a vertex
    of N_out(s) outside the separator is reached from s directly, and no
    vertex of N_in(t) outside it is reachable, or t would be.  So its
    s-closest minimum cut, and every capped answer, are those of d."""
    best = min_out_neighborhood_cut(d)
    if _at_floor(best, floor):
        return best
    g = WeightedDigraph(d.n, d.out_adj, d.weights)
    for s, t in symmetric_pairs(d):
        if d.has_arc(s, t):
            continue
        best = better_cut(best, min_st_cut(g, s, t, _limit(best, floor), stats)[1])
        if _at_floor(best, floor):
            return best
    return best


def vertex_connectivity_weighted(d: WeightedDigraph, stats=None):
    """Exact minimum weighted vertex cut driver.

    Handles non-strongly-connected inputs (weight-0 cut from a sink
    component) and complete digraphs (NoCut sentinel, no numeric value).
    Otherwise, on the graph and on its reverse: `symmetric_vc`, then
    `lopsided_vc` unless that search returned its baseline B =
    `min_out_neighborhood_cut` of the orientation.  The result is the
    key()-minimum of the cuts that validate in d.

    Skipping `lopsided_vc` there leaves the value and the cut unchanged
    (a search over every ordered non-adjacent pair is exact, Even 1975):

    - Both branches start from the same B.  Each replaces its best cut
      only with a cut of d strictly lighter than it (a capped flow
      completes only below its limit, the best value so far).
    - The symmetric search asks `min_st_cut` on d of every ordered
      non-adjacent pair (s, t).  If it still returns B, each pair was
      skipped, capped or solved at weight >= w(B).  So kappa = w(B), and
      `lopsided_vc`, which can only go strictly below B, returns B as
      well.
    - The driver keeps the key()-minimum, and equal keys mean the same
      cut, so a call that returns B again changes nothing, in any order.

    `lopsided_vc` still runs when the symmetric search went below B, since
    its first cut of that weight can be key()-smaller.

    The first search proves kappa = its value, so every later search (the
    other orientation's symmetric search, and `lopsided_vc` on both) runs
    under `floor=kappa`.  Each still returns its first cut of weight
    kappa, the cut it returns without the floor, and stops there: no later
    pair could beat it.  A search that finds no kappa cut returns a
    heavier one, which loses to the first search's kappa cut here as it
    did without the floor.  So the result is unchanged.
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
    best = kappa = None
    for variant, flip in ((d, False), (d.reverse(), True)):
        got = symmetric_vc(variant, stats, floor=kappa)
        if kappa is None:
            kappa = got.value
        found = [got]
        if got.value < min_out_neighborhood_cut(variant).value:
            found.append(lopsided_vc(variant, stats, floor=kappa))
        for cut in found:
            if flip:
                cut = VertexCut(cut.R, cut.S, cut.L, cut.value)
            if validate_cut(d, cut):
                best = better_cut(best, cut)
    assert isinstance(best, VertexCut)
    return best
