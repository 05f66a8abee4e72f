"""The full unweighted undirected pipeline: unbalanced case over the kernel
index, terminal-expander decomposition, shaving, terminal reduction, and the
top-level driver.

Every branch only ever contributes cuts that re-validate in the original
graph, and the driver returns the minimum over all of them, so exactness at
verification scale never depends on which case analysis actually applied.

The expander decomposition cuts a piece only at a cut with h_T < phi, so
each terminal-pair probe of a piece is a capped `min_st_cut`: a probe cut
(L, S, R) has |S| = kappa(u, v), and its smaller closed terminal side holds
at most (|T| + |S|) / 2 terminals, so h_T >= 2 kappa / (|T| + kappa).  That
bound rises with kappa, so a probe at or above the least c with
2c / (|T| + c) >= phi (`_probe_cap`, compared exactly) cannot give the cut
that splits a piece, and the probe stops there (most often by the
`packing_reaches` skip rule, with no flow).  Below the cap a capped flow
returns the cut of an uncapped one, since the source-closest minimum cut is
unique; so decompositions are those of uncapped probes.

The driver searches the same expander pieces again and again: each
terminal-reduction round decomposes the graph anew for a smaller terminal
set, and each phi retry of a round decomposes it again.  Two things are
shared so that no piece's search is repeated:

- within a round, the sparsest cut of each piece for that round's terminal
  set (the `_cache` of `expander_decomposition`), across its phi retries;
  an entry is found under its filling call's cap, so it is valid for that
  phi and any smaller one, which is all a halving retry asks of it;
- within a driver call, one `PieceStore`: each piece's induced subgraph,
  built once, so its split network and its pair ledger (`maxflow`) keep
  every pair probe made on it across all rounds.  A stored completed
  probe answers every later cap; a stored (L, None) says kappa >= L and
  answers any later cap <= L, and a larger cap (|T| grows when X holds
  non-terminals) solves the pair again.

Answers, cuts, decompositions and events are those of uncapped probes and a
fresh store per round; only `flow_calls`, `flow_edges` and `path_skips`
move.  Pieces of at most EXHAUSTIVE_MAX vertices are searched by one numpy
scan over all vertex subsets (`_exhaustive_sparsest`), which needs no flows.

Every (s, t) question of the driver is a `maxflow.min_st_cut` (or
`maxflow.kappa_at_least`) on a graph the call builds, so the graph's pair
ledger answers it if the call already knows the answer.  The sparsified
graph gs is asked by the unbalanced branch, every balanced-terminal call
and the expander piece that is all of V; the other pieces are induced
subgraphs kept in the `PieceStore`.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .cnc import cnc
from .config import DEFAULT, Config
from .errors import BudgetExceeded, InvariantError, UndefinedExpansion
from .graphs import (
    Graph,
    NoCut,
    VertexCut,
    _log2ceil,
    better_cut,
    min_degree_cut,
    ni_sparsify,
    validate_cut,
)
from .isocut import balanced_terminal_vc, subgraph_balanced_terminal_vc
from .kernel import build_kernel_index, query_kappa_upper
from .maxflow import kappa_at_least, min_st_cut
from .pseudorandom import symmetric_crossing_family


# Largest graph whose sparsest canonical cut is found by exhaustive search;
# that search fills a uint16 table of 2^n neighbourhood masks.
EXHAUSTIVE_MAX = 16
# lcm(1..16): h = |S| / denom with denom <= EXHAUSTIVE_MAX terminals, so
# h * _H_SCALE is an exact integer.
_H_SCALE = 720720
# Subsets scored per numpy pass of the exhaustive search; it bounds the
# search's temporaries at a few int64 arrays of this length.
_SCAN_CHUNK = 4096


class PieceStore:
    """What one driver call learns about the expander pieces of its graph,
    shared by every terminal-reduction round and phi retry of the call.

    A piece (its sorted vertex tuple) maps to its induced subgraph and the
    subgraph's id map (local id -> id in the graph).  The subgraph is built
    once, so its split network and its pair ledger, which keeps the capped
    `min_st_cut` probes made on it (`maxflow.stored_probe`), last the whole
    call.  The piece that is all of V is the graph itself.
    """

    __slots__ = ("graph", "pieces")

    def __init__(self, graph: Graph):
        self.graph = graph
        self.pieces = {}

    def piece(self, piece):
        """(subgraph, ids) of `piece`, built on first use."""
        entry = self.pieces.get(piece)
        if entry is None:
            if len(piece) == self.graph.n:
                entry = (self.graph, range(self.graph.n))
            else:
                entry = self.graph.induced(piece)
            self.pieces[piece] = entry
        return entry


class ExpanderDecomposition:
    __slots__ = ("x", "pieces", "phi")

    def __init__(self, x, pieces, phi):
        self.x = tuple(sorted(x))
        self.pieces = tuple(sorted((tuple(sorted(p)) for p in pieces), key=lambda p: p[0]))
        self.phi = phi

    def __repr__(self):
        return (
            f"ExpanderDecomposition(|X|={len(self.x)}, "
            f"pieces={[len(p) for p in self.pieces]}, phi={self.phi})"
        )


def terminal_expansion(g: Graph, terminals, cut: VertexCut) -> Fraction:
    """h_T of a cut: |S| over the smaller terminal mass of the two closed
    sides.  Raises UndefinedExpansion when that mass is zero."""
    tset = set(terminals)
    ls = len(tset & (set(cut.L) | set(cut.S)))
    rs = len(tset & (set(cut.R) | set(cut.S)))
    denom = min(ls, rs)
    if denom == 0:
        raise UndefinedExpansion("no terminal mass on one side")
    return Fraction(len(cut.S), denom)


def _exhaustive_sparsest(g: Graph, tset):
    """(subset mask, separator mask) of the sparsest canonical cut of g over
    all vertex subsets A, or None when no subset qualifies.

    The separator N(A) is the set of neighbours of A outside A.  A qualifies
    when some vertex lies outside A | N(A) and both closed sides hold
    terminal mass; the sparsest has the least h = |N(A)| / denom (denom the
    smaller terminal mass) and, among those, the least (separator mask,
    subset mask).  The neighbourhood unions come from a uint16 table built
    by doubling (entry A | 2^v is entry A or'ed with v's row, A < 2^v).  The
    subsets are scored in numpy chunks of _SCAN_CHUNK on the exact integer
    key (|N(A)| * _H_SCALE // denom, separator, subset), packed into one
    int64, so the minimum follows that order exactly.
    """
    n = g.n
    size = 1 << n
    nbr = np.zeros(size, dtype=np.uint16)
    for v in range(n):
        mask = 0
        for w in g.adj[v]:
            mask |= 1 << w
        lo = 1 << v
        nbr[lo:2 * lo] = nbr[:lo] | mask
    tmask = 0
    for v in tset:
        tmask |= 1 << v
    full = size - 1
    best = None
    for start in range(0, size, _SCAN_CHUNK):
        bits = np.arange(start, min(size, start + _SCAN_CHUNK), dtype=np.int64)
        closed = nbr[start:start + len(bits)] | bits
        lt = np.bitwise_count(closed & tmask)
        rt = len(tset) - np.bitwise_count(bits & tmask)
        denom = np.minimum(lt, rt)
        ok = np.flatnonzero((denom > 0) & (closed != full))
        if not ok.size:
            continue
        sep = closed[ok] ^ bits[ok]
        key = np.bitwise_count(sep).astype(np.int64) * _H_SCALE // denom[ok]
        low = int((key << 32 | sep << 16 | bits[ok]).min())
        if best is None or low < best:
            best = low
    if best is None:
        return None
    return best & 0xFFFF, best >> 16 & 0xFFFF


def _probe_cap(terminals, phi):
    """Least c >= 1 with 2c / (terminals + c) >= phi, compared exactly
    (`Fraction(phi)`, as `expander_decomposition` compares h with phi), or
    None when no c qualifies (phi >= 2); terminals >= 1.

    A probe cut of value kappa >= c has h_T >= 2 kappa / (terminals + kappa)
    >= phi, so it cannot split a piece at phi.  2c >= phi (terminals + c)
    is c >= phi * terminals / (2 - phi)."""
    phi = Fraction(phi)
    if phi >= 2:
        return None
    return max(1, math.ceil(phi * terminals / (2 - phi)))


def _sparsest_canonical_cut(g: Graph, terminals, phi, probe_budget, stats):
    """Best (lowest h_T) canonical cut (A, N(A), rest) of g whenever some
    cut has h_T < phi.

    Exhaustive over all vertex subsets for graphs of at most EXHAUSTIVE_MAX
    vertices (`_exhaustive_sparsest`), which finds the sparsest cut whatever
    phi is; terminal-pair flow probing otherwise.  Each probe is a
    `min_st_cut` capped at `_probe_cap(|T|, phi)`: a pair at or above the
    cap has every cut at h_T >= phi, and a probe below it returns the cut
    of an uncapped flow.  So when the sparsest probed cut has h_T < phi it
    is returned as uncapped probes would return it; otherwise the result
    is some cut with h_T >= phi, or None.  None also when nothing with
    positive terminal mass on both sides exists.  Returns (h, cut) or None.
    """
    tset = set(terminals)
    n = g.n
    best = None

    def consider(left, sep, rest):
        nonlocal best
        if not left or not rest:
            return
        ls = len(tset & (left | sep))
        rs = len(tset & (rest | sep))
        denom = min(ls, rs)
        if denom == 0:
            return
        h = Fraction(len(sep), denom)
        key = (h, tuple(sorted(sep)), tuple(sorted(left)))
        if best is None or key < best[0]:
            cut = VertexCut(left, sep, rest, len(sep))
            best = (key, cut)

    if n <= EXHAUSTIVE_MAX:
        found = _exhaustive_sparsest(g, tset)
        if found is not None:
            left = {v for v in range(n) if found[0] >> v & 1}
            sep = {v for v in range(n) if found[1] >> v & 1}
            consider(left, sep, set(range(n)) - left - sep)
    else:
        comps = g.components()
        if len(comps) > 1:
            universe = set(range(n))
            for comp in comps:
                left = set(comp)
                consider(left, set(), universe - left)
        cap = _probe_cap(len(tset), phi)
        terms = sorted(tset)
        count = 0
        for i, u in enumerate(terms):
            for v in terms[i + 1:]:
                if count >= probe_budget:
                    break
                if g.has_edge(u, v):
                    continue
                count += 1
                cut = min_st_cut(g, u, v, cap, stats)[1]
                if cut is not None:
                    consider(set(cut.L), set(cut.S), set(cut.R))
            if count >= probe_budget:
                break
    if best is None:
        return None
    return best[0][0], best[1]


def expander_decomposition(g: Graph, terminals, phi, cfg: Config = DEFAULT,
                           stats=None, _cache=None, store=None):
    """Partition V into X plus mutually non-adjacent pieces on which no
    terminal-sparse cut below phi was found.

    Raises BudgetExceeded (carrying the partial result) when the separator
    mass exceeds max(1, budget_frac * |T|); callers retry with smaller phi.

    `_cache` maps a piece to its `_sparsest_canonical_cut` for this terminal
    set, so the phi retries of one round search no piece twice.  An entry
    is found with probes capped for the phi of the call that fills it, so
    it decides a piece exactly for that phi and any smaller one, and a
    cache must never be read at a larger phi.  `store`, a `PieceStore` of g
    (default: a fresh one), keeps each piece's induced subgraph, and so its
    stored probes, for the whole driver call; a stored probe answers a
    later cap as a new capped flow would, so sharing it leaves the
    decomposition unchanged.
    """
    terms = sorted(set(terminals))
    if not terms:
        raise InvariantError("empty terminal set")
    if store is None:
        store = PieceStore(g)
    elif store.graph is not g:
        raise InvariantError("piece store of another graph")
    tset = set(terms)
    budget = max(1, int(cfg.expander_budget_frac * len(terms)))
    cache = _cache if _cache is not None else {}
    x_set = set()
    pieces = []
    stack = [tuple(range(g.n))]
    while stack:
        piece = stack.pop()
        if not piece:
            continue
        if len(piece) == 1:
            pieces.append(piece)
            continue
        key = piece
        if key not in cache:
            sub, ids = store.piece(piece)
            local_terms = [j for j, v in enumerate(ids) if v in tset]
            got = _sparsest_canonical_cut(
                sub, local_terms, phi, probe_budget=min(48, 4 * len(piece)), stats=stats
            )
            if got is None:
                cache[key] = None
            else:
                h, cut = got
                cache[key] = (
                    h,
                    tuple(ids[j] for j in cut.L),
                    tuple(ids[j] for j in cut.S),
                    tuple(ids[j] for j in cut.R),
                )
        entry = cache[key]
        if entry is None or entry[0] >= phi:
            pieces.append(piece)
            continue
        _, left, sep, rest = entry
        x_set.update(sep)
        stack.append(rest)
        stack.append(left)
    result = ExpanderDecomposition(x_set, pieces, phi)
    if len(x_set) > budget:
        raise BudgetExceeded(f"|X|={len(x_set)} over budget {budget}", partial=result)
    return result


def _decompose_with_retry(g, terms, cfg, stats, cache, store):
    phi = cfg.expander_phi
    while True:
        try:
            return expander_decomposition(g, terms, phi, cfg, stats, _cache=cache, store=store)
        except BudgetExceeded as exc:
            if stats is not None:
                stats.add("expander_budget_retries")
            phi /= 2
            if phi < cfg.expander_phi_floor:
                return exc.partial


def shaving(h: Graph, candidates, a):
    """Subset R of `candidates` whose neighborhoods pairwise differ by at
    most 5a, covering every candidate whose neighborhood nearly fills a
    common superset B with slack a."""
    cand = sorted(set(candidates))
    if not cand:
        return set()
    count = [0] * h.n
    for u in cand:
        for v in h.adj[u]:
            count[v] += 1
    core = {v for v in range(h.n) if count[v] >= 0.1 * len(cand)}
    out = set()
    for u in cand:
        nb = h.neighbor_set(u)
        sym = len(nb) + len(core) - 2 * len(nb & core)
        if sym <= 2.2 * a:
            out.add(u)
    return out


def terminal_reduction(g: Graph, terminals, k, cfg: Config = DEFAULT, stats=None,
                       store=None):
    """One reduction round: returns (best cut or NoCut, T') with
    |T'| <= 0.9 |T|.

    Follows the decomposition / contraction / shaving / clustering /
    pruning sequence; every candidate cut comes from the balanced-terminal
    subroutine and validates in g.  `store` is the `PieceStore` of g that
    the expander decompositions read (default: a fresh one each).
    """
    terms = sorted(set(terminals))
    if not terms:
        raise InvariantError("empty terminal set")
    if k < 1:
        raise InvariantError("k must be >= 1")
    n = g.n
    logn = _log2ceil(n)
    cache = {}
    decomp = _decompose_with_retry(g, terms, cfg, stats, cache, store)
    x_list = list(decomp.x)
    x_set = set(x_list)
    term_set = set(terms)

    best = None

    def offer(candidate):
        nonlocal best
        if isinstance(candidate, VertexCut) and validate_cut(g, candidate):
            best = better_cut(best, candidate)

    t_bar_quota = max(1, len(terms) // cfg.tr_tbar_div)
    t_bar = [t for t in terms if t not in x_set][:t_bar_quota]

    small_pieces = []
    big_pieces = []
    for piece in decomp.pieces:
        inside = len(term_set.intersection(piece))
        if 0 < inside < 5:
            small_pieces.append(piece)
        elif inside >= 5:
            big_pieces.append(piece)

    t_big = []
    for piece in big_pieces:
        local = sorted(term_set.intersection(piece))
        t_big.extend(local[: math.ceil(2 * len(local) / 3)])

    # Contracted bipartite graph between X and the small pieces.
    nx = len(x_list)
    x_pos = {x: i for i, x in enumerate(x_list)}
    gp_adj = [set() for _ in range(nx + len(small_pieces))]
    for idx, piece in enumerate(small_pieces):
        for u in piece:
            for w in g.adj[u]:
                if w in x_set:
                    gp_adj[x_pos[w]].add(nx + idx)
                    gp_adj[nx + idx].add(x_pos[w])
    gprime = Graph(nx + len(small_pieces), [sorted(r) for r in gp_adj])

    low_ids = [nx + i for i in range(len(small_pieces)) if gprime.degree(nx + i) <= 2 * k]
    low_set = set(low_ids)
    hlow_nodes = sorted(set(range(nx)) | low_set)
    hlow, hlow_ids = gprime.induced(hlow_nodes)
    hpos = {v: i for i, v in enumerate(hlow_ids)}

    t_small = []
    max_scale = math.ceil(math.log2(k)) if k >= 2 else 0
    for i_scale in range(1, max_scale + 1):
        a = 2 ** i_scale
        x_low = sorted(
            x for x in x_list
            if hlow.degree(hpos[x_pos[x]]) < cfg.tr_xlow_mult * a
        )
        paths = set()
        for x in x_list:
            r_x = shaving(hlow, hlow.neighbors(hpos[x_pos[x]]), a)
            ordered = sorted(r_x)
            for p, q in zip(ordered, ordered[1:]):
                paths.add((p, q))
        cluster_locals = [hpos[v] for v in hlow_ids if v in low_set]
        remap = {h: j for j, h in enumerate(cluster_locals)}
        hconnected = Graph(
            len(cluster_locals),
            _adj_from_edges(
                len(cluster_locals),
                [(remap[p], remap[q]) for (p, q) in paths if p in remap and q in remap],
            ),
        )

        def a_dist(ui, vi):
            return len(
                hlow.neighbor_set(cluster_locals[ui])
                ^ hlow.neighbor_set(cluster_locals[vi])
            )

        clustering = cnc(hconnected, a_dist, 15 * a, stats=stats)
        prune_gate = cfg.tr_prune_gate_mult * a * logn ** cfg.tr_tsmall_log_exp
        prune_eps = 1 - 1 / logn ** cfg.tr_prune_log_exp
        for partition in clustering.partitions:
            x_prime = set(x_list)
            for cluster in partition:
                quota = len(cluster) // (logn ** cfg.tr_tsmall_log_exp)
                for cj in sorted(cluster)[:quota]:
                    piece = small_pieces[hlow_ids[cluster_locals[cj]] - nx]
                    t_small.extend(sorted(term_set.intersection(piece)))
                if len(cluster) > prune_gate:
                    members = {cluster_locals[cj] for cj in cluster}
                    for x in sorted(x_prime):
                        inside = sum(
                            1 for w in hlow.neighbors(hpos[x_pos[x]]) if w in members
                        )
                        if inside > prune_eps * len(cluster):
                            x_prime.discard(x)
            cand_terms = sorted(x_prime | set(t_bar))
            if cand_terms:
                offer(balanced_terminal_vc(g, cand_terms, k, cfg, stats))
            cand_low = sorted(set(x_low) | set(t_bar))
            if cand_low:
                offer(balanced_terminal_vc(g, cand_low, k, cfg, stats))

    t_prime = sorted(set(x_list) | set(t_big) | set(t_small) | set(t_bar))
    limit = math.floor(0.9 * len(terms))
    if len(t_prime) > limit:
        t_prime = t_prime[:limit]
    if stats is not None:
        s_prime_ok = best is None or not isinstance(best, VertexCut) or validate_cut(g, best)
        stats.event("terminal_reduction", len(terms), len(t_prime), s_prime_ok)
        stats.add("terminal_reduction_rounds")
    return (best if best is not None else NoCut(None)), tuple(t_prime)


def _adj_from_edges(n, edges):
    adj = [set() for _ in range(n)]
    for u, v in edges:
        if u != v:
            adj[u].add(v)
            adj[v].add(u)
    return [sorted(r) for r in adj]


def unbalanced_vc(g: Graph, cfg: Config = DEFAULT, stats=None):
    """Cut search targeting minimum cuts with a small side.

    Per power-of-two scale: crossing-family pairs answered through the
    kernel index, each unordered non-adjacent pair once in the family's
    first-occurrence order (`PairFamily.unordered()`), early-stopped by the
    best cut so far, with any improvement realized by one full-graph flow;
    plus one balanced-terminal call per distinct cluster.  Always returns a
    valid cut; minimum whenever some minimum cut has |L| <= lambda * delta
    with |L| <= |R|.  The kernel indexes of all scales share one table of
    clustering distances, since neither the low-degree set nor the
    distances depend on the scale.

    Before any kernel query, each pair {s, t}, s < t, is settled when g's
    pair ledger shows kappa_G(s,t) >= the cap `best.value`
    (`maxflow.kappa_at_least`): from a probe of either orientation stored
    by a cluster call, or from a unit-capacity packing of paths from s to
    N(t), packed once unless a higher limit asks for more.  A settled pair
    is skipped in both orientations, with no query and no flow.  The skip
    is exact:

    - the packing's total, and a stored probe's value, is <= kappa_G(s,t)
      (Menger);
    - `query_kappa_upper` never undershoots kappa_G(s,t), so the query
      would have answered >= cap and made no full-graph flow;
    - the cap never rises within a call, so a pair settled at one cap is
      settled at every later one, and the ledger says so with no call.

    A skipped pair is thus one where the kernel query leaves `best` alone;
    answers, cuts and events are those of querying every pair, and only
    `path_skips`, `kernel_edges` and the flow counts move.  The kernel
    index decides only the pairs the ledger leaves open, and the flow it
    asks for is an uncapped `min_st_cut` of the pair.
    """
    if g.is_complete():
        return NoCut(max(0, g.n - 1))
    delta = g.min_degree()
    best = min_degree_cut(g)
    logn = _log2ceil(g.n)
    max_scale = _log2ceil(delta * logn)
    seen_clusters = set()
    distances = {}
    for i in range(1, max_scale + 1):
        ell = 2 ** i
        alpha = max(1, Fraction(2 * delta, ell))
        family = symmetric_crossing_family(g.n, alpha, cfg)
        index = build_kernel_index(g, ell, cfg, stats, cache=distances)
        for cluster in index.clusters:
            key = frozenset(cluster)
            if key in seen_clusters or len(cluster) < 2:
                continue
            seen_clusters.add(key)
            cand = subgraph_balanced_terminal_vc(g, cluster, delta * logn, cfg, stats, best=best)
            if isinstance(cand, VertexCut) and validate_cut(g, cand):
                best = better_cut(best, cand)
        for s, t in family.unordered():
            if isinstance(best, VertexCut) and best.value <= 1:
                break  # connected graphs cannot do better
            if g.has_edge(s, t):
                continue
            # kappa(s,t) is symmetric but the index answers from s's
            # clusters, so try both orientations before giving up.
            for a, b in ((s, t), (t, s)):
                cap = best.value if isinstance(best, VertexCut) else g.n
                if kappa_at_least(g, s, t, cap, stats):
                    break  # kappa_G(s,t) >= cap: no orientation can improve
                kappa_hat = query_kappa_upper(index, a, b, cap=cap, stats=stats)
                if kappa_hat < cap:
                    best = better_cut(best, min_st_cut(g, a, b, None, stats)[1])
    return best


def vertex_connectivity_unweighted(g: Graph, cfg: Config = DEFAULT, stats=None,
                                   unbalanced=True):
    """Exact minimum vertex cut driver.

    Disconnected inputs yield a value-0 cut, complete inputs the NoCut
    sentinel carrying n-1.  Otherwise: sparsify, run the unbalanced branch,
    then alternate balanced-terminal calls (capped from the best cut so
    far) with terminal reduction until the terminal set empties, returning
    the minimum valid cut seen anywhere.
    With `unbalanced=False` the unbalanced branch is left out, which leaves
    the terminal-reduction loop alone (`vcut compute --algo terminal`).

    The unbalanced branch stays on the default path, although it is often
    output-redundant.  The argument for that, and where it stops:

    - In the selector regime (k/eps <= n/4, T = V), the first balanced
      round probes both orientations of every non-adjacent pair, capped
      at the least value found plus one.  So it finishes the a-closest
      cut of every ordered pair (a, b) whose kappa is the minimum over
      pairs, and offers each such cut or a key()-smaller one.  A candidate
      of the unbalanced pair loop is the uncapped `min_st_cut` of a pair of
      gs, so one that could win the driver is such a cut.
    - `unbalanced_vc`'s own baseline `min_degree_cut(gs)` validates in g
      only when N_gs(a) = N_g(a), that is as one of `min_degree_cut(g)`'s
      candidates, which the driver starts from.

    The cases the argument misses:

    - (a) The cluster calls (`subgraph_balanced_terminal_vc`) remap a
      separator S to the cut whose L is the smallest component of gs - S,
      a cut that no pair probe need return.
    - (b) The pair regime (k/eps > n/4), which holds for every perfbench
      unweighted instance (n <= 28 < 16 delta).  There the round probes
      one orientation of each pair, and once it has found a cut its cap is
      strict, so a later cut of the same value is not offered.
    - (c) The driver validates every offer in g, not in gs.  When the
      round's key()-smaller cut of gs fails that check, the pair loop's
      cut can still win.

    The two drivers agreed on every graph `benchmarks/bench_identity.py`
    scans, but a finite scan rules out none of these cases, so it does not
    gate the branch.
    """
    if g.n <= 1:
        return NoCut(max(0, g.n - 1))
    comps = g.components()
    if len(comps) > 1:
        rest = set(range(g.n)) - set(comps[0])
        return VertexCut(comps[0], (), rest, 0)
    if g.is_complete():
        return NoCut(g.n - 1)

    gs = ni_sparsify(g, g.min_degree())
    k = max(1, gs.min_degree())
    best = min_degree_cut(g)

    def offer(candidate):
        nonlocal best
        if isinstance(candidate, VertexCut) and validate_cut(g, candidate):
            best = better_cut(best, candidate)

    if unbalanced:
        offer(unbalanced_vc(gs, cfg, stats))
    terms = tuple(range(g.n))
    store = PieceStore(gs)
    while terms:
        offer(balanced_terminal_vc(gs, terms, k, cfg, stats, best=best))
        reduced, terms = terminal_reduction(gs, terms, k, cfg, stats, store=store)
        offer(reduced)
    assert isinstance(best, VertexCut)
    return best
