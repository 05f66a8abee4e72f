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
`_graph_flow` builds one network per Graph or WeightedDigraph and keeps it
in the graph's `_network` slot, so repeated flows on one graph share it;
every flow of the package runs through it.  `vertex_max_flow`, the public
entry point for an arc list with arbitrary (or uncuttable) vertex
capacities, builds a network per call.

Capped queries are answered without a flow when a path packing already
reaches the cap.  Paths that respect the vertex capacities form a feasible
flow, so their total is a lower bound on the max flow (Ford-Fulkerson;
Menger).  A query with limit L returns (L, None) exactly when the max flow
is >= L, so a capped flow is skipped, and counted as `path_skips`, exactly
when `packing_reaches` says the packing reaches L.  That is the one skip
rule; a limit <= 0 is never a skip, because `_flow` answers it without a
flow.  `min_st_cut` (and `min_st_separator` and the kernel query through
it) and `min_s_to_set_separator` apply it before their flow, and the
weighted lopsided loop applies it to its sparsified pair instances.
`_graph_flow` itself never screens, so its counters stay those of the
bypass-arc network.

A graph carries its own pair ledger (`PairLedger`, in its `_ledger` slot,
made on first use), and `min_st_cut` is the only way to ask a single-pair
question: it answers from a stored probe of the pair, then the adjacency,
then the packing (kept per pair), then a flow, whose answer is recorded.
The answers are exact because graphs are immutable and a probe's answer
depends only on the graph, the pair, the cap and the s-closest cut; on an
undirected Graph a bound also answers the mirror pair, since kappa(s,t) =
kappa(t,s).  The drivers probe only graphs they build per call (the
sparsified graph, induced pieces, auxiliary and kernel graphs, and the
copy of the digraph a weighted symmetric search asks), so a ledger lives
as long as one driver call.

`connectivity_at_least` proves kappa(g) >= L from the ledger alone, over
the pair set of Esfahanian and Hakimi (1984) around a vertex v of minimum
degree: C(delta, 2) packings plus propagation.  The non-adjacent pairs of
N(v) are packed; a vertex far from v is settled once L of its neighbours
are (N(v) counting as settled), and only when that runs dry is the pair
of v and the least unsettled far vertex packed.  No flow runs.
`even_sweep` returns as soon as it holds at the sweep's limit, the
unweighted driver's unbalanced branch skips a scale's pair loop when it
holds at the best cut's value, and the pair regime of the
balanced-terminal search (`isocut._balanced_search`) returns when it
holds at the value found.  The ledger keeps the largest limit proved as
`certified`, so a later check at or below it returns True with no pair
asked, and so does `kappa_at_least` for any non-adjacent pair: the driver
repeats the check on its sparsified graph in every balanced round and
every unbalanced scale.  A False is never kept, since a probe stored
later can settle the pair left open.

There is one packer, `weighted_paths`: a greedy shortest-path BFS without
residual arcs that packs vertex-capacitated paths along out-arcs to a set
of end vertices, taking every two-hop path first.  A flow to a sink set
packs to the ends that are the sinks' in-neighbours (neighbours, on an
undirected graph, packed with unit capacities).  A sink is reached only through those ends,
which are never expanded, so the packing never needs a sink's own row.

The inner solver is the compiled `vcut._core` when available, else the
pure-Python `vcut._pyflow`; set VCUT_PURE_PYTHON=1 to force the fallback.
"""

from __future__ import annotations

import itertools
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
    the capped answer uncounted.

    Every solve stops by `inf` at the latest: a separator of cuttable
    vertices weighs less, so a flow of `inf` means that none exists.  With
    no limit that is an InvariantError; under a limit it is the capped
    answer.  Flows below `inf` augment as without the stop, so no backend
    sums past `inf`."""
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
    stop = inf if limit is None else min(limit, inf)
    value, reach, completed = _backend.solve(
        num_nodes, tails, heads, arc_caps, source, sink, stop
    )
    if not completed:
        if limit is None:
            # A path of uncuttable vertices joins the terminals, such as a
            # source-sink adjacency the caller should have screened.
            raise InvariantError("no finite separator exists (terminals joined)")
        return limit, None, None, False
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

    InvariantError when an arc end or a terminal lies outside [0, n), a
    capacity is below 1, or n * max(caps) reaches 2^62 (the bound of the
    flow engine's 64-bit arithmetic, as for `WeightedDigraph`).
    """
    arcs = list(arcs)
    sources = sorted(set(sources))
    sinks = sorted(set(sinks))
    if set(sources) & set(sinks):
        raise InvariantError("source and sink sets overlap")
    if any(not 0 <= v < n for v in itertools.chain(sources, sinks, *arcs)):
        raise InvariantError(f"vertex id out of range [0,{n})")
    if len(caps) != n:
        raise InvariantError("caps length does not match n")
    finite = [c for c in caps if c is not None]
    if any(c < 1 for c in finite):
        raise InvariantError("vertex capacities must be >= 1 or None")
    if n * max(finite, default=1) >= 2**62:
        raise InvariantError("n*W too large for 64-bit weight arithmetic")
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


def weighted_paths(out_adj, weights, s, ends, limit, paths=None):
    """Greedy packing of vertex-capacitated paths from s to the end set
    `ends` in the digraph `out_adj` with vertex capacities `weights`.

    Each path runs from s along out-arcs through vertices with capacity
    left, and stops at the first end vertex it reaches; its bottleneck (the
    least capacity left on it, s excluded) is subtracted from every vertex
    on it, the end included.  No residual arcs are used, so the paths form
    a feasible flow from s to the ends and their total is a lower bound on
    the max flow from s to any uncuttable sink set that every end has an
    arc into.  An undirected graph is packed as its symmetric digraph with
    unit `weights`, which packs internally vertex-disjoint paths.

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


def packing_reaches(out_adj, weights, s, ends, limit, stats, memo=None, key=None):
    """True, counted as `path_skips`, when the packing `weighted_paths(out_adj,
    weights, s, ends, limit)` reaches `limit`: the capped flow it stands in
    for would stop at its limit.  A limit of None or <= 0 is never a skip.

    With a dict `memo`, the packing's (total, limit) is kept under `key`
    and decides later calls under that key.  The greedy packing adds one
    path at a time in an order that does not depend on the limit, so a
    packing under one limit is a prefix of the packing under any higher
    one.  A kept total below its own limit ran out of paths: it is the
    whole greedy packing and decides every later limit.  A kept total that
    stopped at its limit decides every later limit up to the total; a
    higher limit packs again and replaces it.  Either way each call decides
    exactly as a new packing would."""
    if limit is None or limit <= 0:
        return False
    got = None if memo is None else memo.get(key)
    if got is None or got[1] <= got[0] < limit:
        got = weighted_paths(out_adj, weights, s, ends, limit), limit
        if memo is not None:
            memo[key] = got
    if got[0] < limit:
        return False
    if stats is not None:
        stats.add("path_skips")
    return True


def stored_probe(got, limit):
    """The answer of a capped probe under `limit` (None: no limit), read
    from an earlier probe `got` of the same ordered pair on the same graph,
    or None when `got` (None: no earlier probe) does not decide it.

    A completed (value, cut) knows kappa: it answers every limit, with the
    cut below it and (limit, None) at or above it.  A capped (L, None)
    knows only kappa >= L, so it answers limits <= L."""
    if got is None:
        return None
    value, cut = got
    if limit is not None and limit <= value:
        return limit, None
    return got if cut is not None else None


class PairLedger:
    """What is known about the vertex pairs of one graph, kept in the
    graph's `_ledger` slot.

    Per ordered pair (s, t) it keeps the greedy packing from s toward t
    (`packs`, the memo of `packing_reaches`) and the probe as a capped flow
    returned it (`probes`): a completed (value, cut), or (L, None) for
    kappa(s, t) >= L, also written when a packing reaches L.  The packing
    runs along `out_adj` with vertex capacities `weights` (1 per vertex on
    a Graph) to `near[t]`, the vertices with an arc into t (t's neighbours
    on a Graph); `min_s_to_set_separator` packs along the same view.
    `mirror` says whether kappa is symmetric (a Graph).  `certified` is the
    largest limit L >= 1 at which `connectivity_at_least` has proved
    kappa(g) >= L, or 0 before any such proof; `kappa_at_least` reads it
    too."""

    __slots__ = ("packs", "probes", "out_adj", "weights", "near", "mirror", "certified")

    def __init__(self, g):
        self.packs = {}
        self.probes = {}
        self.certified = 0
        self.mirror = isinstance(g, Graph)
        if self.mirror:
            self.out_adj, self.weights, self.near = g.adj, [1] * g.n, g._adjsets
        else:
            self.out_adj, self.weights, self.near = g.out_adj, g.weights, g._insets


def _ledger(g):
    """The `PairLedger` of g, made on first use (graphs are immutable)."""
    ledger = g._ledger
    if ledger is None:
        ledger = g._ledger = PairLedger(g)
    return ledger


def kappa_at_least(g, s, t, limit, stats=None):
    """True when kappa(s, t) >= `limit` follows from g's ledger: a stored
    probe of (s, t), or on a Graph of (t, s), or the packing from s to the
    vertices with an arc into t, which is then recorded as (limit, None).
    A limit of None is never reached; s must not have an arc into t.

    A limit in [1, `certified`] returns True with nothing asked: s and t
    are non-adjacent, so kappa(s, t) >= kappa(g) >= certified.  Only
    `connectivity_at_least` raises `certified`, on a Graph, so a digraph's
    ledger keeps it 0."""
    if limit is None:
        return False
    ledger = _ledger(g)
    if 0 < limit <= ledger.certified:
        return True
    probes = ledger.probes
    for key in ((s, t), (t, s)) if ledger.mirror else ((s, t),):
        got = probes.get(key)
        if got is not None and got[0] >= limit:
            return True
    if not packing_reaches(
        ledger.out_adj, ledger.weights, s, ledger.near[t], limit, stats, ledger.packs, (s, t)
    ):
        return False
    probes[s, t] = (limit, None)
    return True


def _certificate_pairs(g: Graph):
    """The pair set of Esfahanian and Hakimi (1984), sorted, each pair as
    (min, max): with v the least-index vertex of minimum degree, {v, w} for
    every w outside N[v] and every non-adjacent {x, y} in N(v).  Some pair
    of it is separated by every minimum separator of g.

    Let S be a minimum separator.  If v is not in S, a vertex w of a
    component of g - S without v lies outside N[v].  If v is in S, every
    component C of g - S has N(C) = S (else S minus a vertex outside N(C)
    would separate C), so v has a neighbour in each of two components, and
    those two are non-adjacent."""
    v = min(range(g.n), key=g.degree)
    near = g.neighbor_set(v)
    pairs = [(min(v, w), max(v, w)) for w in range(g.n) if w != v and w not in near]
    pairs += [(x, y) for x, y in itertools.combinations(g.adj[v], 2) if not g.has_edge(x, y)]
    return sorted(pairs)


def connectivity_at_least(g: Graph, limit, stats=None):
    """True when kappa(g) >= `limit` follows from g's ledger, with no flow
    run.  A limit of None is never reached.

    With v the least-index vertex of minimum degree and L = `limit` >= 1,
    every non-adjacent pair {x, y} of N(v) must pass `kappa_at_least` at L,
    and every far vertex w (outside N[v]) must be settled, that is shown to
    have kappa(v, w) >= L.  Call a vertex good when it lies in N(v) or is a
    settled far vertex.  A far vertex with L good neighbours is settled
    with no packing:

        Let S be a v-x separator with |S| < L, x far with L good
        neighbours.  Some good neighbour u of x lies outside S, on x's side
        of g - S.  If u is in N(v), the path v-u-x avoids S.  Otherwise S
        separates v from u, yet kappa(v, u) >= L > |S|.  Either way S is
        not a separator, so kappa(v, x) >= L.

    Settled vertices pass their goodness on along a worklist; when it runs
    dry, the least unsettled far w is asked by `kappa_at_least` on the pair
    (min(v, w), max(v, w)), and settled when it passes.  The first pair
    that fails ends the check with False.  Every pair asked is a pair of
    `_certificate_pairs(g)` in its orientation there, so the check holds
    wherever asking every pair of that set holds, and costs about C(delta,
    2) packings plus propagation.  It is sound: a separator S with |S| <
    limit separates a pair of that set (see `_certificate_pairs`), so
    either a pair in N(v) fails, or some far w has kappa(v, w) < limit and
    is never settled.  A limit <= 0 asks every pair of the set, as before
    the propagation: `kappa_at_least` passes it only on a stored probe.

    A limit L >= 1 that holds is kept as the ledger's `certified` when it
    is the largest so far, and a later limit in [1, certified] returns True
    with no pair asked: kappa(g) >= certified proves it.  A False is not
    kept, since a probe stored later can settle the pair that was open."""
    if limit is None:
        return False
    if g.n == 0:
        return True
    ledger = _ledger(g)
    if 0 < limit <= ledger.certified:
        return True
    if limit <= 0:
        return all(kappa_at_least(g, a, b, limit, stats) for a, b in _certificate_pairs(g))
    adj = g.adj
    v = min(range(g.n), key=g.degree)
    for x, y in itertools.combinations(adj[v], 2):
        if not g.has_edge(x, y) and not kappa_at_least(g, x, y, limit, stats):
            return False
    # missing[w]: good neighbours a far w still lacks; 0 once w is settled,
    # and for v and N(v), which are never counted.
    missing = [limit] * g.n
    missing[v] = 0
    for u in adj[v]:
        missing[u] = 0

    def spread(good):
        while good:
            for x in adj[good.pop()]:
                if missing[x] > 0:
                    missing[x] -= 1
                    if not missing[x]:
                        good.append(x)

    spread(list(adj[v]))
    for w in range(g.n):
        if missing[w]:
            if not kappa_at_least(g, min(v, w), max(v, w), limit, stats):
                return False
            missing[w] = 0
            spread([w])
    ledger.certified = max(ledger.certified, limit)
    return True


def min_st_cut(g, s, t, limit=None, stats=None):
    """Minimum (s,t) vertex cut (L, S, R) of a Graph or WeightedDigraph,
    the s-closest one; NoSeparator when s has an arc into t.

    Returns (value, cut).  With `limit`, values >= limit come back as
    (limit, None) and are exact below it.  Answered from g's ledger where
    it decides the question (see the module docstring); a flow's answer is
    recorded there.
    """
    if s == t:
        raise InvariantError("source among the sinks")
    ledger = _ledger(g)
    got = stored_probe(ledger.probes.get((s, t)), limit)
    if got is not None:
        return got
    if s in ledger.near[t]:
        return NoSeparator
    if kappa_at_least(g, s, t, limit, stats):
        return limit, None
    value, sep, reach, completed = _graph_flow(g, [s], [t], limit=limit, stats=stats)
    cut = _reach_cut(g.n, value, sep, reach) if completed else None
    ledger.probes[s, t] = (value, cut)
    return value, cut


def min_st_separator(g, s, t, limit=None, stats=None):
    """`min_st_cut` with the cut's separator, a sorted tuple, in place of
    the cut: (value, separator), or (limit, None), or NoSeparator."""
    res = min_st_cut(g, s, t, limit, stats)
    if res is NoSeparator or res[1] is None:
        return res
    return res[0], res[1].S


def min_s_to_set_separator(g, s, terminals, limit=None, stats=None):
    """Minimum separator between s and a super-sink attached to all of
    `terminals` (simultaneous separation; terminals are uncuttable).

    NoSeparator when s has an arc into some terminal.  Returns (value,
    separator tuple); with `limit`, values >= limit come back as (limit,
    None), after a flow or when the packing from s to the vertices with an
    arc into a terminal already reaches `limit`.
    """
    terminals = sorted(set(terminals))
    if not terminals:
        raise InvariantError("empty terminal set")
    if s in terminals:
        raise InvariantError("source among the sinks")
    ledger = _ledger(g)
    ends = frozenset().union(*(ledger.near[t] for t in terminals))
    if s in ends:
        return NoSeparator
    if packing_reaches(ledger.out_adj, ledger.weights, s, ends, limit, stats):
        return limit, None
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

    The sweep also returns `best` as soon as `connectivity_at_least(g,
    limit)` holds, checked before the first pair and after each improvement
    of `best`.  Exact: the check holds only when kappa(g) >= limit (the
    proof is in `connectivity_at_least`), and then every pair left has
    kappa(s, t) >= limit and would answer (limit, None), leaving `best` and
    the limit alone.  The check runs no flow, so the sweep's flows are a
    prefix of those of the sweep without it, with the same result; only
    `path_skips` moves.  A check costs C(delta, 2) packings plus
    propagation, where source v_0 alone asks a pair per non-neighbour.
    """
    limit = best.value if isinstance(best, VertexCut) else cap
    if connectivity_at_least(g, limit, stats):
        return best
    for s in range(g.n):
        if limit is not None and s >= limit:
            return best
        for t in range(s + 1, g.n):
            if g.has_edge(s, t):
                continue
            res = min_st_cut(g, s, t, limit=limit, stats=stats)
            if res[1] is not None:
                best = better_cut(best, res[1])
                limit = best.value
                if s >= limit or connectivity_at_least(g, limit, stats):
                    return best
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
