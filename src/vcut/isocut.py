"""Isolating vertex cuts and the balanced-terminal cut algorithms.

Isolating cuts run ceil(log2 |I|) bit-partition flows whose separators carve
the graph into per-terminal regions, then one local flow per terminal on its
region, its boundary and a super-vertex joined to the boundary.  Every
terminal is a source or a sink of each bit-partition flow, so no terminal
is ever cut and every two terminals are split by some round: a region holds
no terminal but its own, and its boundary (separator vertices) none at all.
So the local flow, from the terminal to the super-vertex, is a plain
unit-capacity flow on the local Graph (`maxflow._graph_flow`).

Both balanced-terminal algorithms run one search, `_balanced_search`, over
the sorted terminal list and always return a cut that validates in the
original graph.  They differ only in the pair probe: a whole-graph
`min_st_cut`, or a flow to {b, super-vertex} on the auxiliary graph of the
edges at the terminals.

- *Selector regime* (k/eps <= |T|/4): the selector is the family of all
  2-subsets {i, j}, i < j, of positions in the sorted terminal list
  (`build_selector`'s family, walked lazily in its lexicographic order).
  For two terminals u, v the isolating cuts are exactly the u-closest and
  the v-closest minimum u-v cuts (the engine's canonical separator is the
  source-closest one), so each member set is probed as the two oriented
  pair flows, and an adjacent pair is skipped.
  This regime is a search over both orientations of every non-adjacent
  pair, in the family's lexicographic order.
- *Pair regime* (otherwise):
  the symmetric crossing family over positions in the sorted terminal
  list, walked by `crossing_pairs` with no family built: each unordered
  pair (i, j), i < j, once, in the family's first-occurrence order,
  mapped to terminals (terms[i], terms[j]).  The map is monotone, so the
  smaller terminal comes first.  The walk ends as soon as
  `maxflow.connectivity_at_least` proves kappa(g) >= the value found,
  checked after each improvement and answered from g's pair ledger with
  no flow: no later probe can then return a cut (see `_balanced_search`).

Every probe is capped, so the engine's one skip rule applies: when a
unit-capacity packing of paths reaches the cap, the capped flow would stop
at its limit and is skipped instead, counted as `path_skips`.  The caller's
best cut starts the cap at best.value + 1: a cut above it loses to the
caller's best anyway, and one of equal value can still win on `key()`.  In
the selector regime the cap stays the least value found plus one, so the
result is the minimum, by `key()`, of every isolating cut at or below the
caller's best.  In the pair regime, once a cut is found, the cap is its
value: only a strictly smaller cut replaces it.

Whole-graph probes are `min_st_cut` calls, answered from the graph's own
pair ledger where it can (see `maxflow`); the ledger decides which probes
need a packing or a flow, not which are asked or what they answer.  The
subgraph entry point sends its probes there too when T is all of V: its
auxiliary graph is then g plus an isolated super-vertex, so the flow from
a to {b, super-vertex} has the value and the a-closest separator of the
a-b flow in g, and the candidate is remapped from that separator as
before.
"""

from __future__ import annotations

import itertools
import math

from .errors import InvariantError
from .graphs import (
    Graph,
    NoCut,
    NoSeparator,
    VertexCut,
    better_cut,
    validate_cut,
)
from .maxflow import _graph_flow, connectivity_at_least, min_s_to_set_separator, min_st_cut
from .pseudorandom import crossing_pairs

# Epsilon of the balanced-terminal search (replaces the asymptotic
# n^{-2g(n)}), and its branch switch: the selector regime when
# k/eps <= |T|/4, the crossing-family regime otherwise.  At most 1: a
# selector needs eps in (0, 1].
EPS_BALANCED = 0.25


class IsolatingResult:
    """Per-terminal minimum (v, I\\{v}) separators."""

    __slots__ = ("cuts",)

    def __init__(self, cuts):
        self.cuts = dict(cuts)  # terminal -> (value, separator tuple, VertexCut)

    def value(self, v):
        return self.cuts[v][0]

    def separator(self, v):
        return self.cuts[v][1]

    def cut(self, v):
        return self.cuts[v][2]

    def items(self):
        return self.cuts.items()

    def __repr__(self):
        return f"IsolatingResult({ {v: c[0] for v, c in self.cuts.items()} })"


def isolating_vertex_cuts(g: Graph, terminals, stats=None) -> IsolatingResult:
    """Minimum (v, I\\{v}) vertex separator for every v in the independent
    set I, via bit-partition flows plus one local flow per region.

    No driver calls it: the selector's member sets are pairs, whose
    isolating cuts the balanced search gets as two oriented pair probes."""
    terms = sorted(set(terminals))
    if len(terms) < 2:
        raise InvariantError("need at least 2 terminals")
    for i, u in enumerate(terms):
        for v in terms[i + 1:]:
            if g.has_edge(u, v):
                raise InvariantError(f"terminal set not independent: edge ({u},{v})")

    # Every terminal is a source or a sink of each bit-partition flow, so
    # none is ever cut, and the whole graph's unit network serves them all.
    rounds = max(1, math.ceil(math.log2(len(terms))))
    removed = set()
    for bit in range(rounds):
        a_side = [v for idx, v in enumerate(terms) if not (idx >> bit) & 1]
        b_side = [v for idx, v in enumerate(terms) if (idx >> bit) & 1]
        if not a_side or not b_side:
            continue
        _, sep, _, _ = _graph_flow(g, a_side, b_side, stats=stats)
        removed.update(sep)

    cuts = {}
    for v in terms:
        region = set(g.component_of(v, removed=frozenset(removed - {v})))
        boundary = set()
        for u in region:
            boundary.update(w for w in g.adj[u] if w not in region)
        if not boundary:
            rest = set(range(g.n)) - region
            cuts[v] = (0, (), VertexCut(region, (), rest, 0))
            continue
        nodes = sorted(region | boundary)
        pos = {x: j for j, x in enumerate(nodes)}
        virtual = len(nodes)
        rows = [[pos[w] for w in g.adj[u] if w in pos] for u in nodes]
        for b in boundary:
            rows[pos[b]].append(virtual)
        rows.append(sorted(pos[b] for b in boundary))
        local = Graph(virtual + 1, rows)
        value, sep, _, _ = _graph_flow(local, [pos[v]], [virtual], stats=stats)
        separator = tuple(sorted(nodes[j] for j in sep))
        left = set(g.component_of(v, removed=frozenset(separator)))
        rest = set(range(g.n)) - left - set(separator)
        cut = VertexCut(left, separator, rest, value)
        assert validate_cut(g, cut), "isolating cut failed validation"
        cuts[v] = (value, separator, cut)
    return IsolatingResult(cuts)


def _balanced_search(g: Graph, terms, k, best, probe, stats):
    """The balanced-terminal search over the sorted terminal list `terms` of
    g (see the module docstring), capped from the caller's `best`.

    `probe(a, b, limit)` returns the candidate cut of the a-closest minimum
    a-b separation, or None when it is capped, adjacent or not a cut of g.
    Returns the best candidate, or NoCut(g.n - 1) when there is none; a
    candidate above the caller's best may be missed, so callers keep
    `better_cut(best, result)`.

    The selector regime walks the 2-subsets as `itertools.combinations`
    yields them, the order of `build_selector`'s family, without building
    it.  That family exists there: `build_selector` raises
    ConstructionFailed only when 2*ceil(k/eps) >= |T|, and the regime's
    k/eps <= |T|/4, with eps <= 1 and k >= 1, gives |T| >= 4 and
    2*ceil(k/eps) < |T|/2 + 2 <= |T|.  When every two terminals are
    adjacent, the selector regime makes no probe and returns NoCut.

    The pair regime returns `found` as soon as `connectivity_at_least(g,
    found.value, stats)` holds, asked each time a probe lowers `found`.
    The result is that of walking every pair, for both probe closures:

    - every later probe is capped at `found.value`, so it can only return
      a cut of g of smaller value;
    - the whole-graph probe (`min_st_cut` on g) then answers (limit, None),
      since kappa(a, b) >= kappa(g) >= `found.value`;
    - the auxiliary-graph probe (`min_s_to_set_separator`) returns a
      candidate only when `_remap_candidate` validates it in g, and a cut
      of g weighs at least kappa(g) >= `found.value`, so it returns None.

    So `found` can no longer change.  The check runs no flow; the search's
    flows are a prefix of those of the full walk, and only `path_skips`
    and the flow counts move.  The selector regime does not ask it: its cap
    is `found.value + 1`, and a cut of equal value can still win on
    `key()`.
    """
    if not terms:
        raise InvariantError("empty terminal set")
    if k < 1:
        raise InvariantError("k must be >= 1")
    eps = EPS_BALANCED
    cap = best.value + 1 if isinstance(best, VertexCut) else None
    found = None
    if k / eps <= len(terms) / 4:
        for i, j in itertools.combinations(range(len(terms)), 2):
            u, v = terms[i], terms[j]
            if g.has_edge(u, v):
                continue
            for cut in (probe(u, v, cap), probe(v, u, cap)):
                found = better_cut(found, cut)
            if isinstance(found, VertexCut) and (cap is None or found.value < cap):
                cap = found.value + 1
    else:
        for i, j in crossing_pairs(len(terms), 1 / eps):
            limit = found.value if isinstance(found, VertexCut) else cap
            cut = better_cut(found, probe(terms[i], terms[j], limit))
            if cut is not found:
                found = cut
                if connectivity_at_least(g, found.value, stats):
                    break
    return found if isinstance(found, VertexCut) else NoCut(g.n - 1)


def balanced_terminal_vc(g: Graph, terminals, k, stats=None, best=None):
    """Always returns a valid cut of g (or NoCut); it is a minimum cut
    whenever some cut splits the terminals with both sides large relative
    to the separator's terminal mass and is no larger than the caller's
    `best` (a cut of g or None).  The pair probes are whole-graph
    `min_st_cut` calls.
    """

    def probe(a, b, limit):
        res = min_st_cut(g, a, b, limit, stats)
        return None if res is NoSeparator else res[1]

    found = _balanced_search(g, sorted(set(terminals)), k, best, probe, stats)
    assert not isinstance(found, VertexCut) or validate_cut(g, found)
    return found


def _terminal_subgraph(g: Graph, terms):
    """Auxiliary graph on T, N(T) and a super-vertex adjacent to N(T);
    only edges incident to T survive."""
    tset = set(terms)
    halo = set()
    for t in terms:
        halo.update(g.adj[t])
    halo -= tset
    nodes = sorted(tset | halo)
    pos = {v: j for j, v in enumerate(nodes)}
    virtual = len(nodes)
    adj = [set() for _ in range(virtual + 1)]
    for t in terms:
        for v in g.adj[t]:
            adj[pos[t]].add(pos[v])
            adj[pos[v]].add(pos[t])
    for b in sorted(halo):
        adj[pos[b]].add(virtual)
        adj[virtual].add(pos[b])
    aux = Graph._unchecked(virtual + 1, [sorted(r) for r in adj])
    return aux, nodes, virtual


def _remap_candidate(g: Graph, separator):
    """Interpret a separator found in the auxiliary graph as a cut of g."""
    sep = set(separator)
    comps = []
    seen = set(sep)
    for v in range(g.n):
        if v in seen:
            continue
        comp = set(g.component_of(v, removed=frozenset(sep)))
        seen |= comp
        comps.append(comp)
    if len(comps) < 2:
        return None
    left = min(comps, key=lambda c: (len(c), sorted(c)))
    rest = set(range(g.n)) - left - sep
    cut = VertexCut(left, sep, rest, len(sep))
    return cut if validate_cut(g, cut) else None


def subgraph_balanced_terminal_vc(g: Graph, terminals, k, stats=None, best=None):
    """balanced_terminal_vc confined to the edges incident to the terminal
    set, with a super-vertex standing in for the rest of the graph.

    Minimum when the promise holds with the cut's small side inside T; every
    candidate is re-validated in g before it can win.  A pair probe from a
    to b is a flow from a to the sink set {b, super-vertex} on the
    auxiliary graph (`maxflow.min_s_to_set_separator`).

    When T is all of V, the auxiliary graph is g plus an isolated
    super-vertex, so that flow has the value and the separator of the a-b
    flow in g: such a probe is a whole-graph `min_st_cut`, and its
    separator is remapped as before.
    """
    terms = sorted(set(terminals))
    aux, nodes, virtual = _terminal_subgraph(g, terms)
    pos = {v: j for j, v in enumerate(nodes)}
    whole = len(terms) == g.n

    def probe(a, b, limit):
        if whole:
            res = min_st_cut(g, a, b, limit, stats)
        else:
            res = min_s_to_set_separator(aux, pos[a], (pos[b], virtual), limit, stats)
        if res is NoSeparator or res[1] is None:
            return None
        return _remap_candidate(g, res[1].S if whole else (nodes[x] for x in res[1]))

    return _balanced_search(g, terms, k, best, probe, stats)
