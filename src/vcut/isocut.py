"""Isolating vertex cuts and the balanced-terminal cut algorithms.

Isolating cuts run ceil(log2 |I|) bit-partition flows whose separators carve
the graph into per-terminal regions, then one local flow per terminal on its
region, its boundary and a super-vertex joined to the boundary.  Every
terminal is a source or a sink of each bit-partition flow, so no terminal
is ever cut and every two terminals are split by some round: a region holds
no terminal but its own, and its boundary (separator vertices) none at all.
So the local flow, from the terminal to the super-vertex, is a plain
unit-capacity flow on the local Graph (`maxflow._graph_flow`).

The balanced-terminal algorithms drive isolating cuts through a selector
family (or fall back to crossing-family pair flows when the selector regime
is out of range) and always return a cut that validates in the original
graph.

Both pair branches take the crossing family over positions in the sorted
terminal list and visit `PairFamily.unordered()`: each unordered pair
(i, j), i < j, once, mapped to terminals (terms[i], terms[j]).  The map is
monotone, so the pairs come in the family's first-occurrence order with the
smaller terminal first.

The pair flows of `subgraph_balanced_terminal_vc` run from a terminal a to
the sink set {b, super-vertex} on the auxiliary graph, capped at the best
cut so far, through `maxflow.min_s_to_set_separator`, so the flow engine's
one skip rule applies: when a unit-capacity packing of paths from a to
that set reaches the cap, the capped flow would stop at its limit and is
skipped instead, counted as `path_skips`.
"""

from __future__ import annotations

import math

from .config import DEFAULT, Config
from .errors import ConstructionFailed, InvariantError
from .graphs import (
    Graph,
    NoCut,
    NoSeparator,
    VertexCut,
    better_cut,
    validate_cut,
)
from .maxflow import _graph_flow, min_s_to_set_separator, min_st_cut
from .pseudorandom import build_selector, symmetric_crossing_family


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
    set I, via bit-partition flows plus one local flow per region."""
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


def _greedy_independent(g: Graph, vertices):
    chosen = []
    taken = set()
    for v in sorted(vertices):
        if v in taken:
            continue
        if all(not g.has_edge(v, u) for u in chosen):
            chosen.append(v)
            taken.add(v)
    return chosen


def _selector_candidates(g: Graph, terms, k_sel, eps, cfg, stats):
    """Isolating-cut candidates from one selector family mapped onto terms."""
    family = build_selector(len(terms), k_sel, eps, cfg)
    best = None
    for members in family:
        group = [terms[j] for j in members]
        indep = _greedy_independent(g, group)
        if len(indep) < 2:
            continue
        result = isolating_vertex_cuts(g, indep, stats=stats)
        for _, (_, _, cut) in result.items():
            best = better_cut(best, cut)
    return best


def _pair_candidates(g: Graph, terms, eps, cfg, stats, best=None):
    """Crossing-family pair flows over the sorted terminal list, one per
    unordered pair of the family over its positions."""
    family = symmetric_crossing_family(len(terms), 1 / eps, cfg)
    for i, j in family.unordered():
        limit = best.value if isinstance(best, VertexCut) else None
        res = min_st_cut(g, terms[i], terms[j], limit=limit, stats=stats)
        if res is NoSeparator or res[1] is None:
            continue
        best = better_cut(best, res[1])
    return best


def balanced_terminal_vc(g: Graph, terminals, k, cfg: Config = DEFAULT, stats=None):
    """Always returns a valid cut of g (or NoCut); it is a minimum cut
    whenever some cut splits the terminals with both sides large relative
    to the separator's terminal mass.

    Selector branch when k/eps fits the terminal budget, crossing-family
    pair flows otherwise.
    """
    terms = sorted(set(terminals))
    if not terms:
        raise InvariantError("empty terminal set")
    if k < 1:
        raise InvariantError("k must be >= 1")
    eps = cfg.eps_balanced
    best = None
    use_pairs = (k / eps) > len(terms) / 4
    if not use_pairs:
        try:
            best = _selector_candidates(g, terms, math.ceil(k / eps), eps, cfg, stats)
        except ConstructionFailed:
            use_pairs = True
    if use_pairs or best is None:
        best = _pair_candidates(g, terms, eps, cfg, stats, best=best)
    if isinstance(best, VertexCut):
        assert validate_cut(g, best)
        return best
    return NoCut(g.n - 1)


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
    aux = Graph(virtual + 1, [sorted(r) for r in adj])
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


def subgraph_balanced_terminal_vc(g: Graph, terminals, k, cfg: Config = DEFAULT, stats=None,
                                  best=None):
    """balanced_terminal_vc confined to the edges incident to the terminal
    set, with a super-vertex standing in for the rest of the graph.

    Minimum when the promise holds with the cut's small side inside T; every
    candidate is re-validated in g before it can win.

    `best` is the caller's best cut so far.  Until a pair flow finds a cut,
    the pair flows are capped at best.value + 1, not uncapped: a cut above
    the caller's best loses to it anyway, and one of equal value can still
    win on `key()`, so it must still be found.
    """
    terms = sorted(set(terminals))
    if not terms:
        raise InvariantError("empty terminal set")
    aux, nodes, virtual = _terminal_subgraph(g, terms)
    pos = {v: j for j, v in enumerate(nodes)}
    eps = cfg.eps_balanced
    cap = best.value + 1 if isinstance(best, VertexCut) else None
    best = None
    use_pairs = (k / eps) > len(terms) / 4
    if not use_pairs:
        try:
            family = build_selector(len(terms), math.ceil(k / eps), eps, cfg)
        except ConstructionFailed:
            family = None
            use_pairs = True
        if family is not None:
            for members in family:
                group = [terms[j] for j in members]
                indep = _greedy_independent(g, group)
                if len(indep) < 2:
                    continue
                indep_aux = [pos[v] for v in indep] + [virtual]
                result = isolating_vertex_cuts(aux, indep_aux, stats=stats)
                for av, (_, sep_aux, _) in result.items():
                    if av == virtual:
                        continue
                    cand = _remap_candidate(g, (nodes[j] for j in sep_aux))
                    best = better_cut(best, cand)
    if use_pairs:
        family = symmetric_crossing_family(len(terms), 1 / eps, cfg)
        for i, j in family.unordered():
            limit = best.value if isinstance(best, VertexCut) else cap
            res = min_s_to_set_separator(
                aux, pos[terms[i]], (pos[terms[j]], virtual), limit, stats
            )
            if res is NoSeparator or res[1] is None:
                continue
            cand = _remap_candidate(g, (nodes[x] for x in res[1]))
            best = better_cut(best, cand)
    if isinstance(best, VertexCut):
        return best
    return NoCut(g.n - 1)
