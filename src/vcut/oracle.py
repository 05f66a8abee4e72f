"""Ground-truth brute force: independent flow oracle, planted instances,
and property checkers for the pseudorandom objects.

The flow code here is deliberately a different implementation from the
maxflow module (shortest augmenting paths over a dict residual network, one
path at a time) and shares nothing with it; the two are cross-checked on
every test graph.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .cnc import DISTANCE_FACTOR, PARTITION_FACTOR
from .config import DEFAULT, Config
from .errors import GenerationFailed, InvariantError, SizeGuardError
from .graphs import (
    Graph,
    NoCut,
    NoSeparator,
    VertexCut,
    WeightedDigraph,
    _log2ceil,
    parse_graph,
    serialize_graph,
    validate_cut,
)


# ---------------------------------------------------------------------------
# Independent flow oracle (BFS augmenting paths on a dict residual network)
# ---------------------------------------------------------------------------

def _oracle_flow(n, arcs, caps, sources, sinks, limit=None):
    """Max flow on the vertex-split network; returns (value, source_side).

    Node v's split arc is (v, n+v); arc (u,v) becomes (n+u, v).  Terminals
    bypass their split arc.  `source_side` holds original vertices whose
    out-copy stays residual-reachable.
    """
    big = 1 << 60
    res = {}
    adj = {}

    def wire(x, y, c):
        res[(x, y)] = res.get((x, y), 0) + c
        res.setdefault((y, x), 0)
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)

    src, snk = 2 * n, 2 * n + 1
    for v in range(n):
        wire(v, n + v, caps[v])
    for u, v in arcs:
        wire(n + u, v, big)
    for s in sources:
        wire(src, n + s, big)
    for t in sinks:
        wire(t, snk, big)

    value = 0
    while limit is None or value < limit:
        parent = {src: None}
        queue = [src]
        qi = 0
        while qi < len(queue) and snk not in parent:
            x = queue[qi]
            qi += 1
            for y in adj.get(x, ()):
                if y not in parent and res[(x, y)] > 0:
                    parent[y] = x
                    queue.append(y)
        if snk not in parent:
            break
        bottleneck = big
        y = snk
        while parent[y] is not None:
            x = parent[y]
            bottleneck = min(bottleneck, res[(x, y)])
            y = x
        if limit is not None:
            bottleneck = min(bottleneck, limit - value)
        y = snk
        while parent[y] is not None:
            x = parent[y]
            res[(x, y)] -= bottleneck
            res[(y, x)] += bottleneck
            y = x
        value += bottleneck
    if limit is not None and value >= limit:
        return value, None
    seen = {src}
    queue = [src]
    qi = 0
    while qi < len(queue):
        x = queue[qi]
        qi += 1
        for y in adj.get(x, ()):
            if y not in seen and res[(x, y)] > 0:
                seen.add(y)
                queue.append(y)
    side = [v for v in range(n) if (n + v) in seen]
    return value, side


def _arcs_caps(g):
    if isinstance(g, Graph):
        return [(u, v) for u in range(g.n) for v in g.adj[u]], [1] * g.n
    return list(g.arcs()), list(g.weights)


def brute_pair_kappa(g, s, t, limit=None):
    """kappa(s,t) by the independent oracle; NoSeparator for adjacent pairs."""
    if s == t:
        raise InvariantError("s == t")
    adjacent = g.has_edge(s, t) if isinstance(g, Graph) else g.has_arc(s, t)
    if adjacent:
        return NoSeparator
    arcs, caps = _arcs_caps(g)
    value, _ = _oracle_flow(g.n, arcs, caps, [s], [t], limit=limit)
    return value


def brute_pair_cut(g, s, t):
    """kappa(s,t) plus the witness cut, by the independent oracle."""
    if s == t:
        raise InvariantError("s == t")
    adjacent = g.has_edge(s, t) if isinstance(g, Graph) else g.has_arc(s, t)
    if adjacent:
        return NoSeparator
    arcs, caps = _arcs_caps(g)
    value, side = _oracle_flow(g.n, arcs, caps, [s], [t])
    left = set(side)
    weights = caps
    sep = set()
    if isinstance(g, Graph):
        for u in left:
            sep.update(v for v in g.adj[u] if v not in left)
    else:
        for u in left:
            sep.update(v for v in g.out_adj[u] if v not in left)
    rest = set(range(g.n)) - left - sep
    cut = VertexCut(left, sep, rest, sum(weights[v] for v in sep))
    assert cut.value == value, "oracle duality violated"
    return value, cut


def brute_s_to_set_kappa(g: Graph, s, terminals, limit=None):
    """Simultaneous min separator between s and all of `terminals`."""
    terminals = sorted(set(terminals))
    if s in terminals:
        raise InvariantError("s in terminal set")
    if any(g.has_edge(s, t) for t in terminals):
        return NoSeparator
    arcs, caps = _arcs_caps(g)
    value, _ = _oracle_flow(g.n, arcs, caps, [s], terminals, limit=limit)
    return value


def oracle_guard(g, cfg: Config = DEFAULT) -> int:
    """The largest n that `brute_kappa` accepts for a graph of g's kind."""
    if isinstance(g, WeightedDigraph):
        return cfg.oracle_weighted_guard
    return cfg.oracle_unweighted_guard


def brute_kappa(g, cfg: Config = DEFAULT):
    """Exact connectivity with a witness cut; NoCut for complete graphs,
    (0, cut) for disconnected inputs.  Guarded input size.
    """
    directed = isinstance(g, WeightedDigraph)
    guard = oracle_guard(g, cfg)
    if g.n > guard:
        raise SizeGuardError(f"n={g.n} beyond oracle guard {guard}")
    if g.n <= 1:
        return NoCut(None if directed else 0)
    if directed:
        sccs = g.strongly_connected_components()
        if len(sccs) > 1:
            sink = sccs[0]  # Tarjan emits sinks first: no arcs leave it
            rest = set(range(g.n)) - set(sink)
            return 0, VertexCut(sink, (), rest, 0)
        if g.is_complete():
            return NoCut(None)
    else:
        comps = g.components()
        if len(comps) > 1:
            rest = set(range(g.n)) - set(comps[0])
            return 0, VertexCut(comps[0], (), rest, 0)
        if g.is_complete():
            return NoCut(g.n - 1)
    best_value = None
    best_pair = None
    pairs = (
        itertools.permutations(range(g.n), 2)
        if directed
        else itertools.combinations(range(g.n), 2)
    )
    for s, t in pairs:
        limit = best_value if best_value is not None else None
        got = brute_pair_kappa(g, s, t, limit=limit)
        if got is NoSeparator:
            continue
        if best_value is None or got < best_value:
            best_value = got
            best_pair = (s, t)
    assert best_pair is not None  # incomplete graph has a non-adjacent pair
    value, cut = brute_pair_cut(g, *best_pair)
    assert value == best_value
    return value, cut


def brute_isolating_values(g: Graph, terminals):
    """Per-terminal minimum (v, I\\{v}) separator values, independently."""
    out = {}
    for v in terminals:
        others = [u for u in terminals if u != v]
        got = brute_s_to_set_kappa(g, v, others)
        out[v] = got
    return out


# ---------------------------------------------------------------------------
# Property checkers
# ---------------------------------------------------------------------------

def check_crossing_family(pairs, universe_a, universe_b, l, r):
    """Exhaustive (A,B,l,r)-crossing check; (True, None) or (False, witness).

    It suffices to check |L| = l and the maximal avoiding R, since the
    property is monotone in both set sizes.
    """
    targets = {}
    for u, v in pairs:
        targets.setdefault(u, set()).add(v)
    bset = set(universe_b)
    for L in itertools.combinations(sorted(universe_a), l):
        hit = set()
        for u in L:
            hit |= targets.get(u, set())
        avoid = bset - hit
        if len(avoid) >= r:
            R = tuple(sorted(avoid)[:r])
            return False, (tuple(L), R)
    return True, None


def check_symmetric_crossing(pairs, n, alpha):
    """Exhaustive check over all admissible tri-partitions of [n].

    For fixed L the hardest partition takes R = everything L's pairs avoid,
    so one scan over subsets L is exhaustive.
    """
    targets = {}
    for u, v in pairs:
        targets.setdefault(u, set()).add(v)
    universe = set(range(n))
    for bits in range(1, 1 << n):
        L = [v for v in range(n) if bits >> v & 1]
        hit = set()
        for u in L:
            hit |= targets.get(u, set())
        avoid = universe - set(L) - hit
        if len(avoid) >= len(L) and n - len(L) - len(avoid) <= alpha * len(L):
            R = tuple(sorted(avoid))
            S = tuple(sorted(universe - set(L) - avoid))
            return False, (tuple(L), S, R)
    return True, None


def check_selector(sets, n, k, eps):
    """Exhaustive (n,k,eps)-selector check over all disjoint (L,S)."""
    eps = Fraction(eps)
    families = [frozenset(u) for u in sets]
    lo = int(eps * k) + 1
    ground = list(range(n))
    for lsize in range(lo, k + 1):
        for L in itertools.combinations(ground, lsize):
            lset = frozenset(L)
            rest = [v for v in ground if v not in lset]
            for ssize in range(0, k + 1):
                for S in itertools.combinations(rest, ssize):
                    sset = frozenset(S)
                    if not any(len(u & lset) == 1 and not (u & sset) for u in families):
                        return False, (L, S)
    return True, None


def check_disperser(bip, k, eps, cfg: Config = DEFAULT):
    """(k,eps)-disperser check: every size-k left set covers >= (1-eps)|W|.

    Exhaustive when C(n,k) is small, deterministic sampling otherwise
    (a sampled failure is definitive; a sampled pass is only evidence).
    Returns (verdict, method, counterexample).
    """
    eps = Fraction(eps)
    n, n_right = bip.n_left, bip.n_right
    need = n_right - int(eps * n_right)  # = ceil((1-eps)*W) for rational eps
    nbrs = [frozenset(bip.table[v]) for v in range(n)]
    count = 1
    for i in range(k):
        count = count * (n - i) // (i + 1)
        if count > cfg.exhaustive_subset_limit:
            break
    if count <= cfg.exhaustive_subset_limit:
        for A in itertools.combinations(range(n), k):
            cover = frozenset().union(*(nbrs[v] for v in A))
            if len(cover) < need:
                return False, "exhaustive", tuple(A)
        return True, "exhaustive", None
    rng = random.Random(0xD15BE5)
    for _ in range(cfg.sampled_check_trials):
        A = rng.sample(range(n), k)
        cover = frozenset().union(*(nbrs[v] for v in A))
        if len(cover) < need:
            return False, "sampled", tuple(sorted(A))
    return True, "sampled", None


def check_clustering(clustering, graph, dist, d, samples=200, seed=7):
    """Verify the clustering contract; returns (verdict, failures list).

    Checks: the partition count bound (`cnc.PARTITION_FACTOR`), exact
    partition structure, the cover property on sampled connected
    low-oracle-diameter sets, and the sampled intra-cluster distance bound
    (`cnc.DISTANCE_FACTOR`).
    """
    n = clustering.n
    failures = []
    logn = _log2ceil(n)
    if len(clustering.partitions) > PARTITION_FACTOR * logn:
        failures.append(("partition-count", len(clustering.partitions)))
    for pi, partition in enumerate(clustering.partitions):
        seen = []
        for cluster in partition:
            seen.extend(cluster)
        if sorted(seen) != list(range(n)):
            failures.append(("not-a-partition", pi))
    rng = random.Random(seed)
    bound = DISTANCE_FACTOR * d * logn
    for partition in clustering.partitions:
        for cluster in partition:
            k = len(cluster)
            if k < 2:
                continue
            pairs = (
                list(itertools.combinations(cluster, 2))
                if k * (k - 1) // 2 <= 64
                else [tuple(rng.sample(cluster, 2)) for _ in range(64)]
            )
            for u, v in pairs:
                if dist(u, v) > bound:
                    failures.append(("intra-cluster-distance", u, v, dist(u, v)))
    # Cover: grow sets inside balls of radius d/2 so pairwise distance <= d.
    member_index = clustering.membership_index()
    for _ in range(samples):
        u = rng.randrange(n)
        ball = {u}
        frontier = [u]
        while frontier:
            x = frontier.pop()
            for y in graph.adj[x]:
                if y not in ball and dist(x, y) <= d and dist(u, y) * 2 <= d:
                    ball.add(y)
                    frontier.append(y)
        L = sorted(ball)
        if max((dist(a, b) for a, b in itertools.combinations(L, 2)), default=0) > d:
            continue
        covered = False
        for pi, ci in member_index[u]:
            cluster = set(clustering.partitions[pi][ci])
            if all(v in cluster for v in L):
                covered = True
                break
        if not covered:
            failures.append(("cover", tuple(L)))
    return (not failures), failures


# ---------------------------------------------------------------------------
# Planted instances
# ---------------------------------------------------------------------------

@dataclass
class PlantedInstance:
    graph: object
    cut: VertexCut
    kind: str
    params: dict
    seed: int

    def verify(self, cfg: Config = DEFAULT) -> bool:
        if not validate_cut(self.graph, self.cut):
            return False
        got = brute_kappa(self.graph, cfg)
        return isinstance(got, tuple) and got[0] == self.cut.value


def _random_connected(rng, nodes, p, edges):
    order = list(nodes)
    rng.shuffle(order)
    for i in range(1, len(order)):
        j = rng.randrange(i)
        edges.add((min(order[i], order[j]), max(order[i], order[j])))
    for u, v in itertools.combinations(sorted(nodes), 2):
        if rng.random() < p:
            edges.add((u, v))


def generate_planted(kind, params, seed, cfg: Config = DEFAULT):
    """Build a planted instance whose cut is a verified minimum separator.

    Rejection-samples over derived seeds; GenerationFailed after the retry
    budget (also raised for structurally infeasible parameter sets).
    """
    tries = params.get("tries", 40)
    for attempt in range(tries):
        rng = random.Random(f"{kind}:{seed}:{attempt}")
        built = _build_planted(kind, params, rng)
        if built is None:
            continue
        graph, cut = built
        if not validate_cut(graph, cut):
            continue
        got = brute_kappa(graph, cfg)
        if isinstance(got, tuple) and got[0] == cut.value:
            return PlantedInstance(graph, cut, kind, dict(params), seed)
    raise GenerationFailed(f"could not plant a verified {kind} instance in {tries} tries")


def _build_planted(kind, params, rng):
    if kind == "unbalanced":
        ln, sn, rn = params["l"], params["s"], params["r"]
        if sn >= ln + sn + rn - 1 or ln < 1 or rn < 1:
            return None
        n = ln + sn + rn
        L = list(range(ln))
        S = list(range(ln, ln + sn))
        R = list(range(ln + sn, n))
        edges = set()
        for u, v in itertools.combinations(L, 2):
            edges.add((u, v))
        for u in L:
            for v in S:
                edges.add((u, v))
        for v in S:
            targets = rng.sample(R, max(1, int(0.8 * len(R))))
            for t in targets:
                edges.add((min(v, t), max(v, t)))
        _random_connected(rng, R, params.get("p_r", 0.7), edges)
        g = Graph.from_edges(n, sorted(edges))
        return g, VertexCut(L, S, R, sn)
    if kind == "balanced-terminal":
        side, sn = params["side"], params["s"]
        n = 2 * side + sn
        L = list(range(side))
        S = list(range(side, side + sn))
        R = list(range(side + sn, n))
        edges = set()
        _random_connected(rng, L, params.get("p", 0.6), edges)
        _random_connected(rng, R, params.get("p", 0.6), edges)
        for v in S:
            for side_nodes in (L, R):
                for t in rng.sample(side_nodes, max(1, int(0.8 * len(side_nodes)))):
                    edges.add((min(v, t), max(v, t)))
        g = Graph.from_edges(n, sorted(edges))
        return g, VertexCut(L, S, R, sn)
    if kind in ("lopsided", "symmetric"):
        ln, sn, rn = params["l"], params["s"], params["r"]
        wmax = params.get("W", 8)
        n = ln + sn + rn
        L = list(range(ln))
        S = list(range(ln, ln + sn))
        R = list(range(ln + sn, n))
        arcs = set()
        for u, v in itertools.permutations(L, 2):
            arcs.add((u, v))
        for u in L:
            for v in S:
                arcs.add((u, v))
                arcs.add((v, u))
        for v in S:
            for t in rng.sample(R, max(1, int(0.8 * len(R)))):
                arcs.add((v, t))
                arcs.add((t, v))
        for u, v in itertools.permutations(R, 2):
            if rng.random() < params.get("p_r", 0.6):
                arcs.add((u, v))
        for u in rng.sample(R, max(1, len(R) // 2)):
            arcs.add((u, rng.choice(L)))  # back arcs R->L keep it strongly connected
        weights = [0] * n
        for v in L:
            weights[v] = 1
        for v in S:
            weights[v] = rng.randrange(1, wmax + 1)
        for v in R:
            weights[v] = wmax if kind == "lopsided" else rng.randrange(1, wmax + 1)
        d = WeightedDigraph.from_arcs(n, sorted(arcs), weights)
        if kind == "lopsided" and d.weight_of(R) < 16 * d.weight_of(L):
            return None
        return d, VertexCut(L, S, R, d.weight_of(S))
    raise ValueError(f"unknown planted kind {kind!r}")


def save_instance(inst: PlantedInstance) -> str:
    text = serialize_graph(inst.graph)
    text += "cut L: " + " ".join(map(str, inst.cut.L)) + "\n"
    text += "cut S: " + " ".join(map(str, inst.cut.S)) + "\n"
    text += "cut R: " + " ".join(map(str, inst.cut.R)) + "\n"
    return text


def load_instance(text, cfg: Config = DEFAULT) -> PlantedInstance:
    graph_lines = []
    cut_parts = {}
    for line in text.splitlines():
        if line.startswith("cut "):
            tag, _, rest = line[4:].partition(":")
            cut_parts[tag.strip()] = [int(x) for x in rest.split()]
        else:
            graph_lines.append(line)
    g = parse_graph("\n".join(graph_lines))
    if set(cut_parts) != {"L", "S", "R"}:
        raise InvariantError("instance file missing cut annotation block")
    value = (
        len(cut_parts["S"])
        if isinstance(g, Graph)
        else g.weight_of(cut_parts["S"])
    )
    cut = VertexCut(cut_parts["L"], cut_parts["S"], cut_parts["R"], value)
    inst = PlantedInstance(g, cut, "loaded", {}, -1)
    if not inst.verify(cfg):
        raise InvariantError("instance file failed re-verification")
    return inst


# ---------------------------------------------------------------------------
# Seeded random test graphs (shared by tests and the CLI bench command)
# ---------------------------------------------------------------------------

def random_graph(n, p, seed, connected=True) -> Graph:
    rng = random.Random(f"graph:{n}:{round(p * 1000)}:{seed}")
    for _ in range(200):
        edges = set()
        if connected:
            _random_connected(rng, range(n), 0.0, edges)
        for u, v in itertools.combinations(range(n), 2):
            if rng.random() < p:
                edges.add((u, v))
        g = Graph.from_edges(n, sorted(edges))
        if not connected or g.is_connected():
            return g
    raise GenerationFailed("random_graph retries exhausted")


def random_digraph(n, p, wmax, seed, strongly_connected=True) -> WeightedDigraph:
    rng = random.Random(f"digraph:{n}:{round(p * 1000)}:{wmax}:{seed}")
    for _ in range(200):
        arcs = set()
        order = list(range(n))
        rng.shuffle(order)
        if strongly_connected:
            for i in range(n):
                arcs.add((order[i], order[(i + 1) % n]))
        for u, v in itertools.permutations(range(n), 2):
            if rng.random() < p:
                arcs.add((u, v))
        arcs = {(u, v) for (u, v) in arcs if u != v}
        weights = [rng.randrange(1, wmax + 1) for _ in range(n)]
        d = WeightedDigraph.from_arcs(n, sorted(arcs), weights)
        if not strongly_connected or d.is_strongly_connected():
            return d
    raise GenerationFailed("random_digraph retries exhausted")
