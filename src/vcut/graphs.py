"""Graph representations, neighborhood algebra, validation, and sparsification.

Vertex ids are dense integers in [0, n).  Both graph types are immutable
after construction and safe to share across workers; all mutation happens in
plain dict/list builders before the constructor runs.
"""

from __future__ import annotations

import math

from .errors import InvariantError, ParseError


def _log2ceil(x) -> int:
    """ceil(log2 x), floored at 1 (so 1 for every x <= 2)."""
    return max(1, math.ceil(math.log2(max(2, x))))


class Graph:
    """Undirected unweighted graph with per-vertex sorted adjacency."""

    __slots__ = ("n", "adj", "_adjsets", "_min_degree", "_network", "_ledger", "_pieces")

    def __init__(self, n: int, adj):
        self.n = n
        self.adj = tuple(tuple(row) for row in adj)
        if len(self.adj) != n:
            raise InvariantError("adjacency length does not match n")
        for u, row in enumerate(self.adj):
            prev = -1
            for v in row:
                if v < 0 or v >= n:
                    raise InvariantError(f"vertex id {v} out of range [0,{n})")
                if v == u:
                    raise InvariantError(f"self-loop at {u}")
                if v <= prev:
                    raise InvariantError(f"adjacency of {u} not sorted/duplicate-free")
                prev = v
        self._adjsets = tuple(frozenset(row) for row in self.adj)
        for u, row in enumerate(self.adj):
            for v in row:
                if u not in self._adjsets[v]:
                    raise InvariantError(f"asymmetric edge ({u},{v})")
        self._min_degree = None
        self._network = None  # split network, built by maxflow._graph_flow
        self._ledger = None  # pair ledger, made by maxflow.min_st_cut
        self._pieces = None  # induced expander pieces, kept by unweighted._piece

    def flow_arcs(self):
        """Both orientations of every edge."""
        return [(u, v) for u in range(self.n) for v in self.adj[u]]

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        adj = [set() for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise InvariantError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantError(f"edge ({u},{v}) out of range")
            if v in adj[u]:
                raise InvariantError(f"duplicate edge ({u},{v})")
            adj[u].add(v)
            adj[v].add(u)
        return cls(n, [sorted(s) for s in adj])

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def neighbors(self, v: int):
        return self.adj[v]

    def neighbor_set(self, v: int) -> frozenset:
        return self._adjsets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjsets[u]

    def min_degree(self) -> int:
        if self._min_degree is None:
            self._min_degree = min((len(r) for r in self.adj), default=0)
        return self._min_degree

    def edges(self):
        for u, row in enumerate(self.adj):
            for v in row:
                if u < v:
                    yield (u, v)

    def is_complete(self) -> bool:
        return self.n <= 1 or all(len(row) == self.n - 1 for row in self.adj)

    def components(self) -> list[list[int]]:
        seen = [False] * self.n
        out = []
        for s in range(self.n):
            if seen[s]:
                continue
            comp, stack = [], [s]
            seen[s] = True
            while stack:
                u = stack.pop()
                comp.append(u)
                for v in self.adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        stack.append(v)
            out.append(sorted(comp))
        return out

    def is_connected(self) -> bool:
        return self.n <= 1 or len(self.components()) == 1

    def component_of(self, s: int, removed=frozenset()) -> list[int]:
        """Vertices reachable from s after deleting `removed`."""
        if s in removed:
            return []
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in self.adj[u]:
                if v not in seen and v not in removed:
                    seen.add(v)
                    stack.append(v)
        return sorted(seen)

    def induced(self, vertices) -> tuple["Graph", list[int]]:
        """Induced subgraph plus the sorted id map (new id -> old id)."""
        ids = sorted(vertices)
        pos = {v: i for i, v in enumerate(ids)}
        keep = set(ids)
        adj = [[pos[v] for v in self.adj[u] if v in keep] for u in ids]
        return Graph(len(ids), adj), ids

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class WeightedDigraph:
    """Directed graph with positive integer vertex weights."""

    __slots__ = (
        "n", "out_adj", "in_adj", "weights", "_outsets", "_insets", "_network", "_ledger",
    )

    def __init__(self, n: int, out_adj, weights):
        self.n = n
        self.out_adj = tuple(tuple(row) for row in out_adj)
        if len(self.out_adj) != n:
            raise InvariantError("adjacency length does not match n")
        self.weights = tuple(int(w) for w in weights)
        if len(self.weights) != n:
            raise InvariantError("weights length does not match n")
        for v, w in enumerate(self.weights):
            if w < 1:
                raise InvariantError(f"weight of {v} must be >= 1")
        # Weighted sums use 64-bit accumulation; reject inputs where n*W
        # would overflow it (exact arithmetic is required throughout).
        if self.n and self.n * max(self.weights) >= 2**62:
            raise InvariantError("n*W too large for 64-bit weight arithmetic")
        in_adj = [[] for _ in range(n)]
        for u, row in enumerate(self.out_adj):
            prev = -1
            for v in row:
                if v < 0 or v >= n:
                    raise InvariantError(f"vertex id {v} out of range [0,{n})")
                if v == u:
                    raise InvariantError(f"self-loop at {u}")
                if v <= prev:
                    raise InvariantError(f"out-adjacency of {u} not sorted/duplicate-free")
                prev = v
                in_adj[v].append(u)
        self.in_adj = tuple(tuple(sorted(row)) for row in in_adj)
        self._outsets = tuple(frozenset(row) for row in self.out_adj)
        self._insets = tuple(frozenset(row) for row in self.in_adj)
        self._network = None  # split network, built by maxflow._graph_flow
        self._ledger = None  # pair ledger, made by maxflow.min_st_cut

    @classmethod
    def from_arcs(cls, n: int, arcs, weights=None) -> "WeightedDigraph":
        adj = [set() for _ in range(n)]
        for u, v in arcs:
            if u == v:
                raise InvariantError(f"self-loop at {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise InvariantError(f"arc ({u},{v}) out of range")
            if v in adj[u]:
                raise InvariantError(f"duplicate arc ({u},{v})")
            adj[u].add(v)
        if weights is None:
            weights = [1] * n
        return cls(n, [sorted(s) for s in adj], weights)

    @property
    def m(self) -> int:
        return sum(len(row) for row in self.out_adj)

    @property
    def max_weight(self) -> int:
        return max(self.weights, default=1)

    def out(self, v: int):
        return self.out_adj[v]

    def into(self, v: int):
        return self.in_adj[v]

    def out_set(self, v: int) -> frozenset:
        return self._outsets[v]

    def in_set(self, v: int) -> frozenset:
        return self._insets[v]

    def has_arc(self, u: int, v: int) -> bool:
        return v in self._outsets[u]

    def weight_of(self, vertices) -> int:
        w = self.weights
        return sum(w[v] for v in vertices)

    def arcs(self):
        for u, row in enumerate(self.out_adj):
            for v in row:
                yield (u, v)

    def reverse(self) -> "WeightedDigraph":
        return WeightedDigraph(self.n, self.in_adj, self.weights)

    def is_complete(self) -> bool:
        return self.n <= 1 or all(len(row) == self.n - 1 for row in self.out_adj)

    def reachable_from(self, s: int, removed=frozenset()) -> list[int]:
        if s in removed:
            return []
        seen = {s}
        stack = [s]
        while stack:
            u = stack.pop()
            for v in self.out_adj[u]:
                if v not in seen and v not in removed:
                    seen.add(v)
                    stack.append(v)
        return sorted(seen)

    def strongly_connected_components(self) -> list[list[int]]:
        """Tarjan SCCs in reverse topological order (sinks first)."""
        n = self.n
        index = [0] * n
        low = [0] * n
        on_stack = [False] * n
        comp_id = [-1] * n
        stack: list[int] = []
        out: list[list[int]] = []
        counter = [1]

        for root in range(n):
            if index[root]:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack[v] = True
                advanced = False
                row = self.out_adj[v]
                while pi < len(row):
                    w = row[pi]
                    pi += 1
                    if not index[w]:
                        work[-1] = (v, pi)
                        work.append((w, 0))
                        advanced = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if advanced:
                    continue
                work[-1] = (v, pi)
                if pi >= len(row):
                    work.pop()
                    if low[v] == index[v]:
                        comp = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp_id[w] = len(out)
                            comp.append(w)
                            if w == v:
                                break
                        out.append(sorted(comp))
                    if work:
                        parent = work[-1][0]
                        low[parent] = min(low[parent], low[v])
        return out

    def is_strongly_connected(self) -> bool:
        return self.n <= 1 or len(self.strongly_connected_components()) == 1

    def __eq__(self, other):
        return (
            isinstance(other, WeightedDigraph)
            and self.n == other.n
            and self.out_adj == other.out_adj
            and self.weights == other.weights
        )

    def __hash__(self):
        return hash((self.n, self.out_adj, self.weights))

    def __repr__(self):
        return f"WeightedDigraph(n={self.n}, m={self.m}, W={self.max_weight})"


class VertexCut:
    """Tri-partition (L, S, R): no edge (arc) from L to R; S is the separator."""

    __slots__ = ("L", "S", "R", "value")

    def __init__(self, L, S, R, value: int):
        self.L = tuple(sorted(L))
        self.S = tuple(sorted(S))
        self.R = tuple(sorted(R))
        self.value = value

    def key(self):
        """Deterministic tie-break order: value, then lexicographic separator."""
        return (self.value, self.S, self.L)

    def __eq__(self, other):
        return (
            isinstance(other, VertexCut)
            and (self.L, self.S, self.R, self.value) == (other.L, other.S, other.R, other.value)
        )

    def __hash__(self):
        return hash((self.L, self.S, self.R, self.value))

    def __repr__(self):
        return f"VertexCut(|L|={len(self.L)}, S={list(self.S)}, |R|={len(self.R)}, value={self.value})"


class NoCut:
    """Sentinel for graphs with no vertex cut (complete graphs).

    Carries kappa := n-1 for unweighted complete graphs; weighted complete
    digraphs leave `value` as None (no defined weighted analogue).
    """

    __slots__ = ("value",)

    def __init__(self, value=None):
        self.value = value

    def __repr__(self):
        return f"NoCut(value={self.value})"


class _NoSeparator:
    """Sentinel for (s,t) queries with t adjacent to s."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NoSeparator"


NoSeparator = _NoSeparator()


def better_cut(a, b):
    """Minimum of two cut candidates; None and NoCut lose to any VertexCut."""
    if not isinstance(a, VertexCut):
        return b
    if not isinstance(b, VertexCut):
        return a
    return a if a.key() <= b.key() else b


# ---------------------------------------------------------------------------
# Neighborhood algebra
# ---------------------------------------------------------------------------

def symdiff_size(g: Graph, u: int, v: int) -> int:
    """|N(u) triangle N(v)| by a sorted merge of the two adjacency rows."""
    if u == v:
        return 0
    a, b = g.adj[u], g.adj[v]
    i = j = count = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
        elif x < y:
            count += 1
            i += 1
        else:
            count += 1
            j += 1
    return count + (la - i) + (lb - j)


def weighted_symdiff(d: WeightedDigraph, u: int, v: int) -> int:
    """w(N^out(u) triangle N^out(v)) by a sorted merge."""
    if u == v:
        return 0
    a, b = d.out_adj[u], d.out_adj[v]
    w = d.weights
    i = j = 0
    la, lb = len(a), len(b)
    total = 0
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x == y:
            i += 1
            j += 1
        elif x < y:
            total += w[x]
            i += 1
        else:
            total += w[y]
            j += 1
    while i < la:
        total += w[a[i]]
        i += 1
    while j < lb:
        total += w[b[j]]
        j += 1
    return total


def validate_cut(g, cut: VertexCut) -> bool:
    """True iff (L,S,R) is a disjoint cover of V, no vertex listed twice,
    with no edge/arc from L to R.

    Monotone under moving vertices from L or R into S.
    """
    if not isinstance(cut, VertexCut):
        return False
    L, S, R = set(cut.L), set(cut.S), set(cut.R)
    if len(cut.L) + len(cut.S) + len(cut.R) != g.n or (L | S | R) != set(range(g.n)):
        return False
    if not L or not R:
        return False
    if isinstance(g, Graph):
        for u in L:
            if g.neighbor_set(u) & R:
                return False
    else:
        for u in L:
            if g.out_set(u) & R:
                return False
    return True


def min_degree_cut(g: Graph):
    """Baseline cut ({a}, N(a), rest) for a min-degree vertex a; NoCut if complete."""
    if g.is_complete():
        return NoCut(g.n - 1)
    best = None
    for a in range(g.n):
        if len(g.adj[a]) == g.min_degree():
            rest = set(range(g.n)) - {a} - g.neighbor_set(a)
            if rest:
                cand = VertexCut([a], g.adj[a], rest, len(g.adj[a]))
                best = better_cut(best, cand)
    return best


def min_out_neighborhood_cut(d: WeightedDigraph):
    """Baseline weighted cut ({v}, N^out(v), rest) minimizing w(N^out(v))."""
    best = None
    for v in range(d.n):
        rest = set(range(d.n)) - {v} - d.out_set(v)
        if rest:
            cand = VertexCut([v], d.out_adj[v], rest, d.weight_of(d.out_adj[v]))
            best = better_cut(best, cand)
    return best


# ---------------------------------------------------------------------------
# Text format:  header "p <n> <m> <u|d>", edges "e <u> <v>", weights
# "w <v> <wt>", comments "c ...", one record per line.
# ---------------------------------------------------------------------------

def parse_graph(text):
    """Parse the toolkit text format into a Graph or WeightedDigraph."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not UTF-8 text (byte {exc.start})") from None
    n = m = None
    directed = False
    edges = []
    seen = set()
    weights = {}
    header_seen = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        tag = parts[0]
        if tag == "p":
            if header_seen:
                raise ParseError("duplicate header", lineno)
            if len(parts) != 4 or parts[3] not in ("u", "d"):
                raise ParseError("header must be 'p <n> <m> <u|d>'", lineno)
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer header fields", lineno) from None
            if n < 0 or m < 0:
                raise ParseError("negative header fields", lineno)
            directed = parts[3] == "d"
            header_seen = True
        elif tag == "e":
            if not header_seen:
                raise ParseError("edge before header", lineno)
            if len(parts) != 3:
                raise ParseError("edge must be 'e <u> <v>'", lineno)
            try:
                u, v = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer edge endpoints", lineno) from None
            if u == v:
                raise ParseError(f"self-loop at {u}", lineno)
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(f"edge ({u},{v}) out of range", lineno)
            key = (u, v) if directed or u < v else (v, u)
            if key in seen:
                raise ParseError(f"duplicate {'arc' if directed else 'edge'} ({u},{v})", lineno)
            seen.add(key)
            edges.append((u, v))
        elif tag == "w":
            if not header_seen:
                raise ParseError("weight before header", lineno)
            if not directed:
                raise ParseError("weights are only valid for directed graphs", lineno)
            if len(parts) != 3:
                raise ParseError("weight must be 'w <v> <wt>'", lineno)
            try:
                v, wt = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("non-integer weight fields", lineno) from None
            if not 0 <= v < n:
                raise ParseError(f"weight vertex {v} out of range", lineno)
            if wt < 1:
                raise ParseError(f"weight of {v} must be >= 1", lineno)
            if v in weights:
                raise ParseError(f"duplicate weight for {v}", lineno)
            weights[v] = wt
        else:
            raise ParseError(f"unknown record {tag!r}", lineno)
    if not header_seen:
        raise ParseError("missing header", 1)
    if len(edges) != m:
        raise ParseError(f"header declares m={m} but found {len(edges)} edges", 1)
    if directed:
        wlist = [weights.get(v, 1) for v in range(n)]
        return WeightedDigraph.from_arcs(n, edges, wlist)
    return Graph.from_edges(n, edges)


def serialize_graph(g) -> str:
    lines = []
    if isinstance(g, Graph):
        lines.append(f"p {g.n} {g.m} u")
        for u, v in g.edges():
            lines.append(f"e {u} {v}")
    else:
        lines.append(f"p {g.n} {g.m} d")
        for u, v in g.arcs():
            lines.append(f"e {u} {v}")
        for v, w in enumerate(g.weights):
            if w != 1:
                lines.append(f"w {v} {w}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Nagamochi-Ibaraki style sparsification
# ---------------------------------------------------------------------------

def ni_sparsify(g: Graph, k: int) -> Graph:
    """Union of k edge-disjoint scan-first-search forests.

    The result has at most k*(n-1) edges, and min(kappa, k) is preserved;
    every separator of the output smaller than k is a separator of g.
    """
    if k < 1:
        raise InvariantError("k must be >= 1")
    remaining = [list(g.adj[u]) for u in range(g.n)]
    alive = [set(row) for row in remaining]
    kept = set()
    for _ in range(k):
        if not any(alive):
            break
        # One scan-first-search forest over the edges still alive.
        visited = [False] * g.n
        forest = []
        for root in range(g.n):
            if visited[root]:
                continue
            visited[root] = True
            queue = [root]
            qi = 0
            while qi < len(queue):
                u = queue[qi]
                qi += 1
                for v in remaining[u]:
                    if not visited[v] and v in alive[u]:
                        visited[v] = True
                        forest.append((u, v))
                        queue.append(v)
        for u, v in forest:
            kept.add((min(u, v), max(u, v)))
            alive[u].discard(v)
            alive[v].discard(u)
    return Graph.from_edges(g.n, sorted(kept))
