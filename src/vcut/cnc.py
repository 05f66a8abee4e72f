"""Common-neighborhood clustering and pairwise sparse-recovery sketches.

The clustering engine takes any symmetric distance oracle with the triangle
inequality and a candidate edge set (graph edges for the unweighted kernel
path, all pairs for the weighted variant) and produces a small set of
partitions such that every connected set with pairwise oracle distance <= d
lands inside one cluster.
"""

from __future__ import annotations

import itertools

from .errors import InvariantError, MixedSketchError
from .graphs import Graph, WeightedDigraph, weighted_symdiff

# Ball-growing schedule, read-only: the loop keeps expanding while the ball
# boundary is large or the ball grew by GROWTH_FACTOR, and radii advance in
# RADIUS_STEP * i * d increments (final clusters use RADIUS_STEP*i - 3).
GROWTH_FACTOR = 1.1
RADIUS_STEP = 5
# The clustering contract that `oracle.check_clustering` verifies: at most
# PARTITION_FACTOR * ceil(log2 n) partitions, and intra-cluster distance at
# most DISTANCE_FACTOR * d * ceil(log2 n).  DISTANCE_FACTOR tracks the
# worst-case ball radius of the loop above, which is why it is large.
PARTITION_FACTOR = 2
DISTANCE_FACTOR = 160


class Clustering:
    """A list of partitions of the ground set, with a membership index."""

    __slots__ = ("n", "partitions", "_index")

    def __init__(self, n, partitions):
        self.n = n
        self.partitions = tuple(
            tuple(tuple(sorted(c)) for c in partition) for partition in partitions
        )
        self._index = None
        for partition in self.partitions:
            flat = sorted(v for c in partition for v in c)
            if flat != list(range(n)):
                raise InvariantError("partition does not exactly cover the ground set")

    def membership_index(self):
        """Per-vertex list of (partition_idx, cluster_idx) memberships."""
        if self._index is None:
            index = [[] for _ in range(self.n)]
            for pi, partition in enumerate(self.partitions):
                for ci, cluster in enumerate(partition):
                    for v in cluster:
                        index[v].append((pi, ci))
            self._index = index
        return self._index

    def clusters(self):
        for partition in self.partitions:
            yield from partition

    def __repr__(self):
        sizes = [len(p) for p in self.partitions]
        return f"Clustering(n={self.n}, partitions={sizes})"


def cnc(g, dist, d, candidates="edges", stats=None, cache=None):
    """Ball-growing clustering over the candidate graph filtered by `dist`.

    `g` is a Graph (candidates="edges") or a vertex count (candidates
    "all-pairs").  Roots are always the smallest remaining id.  Later rounds
    only re-cluster the residual carry-over set; their partitions are padded
    with singleton clusters so every partition covers the ground set.

    `dist` is asked once per unordered pair (u, v), u < v, and its answers
    are kept in the dict `cache`, keyed by (u, v).  A caller that clusters
    with the same `dist` at several `d` may pass one dict to all the calls,
    so no pair is asked twice; None (the default) starts a fresh dict.
    """
    if d < 1:
        raise InvariantError("d must be >= 1")
    if isinstance(g, Graph):
        n = g.n
        candidate_edges = g.edges() if candidates == "edges" else None
    else:
        n = int(g)
        candidate_edges = None
    if candidates == "all-pairs":
        candidate_edges = itertools.combinations(range(n), 2)
    elif candidate_edges is None:
        raise InvariantError("candidates must be 'edges' (with a Graph) or 'all-pairs'")

    if cache is None:
        cache = {}

    def dd(u, v):
        if u == v:
            return 0
        key = (u, v) if u < v else (v, u)
        got = cache.get(key)
        if got is None:
            got = dist(key[0], key[1])
            cache[key] = got
        return got

    gp = [[] for _ in range(n)]
    for u, v in candidate_edges:
        if dd(u, v) <= d:
            gp[u].append(v)
            gp[v].append(u)
    gp = [sorted(row) for row in gp]

    def ball(root, radius, allowed):
        seen = {root}
        queue = [root]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            for y in gp[x]:
                if y in allowed and y not in seen and dd(root, y) <= radius:
                    seen.add(y)
                    queue.append(y)
        return seen

    partitions = []
    u_set = set(range(n))
    while u_set:
        clusters = []
        u_rem = set(u_set)
        u_next = set()
        while u_rem:
            root = min(u_rem)
            t_prev = set()
            t_cur = {root}
            i = 1
            while True:
                boundary = set()
                for x in t_cur:
                    for y in gp[x]:
                        if y in u_rem and y not in t_cur:
                            boundary.add(y)
                if len(boundary) >= len(t_prev) or len(t_cur) >= GROWTH_FACTOR * len(t_prev):
                    i += 1
                    t_prev = t_cur
                    t_cur = ball(root, RADIUS_STEP * i * d, u_rem)
                else:
                    break
            tree = ball(root, (RADIUS_STEP * i - 3) * d, u_rem)
            clusters.append(tree)
            u_rem -= tree
            u_next |= t_cur - t_prev
        for v in sorted(set(range(n)) - u_set):
            clusters.append({v})
        partitions.append(clusters)
        u_set = u_next
    if stats is not None:
        stats.add("cnc_calls")
        stats.add("cnc_partitions", len(partitions))
        stats.add("cluster_memberships", sum(len(c) for p in partitions for c in p))
    return Clustering(n, partitions)


def weighted_cnc(d_graph: WeightedDigraph, ell, stats=None, cache=None):
    """Clusters covering the left side of every minimum cut with w(L) <= ell.

    Runs the clustering engine over the all-pairs candidate graph with the
    weighted out-neighborhood symmetric difference as distance and d = 2*ell.
    Returns the flat cluster list (each vertex appears once per partition).
    The distance does not depend on ell, so calls on one digraph may share
    one `cache` dict (see `cnc`).
    """
    if ell < 1:
        raise InvariantError("ell must be >= 1")
    clustering = cnc(
        d_graph.n,
        lambda u, v: weighted_symdiff(d_graph, u, v),
        2 * ell,
        candidates="all-pairs",
        stats=stats,
        cache=cache,
    )
    return [cluster for cluster in clustering.clusters()]


# ---------------------------------------------------------------------------
# Pairwise sparse recovery
# ---------------------------------------------------------------------------

class RecoverySketch:
    """Per-vertex digest supporting pairwise symmetric-difference recovery."""

    __slots__ = ("n", "x", "payload")

    def __init__(self, n, x, payload):
        self.n = n
        self.x = x
        self.payload = payload


def sketch_construct(g: Graph, x):
    """Build one sketch per vertex at recovery threshold x.

    Each sketch stores the vertex's neighborhood outright, so pairwise
    recovery is exact at every size; x is kept so that sketches of
    different thresholds are never mixed."""
    if x < 0:
        raise InvariantError("x must be >= 0")
    return [RecoverySketch(g.n, x, g.neighbor_set(v)) for v in range(g.n)]


def sketch_recover(a: RecoverySketch, b: RecoverySketch):
    """N(u) triangle N(v) from two sketches of one construction."""
    if (a.n, a.x) != (b.n, b.x):
        raise MixedSketchError("sketches built with different parameters")
    return set(a.payload ^ b.payload)
