import itertools
import math

import pytest

from conftest import complete
from vcut import cnc, kernel
from vcut.errors import EmptyKernel, InvariantError
from vcut.graphs import Graph, NoSeparator, _log2ceil
from vcut.instrument import Counters
from vcut.kernel import build_kernel_index, kernel_graph, query_kappa_upper
from vcut.maxflow import min_st_separator, vertex_max_flow
from vcut.oracle import brute_pair_kappa, generate_planted, random_graph


class TestBuildIndex:
    def test_clique_single_cluster(self):
        idx = build_kernel_index(complete(6), 1)
        assert any(set(c) == set(range(6)) for c in idx.clusters)

    def test_planted_cover(self):
        inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 14}, seed=3)
        idx = build_kernel_index(inst.graph, 2)
        assert any(set(inst.cut.L) <= set(c) for c in idx.clusters)

    def test_huge_ell_whole_vlow_cluster(self):
        g = random_graph(15, 0.3, 0)
        idx = build_kernel_index(g, g.n * g.n)
        assert any(set(c) == set(idx.v_low) for c in idx.clusters)

    def test_membership_bound(self):
        g = random_graph(20, 0.25, 1)
        idx = build_kernel_index(g, 2)
        logn = max(1, math.ceil(math.log2(20)))
        for v in idx.v_low:
            assert len(idx.clusters_of(v)) <= cnc.PARTITION_FACTOR * logn


    def test_shared_cache_over_scales(self, monkeypatch):
        """One distance `cache` over the scales of an unbalanced call gives
        the clusters of fresh builds at every scale, and asks for each
        pair's symmetric difference at most once."""
        real = kernel.symdiff_size
        asked = []

        def counted(g, u, v):
            asked.append((u, v))
            return real(g, u, v)

        monkeypatch.setattr(kernel, "symdiff_size", counted)
        graphs = [random_graph(n, p, 60 + n) for n in (16, 24, 32) for p in (0.15, 0.3)]
        graphs += [
            generate_planted("unbalanced", {"l": 2, "s": 3, "r": 14}, seed=seed).graph
            for seed in range(2)
        ]
        saved = 0
        for g in graphs:
            top = _log2ceil(g.min_degree() * _log2ceil(g.n))
            scales = [2 ** i for i in range(1, top + 1)]
            fresh = [build_kernel_index(g, ell).clusters for ell in scales]
            fresh_asks = len(asked)
            asked.clear()
            cache = {}
            assert [build_kernel_index(g, ell, cache=cache).clusters for ell in scales] == fresh
            assert len(asked) == len(set(asked)) <= fresh_asks
            saved += fresh_asks - len(asked)
            asked.clear()
        assert saved > 0


class TestKernelGraph:
    def test_empty_kernel_when_t_dominates_cluster(self):
        # Hub 0 is adjacent to everything; {1,2} cluster together (tiny
        # neighborhood difference) while the hub's neighborhood is far away,
        # so the cluster sits entirely inside N[0].
        g = Graph.from_edges(9, [(0, i) for i in range(1, 9)] + [(1, 2)])
        idx = build_kernel_index(g, 1)
        small = [i for i, c in enumerate(idx.clusters) if set(c) == {1, 2}]
        assert small, idx.clusters
        with pytest.raises(EmptyKernel):
            kernel_graph(idx, small[0], 1, 0)

    def test_wrong_cluster_rejected(self):
        g = random_graph(10, 0.3, 2)
        idx = build_kernel_index(g, 1)
        for i, cluster in enumerate(idx.clusters):
            out = [v for v in range(10) if v not in cluster]
            if out:
                with pytest.raises(InvariantError):
                    kernel_graph(idx, i, out[0], cluster[0])
                break

    def test_kernel_never_undershoots(self):
        for seed in range(4):
            g = random_graph(14, 0.3, seed)
            idx = build_kernel_index(g, 2)
            for i, cluster in enumerate(idx.clusters):
                for s in cluster[:2]:
                    for t in range(g.n):
                        if t == s or g.has_edge(s, t):
                            continue
                        try:
                            kern, ids, ks, kt = kernel_graph(idx, i, s, t)
                        except EmptyKernel:
                            continue
                        res = min_st_separator(kern, ks, kt)
                        if res is NoSeparator:
                            continue
                        assert res[0] >= brute_pair_kappa(g, s, t)

    def test_planted_promise_equality(self):
        inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 14}, seed=7)
        g = inst.graph
        kappa = inst.cut.value
        idx = build_kernel_index(g, max(1, len(inst.cut.L)))
        cover = [i for i, c in enumerate(idx.clusters) if set(inst.cut.L) <= set(c)]
        assert cover
        hit = False
        for i in cover:
            for s in inst.cut.L:
                if s not in idx.clusters[i]:
                    continue
                for t in inst.cut.R:
                    if g.has_edge(s, t):
                        continue
                    kern, ids, ks, kt = kernel_graph(idx, i, s, t)
                    res = min_st_separator(kern, ks, kt)
                    if res is not NoSeparator and res[0] == kappa:
                        hit = True
        assert hit


class TestQuery:
    def test_sentinel_when_unclustered(self):
        from conftest import star

        g = star(9)  # center degree 9 > clow_mult * delta = 8
        idx = build_kernel_index(g, 1)
        assert 0 not in idx.index
        assert query_kappa_upper(idx, 0, 5) == g.n

    def test_adjacent_pair_sentinel(self):
        g = random_graph(12, 0.3, 4)
        idx = build_kernel_index(g, 1)
        u, v = next(iter(g.edges()))
        if u in idx.index:
            assert query_kappa_upper(idx, u, v) == g.n

    def test_never_undershoots_all_pairs(self):
        for seed in range(5):
            g = random_graph(16, 0.3, seed)
            for ell in (1, 2, 4):
                idx = build_kernel_index(g, ell)
                for s, t in itertools.combinations(range(16), 2):
                    if g.has_edge(s, t):
                        continue
                    got = query_kappa_upper(idx, s, t)
                    assert got >= brute_pair_kappa(g, s, t)

    def test_promise_instances_exact(self):
        hits = 0
        for seed in range(6):
            inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 13}, seed=seed)
            g = inst.graph
            idx = build_kernel_index(g, max(1, len(inst.cut.L)))
            for s in inst.cut.L:
                for t in inst.cut.R:
                    if g.has_edge(s, t):
                        continue
                    if query_kappa_upper(idx, s, t) == inst.cut.value:
                        hits += 1
        assert hits > 0

    def test_cluster_size_dichotomy_on_planted(self):
        # Either the covering cluster is small relative to |S| log n, or it
        # meets S in few vertices relative to |L| log n (generous constant).
        C = 8
        for seed in range(5):
            inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 14}, seed=seed)
            g = inst.graph
            logn = max(1, math.ceil(math.log2(g.n)))
            idx = build_kernel_index(g, max(1, len(inst.cut.L)))
            L, S = set(inst.cut.L), set(inst.cut.S)
            for cluster in idx.clusters:
                if not L <= set(cluster):
                    continue
                small = len(cluster) <= C * len(S) * logn
                sparse_s = len(S & set(cluster)) <= C * len(L) * logn
                assert small or sparse_s


def _assemble_kernel(index, i, s, t):
    """Reference kernel: sorted vertex list and adjacency (vertex -> set of
    neighbours) of the kernel for (cluster i, s, t), assembled from the
    reduced lists N(u) \\ N(s) of the cluster members and their reverse
    index, as the package assembled it before `kernel_graph` built the
    kernel directly.

    The core is the cluster minus N[t]; each core vertex u keeps its edges
    to N(u) \\ N(s).  The boundary N(core) \\ core is joined to t, and s
    is joined to its neighbours in the kernel."""
    g = index.graph
    cluster = index.clusters[i]
    if s not in cluster:
        raise InvariantError("s is not in the requested cluster")
    reduced = {u: g.neighbor_set(u) - g.neighbor_set(s) for u in cluster}
    reverse = {}
    for u in cluster:
        for v in reduced[u]:
            reverse.setdefault(v, []).append(u)
    core = set(cluster) - g.neighbor_set(t) - {t}
    if not core:
        raise EmptyKernel(f"cluster {i} is contained in N[t]")
    boundary = {v for u in core for v in g.adj[u]} - core
    adj = {u: set(reduced[u]) for u in core}
    for u in core:
        adj[u].update(core.intersection(reverse.get(u, ())))
    for v in boundary:
        back = core.intersection(reverse.get(v, ()))
        back.add(t)
        adj[v] = back
    adj[t] = set(boundary)
    near_s = adj.setdefault(s, set())
    for v in g.neighbor_set(s) & adj.keys():
        near_s.add(v)
        adj[v].add(s)
    return sorted(adj), adj


def _query_unchecked(index, s, t, cap=None, stats=None):
    """query_kappa_upper without the packing: one capped flow per usable
    reference kernel (`_assemble_kernel`)."""
    g = index.graph
    usable = [i for i in index.clusters_of(s) if len(index.clusters[i]) <= index.size_gate]
    if not usable or g.has_edge(s, t):
        return g.n
    best = g.n
    for i in usable:
        try:
            ids, adj = _assemble_kernel(index, i, s, t)
        except EmptyKernel:
            continue
        pos = {v: j for j, v in enumerate(ids)}
        arcs = [(pos[a], pos[b]) for a in ids for b in sorted(adj[a])]
        limit = best if cap is None else min(best, cap)
        value, _, _, completed = vertex_max_flow(
            len(ids), arcs, [1] * len(ids), [pos[s]], [pos[t]], limit=limit, stats=stats
        )
        if completed and value < best:
            best = value
    return best


def _query_kernels(index):
    """Every (cluster, s, t) kernel that some query of the index reads."""
    g = index.graph
    for s, t in itertools.permutations(range(g.n), 2):
        if g.has_edge(s, t):
            continue
        for i in index.clusters_of(s):
            if len(index.clusters[i]) <= index.size_gate:
                yield i, s, t


def _criterion_7_indexes():
    """The kernel indexes of the criterion-7 acceptance test."""
    for seed in range(50):
        n = 10 + seed % 16
        g = random_graph(n, 0.18 + 0.02 * (seed % 8), 700 + seed)
        yield build_kernel_index(g, 1 + seed % 4)
    for seed in range(50):
        inst = generate_planted(
            "unbalanced", {"l": 2, "s": 2 + seed % 3, "r": 11 + seed % 6}, seed=seed
        )
        yield build_kernel_index(inst.graph, max(1, len(inst.cut.L)))


def _random_indexes():
    for n in range(12, 17):
        for seed, p in enumerate((0.2, 0.35, 0.5)):
            g = random_graph(n, p, 40 * n + seed)
            for ell in (1, 2):
                yield build_kernel_index(g, ell)


class TestKernelReference:
    def test_kernel_graph_matches_reference(self):
        """On every kernel a query reads, `kernel_graph` has the reference
        kernel's vertex ids and edges, and its edge count `m` (what the
        query counts as `kernel_edges`) is the reference's."""
        checked = 0
        for indexes in (_criterion_7_indexes(), _random_indexes()):
            for idx in indexes:
                for i, s, t in _query_kernels(idx):
                    kern, ids, ks, kt = kernel_graph(idx, i, s, t)
                    ref_ids, adj = _assemble_kernel(idx, i, s, t)
                    assert ids == ref_ids and (ids[ks], ids[kt]) == (s, t), (i, s, t)
                    assert [{ids[v] for v in row} for row in kern.adj] == [adj[u] for u in ids]
                    assert kern.m == sum(map(len, adj.values())) // 2, (i, s, t)
                    checked += 1
        assert checked > 10_000


class TestTwoHopSkip:
    """The query, whose `min_st_cut` on each kernel skips the flow when the
    kernel's packing reaches the limit, against one capped flow per
    reference kernel: the same answer at every cap, and no more flows."""

    def _check(self):
        skips = 0
        for seed in range(4):
            g = random_graph(15, (0.2, 0.3, 0.4, 0.55)[seed], seed)
            delta = g.min_degree()
            for ell in (1, 2, 4):
                idx = build_kernel_index(g, ell)
                for s, t in itertools.permutations(range(g.n), 2):
                    for cap in (None, 1, 2, delta, delta + 1):
                        mine, ref = Counters(), Counters()
                        got = query_kappa_upper(idx, s, t, cap=cap, stats=mine)
                        assert got == _query_unchecked(idx, s, t, cap=cap, stats=ref)
                        assert mine.get("flow_calls") <= ref.get("flow_calls")
                        skips += mine.get("path_skips")
        assert skips > 0

    def test_matches_unchecked_query(self, python_backend):
        self._check()

    def test_matches_unchecked_query_compiled(self, compiled_backend):
        self._check()
