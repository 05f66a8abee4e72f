import itertools
import math

import pytest

from conftest import complete, disjoint_paths
from vcut import kernel
from vcut.config import DEFAULT
from vcut.errors import EmptyKernel, InvariantError
from vcut.graphs import Graph, NoSeparator, _log2ceil
from vcut.instrument import Counters
from vcut.kernel import (
    _assemble_kernel,
    _implicit_kernel,
    build_kernel_index,
    kernel_graph,
    query_kappa_upper,
)
from vcut.maxflow import min_st_separator, vertex_max_flow, weighted_paths
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
            assert len(idx.clusters_of(v)) <= DEFAULT.cnc_partition_factor * logn


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


def _query_unchecked(index, s, t, cap=None, stats=None):
    """query_kappa_upper without the two-hop check: one capped flow per
    usable kernel."""
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


class TestImplicitKernel:
    """The query reads each kernel through `_implicit_kernel`: the rows and
    ends (the boundary) it hands the packing and the edges it counts are
    those of the assembled kernel."""

    def test_counted_edges_match_assembled(self):
        checked = 0
        for indexes in (_criterion_7_indexes(), _random_indexes()):
            for idx in indexes:
                for i, s, t in _query_kernels(idx):
                    _, _, edges = _implicit_kernel(idx, i, s, t)
                    _, adj = _assemble_kernel(idx, i, s, t)
                    assert edges == sum(map(len, adj.values())) // 2, (i, s, t)
                    checked += 1
        assert checked > 10_000

    def test_rows_match_assembled(self):
        """The ends are t's kernel row (the boundary) and s's row is N(s); a
        core row holds the kernel row plus, at most, middles of two-hop
        paths."""
        extra = 0
        for idx in _random_indexes():
            g = idx.graph
            for i, s, t in _query_kernels(idx):
                rows, boundary, _ = _implicit_kernel(idx, i, s, t)
                _, adj = _assemble_kernel(idx, i, s, t)
                assert set(boundary) == adj[t]
                assert set(rows[s]) == adj[s] == g.neighbor_set(s)
                core = set(idx.clusters[i]) - g.neighbor_set(t) - {t}
                middles = g.neighbor_set(s) - core
                assert middles == adj[s] & adj[t]
                for u in core - {s}:
                    assert adj[u] <= set(rows[u]) <= adj[u] | middles, (i, s, t, u)
                    extra += len(set(rows[u]) - adj[u])
        assert extra > 0


class TestTwoHopSkip:
    def test_kernel_paths_below_kernel_flow(self):
        """On every kernel the unit-capacity packing over the implicit rows,
        to the boundary, is the reference packing of internally disjoint
        kernel paths (same count, same paths less t), no more of them than
        the kernel's own max flow."""
        checked = longer = 0
        for idx in _random_indexes():
            for i, s, t in _query_kernels(idx):
                rows, boundary, _ = _implicit_kernel(idx, i, s, t)
                _, adj = _assemble_kernel(idx, i, s, t)
                kernel, _, ks, kt = kernel_graph(idx, i, s, t)
                flow = min_st_separator(kernel, ks, kt)[0]
                packed, paths = [], []
                count = weighted_paths(rows, [1] * idx.graph.n, s, boundary, None, packed)
                assert count == disjoint_paths({**rows, t: boundary}, s, (t,), None, paths)
                assert [p for p, _ in packed] == [p[:-1] for p in paths]
                assert count == len(paths) <= flow
                inner = [v for p in paths for v in p[1:-1]]
                assert len(inner) == len(set(inner)) and s not in inner and t not in inner
                for p in paths:
                    assert p[0] == s and p[-1] == t
                    assert all(b in adj[a] for a, b in zip(p, p[1:]))
                longer += sum(len(p) > 3 for p in paths)
                checked += 1
        assert checked > 1000 and longer > 0

    def test_matches_unchecked_query(self):
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
