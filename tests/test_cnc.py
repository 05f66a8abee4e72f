import itertools
import math

import pytest

from conftest import complete
from vcut import cnc as cnc_module
from vcut.cnc import cnc, sketch_construct, sketch_recover, weighted_cnc
from vcut.errors import MixedSketchError
from vcut.graphs import Graph, symdiff_size
from vcut.oracle import check_clustering, generate_planted, random_digraph, random_graph
from vcut.weighted import _powers_up_to


def symdiff_dist(g):
    return lambda u, v: symdiff_size(g, u, v)


class TestCnc:
    def test_clique_single_cluster(self):
        g = complete(7)
        cl = cnc(g, symdiff_dist(g), 2)
        assert len(cl.partitions) == 1
        assert cl.partitions[0] == (tuple(range(7)),)

    def test_large_d_single_partition(self):
        g = random_graph(12, 0.4, 0)
        cl = cnc(g, symdiff_dist(g), 2 * g.n)
        assert cl.partitions[0][0] == tuple(range(12))

    def test_disjoint_cliques_with_bridge_path(self):
        edges = set(itertools.combinations(range(5), 2))
        edges |= {(u + 8, v + 8) for u, v in itertools.combinations(range(5), 2)}
        edges |= {(4, 5), (5, 6), (6, 7), (7, 8)}
        g = Graph.from_edges(13, sorted(edges))
        cl = cnc(g, symdiff_dist(g), 2)
        clique_a = set(range(4))  # interior of the first clique
        clique_b = set(range(9, 13))
        covered_a = any(clique_a <= set(c) for c in cl.clusters())
        covered_b = any(clique_b <= set(c) for c in cl.clusters())
        assert covered_a and covered_b

    def test_partition_count_bound(self):
        for seed in range(6):
            g = random_graph(60, 0.15, seed)
            cl = cnc(g, symdiff_dist(g), 3)
            logn = max(1, math.ceil(math.log2(60)))
            assert len(cl.partitions) <= cnc_module.PARTITION_FACTOR * logn

    def test_membership_one_per_partition(self):
        g = random_graph(30, 0.2, 1)
        cl = cnc(g, symdiff_dist(g), 3)
        index = cl.membership_index()
        for v in range(30):
            assert len(index[v]) == len(cl.partitions)

    def test_full_contract_via_checker(self):
        g = random_graph(50, 0.2, 2)
        dist = symdiff_dist(g)
        cl = cnc(g, dist, 4)
        ok, failures = check_clustering(cl, g, dist, 4, samples=300)
        assert ok, failures[:3]

    def test_determinism(self):
        g = random_graph(25, 0.3, 3)
        a = cnc(g, symdiff_dist(g), 3)
        b = cnc(g, symdiff_dist(g), 3)
        assert a.partitions == b.partitions


class TestWeightedCnc:
    def test_unit_weight_symmetric_clique(self):
        from vcut.graphs import WeightedDigraph

        arcs = [(a, b) for a in range(6) for b in range(6) if a != b]
        d = WeightedDigraph.from_arcs(6, arcs, [1] * 6)
        clusters = weighted_cnc(d, 1)
        assert any(set(c) == set(range(6)) for c in clusters)

    def test_planted_cover(self):
        inst = generate_planted("lopsided", {"l": 2, "s": 3, "r": 12}, seed=4)
        d = inst.graph
        ell = d.weight_of(inst.cut.L)
        clusters = weighted_cnc(d, ell)
        assert any(set(inst.cut.L) <= set(c) for c in clusters)

    def test_ell_zero_groups_identical_outsets(self):
        from vcut.graphs import WeightedDigraph

        d = WeightedDigraph.from_arcs(4, [(0, 2), (1, 2), (2, 3), (3, 2)], [1, 1, 1, 1])
        clusters = weighted_cnc(d, 0)
        for c in clusters:
            outs = {d.out_adj[v] for v in c}
            assert len(outs) == 1

    def test_shared_cache_over_guesses(self, monkeypatch):
        """One `cache` over every guess of the weighted driver gives the
        clusters of fresh calls, and asks for each unordered pair's
        distance at most once."""
        real = cnc_module.weighted_symdiff
        asked = []

        def counted(d, u, v):
            asked.append((u, v))
            return real(d, u, v)

        monkeypatch.setattr(cnc_module, "weighted_symdiff", counted)
        for seed, wmax in enumerate((1, 4, 64)):
            d = random_digraph(14, 0.3, wmax, seed)
            guesses = _powers_up_to(d.weight_of(range(d.n)))
            fresh = [weighted_cnc(d, ell) for ell in guesses]
            fresh_asks = len(asked)
            asked.clear()
            cache = {}
            assert [weighted_cnc(d, ell, cache=cache) for ell in guesses] == fresh
            assert len(asked) == len(set(asked)) < fresh_asks
            assert all(u < v for u, v in asked) and set(cache) == set(asked)
            asked.clear()

    def test_sparse_membership(self):
        inst = generate_planted("symmetric", {"l": 4, "s": 3, "r": 5}, seed=1)
        d = inst.graph
        clusters = weighted_cnc(d, 4)
        logn = max(1, math.ceil(math.log2(d.n)))
        counts = {}
        for c in clusters:
            for v in c:
                counts[v] = counts.get(v, 0) + 1
        assert max(counts.values()) <= 2 * logn


class TestSketches:
    def test_same_vertex_empty(self):
        g = random_graph(10, 0.4, 0)
        sk = sketch_construct(g, 3)
        assert sketch_recover(sk[2], sk[2]) == set()

    def test_exact_backend_matches_direct(self):
        g = random_graph(12, 0.4, 1)
        sk = sketch_construct(g, 4)
        for u, v in itertools.combinations(range(12), 2):
            assert sketch_recover(sk[u], sk[v]) == set(g.neighbor_set(u) ^ g.neighbor_set(v))

    def test_mixed_parameters_rejected(self):
        g = random_graph(8, 0.4, 3)
        a = sketch_construct(g, 2)
        b = sketch_construct(g, 3)
        with pytest.raises(MixedSketchError):
            sketch_recover(a[0], b[1])
