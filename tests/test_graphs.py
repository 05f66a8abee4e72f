import itertools
import random

import pytest

from conftest import complete, cycle, former_ni_sparsify, path, petersen
from vcut.errors import EmptyKernel, InvariantError, ParseError
from vcut.graphs import (
    Graph,
    NoCut,
    VertexCut,
    WeightedDigraph,
    ni_sparsify,
    parse_graph,
    serialize_graph,
    symdiff_size,
    validate_cut,
    weighted_symdiff,
)
from vcut.isocut import _terminal_subgraph
from vcut.kernel import build_kernel_index, kernel_graph
from vcut.oracle import brute_kappa, random_graph


class TestParse:
    def test_p3_path(self):
        g = parse_graph("p 3 2 u\ne 0 1\ne 1 2\n")
        assert isinstance(g, Graph)
        assert g.n == 3 and g.m == 2
        assert g.adj == ((1,), (0, 2), (1,))

    def test_weighted_digraph_weight_line(self):
        d = parse_graph("p 2 2 d\ne 0 1\ne 1 0\nw 0 5\n")
        assert isinstance(d, WeightedDigraph)
        assert d.weights == (5, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_graph("p 3 1 u\ne 0 0\n")
        assert "self-loop" in str(exc.value)
        assert exc.value.line == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(ParseError):
            parse_graph("p 3 2 u\ne 0 1\n")

    def test_duplicate_edge_invariant(self):
        # A repeated edge is bad input, reported as a parse error.
        with pytest.raises(ParseError, match="duplicate edge"):
            parse_graph("p 3 2 u\ne 0 1\ne 1 0\n")
        with pytest.raises(ParseError, match="duplicate arc"):
            parse_graph("p 3 2 d\ne 0 1\ne 0 1\n")
        parse_graph("p 3 2 d\ne 0 1\ne 1 0\n")  # opposite arcs are distinct

    def test_out_of_range(self):
        with pytest.raises(ParseError):
            parse_graph("p 2 1 u\ne 0 5\n")

    def test_comments_and_roundtrip(self):
        g = petersen()
        text = "c a comment\n" + serialize_graph(g)
        assert parse_graph(text) == g

    def test_weighted_roundtrip(self):
        d = WeightedDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)], [3, 1, 4])
        assert parse_graph(serialize_graph(d)) == d

    def test_weights_on_undirected_rejected(self):
        with pytest.raises(ParseError):
            parse_graph("p 2 1 u\ne 0 1\nw 0 3\n")


class TestSymdiff:
    def test_clique_any_pair_is_two(self):
        g = complete(4)
        for u, v in itertools.combinations(range(4), 2):
            assert symdiff_size(g, u, v) == 2

    def test_identical_vertex(self):
        assert symdiff_size(complete(4), 2, 2) == 0

    def test_petersen_adjacent_pair(self):
        # Adjacent Petersen vertices share no neighbors: both neighborhoods
        # (size 3 each) differ entirely.
        g = petersen()
        assert symdiff_size(g, 0, 1) == 6

    def test_triangle_inequality_random(self):
        rng = random.Random(1)
        for seed in range(5):
            g = random_graph(12, 0.4, seed)
            for _ in range(60):
                u, v, w = rng.randrange(12), rng.randrange(12), rng.randrange(12)
                assert symdiff_size(g, u, w) <= symdiff_size(g, u, v) + symdiff_size(g, v, w)

    def test_symmetry(self):
        g = petersen()
        for u, v in itertools.combinations(range(10), 2):
            assert symdiff_size(g, u, v) == symdiff_size(g, v, u)


class TestWeightedSymdiff:
    def test_same_vertex(self):
        d = WeightedDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)], [3, 1, 4])
        assert weighted_symdiff(d, 1, 1) == 0

    def test_identical_out_sets(self):
        d = WeightedDigraph.from_arcs(4, [(0, 2), (0, 3), (1, 2), (1, 3)], [1, 1, 5, 7])
        assert weighted_symdiff(d, 0, 1) == 0

    def test_matches_brute_set_difference(self):
        rng = random.Random(7)
        arcs = {(u, v) for u in range(5) for v in range(5) if u != v and rng.random() < 0.5}
        weights = [rng.randrange(1, 9) for _ in range(5)]
        d = WeightedDigraph.from_arcs(5, sorted(arcs), weights)
        for u, v in itertools.permutations(range(5), 2):
            brute = sum(weights[x] for x in d.out_set(u) ^ d.out_set(v))
            assert weighted_symdiff(d, u, v) == brute


class TestValidateCut:
    def test_path_valid(self):
        g = path(3)
        assert validate_cut(g, VertexCut([0], [1], [2], 1))

    def test_crossing_edge_invalid(self):
        g = path(3)
        assert not validate_cut(g, VertexCut([0, 1], [], [2], 0))

    def test_directed_cycle_no_back_arc(self):
        d = WeightedDigraph.from_arcs(3, [(0, 1), (1, 2), (2, 0)], [1, 1, 1])
        assert validate_cut(d, VertexCut([0], [1], [2], 1))

    def test_monotone_under_moving_into_s(self):
        rng = random.Random(11)
        g = random_graph(12, 0.3, 4)
        got = brute_kappa(g)
        if not isinstance(got, tuple):
            return
        _, cut = got
        assert validate_cut(g, cut)
        l = list(cut.L)
        if len(l) > 1:
            moved = VertexCut(l[1:], list(cut.S) + [l[0]], cut.R, cut.value + 1)
            assert validate_cut(g, moved)

    def test_empty_side_invalid(self):
        g = path(3)
        assert not validate_cut(g, VertexCut([], [0, 1, 2], [], 3))


class TestNiSparsify:
    def test_k_at_least_m_keeps_graph(self):
        g = petersen()
        assert sorted(ni_sparsify(g, g.m).edges()) == sorted(g.edges())

    def test_k8_with_k3(self):
        g = complete(8)
        out = ni_sparsify(g, 3)
        assert out.m <= 3 * 8
        got = brute_kappa(out)
        assert got[0] >= 3

    def test_cycle_unchanged(self):
        g = cycle(6)
        assert sorted(ni_sparsify(g, 2).edges()) == sorted(g.edges())

    def test_preserves_capped_connectivity(self):
        for seed in range(8):
            g = random_graph(14, 0.35, seed)
            want = brute_kappa(g)
            kappa = want[0] if isinstance(want, tuple) else want.value
            for k in (1, 2, 3):
                out = ni_sparsify(g, k)
                assert out.m <= k * g.n
                got = brute_kappa(out)
                kp = got[0] if isinstance(got, tuple) else got.value
                assert min(kp, k) == min(kappa, k), (seed, k)
                assert kp <= kappa

    def test_matches_former_rescan(self):
        # Dropping each forest's edges from the rows leaves every forest,
        # and so the result, as the former loop over `alive` sets built it.
        rng = random.Random(33)
        for seed in range(60):
            n = rng.randrange(1, 30)
            g = random_graph(n, rng.choice([0.1, 0.25, 0.5, 0.9]), seed, connected=seed % 3 > 0)
            for k in range(1, g.min_degree() + 3):
                got, want = ni_sparsify(g, k), former_ni_sparsify(g, k)
                assert got.adj == want.adj, (seed, k)
                assert got == Graph(got.n, got.adj)  # the constructor's checks pass


class TestGraphBasics:
    def test_scc_order_sinks_first(self):
        d = WeightedDigraph.from_arcs(4, [(0, 1), (1, 2), (2, 1), (2, 3)], [1] * 4)
        sccs = d.strongly_connected_components()
        assert sccs[0] == [3]

    def test_overflow_guard(self):
        with pytest.raises(InvariantError):
            WeightedDigraph.from_arcs(2, [(0, 1)], [2**62, 1])

    def test_complete_detection(self):
        assert complete(5).is_complete()
        assert not petersen().is_complete()
        assert NoCut(4).value == 4


class TestUncheckedConstructor:
    """`Graph._unchecked` builds a Graph without the constructor's row
    checks.  The builders that use it emit rows that pass them, and the
    public constructor keeps every check."""

    def test_builders_emit_checked_rows(self):
        built = 0
        for seed in range(6):
            g = random_graph(14, (0.2, 0.4)[seed % 2], seed)
            terms = sorted(random.Random(seed).sample(range(g.n), 5))
            graphs = [g.induced(range(0, g.n, 2))[0], g.induced(range(g.n))[0],
                      _terminal_subgraph(g, terms)[0]]
            index = build_kernel_index(g, 2)
            for i, cluster in enumerate(index.clusters):
                s = cluster[0]
                for t in range(g.n):
                    if t == s or g.has_edge(s, t):
                        continue
                    try:
                        graphs.append(kernel_graph(index, i, s, t)[0])
                    except EmptyKernel:
                        continue
            for h in graphs:
                checked = Graph(h.n, h.adj)
                assert checked == h and checked._adjsets == h._adjsets
                assert (h._network, h._ledger, h._pieces, h._min_degree) == (None,) * 4
                built += 1
        assert built > 50

    @pytest.mark.parametrize("n, adj", [
        (1, [[], []]),  # length
        (2, [[2], []]),  # range
        (2, [[0], []]),  # self-loop
        (3, [[2, 1], [0], [0]]),  # order
        (2, [[1, 1], [0]]),  # duplicate
        (2, [[1], []]),  # symmetry
    ])
    def test_public_constructor_keeps_its_checks(self, n, adj):
        with pytest.raises(InvariantError):
            Graph(n, adj)
