import itertools
import math
import random
from fractions import Fraction

import conftest
from conftest import (
    complete,
    cycle,
    exhaustive_sparsest,
    petersen,
    query_every_pair,
    star,
    two_cliques_sharing,
)
from vcut import kernel, maxflow, unweighted
from vcut.graphs import Graph, NoCut, VertexCut, _log2ceil, min_degree_cut, validate_cut
from vcut.instrument import Counters
from vcut.isocut import balanced_terminal_vc, subgraph_balanced_terminal_vc
from vcut.kernel import build_kernel_index, query_kappa_upper
from vcut.maxflow import _ledger, weighted_paths
from vcut.oracle import brute_kappa, brute_pair_kappa, generate_planted, random_graph
from vcut.unweighted import (
    EXPANDER_PHI,
    _sparsest_canonical_cut,
    expander_decomposition,
    shaving,
    terminal_reduction,
    unbalanced_vc,
    vertex_connectivity_unweighted,
)


class TestExpanderDecomposition:
    def test_clique_single_piece(self):
        decomp = expander_decomposition(complete(8), range(8), 0.1)
        assert decomp.x == ()
        assert decomp.pieces == (tuple(range(8)),)

    def test_two_cliques_joined_by_vertex(self):
        # Cliques {0..4} and {4..8} share vertex 4; their sparsest cut has
        # h = 1/5, so any phi above that splits them at the joint.
        g = two_cliques_sharing(5, 1)
        decomp = expander_decomposition(g, range(g.n), 0.25)
        assert 4 in decomp.x
        sides = [p for p in decomp.pieces if len(p) > 1]
        assert all(4 not in p for p in decomp.pieces)
        assert len(sides) == 2

    def test_single_terminal_single_piece(self):
        g = random_graph(12, 0.3, 1)
        decomp = expander_decomposition(g, [3], 0.1)
        assert decomp.x == ()
        assert decomp.pieces == (tuple(range(12)),)

    def test_partition_structure(self):
        for seed in range(4):
            g = random_graph(14, 0.25, seed)
            decomp = expander_decomposition(g, range(14), 0.1)
            flat = sorted(v for p in decomp.pieces for v in p) + sorted(decomp.x)
            assert sorted(flat) == list(range(14))
            piece_sets = [set(p) for p in decomp.pieces]
            for a, b in itertools.combinations(piece_sets, 2):
                for u in a:
                    assert not (g.neighbor_set(u) & b)


def _scan_cases():
    """(graph, terminals) of at most 16 vertices: 220 seeded G(n, p) with
    n <= 12 (every fifth one possibly disconnected), tie-heavy cycles,
    K_{a,b} and two cliques sharing vertices, and four graphs of n = 13..16.
    Each graph gets a random terminal subset of random size (often too
    small for any cut), and all vertices."""
    rng = random.Random(11)
    graphs = [
        random_graph(2 + i % 11, (0.15, 0.3, 0.5, 0.8)[i % 4], 700 + i, connected=i % 5 != 0)
        for i in range(220)
    ]
    graphs += [cycle(n) for n in range(4, 13)]
    graphs += [
        Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])
        for a, b in ((1, 3), (2, 2), (2, 5), (3, 3), (4, 4), (3, 6))
    ]
    graphs += [two_cliques_sharing(k, s) for k, s in ((3, 1), (4, 1), (4, 2), (5, 2), (6, 3))]
    graphs += [random_graph(n, 0.3, 900 + n) for n in range(13, 17)]
    for g in graphs:
        yield g, sorted(rng.sample(range(g.n), rng.randrange(g.n + 1)))
        yield g, list(range(g.n))


class TestSmallPieces:
    """On graphs of at most 16 vertices, at the driver's phi (EXPANDER_PHI
    and its halvings), the probe search finds a cut below phi exactly when
    the sparsest cut over all vertex subsets (`conftest.exhaustive_sparsest`)
    is below phi, and that cut splits off one terminal-bearing component
    with no separator (the proof is in `_sparsest_canonical_cut`), with no
    flow and no packing: the probe cap is 1, so no pair is probed."""

    def test_splits_only_at_components(self):
        splits = 0
        for g, terms in _scan_cases():
            want = exhaustive_sparsest(g, terms)
            comps = {tuple(sorted(c)) for c in g.components()}
            stats = Counters()
            for j in range(7):
                phi = EXPANDER_PHI / 2**j
                got = _sparsest_canonical_cut(g, terms, phi, min(48, 4 * g.n), stats)
                below = got is not None and got[0] < phi
                assert below == (want is not None and want[0] < phi), (g.adj, terms, phi)
                if below:
                    h, cut = got
                    assert h == 0 and cut.S == (), (g.adj, terms, phi)
                    assert cut.L in comps and set(cut.L) & set(terms), (g.adj, terms, phi)
                    splits += 1
            assert stats.get("flow_calls") == 0, (g.adj, terms)
            assert stats.get("path_skips") == 0, (g.adj, terms)
        assert splits > 100


def _fingerprint(cut):
    if isinstance(cut, VertexCut):
        return cut.L, cut.S, cut.R, cut.value
    return type(cut).__name__, cut.value


class TestPieceStore:
    """The expander pieces that the driver keeps on its sparsified graph gs
    (`unweighted._piece`), and the one pair ledger of gs, against a fresh
    copy of gs per terminal-reduction round (so no kept piece and an empty
    ledger): the same decompositions, cuts, T' sequences, events and
    counters but the flow and skip counts, never more flows and never more
    probes solved (flows plus packing skips)."""

    @staticmethod
    def _run(g, monkeypatch, fresh):
        decomps, rounds, graphs = [], [], []
        real_decomp = unweighted.expander_decomposition
        real_round = unweighted.terminal_reduction

        def decomp(*args, **kwargs):
            d = real_decomp(*args, **kwargs)
            decomps.append((d.x, d.pieces, d.phi))
            return d

        def round_(gs, *args):
            graphs.append(gs)
            if fresh:
                gs = Graph(gs.n, gs.adj)
            cut, t_prime = real_round(gs, *args)
            rounds.append((args[0], _fingerprint(cut), t_prime))
            return cut, t_prime

        stats = Counters()
        with monkeypatch.context() as patch:
            patch.setattr(unweighted, "expander_decomposition", decomp)
            patch.setattr(unweighted, "terminal_reduction", round_)
            cut = vertex_connectivity_unweighted(g, stats=stats)
        # A probe reused from a kept piece repeats neither a fresh piece's
        # flow nor its packing skip.
        flows = stats.data.pop("flow_calls", 0)
        skips = stats.data.pop("path_skips", 0)
        stats.data.pop("flow_edges", None)
        assert len(set(map(id, graphs))) == 1
        report = (_fingerprint(cut), decomps, rounds, stats.data, stats.events)
        return report, flows, skips, graphs[0]

    def _check(self, monkeypatch):
        graphs = [random_graph(n, p, 40 + n) for n in (18, 21, 24, 27) for p in (0.1, 0.3)]
        graphs += [
            generate_planted("unbalanced", {"l": 2, "s": 3, "r": 15}, seed=1).graph,
            generate_planted("balanced-terminal", {"side": 8, "s": 3}, seed=1).graph,
        ]
        saved = split = probes = 0
        for g in graphs:
            shared, shared_flows, shared_skips, gs = self._run(g, monkeypatch, fresh=False)
            alone, alone_flows, alone_skips, _ = self._run(g, monkeypatch, fresh=True)
            assert shared == alone
            # Every stored probe, on gs and on each piece kept on it, is
            # what a new flow returns: a completed one that of an uncapped
            # flow, an (L, None) one that of a flow capped at L.
            for sub in (gs, *(piece for piece, _ in (gs._pieces or {}).values())):
                for (u, v), res in _ledger(sub).probes.items():
                    limit = None if res[1] is not None else res[0]
                    assert res == conftest.bare_min_st_cut(sub, u, v, limit=limit)
                    probes += 1
            assert len(shared[2]) > 1
            assert shared_flows <= alone_flows
            assert shared_flows + shared_skips <= alone_flows + alone_skips
            saved += alone_flows + alone_skips - shared_flows - shared_skips
            split += any(len(d[1]) > 1 for d in shared[1])
        assert saved > 0 and split > 0 and probes > 0

    def test_shared_store_matches_fresh_stores(self, python_backend, monkeypatch):
        self._check(monkeypatch)

    def test_shared_store_matches_fresh_stores_compiled(self, compiled_backend, monkeypatch):
        self._check(monkeypatch)

    def test_halving_retry_repeats_no_probe(self):
        """A decomposition at phi / 2 after one at phi, on the same graph
        and terminals, is answered by the pieces kept on the graph: no flow
        and no packing (the proof is in `_decompose_with_retry`)."""
        # Two Petersen graphs sharing vertex 0: at both phi, X = {0} and
        # each piece is a Petersen graph less a vertex, probed at cap >= 2.
        p = petersen()
        shift = [0, *range(10, 19)]
        g = Graph.from_edges(19, [*p.edges(), *((shift[u], shift[v]) for u, v in p.edges())])
        stats = Counters()
        first = expander_decomposition(g, range(g.n), 0.5, stats)
        assert first.x == (0,) and len(first.pieces) == 2
        assert unweighted._probe_cap(9, 0.25) == 2
        before = stats.get("flow_calls"), stats.get("path_skips")
        assert before[0] > 0
        again = expander_decomposition(g, range(g.n), 0.25, stats)
        assert (again.x, again.pieces) == (first.x, first.pieces)
        assert (stats.get("flow_calls"), stats.get("path_skips")) == before


def _clique_chain(k, m):
    """m copies of K_k in a row, each sharing one vertex with the next."""
    edges = set()
    for c in range(m):
        edges.update(itertools.combinations(range(c * (k - 1), c * (k - 1) + k), 2))
    return Graph.from_edges(m * (k - 1) + 1, sorted(edges))


def _split_cases():
    """(graph, terminal sets): chains of cliques joined by single vertices,
    sparse G(n, p) and the two cliques of `TestProbeCap.test_float_boundary`,
    each with a seeded third of the vertices, every second vertex and all
    vertices as terminals (growing, so the probe caps of one graph's kept
    pieces grow too).  G(n, 1.5/n) has cut vertices and splits; G(n, 3.5/n)
    mostly does not, and there the cap settles probes."""
    graphs = [_clique_chain(k, m) for k, m in ((4, 6), (5, 5), (6, 4), (7, 3), (5, 8))]
    graphs += [random_graph(n, c / n, 500 + n) for n in range(18, 40, 3) for c in (1.5, 3.5)]
    graphs.append(two_cliques_sharing(10, 1))
    rng = random.Random(5)
    for g in graphs:
        yield g, [
            sorted(rng.sample(range(g.n), g.n // 3)),
            list(range(0, g.n, 2)),
            list(range(g.n)),
        ]


def _halving_decompositions(g, term_sets, stats):
    """expander_decomposition of g for each terminal set, over phi = 0.4
    halved down to 0.0125, all on g, so every call shares the pieces kept
    on it: a list of (X, pieces), and how many of those calls split the
    whole graph at a non-empty separator (the whole graph's search asked
    again, which its ledger answers)."""
    out, splits = [], 0
    for terms in term_sets:
        phi = 0.4
        while phi >= 0.0125:
            d = expander_decomposition(g, terms, phi, stats=stats)
            out.append((d.x, d.pieces))
            whole = unweighted._sparsest_canonical_cut(g, terms, phi, min(48, 4 * g.n), None)
            splits += whole is not None and whole[0] < phi and bool(whole[1].S)
            phi /= 2
    return out, splits


class TestProbeCap:
    """Expander probes capped at `_probe_cap` against the former uncapped
    probe loop (`conftest.uncapped_sparsest_cut`): the same X and pieces."""

    @staticmethod
    def _uncapped(monkeypatch):
        """The former probe loop, which keeps the probes of each piece (by
        the identity of its subgraph, which the graph keeps alive) across
        terminal sets, as the kept pieces do, at every piece size."""
        kept = {}

        def probe(g, terminals, phi, probe_budget, stats):
            probes = kept.setdefault(id(g), {})
            return conftest.uncapped_sparsest_cut(g, terminals, probe_budget, stats, probes)

        monkeypatch.setattr(unweighted, "_sparsest_canonical_cut", probe)

    def _check(self, monkeypatch):
        flows = ref_flows = splits = 0
        for g, term_sets in _split_cases():
            stats = Counters()
            got, split = _halving_decompositions(Graph(g.n, g.adj), term_sets, stats)
            ref_stats = Counters()
            with monkeypatch.context() as patch:
                self._uncapped(patch)
                want, _ = _halving_decompositions(Graph(g.n, g.adj), term_sets, ref_stats)
            assert got == want, g.adj
            flows += stats.get("flow_calls")
            ref_flows += ref_stats.get("flow_calls")
            splits += split
        assert splits >= 30
        assert flows < ref_flows

    def test_matches_uncapped_probes(self, python_backend, monkeypatch):
        self._check(monkeypatch)

    def test_matches_uncapped_probes_compiled(self, compiled_backend, monkeypatch):
        self._check(monkeypatch)

    def test_cap_is_least_bound_reaching_phi(self):
        for terms in range(1, 40):
            for phi in (0.0125, 0.1, 0.25, 1 / 3, 0.4, 1.0, 1.5, 1.9, 2.0, 3.0):
                want = next(
                    (c for c in range(1, 1000) if Fraction(2 * c, terms + c) >= Fraction(phi)),
                    None,
                )
                assert unweighted._probe_cap(terms, phi) == want, (terms, phi)

    def test_float_boundary(self):
        """2/20 equals 0.1 as a rational but lies below the float 0.1, so
        with 19 terminals a cut of one vertex splitting them 9 + 1 + 9 is
        sparse at phi = 0.1 and the cap must be 2, not 1."""
        assert Fraction(2, 20) < 0.1
        assert unweighted._probe_cap(19, 0.1) == 2
        g = two_cliques_sharing(10, 1)
        d = expander_decomposition(g, range(g.n), 0.1)
        assert d.x == (9,)
        assert d.pieces == (tuple(range(9)), tuple(range(10, 19)))

    def test_stored_probe_by_cap(self):
        """A stored (L, None) answers a later cap <= L with no flow or skip
        and is solved again under a larger cap; a stored completed probe
        answers every cap, its cut counting only below the cap."""
        g = Graph.from_edges(20, [e for e in itertools.combinations(range(20), 2) if e != (0, 1)])
        probes = _ledger(g).probes

        def probe(phi):
            stats = Counters()
            got = _sparsest_canonical_cut(g, [0, 1], phi, 48, stats)
            return got, stats.get("flow_calls") + stats.get("path_skips")

        # |T| = 2: cap 2 at phi = 1, 6 at phi = 1.5; kappa(0, 1) = 18.
        assert probe(1.0) == (None, 1) and probes == {(0, 1): (2, None)}
        assert probe(1.0) == (None, 0)
        assert probe(1.5) == (None, 1) and probes == {(0, 1): (6, None)}
        assert probe(1.0) == (None, 0) and probes == {(0, 1): (6, None)}
        # No cap at phi >= 2: the flow completes and its cut is kept.
        h, cut = probe(2.0)[0]
        assert (h, cut.S) == (18, tuple(range(2, 20)))
        assert probes == {(0, 1): (18, cut)}
        assert probe(1.0) == (None, 0)
        assert unweighted._probe_cap(2, 1.95) == 78
        assert probe(1.95) == ((h, cut), 0)


class TestShaving:
    def test_identical_neighborhoods_complete_bipartite(self):
        g = Graph.from_edges(6, [(a, b) for a in (0, 1, 2) for b in (3, 4, 5)])
        assert shaving(g, [0, 1, 2], 0) == {0, 1, 2}

    def test_planted_preconditions(self):
        # A = candidates whose neighborhoods nearly fill B = {8..15}; one
        # outlier with a disjoint neighborhood gets shaved away.
        edges = []
        for u in range(6):
            for b in range(8, 16):
                if (u, b) != (u, 8 + u % 2):
                    edges.append((u, b))
        edges += [(6, 16), (6, 17), (16, 17)]
        g = Graph.from_edges(18, edges)
        out = shaving(g, [0, 1, 2, 3, 4, 5, 6], 2)
        assert set(range(6)) <= out
        for u, v in itertools.combinations(sorted(out), 2):
            assert len(g.neighbor_set(u) ^ g.neighbor_set(v)) <= 10

    def test_contract_only_subset(self):
        g = random_graph(12, 0.4, 3)
        out = shaving(g, [0, 1, 2, 3], 1)
        assert out <= {0, 1, 2, 3}


class TestTerminalReduction:
    def test_shrinks_and_valid(self):
        g = random_graph(20, 0.3, 4)
        cut, t_prime = terminal_reduction(g, range(20), max(1, g.min_degree()))
        assert len(t_prime) <= math.floor(0.9 * 20)
        assert isinstance(cut, NoCut) or validate_cut(g, cut)

    def test_tiny_terminal_sets_terminate(self):
        g = random_graph(12, 0.35, 5)
        terms = tuple(range(12))
        rounds = 0
        while terms:
            _, terms = terminal_reduction(g, terms, 2)
            rounds += 1
            assert rounds < 60

    def test_budget_decomposition_terms(self):
        g = random_graph(24, 0.25, 6)
        stats = Counters()
        cut, t_prime = terminal_reduction(g, range(24), 3, stats=stats)
        events = [e for e in stats.events if e[0] == "terminal_reduction"]
        assert events and events[0][2] <= 0.9 * events[0][1]


class TestUnbalanced:
    def test_cycle(self):
        cut = unbalanced_vc(cycle(9))
        assert cut.value == 2

    def test_star_center(self):
        cut = unbalanced_vc(star(6))
        assert cut.value == 1 and cut.S == (0,)

    def test_planted_exact(self):
        for seed in range(4):
            inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 14}, seed=seed)
            cut = unbalanced_vc(inst.graph)
            assert cut.value == inst.cut.value

    def test_complete_sentinel(self):
        assert isinstance(unbalanced_vc(complete(6)), NoCut)


def _relabelled(g, seed):
    """g with its vertices renamed by a seeded permutation, so that a
    planted cut's sides are not runs of consecutive ids."""
    name = list(range(g.n))
    random.Random(seed).shuffle(name)
    return Graph.from_edges(g.n, [(name[u], name[v]) for u in range(g.n) for v in g.adj[u] if u < v])


def _certificate_graphs(max_n):
    """Seeded G(n, p), planted unbalanced instances (as built and
    relabelled), cycles and two cliques sharing vertices, n <= max_n."""
    graphs = [
        random_graph(n, p, 300 + n) for n in range(10, max_n + 1, 5) for p in (0.15, 0.3)
    ]
    for seed in range(3):
        inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 14}, seed=seed)
        graphs += [inst.graph, _relabelled(inst.graph, seed)]
    graphs += [cycle(9), cycle(14), two_cliques_sharing(6, 2), two_cliques_sharing(7, 3)]
    return [g for g in graphs if g.n <= max_n]


class TestPairCertificate:
    """`unbalanced_vc` settles each pair by one whole-graph packing per call
    before any kernel query.  Against the former loop that queries every
    pair (`conftest.query_every_pair`): the same cuts, events and counters
    but the flow and skip counts, and never more kernel queries or flows."""

    @staticmethod
    def _run(search, g, monkeypatch, module):
        queries = [0]
        real = module.query_kappa_upper

        def counted(*args, **kwargs):
            queries[0] += 1
            return real(*args, **kwargs)

        stats = Counters()
        with monkeypatch.context() as patch:
            patch.setattr(module, "query_kappa_upper", counted)
            cut = search(g, stats=stats)
        flows = stats.data.pop("flow_calls", 0)
        for key in ("flow_edges", "path_skips", "kernel_edges"):
            stats.data.pop(key, None)
        return (_fingerprint(cut), stats.data, stats.events), flows, queries[0]

    def _check(self, monkeypatch):
        saved = asked = decided = 0
        for g in _certificate_graphs(40):
            mine, flows, queries = self._run(unbalanced_vc, g, monkeypatch, unweighted)
            ref, ref_flows, ref_queries = self._run(query_every_pair, g, monkeypatch, conftest)
            assert mine == ref, g.adj
            assert flows <= ref_flows and queries <= ref_queries
            saved += ref_queries - queries
            asked += queries
            decided += mine[0][-1] < g.min_degree()
        assert saved > 0 and asked > 0 and decided > 0

    def test_matches_query_every_pair(self, python_backend, monkeypatch):
        self._check(monkeypatch)

    def test_matches_query_every_pair_compiled(self, compiled_backend, monkeypatch):
        self._check(monkeypatch)

    def test_chain_behind_the_skip(self, monkeypatch):
        """For every non-adjacent pair, n <= 20, in both orientations: the
        whole-graph packing toward N(t) <= kappa_G(s,t) <= the kernel
        answer at every scale of the call.  The call keeps its packings
        in g's ledger, or in the ledger of a kernel graph that a kernel
        query built.  Every packing total it keeps in g's ledger is under
        its own ordered pair's key and no more than that pair's packing,
        and each kept total decides as a new packing under the same limit.
        Every stored probe is a bound (L, None) with L <= kappa_G, or a new
        flow's completed answer."""
        memos = []
        kernels = []
        real = maxflow.packing_reaches
        real_kernel_graph = kernel.kernel_graph

        def spy(out_adj, weights, s, ends, limit, stats, memo=None, key=None):
            if memo is not None:
                memos.append(memo)
            got = real(out_adj, weights, s, ends, limit, stats, memo, key)
            assert got == (weighted_paths(out_adj, weights, s, ends, limit) >= limit)
            return got

        def kernel_spy(*args):
            built = real_kernel_graph(*args)
            kernels.append(built[0])
            return built

        kept = stored = 0
        for g in _certificate_graphs(20):
            memos.clear()
            kernels.clear()
            with monkeypatch.context() as patch:
                patch.setattr(maxflow, "packing_reaches", spy)
                patch.setattr(kernel, "kernel_graph", kernel_spy)
                unbalanced_vc(g)
            ledger = _ledger(g)
            allowed = [ledger.packs] + [_ledger(k).packs for k in kernels]
            assert all(any(memo is packs for packs in allowed) for memo in memos)
            unit = [1] * g.n
            delta, logn = g.min_degree(), _log2ceil(g.n)
            indexes = [
                build_kernel_index(g, 2 ** i) for i in range(1, _log2ceil(delta * logn) + 1)
            ]
            pairs = [
                (s, t) for s in range(g.n) for t in range(s + 1, g.n) if not g.has_edge(s, t)
            ]
            ordered = set(pairs) | {(t, s) for s, t in pairs}
            assert set(ledger.packs) <= ordered and set(ledger.probes) <= ordered
            for s, t in pairs:
                kappa = brute_pair_kappa(g, s, t)
                for a, b in ((s, t), (t, s)):
                    packed = weighted_paths(g.adj, unit, a, g.neighbor_set(b), None)
                    assert packed <= kappa, (g.adj, a, b)
                    for index in indexes:
                        assert query_kappa_upper(index, a, b) >= kappa, (g.adj, a, b)
                    if (a, b) in ledger.packs:
                        assert ledger.packs[a, b][0] <= packed, (g.adj, a, b)
                        kept += 1
                    got = ledger.probes.get((a, b))
                    if got is not None:
                        if got[1] is None:
                            assert got[0] <= kappa
                        else:
                            assert got == conftest.bare_min_st_cut(g, a, b)
                        stored += 1
        assert kept > 0 and stored > 0


class TestPairLedger:
    """The pair ledger of the sparsified graph of a driver call against
    the driver that probes it without one (`conftest.unledgered_driver`:
    the former unbalanced loop, cluster probes and balanced-search probes):
    the same cuts, events and counters but `flow_calls`, `flow_edges`,
    `path_skips` and `kernel_edges`, and never more flows or packings."""

    MOVED = ("flow_calls", "flow_edges", "path_skips", "kernel_edges")

    def _run(self, driver, g, unbalanced, monkeypatch):
        packings = [0]
        real = maxflow.weighted_paths

        def counted(*args):
            packings[0] += 1
            return real(*args)

        stats = Counters()
        with monkeypatch.context() as patch:
            patch.setattr(maxflow, "weighted_paths", counted)
            cut = driver(g, stats=stats, unbalanced=unbalanced)
        flows = stats.data.pop("flow_calls", 0)
        for key in self.MOVED:
            stats.data.pop(key, None)
        return (_fingerprint(cut), stats.data, stats.events), flows, packings[0]

    def _check(self, monkeypatch):
        from test_fingerprints import _instances

        graphs = [
            args[0] for label, (_, args) in _instances().items() if label.startswith("unweighted")
        ]
        assert len(graphs) == 32
        cases = [(g, True) for g in graphs] + [(g, False) for g in graphs]
        cases += [(g, True) for g in conftest.perfbench_graphs("unweighted", 7)]
        cases += [(g, True) for g in _certificate_graphs(40) if g.n > 16]
        totals = [0, 0, 0, 0]
        for g, unbalanced in cases:
            mine, flows, packs = self._run(
                vertex_connectivity_unweighted, g, unbalanced, monkeypatch
            )
            ref, ref_flows, ref_packs = self._run(
                conftest.unledgered_driver, g, unbalanced, monkeypatch
            )
            assert mine == ref, (g.adj, unbalanced)
            assert flows <= ref_flows and packs <= ref_packs, (g.adj, unbalanced)
            for i, x in enumerate((flows, ref_flows, packs, ref_packs)):
                totals[i] += x
        assert totals[0] < totals[1] and totals[2] < totals[3]

    def test_matches_unledgered_driver(self, python_backend, monkeypatch):
        self._check(monkeypatch)

    def test_matches_unledgered_driver_compiled(self, compiled_backend, monkeypatch):
        self._check(monkeypatch)

    def test_entry_points_match_unledgered_probes(self):
        """Both balanced-terminal entry points with all of V as terminals,
        the graph's one ledger shared by all their calls on it, and the
        caller's best None or the min-degree cut: the same result as their
        former probe closures (`conftest.unledgered_*`)."""
        differ = 0
        for seed in range(40):
            n = 12 + seed % 17
            g = random_graph(n, (0.12, 0.2, 0.3)[seed % 3], 900 + seed)
            if len(g.components()) > 1 or g.is_complete():
                continue
            k = max(1, g.min_degree())
            for best in (None, min_degree_cut(g)):
                for mine, ref in (
                    (subgraph_balanced_terminal_vc, conftest.unledgered_subgraph_balanced_terminal_vc),
                    (balanced_terminal_vc, conftest.unledgered_balanced_terminal_vc),
                ):
                    got = mine(g, range(n), k, best=best)
                    want = ref(g, range(n), k, best=best)
                    assert _fingerprint(got) == _fingerprint(want), (seed, mine.__name__)
                    differ += isinstance(got, VertexCut) and got != best
        assert differ > 0


class TestDriver:
    def test_petersen(self):
        cut = vertex_connectivity_unweighted(petersen())
        assert cut.value == 3 and validate_cut(petersen(), cut)

    def test_two_cliques_sharing_two(self):
        g = two_cliques_sharing(6, 2)
        cut = vertex_connectivity_unweighted(g)
        assert cut.value == 2
        assert set(cut.S) == {4, 5}

    def test_complete(self):
        got = vertex_connectivity_unweighted(complete(7))
        assert isinstance(got, NoCut) and got.value == 6

    def test_disconnected(self):
        g = Graph.from_edges(5, [(0, 1), (2, 3), (3, 4)])
        cut = vertex_connectivity_unweighted(g)
        assert cut.value == 0 and validate_cut(g, cut)

    def test_matches_oracle_random(self):
        rng = random.Random(0)
        for seed in range(25):
            n = rng.randrange(6, 26)
            p = rng.choice([0.15, 0.25, 0.4, 0.6])
            g = random_graph(n, p, seed)
            got = vertex_connectivity_unweighted(g)
            want = brute_kappa(g)
            if isinstance(want, tuple):
                assert got.value == want[0], (n, p, seed)
                assert validate_cut(g, got)
            else:
                assert isinstance(got, NoCut) and got.value == want.value

    def test_trivial_sizes(self):
        assert isinstance(vertex_connectivity_unweighted(Graph(1, [[]])), NoCut)
        assert isinstance(vertex_connectivity_unweighted(Graph(0, [])), NoCut)
