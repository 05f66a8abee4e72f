import itertools
import random

import pytest

from conftest import (
    all_pairs_probe,
    complete,
    cycle,
    former_even_sweep,
    former_sweep_below,
    perfbench_graphs,
    petersen,
    separator_first,
    two_cliques_sharing,
)
import vcut.gabow
from vcut.errors import Exhausted
from vcut.gabow import (
    GapState,
    KConnected,
    RichSet,
    gabow_vc,
    increase_gap,
    large_gap_vc,
    rich_set_or_cut,
)
from vcut.graphs import Graph, NoCut, VertexCut, validate_cut
from vcut.instrument import Counters
from vcut.oracle import brute_kappa, generate_planted, random_graph


class TestRichSetOrCut:
    def test_dense_graph_returns_whole_set(self):
        g = complete(8)
        # delta = 7 > n/2: the first branch certifies V itself.
        candidates, rich = rich_set_or_cut(g, 3)
        assert isinstance(rich, RichSet)
        assert set(rich.vertices) == set(range(8))

    def test_small_cut_found(self):
        g = two_cliques_sharing(6, 2)
        candidates, rich = rich_set_or_cut(g, 3)
        best = min((c.value for c in candidates), default=None)
        assert best == 2

    def test_planted_rich_set_straddles_cut(self):
        inst = generate_planted("balanced-terminal", {"side": 8, "s": 3}, seed=1)
        g = inst.graph
        candidates, rich = rich_set_or_cut(g, inst.cut.value + 2)
        if rich is not None and rich.tau > 0:
            lset, rset = set(inst.cut.L), set(inst.cut.R)
            tv = set(rich.vertices)
            assert len(tv & lset) >= rich.tau
            assert len(tv & rset) >= rich.tau
        else:
            assert min(c.value for c in candidates) == inst.cut.value


class TestIncreaseGap:
    def test_round_on_near_complete_graph(self):
        # K8 minus a perfect matching: removing a vertex and patching
        # degrees keeps everything consistent.
        n = 8
        matching = {(0, 1), (2, 3), (4, 5), (6, 7)}
        edges = [e for e in itertools.combinations(range(n), 2) if e not in matching]
        g = Graph.from_edges(n, edges)
        from vcut.graphs import min_degree_cut

        state = GapState(g, list(range(n)), (), min_degree_cut(g))
        new = increase_gap(state, 4, g)
        assert len(new.removed) == 1
        assert new.h.m <= g.m
        if isinstance(new.best, VertexCut):
            assert validate_cut(g, new.best)

    def test_best_cut_never_worsens(self):
        g = random_graph(14, 0.5, 3)
        from vcut.graphs import min_degree_cut

        state = GapState(g, list(range(g.n)), (), min_degree_cut(g))
        before = state.best.value
        try:
            after = increase_gap(state, 4, g)
        except Exhausted:
            return
        assert after.best.value <= before

    def test_complete_graph_exhausted(self):
        g = complete(6)
        state = GapState(g, list(range(6)), (), None)
        with pytest.raises(Exhausted):
            increase_gap(state, 3, g)


class TestLargeGap:
    def test_cycle_small_cut(self):
        got = large_gap_vc(cycle(8), 3)
        assert isinstance(got, VertexCut) and got.value == 2

    def test_complete_k_connected(self):
        got = large_gap_vc(complete(8), 3)
        assert isinstance(got, KConnected)

    def test_planted_exact(self):
        inst = generate_planted("balanced-terminal", {"side": 7, "s": 2}, seed=4)
        got = large_gap_vc(inst.graph, inst.cut.value + 3)
        assert isinstance(got, VertexCut) and got.value == inst.cut.value


class TestGabowDriver:
    def test_petersen_decisions(self):
        got = gabow_vc(petersen(), 4)
        assert isinstance(got, VertexCut) and got.value == 3
        assert isinstance(gabow_vc(petersen(), 3), KConnected)

    def test_disconnected(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        got = gabow_vc(g, 1)
        assert isinstance(got, VertexCut) and got.value == 0

    def test_complete_sentinel(self):
        got = gabow_vc(complete(5), 8)
        assert isinstance(got, NoCut) and got.value == 4

    def test_matches_oracle_decisions(self):
        rng = random.Random(6)
        for case in range(50):
            n = rng.randrange(6, 30)
            p = rng.choice([0.15, 0.3, 0.5])
            k = rng.randrange(1, 9)
            g = random_graph(n, p, case, connected=rng.random() < 0.9)
            got = gabow_vc(g, k)
            want = brute_kappa(g)
            kappa = want[0] if isinstance(want, tuple) else want.value
            if kappa >= k:
                assert isinstance(got, KConnected), (case, n, p, k, kappa)
            elif isinstance(got, NoCut):
                assert got.value == kappa
            else:
                assert isinstance(got, VertexCut), (case, n, p, k)
                assert got.value == kappa, (case, n, p, k, got.value, kappa)
                assert validate_cut(g, got)


class TestEvenSweepFallback:
    """The delta <= k and tau <= 0 fallbacks run Even's sweep; decisions
    must equal those of probing every non-adjacent pair, with no more
    flows."""

    def _decisions(self):
        for seed in range(16):
            n = 10 + 2 * seed
            g = random_graph(n, (0.15, 0.25, 0.4, 0.6)[seed % 4], seed)
            delta = g.min_degree()
            for k in sorted({1, delta - 1, delta, delta + 1, delta + 3} - {0}):
                yield g, k
        inst = generate_planted("balanced-terminal", {"side": 6, "s": 2}, seed=5)
        for k in (2, 3, 4):
            yield inst.graph, k

    def test_matches_all_pairs_reference(self, monkeypatch):
        fallbacks = 0
        for g, k in self._decisions():
            mine, ref = Counters(), Counters()
            got = gabow_vc(g, k, stats=mine)
            with monkeypatch.context() as m:
                m.setattr(vcut.gabow, "even_sweep", all_pairs_probe)
                want = gabow_vc(g, k, stats=ref)
            assert type(got) is type(want), (g, k)
            if isinstance(got, KConnected):
                assert got.k == want.k
            else:
                assert got == want, (g, k)
            assert mine.get("flow_calls") <= ref.get("flow_calls")
            queries = mine.get("flow_calls") + mine.get("path_skips")
            assert queries <= ref.get("flow_calls") + ref.get("path_skips")
            # Pair queries (flows run or skipped) differ; nothing else may.
            per_query = ("flow_", "path_skips")
            flowless = {key: v for key, v in mine.data.items() if not key.startswith(per_query)}
            assert flowless == {key: v for key, v in ref.data.items() if not key.startswith(per_query)}
            fallbacks += mine.get("gabow_allpairs_fallback") > 0
        assert fallbacks > 0

    def test_perfbench_matches_former_sweep(self, monkeypatch):
        # The benchmark's gabow decisions, every one a fallback: the
        # certificate leaves verdicts, cuts, events and flows as the former
        # sweep had them.  One decision can pack more paths (the certificate
        # packs pairs the sweep never reached), but the workload packs fewer.
        decisions = 0
        skips = {"mine": 0, "ref": 0}
        for seed in (7, 8, 11):
            graphs = {id(g): g for g in perfbench_graphs("gabow", seed)}.values()
            for g in graphs:
                for k in (g.min_degree() - 1, g.min_degree() + 1):
                    mine, ref = Counters(), Counters()
                    got = gabow_vc(Graph(g.n, g.adj), k, stats=mine)
                    with monkeypatch.context() as m:
                        m.setattr(vcut.gabow, "even_sweep", former_even_sweep)
                        want = gabow_vc(Graph(g.n, g.adj), k, stats=ref)
                    assert repr(got) == repr(want), (seed, g, k)
                    if isinstance(got, VertexCut):
                        assert got == want and validate_cut(g, got)
                    assert mine.events == ref.events
                    assert mine.get("flow_calls") == ref.get("flow_calls")
                    skips["mine"] += mine.get("path_skips")
                    skips["ref"] += ref.get("path_skips")
                    others = {key: v for key, v in mine.data.items() if key != "path_skips"}
                    assert others == {key: v for key, v in ref.data.items() if key != "path_skips"}
                    decisions += mine.get("gabow_allpairs_fallback")
        assert decisions == 84
        assert skips["mine"] <= skips["ref"]

    def test_sweep_under_k_matches_former_limit(self, monkeypatch):
        # The fallback sweeps under k when the best cut cannot decide; the
        # former one swept under that cut's value.  Same verdicts and cuts
        # at every k, with no more flows.
        rng = random.Random(34)
        graphs = [random_graph(n, rng.choice([0.15, 0.3, 0.5]), n) for n in range(6, 30)]
        graphs += [separator_first(kappa, 3) for kappa in (1, 2, 3)]
        fallbacks = 0
        for g in graphs:
            for k in range(1, g.min_degree() + 3):
                mine, ref = Counters(), Counters()
                got = gabow_vc(Graph(g.n, g.adj), k, stats=mine)
                with monkeypatch.context() as m:
                    m.setattr(vcut.gabow, "_sweep_below", former_sweep_below)
                    want = gabow_vc(Graph(g.n, g.adj), k, stats=ref)
                assert repr(got) == repr(want), (g, k)
                if isinstance(got, VertexCut):
                    assert got == want, (g, k)
                assert mine.events == ref.events
                assert mine.get("flow_calls") <= ref.get("flow_calls"), (g, k)
                fallbacks += mine.get("gabow_allpairs_fallback") > 0
        assert fallbacks > 0

    def test_minimum_separator_on_lowest_ids(self):
        # kappa = |S| and delta = kappa + 1, so k = kappa + 1 takes the
        # fallback with limit kappa + 1 and only v_kappa's flows find S.
        for kappa in (1, 2, 4):
            g = separator_first(kappa, 2)
            got = gabow_vc(g, kappa + 1)
            assert isinstance(got, VertexCut) and got.S == tuple(range(kappa))
            assert validate_cut(g, got)
            assert isinstance(gabow_vc(g, kappa), KConnected)
