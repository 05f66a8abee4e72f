import itertools
import math
import random

import pytest

from conftest import (
    assert_matches_reference,
    certificate_free_search,
    complete,
    cycle,
    perfbench_graphs,
    unit_paths,
)
from vcut.errors import InvariantError
from vcut import isocut
from vcut.graphs import (
    Graph,
    NoCut,
    VertexCut,
    better_cut,
    min_degree_cut,
    ni_sparsify,
    validate_cut,
)
from vcut.instrument import Counters
from vcut.isocut import (
    _remap_candidate,
    _terminal_subgraph,
    balanced_terminal_vc,
    isolating_vertex_cuts,
    subgraph_balanced_terminal_vc,
)
from vcut.maxflow import min_st_cut, vertex_max_flow
from vcut.oracle import brute_isolating_values, generate_planted, random_graph
from vcut.pseudorandom import build_selector, map_pairs, symmetric_crossing_family


def greedy_independent(g, size, rng):
    order = list(range(g.n))
    rng.shuffle(order)
    picked = []
    for v in order:
        if all(not g.has_edge(v, u) for u in picked):
            picked.append(v)
        if len(picked) == size:
            break
    return picked


class TestIsolatingCuts:
    def test_cycle_antipodal_terminals(self):
        res = isolating_vertex_cuts(cycle(6), [0, 3])
        assert res.value(0) == 2 and res.value(3) == 2
        for v in (0, 3):
            assert validate_cut(cycle(6), res.cut(v))

    def test_matches_brute_per_terminal(self):
        rng = random.Random(8)
        checked = 0
        for seed in range(10):
            g = random_graph(14, 0.3, seed)
            terms = greedy_independent(g, rng.randrange(2, 6), rng)
            if len(terms) < 2:
                continue
            res = isolating_vertex_cuts(g, terms)
            truth = brute_isolating_values(g, terms)
            for v in terms:
                assert res.value(v) == truth[v]
                assert not set(res.separator(v)) & set(terms)
                checked += 1
        assert checked >= 20

    def test_adjacent_terminals_rejected(self):
        g = cycle(6)
        with pytest.raises(InvariantError):
            isolating_vertex_cuts(g, [0, 1])

    def test_too_few_terminals_rejected(self):
        with pytest.raises(InvariantError):
            isolating_vertex_cuts(cycle(6), [2])

    def test_flow_instrumentation_bounded(self):
        g = random_graph(16, 0.3, 2)
        rng = random.Random(1)
        terms = greedy_independent(g, 5, rng)
        if len(terms) < 2:
            pytest.skip("no independent set of size >= 2 found")
        stats = Counters()
        isolating_vertex_cuts(g, terms, stats=stats)
        rounds = max(1, math.ceil(math.log2(len(terms))))
        # Phase flows plus one local flow per terminal; edges per instance
        # stay within a constant of m per round.
        assert stats.get("flow_edges") <= 8 * (2 * g.m + g.n + 4) * (rounds + len(terms))


class TestBalancedTerminal:
    def test_cycle_full_terminals(self):
        cut = balanced_terminal_vc(cycle(8), range(8), 2)
        assert cut.value == 2
        assert validate_cut(cycle(8), cut)

    def test_complete_graph_sentinel(self):
        assert isinstance(balanced_terminal_vc(complete(5), range(5), 2), NoCut)

    def test_planted_instance_exact(self):
        for seed in range(4):
            inst = generate_planted("balanced-terminal", {"side": 7, "s": 2}, seed=seed)
            cut = balanced_terminal_vc(inst.graph, range(inst.graph.n), 3)
            assert cut.value == inst.cut.value

    def test_always_valid_even_without_promise(self):
        for seed in range(6):
            g = random_graph(13, 0.3, seed)
            cut = balanced_terminal_vc(g, [0, 1, 2], 2)
            assert isinstance(cut, NoCut) or validate_cut(g, cut)


class TestSubgraphBalancedTerminal:
    def test_full_terminal_set_matches_plain(self):
        g = cycle(8)
        a = balanced_terminal_vc(g, range(8), 2)
        b = subgraph_balanced_terminal_vc(g, range(8), 2)
        assert b.value == a.value == 2
        assert validate_cut(g, b)

    def test_planted_cluster_terminals(self):
        for seed in range(4):
            inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 12}, seed=seed)
            g = inst.graph
            rng = random.Random(seed)
            terms = sorted(set(inst.cut.L) | set(rng.sample(inst.cut.R, 6)))
            cut = subgraph_balanced_terminal_vc(g, terms, 4)
            assert isinstance(cut, VertexCut)
            assert validate_cut(g, cut)
            assert cut.value == inst.cut.value

    def test_single_terminal_contract(self):
        g = cycle(8)
        cut = subgraph_balanced_terminal_vc(g, [0], 2)
        assert isinstance(cut, NoCut) or validate_cut(g, cut)

    def test_candidates_revalidated_in_g(self):
        for seed in range(6):
            g = random_graph(15, 0.25, seed)
            rng = random.Random(seed)
            terms = sorted(rng.sample(range(15), 5))
            cut = subgraph_balanced_terminal_vc(g, terms, 3)
            assert isinstance(cut, NoCut) or validate_cut(g, cut)


def _terminal_cases():
    """(graph, terminal set) pairs: random subsets, planted small sides
    with part of the far side, and every vertex."""
    for seed in range(8):
        g = random_graph(12 + seed % 5, (0.2, 0.3, 0.45, 0.6)[seed % 4], 300 + seed)
        rng = random.Random(seed)
        yield g, sorted(rng.sample(range(g.n), 4 + seed % 6))
        yield g, list(range(g.n))
    for seed in range(4):
        inst = generate_planted("unbalanced", {"l": 2, "s": 3, "r": 12}, seed=seed)
        rng = random.Random(seed)
        yield inst.graph, sorted(set(inst.cut.L) | set(rng.sample(inst.cut.R, 6)))


def _pair_branch_unchecked(g, terms, stats=None):
    """The pair branch of subgraph_balanced_terminal_vc without the path
    certificate: one capped flow per crossing-family pair."""
    aux, nodes, virtual = _terminal_subgraph(g, terms)
    pos = {v: j for j, v in enumerate(nodes)}
    family = map_pairs(symmetric_crossing_family(len(terms), 1 / isocut.EPS_BALANCED), terms)
    best = None
    seen = set()
    for a, b in family:
        key = (a, b) if a < b else (b, a)
        if a == b or key in seen:
            continue
        seen.add(key)
        a, b = key
        if g.has_edge(a, b):
            continue
        _, sep, _, completed = vertex_max_flow(
            aux.n, aux.flow_arcs(), [1] * aux.n, [pos[a]], [pos[b], virtual],
            limit=best.value if isinstance(best, VertexCut) else None, stats=stats,
        )
        if completed:
            best = better_cut(best, _remap_candidate(g, (nodes[j] for j in sep)))
    return best if isinstance(best, VertexCut) else NoCut(g.n - 1)


class TestSinkSetCertificate:
    """The pair flows of subgraph_balanced_terminal_vc go from a to the
    sink set {b, super-vertex} on the auxiliary graph; a unit-capacity
    packing of paths to that set (the reference packing of internally
    disjoint paths) decides the capped ones."""

    def test_packing_below_uncapped_flow(self):
        checked = longer = 0
        for g, terms in _terminal_cases():
            aux, nodes, virtual = _terminal_subgraph(g, terms)
            pos = {v: j for j, v in enumerate(nodes)}
            for a, b in itertools.permutations(terms, 2):
                if g.has_edge(a, b):
                    continue
                sinks = (pos[b], virtual)
                flow = vertex_max_flow(
                    aux.n, aux.flow_arcs(), [1] * aux.n, [pos[a]], list(sinks)
                )[0]
                paths = assert_matches_reference(aux.adj, aux.n, pos[a], sinks, None)
                count = len(paths)
                assert count <= flow, (terms, a, b)
                inner = [v for p in paths for v in p[1:-1]]
                assert len(inner) == len(set(inner))
                assert not set(inner) & {pos[a], *sinks}
                for p in paths:
                    assert p[0] == pos[a] and p[-1] in sinks
                    assert all(aux.has_edge(x, y) for x, y in zip(p, p[1:]))
                for limit in (1, flow, flow + 1):
                    assert unit_paths(aux.adj, aux.n, pos[a], sinks, limit) == min(count, limit)
                longer += sum(len(p) > 3 for p in paths)
                checked += 1
        assert checked > 500 and longer > 0

    def test_callers_best_caps_the_pair_flows(self):
        # Capped at the caller's best value + 1, the pair flows leave the
        # caller's outcome (its best against the returned cut) unchanged
        # and never run more flows.
        saved = 0
        for g, terms in _terminal_cases():
            k = len(terms)
            plain_stats = Counters()
            plain = subgraph_balanced_terminal_vc(g, terms, k, stats=plain_stats)
            callers = [min_degree_cut(g)]
            if isinstance(plain, VertexCut):
                # A best of plain's value and a larger key: plain must win.
                last = tuple(range(g.n - plain.value, g.n))
                callers += [plain, VertexCut((), last, (), plain.value)]
            for best in callers:
                capped_stats = Counters()
                capped = subgraph_balanced_terminal_vc(g, terms, k, stats=capped_stats, best=best)
                assert better_cut(best, capped) == better_cut(best, plain)
                flows = capped_stats.get("flow_calls")
                assert flows <= plain_stats.get("flow_calls")
                saved += plain_stats.get("flow_calls") - flows
        assert saved > 0

    @staticmethod
    def _against_unchecked(counts):
        """Runs the pair branch and `_pair_branch_unchecked` on every case,
        asserts the same cut, and checks `counts(mine, ref)` per case.
        Returns the summed `path_skips`."""
        skips = 0
        for g, terms in _terminal_cases():
            k = len(terms)  # k / eps > |T| / 4: the pair branch runs
            mine, ref = Counters(), Counters()
            got = subgraph_balanced_terminal_vc(g, terms, k, stats=mine)
            want = _pair_branch_unchecked(g, terms, stats=ref)
            assert type(got) is type(want)
            if isinstance(want, VertexCut):
                assert got == want
            assert counts(mine, ref), (g, terms)
            skips += mine.get("path_skips")
        return skips

    def test_matches_unchecked_pair_branch(self):
        # The search ends at the connectivity certificate, so it runs no
        # more flows than the branch that probes every pair.
        skips = self._against_unchecked(
            lambda mine, ref: mine.get("flow_calls") <= ref.get("flow_calls")
        )
        assert skips > 0

    def test_matches_unchecked_pair_branch_flow_for_flow(self, monkeypatch):
        # With the certificate never holding, every pair is probed: each of
        # the unchecked branch's flows is a flow or a path skip here.
        monkeypatch.setattr(isocut, "connectivity_at_least", lambda *args: False)
        skips = self._against_unchecked(
            lambda mine, ref: mine.get("flow_calls") + mine.get("path_skips")
            == ref.get("flow_calls")
        )
        assert skips > 0


BALANCED_SEARCH = isocut._balanced_search


def _pair_regime_cases():
    """(graph, terminals, k) in the pair regime: `_terminal_cases()` with
    k = |T|, and the driver's first round on the sparsified graph of every
    instance of the perfbench unweighted workload at seeds 1 and 7."""
    for g, terms in _terminal_cases():
        yield g, terms, len(terms)
    for seed in (1, 7):
        for graph in perfbench_graphs("unweighted", seed):
            gs = ni_sparsify(graph, graph.min_degree())
            yield gs, list(range(gs.n)), max(1, gs.min_degree())


class TestPairRegimeCertificate:
    """The pair regime returns once `connectivity_at_least` proves kappa(g)
    >= the value found: both entry points return the cut of the search
    that probes every pair (`conftest.certificate_free_search`), with no
    more flows and no more probes."""

    @staticmethod
    def _run(entry, search, g, terms, k, best, monkeypatch):
        """(cut, flows, probes) of `entry` on a fresh copy of g, with
        `search` as its balanced search."""
        probes = []

        def counted(g, terms, k, best, probe, stats):
            def counted_probe(a, b, limit):
                probes.append((a, b))
                return probe(a, b, limit)

            return search(g, terms, k, best, counted_probe, stats)

        stats = Counters()
        with monkeypatch.context() as patch:
            patch.setattr(isocut, "_balanced_search", counted)
            got = entry(Graph(g.n, g.adj), terms, k, stats=stats, best=best)
        return got, stats.get("flow_calls"), len(probes)

    @pytest.mark.parametrize("entry", [balanced_terminal_vc, subgraph_balanced_terminal_vc])
    def test_matches_search_without_certificate(self, entry, monkeypatch):
        cases = stopped = 0
        for g, terms, k in _pair_regime_cases():
            assert k / isocut.EPS_BALANCED > len(terms) / 4
            plain = self._run(entry, BALANCED_SEARCH, g, terms, k, None, monkeypatch)[0]
            callers = [None, min_degree_cut(g)]
            if isinstance(plain, VertexCut):
                callers.append(plain)
            for best in callers:
                got, flows, probes = self._run(
                    entry, BALANCED_SEARCH, g, terms, k, best, monkeypatch
                )
                want, ref_flows, ref_probes = self._run(
                    entry, certificate_free_search, g, terms, k, best, monkeypatch
                )
                assert type(got) is type(want) and got.value == want.value
                if isinstance(want, VertexCut):
                    assert got == want, (g, terms, best)
                assert flows <= ref_flows and probes <= ref_probes
                stopped += probes < ref_probes
                cases += 1
        assert cases > 100 and stopped > 0

    def test_certificate_not_asked_in_the_selector_regime(self, monkeypatch):
        def no_certificate(*args):
            raise AssertionError("certificate asked")

        monkeypatch.setattr(isocut, "connectivity_at_least", no_certificate)
        for g, terms, k in itertools.islice(_selector_cases(), 4):
            assert isinstance(balanced_terminal_vc(g, terms, k), VertexCut)
            assert isinstance(subgraph_balanced_terminal_vc(g, terms, k), VertexCut)


def _former_selector_route(g, terms, k, isolating_candidates):
    """The former selector regime of both balanced-terminal entry points:
    the isolating cuts of every member set, uncapped and unscreened, with
    `isolating_candidates(indep)` turning a member set into candidates."""
    eps = isocut.EPS_BALANCED
    assert k / eps <= len(terms) / 4  # the selector regime
    best = None
    for members in build_selector(len(terms), math.ceil(k / eps), eps):
        indep = sorted(terms[j] for j in members)
        indep = [v for i, v in enumerate(indep) if all(not g.has_edge(v, u) for u in indep[:i])]
        if len(indep) >= 2:
            for cut in isolating_candidates(indep):
                best = better_cut(best, cut)
    assert isinstance(best, VertexCut)
    return best


def _former_balanced(g, terms, k, stats):
    def candidates(indep):
        return [cut for _, (_, _, cut) in isolating_vertex_cuts(g, indep, stats=stats).items()]

    return _former_selector_route(g, terms, k, candidates)


def _former_subgraph(g, terms, k, stats):
    aux, nodes, virtual = _terminal_subgraph(g, terms)
    pos = {v: j for j, v in enumerate(nodes)}

    def candidates(indep):
        result = isolating_vertex_cuts(aux, [pos[v] for v in indep] + [virtual], stats=stats)
        return [_remap_candidate(g, (nodes[j] for j in sep))
                for av, (_, sep, _) in result.items() if av != virtual]

    return _former_selector_route(g, terms, k, candidates)


def _selector_cases():
    """(graph, terminals, k) in the selector regime, |T| >= 16k: sparse
    random graphs with every vertex a terminal, and with 16 random ones.
    On the first four graphs, probing each pair in one orientation only
    would return another cut of the same separator."""
    for n, p, seed in ((16, 0.12, 31), (16, 0.2, 13), (18, 0.12, 6), (18, 0.12, 16),
                       (20, 0.3, 2), (22, 0.15, 3)):
        g = random_graph(n, p, seed)
        yield g, list(range(n)), 1
        yield g, sorted(random.Random(seed).sample(range(n), 16)), 1
    g = random_graph(32, 0.1, 706)
    yield g, list(range(g.n)), 2


ENTRY_POINTS = pytest.mark.parametrize("entry, former", [
    (balanced_terminal_vc, _former_balanced),
    (subgraph_balanced_terminal_vc, _former_subgraph),
])


class TestSelectorRegime:
    """A member set of two terminals is probed as the two oriented, capped
    pair flows; the caller sees the same outcome as from the isolating cuts
    of every member set, with no more flows."""

    @ENTRY_POINTS
    def test_matches_former_isolating_route(self, entry, former):
        saved = 0
        for g, terms, k in _selector_cases():
            old_stats = Counters()
            old = former(g, terms, k, old_stats)
            last = tuple(range(g.n - old.value, g.n))
            for best in (None, min_degree_cut(g), VertexCut((), last, (), old.value)):
                new_stats = Counters()
                new = entry(g, terms, k, stats=new_stats, best=best)
                assert better_cut(best, new) == better_cut(best, old), (g.n, terms, k, best)
                assert new_stats.get("flow_calls") <= old_stats.get("flow_calls")
                saved += old_stats.get("flow_calls") - new_stats.get("flow_calls")
        assert saved > 0

    @ENTRY_POINTS
    def test_clique_terminals_return_nocut(self, entry, former, monkeypatch):
        """Pairwise adjacent terminals leave no pair to probe: the search
        returns NoCut, touches no counter and never walks the crossing
        pairs of the pair regime."""

        def no_pairs(*args):
            raise AssertionError("crossing pairs walked")

        monkeypatch.setattr(isocut, "crossing_pairs", no_pairs)
        # K_16 on the terminals (k / eps = 4 <= 16 / 4), and a path 15-16-17
        g = Graph.from_edges(18, list(itertools.combinations(range(16), 2)) + [(15, 16), (16, 17)])
        stats = Counters()
        got = entry(g, range(16), 1, stats=stats)
        assert isinstance(got, NoCut) and got.value == g.n - 1
        assert stats.as_dict() == {}

    def test_oriented_probes_are_the_isolating_cuts(self):
        checked = 0
        for g, terms, _ in _selector_cases():
            for u, v in itertools.combinations(terms, 2):
                if g.has_edge(u, v):
                    continue
                iso = isolating_vertex_cuts(g, [u, v])
                for a, b in ((u, v), (v, u)):
                    assert min_st_cut(g, a, b)[1] == iso.cut(a)
                checked += 1
        assert checked > 500
