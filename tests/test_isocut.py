import itertools
import math
import random

import pytest

from conftest import assert_matches_reference, complete, cycle, unit_paths
from vcut.config import DEFAULT
from vcut.errors import InvariantError
from vcut.graphs import NoCut, VertexCut, better_cut, min_degree_cut, validate_cut
from vcut.instrument import Counters
from vcut.isocut import (
    _remap_candidate,
    _terminal_subgraph,
    balanced_terminal_vc,
    isolating_vertex_cuts,
    subgraph_balanced_terminal_vc,
)
from vcut.maxflow import vertex_max_flow
from vcut.oracle import brute_isolating_values, generate_planted, random_graph
from vcut.pseudorandom import map_pairs, symmetric_crossing_family


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


def _pair_branch_unchecked(g, terms, cfg=DEFAULT, stats=None):
    """The pair branch of subgraph_balanced_terminal_vc without the path
    certificate: one capped flow per crossing-family pair."""
    aux, nodes, virtual = _terminal_subgraph(g, terms)
    pos = {v: j for j, v in enumerate(nodes)}
    family = map_pairs(symmetric_crossing_family(len(terms), 1 / cfg.eps_balanced, cfg), terms)
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

    def test_matches_unchecked_pair_branch(self):
        skips = 0
        for g, terms in _terminal_cases():
            k = len(terms)  # k / eps > |T| / 4: the pair branch runs
            mine, ref = Counters(), Counters()
            got = subgraph_balanced_terminal_vc(g, terms, k, stats=mine)
            want = _pair_branch_unchecked(g, terms, stats=ref)
            assert type(got) is type(want)
            if isinstance(want, VertexCut):
                assert got == want
            assert mine.get("flow_calls") + mine.get("path_skips") == ref.get("flow_calls")
            skips += mine.get("path_skips")
        assert skips > 0
