import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    complete_digraph,
    directed_cycle,
    every_guess_lopsided,
    every_guess_symmetric,
    four_call_weighted,
    two_hop_weight,
)
from vcut.errors import InvariantError
from vcut.graphs import (
    NoCut,
    VertexCut,
    WeightedDigraph,
    min_out_neighborhood_cut,
    validate_cut,
)
from vcut.instrument import Counters
from vcut.maxflow import packing_reaches, vertex_max_flow, weighted_paths
from vcut.oracle import brute_kappa, brute_pair_kappa, generate_planted, random_digraph
from vcut import cnc, weighted
from vcut.pseudorandom import PairFamily
from vcut.weighted import (
    _ClusterParts,
    _powers_up_to,
    identify_vlow,
    lopsided_arcs,
    lopsided_pairs,
    lopsided_vc,
    sparsify_lopsided,
    sparsify_symmetric,
    symmetric_pairs,
    symmetric_vc,
    vertex_connectivity_weighted,
)


class TestIdentifyVlow:
    def test_single_source_cluster(self):
        d = WeightedDigraph.from_arcs(4, [(0, 1), (0, 2), (1, 0), (2, 0), (2, 3), (3, 0)], [1] * 4)
        low = identify_vlow(d, [0])
        # vertices 1 and 2 receive all of C={0}'s weight; 3 and 0 do not
        assert 3 in low and 0 in low
        assert 1 not in low and 2 not in low

    def test_fully_covered_empty(self):
        # In a large unit-weight complete digraph every vertex's in-set
        # covers more than 0.9 of the cluster weight.
        d = complete_digraph([1] * 11)
        assert identify_vlow(d, list(range(11))) == []

    def test_planted_overlap_with_far_side(self):
        inst = generate_planted("lopsided", {"l": 2, "s": 3, "r": 14}, seed=0)
        d = inst.graph
        cover = sorted(set(inst.cut.L))
        low = set(identify_vlow(d, cover))
        r_set = set(inst.cut.R)
        sym_diff_weight = d.weight_of(low ^ r_set)
        import math

        logn = max(1, math.ceil(math.log2(d.n)))
        assert sym_diff_weight <= 8 * d.weight_of(inst.cut.L) * logn

    def test_exact_near_the_weight_limit(self):
        """The 0.9 split is exact where a float product rounds: with
        weights near 2^59, vertex 2 gets 9k + 1 of C = {0, 1}'s 10k + 1,
        just over 0.9, so it is not low (the float test would keep it)."""
        for k in (2**56 + 7, 2**56 + 20, 163_555_071_989_122_842):
            d = WeightedDigraph.from_arcs(3, [(0, 2), (1, 0), (2, 1)], [9 * k + 1, k, 1])
            covered, wc = [k, 0, 9 * k + 1], 10 * k + 1
            assert covered[2] <= 0.9 * wc
            want = [v for v in range(3) if covered[v] <= Fraction(9, 10) * wc]
            assert identify_vlow(d, [0, 1]) == want == [0, 1]


class TestLopsidedPairs:
    def test_single_bucket_when_unit_weights(self):
        d = WeightedDigraph.from_arcs(5, [(i, (i + 1) % 5) for i in range(5)], [1] * 5)
        fam = lopsided_pairs(d, [0, 1], [2, 3, 4], 1, 4)
        assert len(fam) >= 1
        assert all(u in (0, 1) and v in (2, 3, 4) for u, v in fam)

    def test_planted_crossing(self):
        inst = generate_planted("lopsided", {"l": 2, "s": 3, "r": 12}, seed=1)
        d = inst.graph
        low = identify_vlow(d, inst.cut.L)
        r_low = set(low) & set(inst.cut.R)
        assert r_low
        total = d.weight_of(range(d.n))
        crossed = False
        ell = d.weight_of(inst.cut.L)
        r = 1
        while r <= total:
            fam = lopsided_pairs(d, inst.cut.L, low, ell, r)
            if any(u in set(inst.cut.L) and v in r_low for u, v in fam):
                crossed = True
            r *= 2
        assert crossed

    def test_degenerate_formula_falls_back_complete(self):
        d = random_digraph(8, 0.4, 4, 0)
        cluster = [0, 1, 2]
        low = [v for v in range(8) if v not in cluster]
        fam = lopsided_pairs(d, cluster, low, 1, 1)
        # r formula is deeply negative at this size: complete fallback.
        expect = {(u, v) for u in cluster for v in low if u != v}
        assert expect <= set(fam.pairs)


class TestLopsidedPairsOverGuesses:
    def _cases(self):
        for seed in range(6):
            d = random_digraph(14, 0.3, (4, 64)[seed % 2], seed)
            if seed >= 4:
                # One heavy weight bucket: the clamped r_ij then takes
                # several values over the guesses.
                d = WeightedDigraph(16, random_digraph(16, 0.3, 1, seed).out_adj, [64] * 16)
            rng = random.Random(seed)
            cluster = sorted(rng.sample(range(d.n), 5))
            low = identify_vlow(d, cluster) or [v for v in range(d.n) if v not in cluster]
            yield d, cluster, low

    def test_union_of_per_guess_pairs(self):
        for d, cluster, low in self._cases():
            guesses = _powers_up_to(d.weight_of(range(d.n)))
            for ell in (1, 4, 32):
                union = set()
                for r in guesses:
                    union |= set(lopsided_pairs(d, cluster, low, ell, r).pairs)
                assert set(lopsided_pairs(d, cluster, low, ell, guesses).pairs) == union

    def test_union_distinct_and_sorted(self):
        for d, cluster, low in self._cases():
            guesses = _powers_up_to(d.weight_of(range(d.n)))
            for ell in (1, 4, 32):
                for r in (guesses, guesses[0], guesses[-1]):
                    pairs = lopsided_pairs(d, cluster, low, ell, r).pairs
                    assert pairs and list(pairs) == sorted(set(pairs))

    def test_each_family_built_once(self, monkeypatch):
        built = []
        original = weighted.asymmetric_crossing_family

        def counting(a, b, l, r, cfg):
            built.append((tuple(a), tuple(b), l, r))
            return original(a, b, l, r, cfg)

        monkeypatch.setattr(weighted, "asymmetric_crossing_family", counting)
        several = False
        for d, cluster, low in self._cases():
            guesses = _powers_up_to(d.weight_of(range(d.n)))
            for ell in (1, 2):
                built.clear()
                lopsided_pairs(d, cluster, low, ell, guesses)
                assert built and len(set(built)) == len(built)
                once = set(built)
                built.clear()
                for r in guesses:
                    lopsided_pairs(d, cluster, low, ell, r)
                assert set(built) == once and len(built) > len(once)
                several |= len({(a, b) for a, b, _, _ in once}) < len(once)
        assert several  # some bucket pair needed more than one family


class TestPackingCaps:
    """The packing the weighted pair loops hand `maxflow.packing_reaches`
    (d itself, to the instance's ends) packs paths of the instance whose
    capped flow it skips, so it skips exactly when that flow would stop at
    its limit, and the drivers answer as without it."""

    @staticmethod
    def _cases():
        for seed in range(6):
            d = random_digraph(11, (0.3, 0.45)[seed % 2], (1, 8, 64)[seed % 3], seed)
            yield d, random.Random(seed)

    def test_matches_instance_paths(self):
        longer = 0
        for d, rng in self._cases():
            for s, t in itertools.permutations(range(d.n), 2):
                if d.has_arc(s, t):
                    continue
                cluster = frozenset(rng.sample(range(d.n), 4)) | {s}
                part = _ClusterParts(d, cluster)
                h, ids = sparsify_lopsided(d, s, t, cluster)
                assert part.arc_count(s, t) == len(lopsided_arcs(d, s, t, cluster)[1]) == h.m
                cases = [
                    (sparsify_symmetric(d, s, t), list(range(d.n)), d.in_set(t)),
                    (h, ids, part.ends(t)),
                ]
                for inst, ids, ends in cases:
                    pos = {v: i for i, v in enumerate(ids)}
                    a, b = pos[s], pos[t]
                    hop = two_hop_weight(inst, a, b)
                    paths = []
                    packed = weighted_paths(d.out_adj, d.weights, s, ends, None, paths)
                    kappa = vertex_max_flow(
                        inst.n, list(inst.arcs()), list(inst.weights), [a], [b]
                    )[0]
                    assert hop <= packed <= kappa, (s, t, cluster)
                    carried = [0] * inst.n
                    for p, amount in paths:
                        local = [pos[v] for v in p] + [b]
                        assert all(inst.has_arc(x, y) for x, y in zip(local, local[1:])), p
                        for x in local[1:-1]:
                            carried[x] += amount
                        longer += len(p) > 2
                    assert all(c <= w for c, w in zip(carried, inst.weights))
                    for limit in (1, hop, hop + 1, packed, packed + 1, kappa, kappa + 1):
                        stats = Counters()
                        got = packing_reaches(d.out_adj, d.weights, s, ends, limit, stats)
                        # a limit of 0 needs no flow, so it is never a skip
                        assert got == (0 < limit <= packed), (s, t, cluster, limit)
                        assert stats.get("path_skips") == got
        assert longer > 0

    def test_drivers_match_unchecked(self, monkeypatch):
        """The same cuts without the packing, or with the two-hop weight in
        its place; each skip stands in for one flow, and the packing never
        leaves a flow that the two-hop weight would skip."""

        def two_hop_caps(out_adj, weights, s, ends, limit, stats):
            if limit is None or sum(weights[v] for v in out_adj[s] if v in ends) < limit:
                return False
            stats.add("path_skips")
            return True

        digraphs = [random_digraph(12, 0.35, (4, 64)[seed % 2], seed) for seed in range(4)]
        digraphs.append(generate_planted("lopsided", {"l": 2, "s": 3, "r": 10}, seed=0).graph)
        skips = Counters()
        for d in digraphs:
            for branch in (lopsided_vc, symmetric_vc):
                mine, bare, hop = Counters(), Counters(), Counters()
                got = branch(d, stats=mine)
                with monkeypatch.context() as m:
                    m.setattr(weighted, "packing_reaches", lambda *args, **kw: False)
                    assert branch(d, stats=bare) == got
                    m.setattr(weighted, "packing_reaches", two_hop_caps)
                    assert branch(d, stats=hop) == got
                assert mine.get("flow_calls") + mine.get("path_skips") == bare.get("flow_calls")
                assert hop.get("flow_calls") + hop.get("path_skips") == bare.get("flow_calls")
                assert mine.get("flow_calls") <= hop.get("flow_calls")
                assert mine.get("sparsified_edges_lopsided") == bare.get("sparsified_edges_lopsided")
                skips.add(branch.__name__, mine.get("path_skips"))
        assert skips.get("lopsided_vc") > 0 and skips.get("symmetric_vc") > 0


class TestSparsifyLopsided:
    def test_counters_match_built_instances(self, monkeypatch):
        """`lopsided_vc` counts the arcs of every evaluated pair's instance
        from its cluster's parts; each count is that of the instance
        `lopsided_arcs` selects, and only pairs that get a flow have their
        instance selected and built."""
        for seed in range(3):
            d = random_digraph(12, 0.35, (4, 64)[seed % 2], seed)
            counted, selected, built = [], [], []
            real_count = _ClusterParts.arc_count
            real_arcs, real_instance = weighted.lopsided_arcs, weighted._instance

            def count_spy(self, s, t):
                got = real_count(self, s, t)
                counted.append((s, t, self.cluster, got))
                return got

            def arcs_spy(d, s, t, cluster):
                selected.append((s, t))
                return real_arcs(d, s, t, cluster)

            def instance_spy(d, vertices, arcs):
                built.append(len(arcs))
                return real_instance(d, vertices, arcs)

            stats = Counters()
            with monkeypatch.context() as m:
                m.setattr(_ClusterParts, "arc_count", count_spy)
                m.setattr(weighted, "lopsided_arcs", arcs_spy)
                m.setattr(weighted, "_instance", instance_spy)
                lopsided_vc(d, stats=stats)
            want = [len(lopsided_arcs(d, s, t, c)[1]) for s, t, c, _ in counted]
            assert [m for _, _, _, m in counted] == want
            assert any(t in c for _, t, c, _ in counted)
            assert stats.get("sparsified_edges_lopsided") == sum(want)
            assert stats.get("naive_edges_lopsided") == d.m * len(counted)
            assert len(built) == len(selected) == stats.get("flow_calls") < len(counted)

    def test_whole_graph_cluster(self):
        d = random_digraph(8, 0.35, 4, 1)
        s = 0
        h, ids = sparsify_lopsided(d, s, 3, list(range(8)))
        assert ids == list(range(8))
        ns = d.out_set(s)
        expect = {(u, v) for u, v in d.arcs() if not (u in ns and v in ns)}
        expect |= set()
        got = {(ids[a], ids[b]) for a, b in h.arcs()}
        assert expect <= got

    def test_any_separator_is_valid_in_original(self):
        from vcut.maxflow import vertex_max_flow, weighted_paths

        for seed in range(5):
            d = random_digraph(10, 0.3, 5, seed)
            targets = sorted(set(range(10)))
            cluster = targets[:5]
            for s in cluster[:2]:
                for t in targets[6:]:
                    if d.has_arc(s, t) or s == t:
                        continue
                    h, ids = sparsify_lopsided(d, s, t, cluster)
                    pos = {v: i for i, v in enumerate(ids)}
                    value, sep, _, _ = vertex_max_flow(
                        h.n, list(h.arcs()), list(h.weights), [pos[s]], [pos[t]]
                    )
                    separator = {ids[j] for j in sep}
                    reach = set(d.reachable_from(s, removed=frozenset(separator)))
                    assert t not in reach

    def test_requires_s_in_cluster(self):
        d = random_digraph(6, 0.4, 3, 2)
        with pytest.raises(InvariantError):
            sparsify_lopsided(d, 5, 0, [0, 1])

    def test_planted_promise_preserves_value(self):
        inst = generate_planted("lopsided", {"l": 2, "s": 3, "r": 12}, seed=3)
        d = inst.graph
        got_pairs = [
            (s, t)
            for s in inst.cut.L
            for t in inst.cut.R
            if not d.has_arc(s, t)
        ]
        assert got_pairs
        from vcut.maxflow import vertex_max_flow, weighted_paths

        hits = 0
        for s, t in got_pairs:
            h, ids = sparsify_lopsided(d, s, t, inst.cut.L)
            pos = {v: i for i, v in enumerate(ids)}
            value, _, _, _ = vertex_max_flow(
                h.n, list(h.arcs()), list(h.weights), [pos[s]], [pos[t]]
            )
            if value == inst.cut.value:
                hits += 1
        assert hits > 0


class TestSymmetric:
    def test_single_bucket_unit_weights(self):
        d = WeightedDigraph.from_arcs(6, [(i, (i + 1) % 6) for i in range(6)], [1] * 6)
        fam = symmetric_pairs(d, 1)
        assert len(fam) > 0

    def test_union_is_distinct(self):
        for seed, wmax in enumerate((1, 4, 64, 200)):
            d = random_digraph(12 + seed, 0.3, wmax, seed)
            for ell in _powers_up_to(d.weight_of(range(d.n))):
                pairs = symmetric_pairs(d, ell).pairs
                assert pairs and len(set(pairs)) == len(pairs), (seed, ell)

    def test_planted_crossing_pair_exists(self):
        inst = generate_planted("symmetric", {"l": 4, "s": 3, "r": 5}, seed=0)
        d = inst.graph
        lset, rset = set(inst.cut.L), set(inst.cut.R)
        total = d.weight_of(range(d.n))
        ell = 1
        found = False
        while ell <= total:
            fam = symmetric_pairs(d, ell)
            for u, v in fam:
                if (u in lset and v in rset) or (v in lset and u in rset):
                    found = True
            ell *= 2
        assert found

    def test_sparsify_preserves_pair_value(self):
        for seed in range(4):
            d = random_digraph(9, 0.35, 5, seed)
            for s, t in itertools.permutations(range(9), 2):
                if d.has_arc(s, t):
                    continue
                h = sparsify_symmetric(d, s, t)
                ref = brute_pair_kappa(d, s, t)
                got = brute_pair_kappa(h, s, t)
                assert got == ref, (seed, s, t)

    def test_sparsify_noop_when_already_independent(self):
        d = directed_cycle([1, 2, 3, 4])
        h = sparsify_symmetric(d, 0, 2)
        assert h == d


class TestPipelines:
    def test_lopsided_cycle(self):
        cut = lopsided_vc(directed_cycle([3, 1, 4, 2]))
        assert cut.value == 1

    def test_symmetric_cycle(self):
        cut = symmetric_vc(directed_cycle([3, 1, 4, 2]))
        assert cut.value == 1

    def test_planted_lopsided_exact(self):
        inst = generate_planted("lopsided", {"l": 2, "s": 3, "r": 12}, seed=5)
        assert lopsided_vc(inst.graph).value == inst.cut.value

    def test_planted_symmetric_exact(self):
        inst = generate_planted("symmetric", {"l": 4, "s": 3, "r": 5}, seed=2)
        assert symmetric_vc(inst.graph).value == inst.cut.value


class TestDriver:
    def test_weighted_cycle(self):
        cut = vertex_connectivity_weighted(directed_cycle([3, 1, 4]))
        assert cut.value == 1

    def test_not_strongly_connected(self):
        d = WeightedDigraph.from_arcs(3, [(0, 1), (1, 2)], [1, 1, 1])
        cut = vertex_connectivity_weighted(d)
        assert cut.value == 0 and cut.S == ()

    def test_complete_digraph(self):
        got = vertex_connectivity_weighted(complete_digraph([2, 1, 3]))
        assert isinstance(got, NoCut) and got.value is None

    def test_matches_oracle_random(self):
        rng = random.Random(1)
        for seed in range(15):
            n = rng.randrange(5, 13)
            p = rng.choice([0.25, 0.35, 0.5])
            w = rng.choice([1, 4, 8])
            d = random_digraph(n, p, w, seed)
            got = vertex_connectivity_weighted(d)
            want = brute_kappa(d)
            if isinstance(want, tuple):
                assert got.value == want[0], (n, p, w, seed)
                assert validate_cut(d, got)
            else:
                assert isinstance(got, NoCut)

    def test_instrumentation_counters(self):
        d = random_digraph(10, 0.3, 6, 7)
        stats = Counters()
        vertex_connectivity_weighted(d, stats=stats)
        assert stats.get("sparsified_instances") > 0
        assert stats.get("sparsified_edges") <= stats.get("naive_edges")


BACKENDS = ("python_backend", "compiled_backend")
# The helpers whose calls the settled loops save, where the pair loops and
# the clustering look them up.
COUNTED = ((weighted, "lopsided_pairs"), (weighted, "symmetric_pairs"), (cnc, "weighted_symdiff"))


def _counting(monkeypatch, calls):
    """Count the calls of the COUNTED helpers into the Counter `calls`."""
    for module, name in COUNTED:
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)


def _run(monkeypatch, d, branches):
    """Both `branches` (lopsided, symmetric) on d and on its reverse
    (`conftest.four_call_weighted`): (cut, counters, events, helper calls)."""
    calls, stats = Counter(), Counters()
    with monkeypatch.context() as m:
        _counting(m, calls)
        cut = four_call_weighted(d, stats=stats, branches=branches)
    return cut, stats.as_dict(), stats.events, calls


class TestSettledWork:
    """`lopsided_vc` skips the clusters it has covered and shares one
    distance table over its guesses, and `symmetric_vc` stops once every
    pair is evaluated.  The former loops (`conftest.every_guess_lopsided`,
    `every_guess_symmetric`) give the same cuts, counters and events, with
    no more calls of the helpers on any digraph and fewer on some."""

    NEW = (lopsided_vc, symmetric_vc)
    OLD = (every_guess_lopsided, every_guess_symmetric)

    @staticmethod
    def _cases():
        for n in range(5, 31):
            for wmax in (1, 4, 64):
                yield random_digraph(n, 0.3, wmax, n)
        # One heavy weight bucket: many guesses over the same clusters.
        yield WeightedDigraph(14, random_digraph(14, 0.3, 1, 2).out_adj, [2**40] * 14)
        yield generate_planted("lopsided", {"l": 2, "s": 3, "r": 10, "W": 8}, seed=3).graph
        yield generate_planted("symmetric", {"l": 3, "s": 3, "r": 8, "W": 8}, seed=3).graph

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_same_as_every_guess(self, backend, request, monkeypatch):
        request.getfixturevalue(backend)
        fewer = Counter()
        for d in self._cases():
            cut, data, events, calls = _run(monkeypatch, d, self.NEW)
            old_cut, old_data, old_events, old_calls = _run(monkeypatch, d, self.OLD)
            # VertexCut equality compares value, L, S and R
            assert (cut, data, events) == (old_cut, old_data, old_events), d.n
            for _, name in COUNTED:
                assert calls[name] <= old_calls[name], (d.n, name)
                fewer[name] += calls[name] < old_calls[name]
        assert all(fewer[name] > 0 for _, name in COUNTED), fewer

    def test_uncovered_cluster_is_visited_again(self, monkeypatch):
        """With a pair (max A, max B) left out of every crossing family built
        at the first guess, no cluster with a low set is covered there: the
        later guesses must bucket it again and reach the old answer."""
        real_pairs = weighted.lopsided_pairs
        real_family = weighted.asymmetric_crossing_family
        state = {"ell": None, "cluster": None}
        dropped, visits = set(), []

        def lopsided_pairs(d, cluster, v_low, ell, r, cfg=weighted.DEFAULT):
            state["ell"], state["cluster"] = ell, frozenset(cluster)
            visits.append((ell, state["cluster"]))
            return real_pairs(d, cluster, v_low, ell, r, cfg)

        def family(a, b, l, r, cfg):
            fam = real_family(a, b, l, r, cfg)
            if state["ell"] != 1:
                return fam
            drop = (max(a), max(b))
            dropped.add(state["cluster"])
            return PairFamily([p for p in fam.pairs if p != drop], fam.degree_bound, fam.method)

        monkeypatch.setattr(weighted, "lopsided_pairs", lopsided_pairs)
        monkeypatch.setattr(weighted, "asymmetric_crossing_family", family)
        again = 0
        for seed in range(3):
            d = random_digraph(12, 0.3, 64, seed)
            for variant in (d, d.reverse()):
                dropped.clear()
                visits.clear()
                mine = Counters()
                got = lopsided_vc(variant, stats=mine)
                later = {c for ell, c in visits if ell > 1}
                again += len(dropped & later)
                ref = Counters()
                assert every_guess_lopsided(variant, stats=ref) == got
                assert (mine.as_dict(), mine.events) == (ref.as_dict(), ref.events)
        assert again > 0


def _gate_cases():
    """Seeded random digraphs and planted lopsided and symmetric ones."""
    rng = random.Random(22)
    for seed in range(24):
        n = rng.randrange(5, 19)
        yield random_digraph(n, rng.choice([0.25, 0.35, 0.5]), rng.choice([1, 4, 64]), 900 + seed)
    for seed in range(3):
        yield generate_planted("lopsided", {"l": 2, "s": 3, "r": 10, "W": 8}, seed).graph
        yield generate_planted("symmetric", {"l": 3, "s": 3, "r": 8, "W": 8}, seed).graph


def _spied_driver(monkeypatch, d):
    """The driver on d, watched: (cut, log), one log entry per orientation
    [variant, symmetric search's cut, complete, whether lopsided_vc ran]."""
    log = []
    search, lopsided = weighted._symmetric_search, weighted.lopsided_vc

    def spy_search(variant, cfg=weighted.DEFAULT, stats=None):
        got, complete = search(variant, cfg, stats)
        log.append([variant, got, complete, False])
        return got, complete

    def spy_lopsided(variant, cfg=weighted.DEFAULT, stats=None):
        assert log[-1][0] is variant and not log[-1][3]
        log[-1][3] = True
        return lopsided(variant, cfg, stats)

    with monkeypatch.context() as m:
        m.setattr(weighted, "_symmetric_search", spy_search)
        m.setattr(weighted, "lopsided_vc", spy_lopsided)
        cut = vertex_connectivity_weighted(d)
    return cut, log


class TestLopsidedGate:
    """The driver runs `lopsided_vc` on an orientation exactly when the
    symmetric search there was incomplete or went below its baseline
    (`min_out_neighborhood_cut`), and returns the cut of the former
    driver, which ran both branches on both orientations."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_skipped_exactly_where_settled(self, backend, request, monkeypatch):
        request.getfixturevalue(backend)
        seen = Counter()
        for d in _gate_cases():
            cut, log = _spied_driver(monkeypatch, d)
            assert cut == four_call_weighted(d), d.n
            assert len(log) == 2
            for variant, got, complete, ran in log:
                assert complete  # the families are complete at these sizes
                baseline = min_out_neighborhood_cut(variant)
                below = got.value < baseline.value
                assert below or got == baseline
                assert ran == below, (d.n, got, baseline)
                seen["ran" if ran else "skipped"] += 1
        assert seen["ran"] > 0 and seen["skipped"] > 0, seen

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runs_after_an_incomplete_search(self, backend, request, monkeypatch):
        """With a pair {a, b}, neither an arc, left out of every symmetric
        family, both orientations' searches are incomplete, and
        `lopsided_vc` runs on both, also where the complete search returned
        the baseline and it was skipped."""
        request.getfixturevalue(backend)
        real = weighted.symmetric_pairs
        drop = set()

        def symmetric_pairs(d, ell, cfg=weighted.DEFAULT):
            fam = real(d, ell, cfg)
            return PairFamily([p for p in fam if set(p) != drop], fam.degree_bound, fam.method)

        settled = 0
        for d in _gate_cases():
            pair = next((
                (a, b) for a, b in itertools.combinations(range(d.n), 2)
                if not d.has_arc(a, b) and not d.has_arc(b, a)
            ), None)
            if pair is None:
                continue
            _, log = _spied_driver(monkeypatch, d)
            settled += sum(not ran for *_, ran in log)
            drop.clear()
            drop.update(pair)
            with monkeypatch.context() as m:
                m.setattr(weighted, "symmetric_pairs", symmetric_pairs)
                cut, log = _spied_driver(monkeypatch, d)
            assert [(complete, ran) for _, _, complete, ran in log] == [(False, True)] * 2
            assert cut.value == four_call_weighted(d).value
        assert settled > 0
