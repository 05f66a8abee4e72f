import itertools
import json
import random
import subprocess
import sys

import pytest

from conftest import (
    all_pairs_probe,
    assert_matches_reference,
    bare_min_st_cut,
    bypass_network,
    complete,
    cycle,
    former_even_sweep,
    path,
    petersen,
    separator_first,
    star,
    two_hop_weight,
    unit_paths,
)
from vcut import _pyflow, maxflow
from vcut.errors import InvariantError
from vcut.graphs import (
    Graph,
    NoCut,
    NoSeparator,
    VertexCut,
    WeightedDigraph,
    min_degree_cut,
    validate_cut,
)
from vcut.instrument import Counters
from vcut.maxflow import (
    BACKEND,
    _certificate_pairs,
    _graph_flow,
    _ledger,
    connectivity_at_least,
    even_sweep,
    kappa_at_least,
    min_s_to_set_separator,
    min_st_cut,
    min_st_separator,
    packing_reaches,
    rooted_connectivity,
    stored_probe,
    vertex_max_flow,
    weak_separator,
    weighted_paths,
)
from vcut.oracle import (
    brute_kappa,
    brute_pair_kappa,
    brute_s_to_set_kappa,
    random_digraph,
    random_graph,
)


class TestMinStSeparator:
    def test_cycle_antipodal(self):
        value, sep = min_st_separator(cycle(6), 0, 3)
        assert value == 2
        assert sep == (1, 5)

    def test_adjacent_pair(self):
        assert min_st_separator(cycle(6), 0, 1) is NoSeparator

    def test_petersen_nonadjacent(self):
        g = petersen()
        for s, t in itertools.combinations(range(10), 2):
            if g.has_edge(s, t):
                continue
            value, _ = min_st_separator(g, s, t)
            assert value == 3

    def test_same_vertex_rejected(self):
        with pytest.raises(InvariantError):
            min_st_separator(cycle(4), 2, 2)

    def test_agrees_with_oracle_everywhere(self):
        for seed in range(10):
            g = random_graph(16, 0.12 + 0.05 * seed, seed)
            for s, t in itertools.combinations(range(g.n), 2):
                mine = min_st_separator(g, s, t)
                ref = brute_pair_kappa(g, s, t)
                if mine is NoSeparator:
                    assert ref is NoSeparator
                else:
                    assert mine[0] == ref

    def test_cut_reconstruction_validates(self):
        for seed in range(5):
            g = random_graph(14, 0.3, seed)
            for s, t in itertools.combinations(range(g.n), 2):
                res = min_st_cut(g, s, t)
                if res is NoSeparator:
                    continue
                value, cut = res
                assert validate_cut(g, cut)
                assert s in cut.L and t in cut.R
                assert cut.value == value

    def test_deterministic_repeat(self):
        g = random_graph(15, 0.3, 9)
        first = [min_st_separator(g, s, t) for s, t in itertools.combinations(range(15), 2)]
        second = [min_st_separator(g, s, t) for s, t in itertools.combinations(range(15), 2)]
        assert first == second

    def test_capped_query(self):
        g = petersen()
        value, sep = min_st_separator(g, 0, 7, limit=2)
        assert value == 2 and sep is None
        value, sep = min_st_separator(g, 0, 7, limit=9)
        assert value == 3 and sep is not None


class TestNonPositiveLimit:
    """A limit <= 0 is reached before any flow: every entry point returns
    its capped answer and counts neither a flow nor a path skip."""

    @pytest.mark.parametrize("limit", [0, -2])
    def test_every_entry_point_is_capped(self, limit):
        g = path(3)
        stats = Counters()
        assert min_st_cut(g, 0, 2, limit=limit, stats=stats) == (limit, None)
        assert min_st_separator(g, 0, 2, limit=limit, stats=stats) == (limit, None)
        assert min_s_to_set_separator(g, 0, [2], limit=limit, stats=stats) == (limit, None)
        capped = (limit, None, None, False)
        assert _graph_flow(g, [0], [2], limit=limit, stats=stats) == capped
        assert _graph_flow(g, [0, 1], [2], limit=limit, stats=stats) == capped
        assert vertex_max_flow(3, g.flow_arcs(), [1] * 3, [0], [2], limit=limit, stats=stats) == capped
        assert stats.get("flow_calls") == 0 and stats.get("flow_edges") == 0
        assert stats.get("path_skips") == 0

    def test_disconnected_pair(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        assert min_st_cut(g, 0, 3, limit=0) == (0, None)
        value, cut = min_st_cut(g, 0, 3, limit=1)
        assert value == 0 and validate_cut(g, cut)


class TestMinSToSet:
    def test_singleton_matches_pair(self):
        g = path(3)
        assert min_s_to_set_separator(g, 0, [2]) == min_st_separator(g, 0, 2)

    def test_star_center_adjacent(self):
        assert min_s_to_set_separator(star(4), 0, [1, 2]) is NoSeparator

    def test_simultaneous_semantics_vs_oracle(self):
        rng = random.Random(2)
        for seed in range(8):
            g = random_graph(13, 0.25, seed)
            for _ in range(10):
                s = rng.randrange(13)
                rest = [v for v in range(13) if v != s]
                terms = rng.sample(rest, rng.randrange(1, 4))
                mine = min_s_to_set_separator(g, s, terms)
                ref = brute_s_to_set_kappa(g, s, terms)
                if mine is NoSeparator:
                    assert ref is NoSeparator
                else:
                    assert mine[0] == ref


class TestRootedConnectivity:
    def test_star_leaf(self):
        value, cut = rooted_connectivity(star(4), 1)
        assert value == 1 and cut.S == (0,)

    def test_k5_minus_edge(self):
        g = Graph.from_edges(5, [e for e in itertools.combinations(range(5), 2) if e != (0, 1)])
        value, cut = rooted_connectivity(g, 0)
        assert value == 3
        assert 0 in cut.L and 1 in cut.R

    def test_dominating_vertex(self):
        assert isinstance(rooted_connectivity(star(4), 0), NoCut)

    def test_matches_min_over_targets(self):
        for seed in range(6):
            g = random_graph(12, 0.3, seed)
            for a in range(12):
                targets = [t for t in range(12) if t != a and not g.has_edge(a, t)]
                if not targets:
                    continue
                value, cut = rooted_connectivity(g, a)
                ref = min(brute_pair_kappa(g, a, t) for t in targets)
                assert value == ref
                assert validate_cut(g, cut) and a in cut.L


def hubs_between_cliques(hubs, k, links):
    """Two K_k's joined only through vertices 0..hubs-1, each adjacent to
    the first `links` vertices of both cliques: kappa = hubs when links >
    hubs, and with 2 * links < k the hubs have the minimum degree."""
    cliques = [range(hubs + i * k, hubs + (i + 1) * k) for i in (0, 1)]
    edges = [e for c in cliques for e in itertools.combinations(c, 2)]
    edges += [(h, c[j]) for h in range(hubs) for c in cliques for j in range(links)]
    return Graph.from_edges(hubs + 2 * k, edges)


def fresh(g):
    """A copy of g with no pair ledger or network yet."""
    return Graph(g.n, g.adj)


class TestConnectivityCertificate:
    """`connectivity_at_least` over the Esfahanian-Hakimi pair set."""

    def _graphs(self):
        rng = random.Random(28)
        for seed in range(40):
            n = rng.randrange(2, 15)
            yield random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), seed)
        for seed in range(10):
            yield random_graph(4 + seed, 0.2, seed, connected=False)
        for n in (1, 2, 5, 8):
            yield complete(n)
        for kappa, side in ((1, 2), (3, 2), (2, 4)):
            yield separator_first(kappa, side)
        # Vertex 0 has minimum degree and lies in the only minimum
        # separator, so only a pair inside N(0) is separated by it.
        for hubs, k, links in ((1, 5, 2), (1, 7, 3), (2, 7, 3)):
            yield hubs_between_cliques(hubs, k, links)
        yield Graph.from_edges(9, [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7)])

    @staticmethod
    def _kappa(g):
        got = brute_kappa(g)
        return None if isinstance(got, NoCut) else got[0]

    def test_pair_set_is_complete(self):
        for g in self._graphs():
            pairs = _certificate_pairs(g)
            assert pairs == sorted(set(pairs))
            assert all(a < b and not g.has_edge(a, b) for a, b in pairs)
            kappa = self._kappa(g)
            if kappa is None:
                assert pairs == [], g
            else:
                assert min(brute_pair_kappa(g, a, b) for a, b in pairs) == kappa, g

    def test_sound_at_every_limit(self):
        held = 0
        for g in self._graphs():
            kappa = self._kappa(g)
            for limit in range(g.n + 1):
                stats = Counters()
                if connectivity_at_least(fresh(g), limit, stats):
                    held += 1
                    assert kappa is None or kappa >= limit, (g, limit)
                assert stats.get("flow_calls") == 0
            assert not connectivity_at_least(fresh(g), None)
        assert held > 0

    def test_holds_at_kappa_on_a_cycle(self):
        # kappa(C_8) = 2: two paths around the cycle reach every pair.
        assert connectivity_at_least(cycle(8), 2)
        assert not connectivity_at_least(cycle(8), 3)


class TestEvenSweep:
    """Even's sweep returns exactly what probing every pair returns, with
    no more flows."""

    def _graphs(self):
        yield Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        yield separator_first(3, 3)
        for seed in range(12):
            n = 8 + seed
            yield random_graph(n, (0.2, 0.35, 0.5, 0.7)[seed % 4], seed)

    def test_matches_all_pairs_reference(self):
        for g in self._graphs():
            kappa = all_pairs_probe(g).value
            for cap in (None, 0, 1, max(kappa, 1), kappa + 1):
                for start in (None, min_degree_cut(g)):
                    mine, ref = Counters(), Counters()
                    got = even_sweep(g, start, cap=cap, stats=mine)
                    want = all_pairs_probe(g, start, cap=cap, stats=ref)
                    assert got == want, (g, cap, start)
                    assert mine.get("flow_calls") <= ref.get("flow_calls")
                    if isinstance(got, VertexCut) and got is not start:
                        assert validate_cut(g, got) and got.value == kappa

    def test_matches_former_sweep(self):
        # The certificate only ends the sweep early: the same cut from the
        # same flows, on graphs with no ledger yet.
        for g in self._graphs():
            kappa = all_pairs_probe(g).value
            for cap in (None, 0, 1, max(kappa, 1), kappa + 1):
                for start in (None, min_degree_cut(g)):
                    mine, ref = Counters(), Counters()
                    got = even_sweep(fresh(g), start, cap=cap, stats=mine)
                    want = former_even_sweep(fresh(g), start, cap=cap, stats=ref)
                    assert got == want, (g, cap, start)
                    assert mine.get("flow_calls") == ref.get("flow_calls"), (g, cap, start)

    def test_reaches_first_vertex_outside_separator(self):
        # Sources below kappa dominate the graph; with limit kappa+1 (from
        # `cap` or from the min-degree cut) the sweep must still try v_kappa.
        for kappa in (1, 3, 5):
            g = separator_first(kappa, 2)
            for start in (None, min_degree_cut(g)):
                got = even_sweep(g, start, cap=kappa + 1)
                assert isinstance(got, VertexCut) and got.S == tuple(range(kappa))

    def test_complete_graph_probes_nothing(self):
        g = Graph.from_edges(5, list(itertools.combinations(range(5), 2)))
        stats = Counters()
        assert even_sweep(g, cap=9, stats=stats) is None
        assert stats.get("flow_calls") == 0


class TestWeakSeparator:
    def _brute_weak(self, g, terms):
        """Min |Z| over Z where some surviving terminal is disconnected from
        some surviving non-terminal."""
        tset = set(terms)
        best = None
        for r in range(g.n):
            for z in itertools.combinations(range(g.n), r):
                zs = set(z)
                alive_terms = tset - zs
                if not alive_terms:
                    continue
                reach = set()
                for v in alive_terms:
                    reach |= set(g.component_of(v, removed=frozenset(zs)))
                if set(range(g.n)) - zs - reach:
                    return r, zs
        return best

    def test_cycle_single_vertex(self):
        value, cut = weak_separator(cycle(5), [0])
        assert value == 2
        assert validate_cut(cycle(5), cut)

    def test_single_vertex_is_rooted_connectivity(self):
        for seed in range(4):
            g = random_graph(10, 0.3, seed)
            for v in range(10):
                if g.degree(v) == g.n - 1:
                    continue
                got = weak_separator(g, [v])
                ref = rooted_connectivity(g, v)
                if isinstance(got, NoCut) or isinstance(ref, NoCut):
                    continue
                assert got[0] == ref[0]

    def test_matches_brute_enumeration(self):
        rng = random.Random(5)
        for seed in range(6):
            g = random_graph(9, 0.35, seed)
            terms = sorted(rng.sample(range(9), rng.randrange(1, 4)))
            got = weak_separator(g, terms)
            ref = self._brute_weak(g, terms)
            if isinstance(got, NoCut):
                assert ref is None
            else:
                assert ref is not None and got[0] == ref[0]
                assert validate_cut(g, got[1])

    def test_separator_may_contain_terminals(self):
        # Two triangles joined through vertex 2; separating {2} cuts at 2's
        # neighbors, but a terminal pair across the joint may be absorbed.
        g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        value, cut = weak_separator(g, [0, 2])
        assert validate_cut(g, cut)


class TestBackendTwins:
    """The compiled core answers every solve as `_pyflow` does, and rejects a
    malformed network by raising instead of writing out of bounds."""

    @staticmethod
    def _networks():
        """Bypass-arc networks of single pairs and of terminal sets."""
        rng = random.Random(0)
        graphs = [random_graph(12, 0.35, seed) for seed in range(6)]
        graphs += [random_digraph(9, 0.35, 5, seed) for seed in range(3)]
        for g in graphs:
            adjacent = g.has_edge if isinstance(g, Graph) else g.has_arc
            for size in (2, 2, 4, 5):
                picked = rng.sample(range(g.n), size)
                cut = rng.randrange(1, size)
                sources, sinks = picked[:cut], picked[cut:]
                if not any(adjacent(s, t) for s in sources for t in sinks):
                    yield bypass_network(g, sources, sinks)

    def test_pure_python_twin_agrees(self, compiled_core):
        """At every limit from 0 to one past the max flow, and with none, on
        list and on tuple networks: the capped limits take the early stop."""
        stops = 0
        for num, tails, heads, caps, s, t in self._networks():
            value = _pyflow.solve(num, tails, heads, caps, s, t, None)[0]
            for seq in (list, tuple):
                net = (num, seq(tails), seq(heads), seq(caps), s, t)
                for limit in [None, *range(value + 2)]:
                    got = compiled_core.solve(*net, limit)
                    assert got == _pyflow.solve(*net, limit), (net[4:], limit)
                    stops += not got[2]
        assert stops > 0
        assert compiled_core.BACKEND_NAME == "c"

    # Loads a flow backend from the file argv[1] and prints, for each
    # network of the JSON list on stdin, what solve(*net, None) raised.
    _SOLVE_EACH = """
import importlib.machinery, importlib.util, json, sys
path = sys.argv[1]
if path.endswith(".py"):
    loader = importlib.machinery.SourceFileLoader("vcut._pyflow", path)
else:
    loader = importlib.machinery.ExtensionFileLoader("vcut._core", path)
spec = importlib.util.spec_from_file_location(loader.name, path, loader=loader)
backend = importlib.util.module_from_spec(spec)
spec.loader.exec_module(backend)
out = []
for net in json.load(sys.stdin):
    try:
        backend.solve(*net, None)
        out.append("returned")
    except Exception as exc:
        out.append(type(exc).__name__)
print(json.dumps(out))
"""

    def _check_rejects(self, backend):
        """Every malformed network raises ValueError.  The solves run in a
        child interpreter, so one that never returns fails the test after
        a minute instead of stalling the suite."""
        num, tails, heads, caps, s, t = bypass_network(petersen(), [0], [7])
        bad = [
            (num, tails, heads, caps, s, num),  # terminal outside [0, num)
            (num, tails, heads, caps, -1, t),
            (num, tails, heads, caps, s, s),
            (num, tails[:-1] + [400000], heads, caps, s, t),  # arc end outside
            (num, tails, heads[:-1] + [-1], caps, s, t),
            (num, tails[:-1], heads, caps, s, t),  # lengths differ
            (num, tails, heads, caps[:-1], s, t),
            (num, tails, heads, caps[:-1] + [-1], s, t),  # negative capacity
            (0, [], [], [], 0, 0),
            (3, [0, 1], [1, -1], [1, 1], 0, 2),  # a negative arc end
            (3, [0, 1], [1, 2], [1, 1], 0, -1),  # a negative sink
        ]
        done = subprocess.run(
            [sys.executable, "-c", self._SOLVE_EACH, backend.__file__],
            input=json.dumps(bad), capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        assert json.loads(done.stdout) == ["ValueError"] * len(bad)

    def test_pure_python_rejects_malformed_networks(self):
        self._check_rejects(_pyflow)

    def test_compiled_rejects_malformed_networks(self, compiled_core):
        self._check_rejects(compiled_core)
        num, tails, heads, caps, s, t = bypass_network(petersen(), [0], [7])
        with pytest.raises(OverflowError):  # a capacity past 2^63 - 1
            compiled_core.solve(num, tails, heads, caps[:-1] + [2**63], s, t, None)
        # Two arcs of 2^62 into t: the flow value passes 2^63 - 1.
        with pytest.raises(OverflowError):
            compiled_core.solve(3, [0, 0, 1], [1, 2, 2], [2**62] * 3, 0, 2, None)

    def test_backend_reported(self):
        assert BACKEND in ("c", "python")


class TestVertexMaxFlow:
    def test_duality_asserted(self):
        g = petersen()
        arcs = g.flow_arcs()
        value, sep, reach, completed = vertex_max_flow(
            g.n, arcs, [1] * g.n, [0], [7]
        )
        assert completed and value == len(sep) == 3

    def test_uncuttable_vertices(self):
        g = path(5)
        arcs = g.flow_arcs()
        caps = [1, None, 1, 1, 1]
        value, sep, _, _ = vertex_max_flow(g.n, arcs, caps, [0], [4])
        assert sep in ([2], [3])
        assert value == 1

    def test_overlapping_terminals_rejected(self):
        with pytest.raises(InvariantError):
            vertex_max_flow(3, [(0, 1), (1, 2)], [1] * 3, [1], [1])

    @staticmethod
    def _check_rejects_bad_input():
        """Arc ends and terminals outside [0, n), capacities below 1, and
        n * max(caps) >= 2^62 are refused before any network is built."""
        bad = [
            (3, [(0, 1), (1, 400000)], [1, 1, 1], [0], [2]),
            (3, [(0, 1), (1, -1)], [1, 1, 1], [0], [2]),
            (3, [(0, 1), (1, 2)], [1, 1, 1], [0], [3]),
            (3, [(0, 1), (1, 2)], [1, 1, 1], [-1], [2]),
            (3, [(0, 1), (1, 2)], [1, 1], [0], [2]),
            (3, [(0, 1), (1, 2)], [1, 0, 1], [0], [2]),
            (3, [(0, 1), (1, 2)], [1, -2, 1], [0], [2]),
            (3, [(0, 1), (1, 2)], [1, 2**62 // 3 + 1, 1], [0], [2]),
        ]
        for args in bad:
            with pytest.raises(InvariantError):
                vertex_max_flow(*args)
        w = 2**62 // 3  # the largest capacity that 3 * w < 2^62 allows
        assert vertex_max_flow(3, [(0, 1), (1, 2)], [1, w, 1], [0], [2])[0] == w

    def test_rejects_bad_input(self, python_backend):
        self._check_rejects_bad_input()

    def test_rejects_bad_input_compiled(self, compiled_backend):
        self._check_rejects_bad_input()

    @staticmethod
    def _check_no_finite_separator():
        """Terminals joined by an arc and by two uncuttable vertices: three
        paths of capacity inf = 2^62 - 3, whose sum passes 2^63."""
        w = 2**60 - 1
        args = (4, [(0, 3), (0, 1), (1, 3), (0, 2), (2, 3)], [w, None, None, w], [0], [3])
        with pytest.raises(InvariantError, match="no finite separator"):
            vertex_max_flow(*args)
        for limit in (1, 2**62 - 3, 2**63):
            assert vertex_max_flow(*args, limit=limit) == (limit, None, None, False)

    def test_no_finite_separator(self, python_backend):
        self._check_no_finite_separator()

    def test_no_finite_separator_compiled(self, compiled_backend):
        self._check_no_finite_separator()


class TestGraphFlowFastPath:
    """Every whole-graph flow answers and counts exactly like the bypass-arc
    network built by hand (`bypass_network`) and solved by the pure-Python
    twin: single pairs (solved from s_out to t_in), terminal sets (solved on
    a copy with bypass arcs), and the uncuttable terminals of the isocut
    bit-partition flows, on both backends."""

    @staticmethod
    def _graphs():
        yield Graph.from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (4, 7)])
        for seed in range(3):
            yield random_graph(11, 0.2 + 0.1 * seed, seed)
        for seed in range(3):
            yield random_digraph(9, 0.35, 5, seed)

    @staticmethod
    def _reference(g, sources, sinks, limit, caps):
        """(value, separator, reach, completed) and counters of one flow."""
        net = bypass_network(g, sources, sinks, caps)
        counted = {"flow_calls": 1, "flow_edges": len(net[1])}
        value, reach, completed = _pyflow.solve(*net, limit)
        if not completed:
            return (limit, None, None, False), counted
        sep = [v for v in range(g.n) if reach[2 * v] and not reach[2 * v + 1]]
        return (value, sep, [bool(reach[2 * v + 1]) for v in range(g.n)], True), counted

    def _check(self, g, sources, sinks, caps=None):
        """`_graph_flow` on g and `vertex_max_flow` with `caps` (default:
        g's own) match the reference with `caps` at the positive limits
        around the max flow (a limit <= 0 needs no flow, see
        `TestNonPositiveLimit`)."""
        arcs = g.flow_arcs() if isinstance(g, Graph) else list(g.arcs())
        own = [1] * g.n if isinstance(g, Graph) else list(g.weights)
        value = self._reference(g, sources, sinks, None, caps)[0][0]
        for limit in sorted({1, value, value + 1} - {0}) + [None]:
            want, counted = self._reference(g, sources, sinks, limit, caps)
            fast, slow = Counters(), Counters()
            got = _graph_flow(g, sources, sinks, limit=limit, stats=fast)
            assert got == want, (sources, sinks, limit)
            got = vertex_max_flow(g.n, arcs, caps or own, sources, sinks, limit=limit, stats=slow)
            assert got == want, (sources, sinks, limit)
            assert fast.data == slow.data == counted

    def _check_all(self):
        rng = random.Random(3)
        multi = bit_flows = 0
        for g in self._graphs():
            adjacent = g.has_edge if isinstance(g, Graph) else g.has_arc
            for s, t in itertools.permutations(range(g.n), 2):
                if not adjacent(s, t):
                    self._check(g, [s], [t])
            for _ in range(12):
                picked = rng.sample(range(g.n), rng.randrange(3, 6))
                cut = rng.randrange(1, len(picked))
                sources, sinks = sorted(picked[:cut]), sorted(picked[cut:])
                if not any(adjacent(s, t) for s in sources for t in sinks):
                    self._check(g, sources, sinks)
                    multi += 1
            if isinstance(g, Graph):
                # An independent terminal set, uncuttable, split by each bit
                # of its index as in `isocut.isolating_vertex_cuts`.
                terms = []
                for v in rng.sample(range(g.n), g.n):
                    if not any(g.has_edge(v, u) for u in terms):
                        terms.append(v)
                terms.sort()
                caps = [None if v in terms else 1 for v in range(g.n)]
                for bit in range(max(1, (len(terms) - 1).bit_length())):
                    a_side = [v for i, v in enumerate(terms) if not (i >> bit) & 1]
                    b_side = [v for i, v in enumerate(terms) if (i >> bit) & 1]
                    if a_side and b_side:
                        self._check(g, a_side, b_side, caps)
                        bit_flows += 1
        assert multi > 0 and bit_flows > 0

    def test_matches_bypass_arc_network(self, python_backend):
        self._check_all()

    def test_matches_bypass_arc_network_compiled(self, compiled_backend):
        self._check_all()

    def test_repeated_flows_reuse_one_network(self, monkeypatch):
        built = []

        def counting(*args):
            built.append(split(*args))
            return built[-1]

        split = maxflow._split_network
        monkeypatch.setattr(maxflow, "_split_network", counting)
        for g in self._graphs():
            built.clear()
            adjacent = g.has_edge if isinstance(g, Graph) else g.has_arc
            sinks = [t for t in range(1, g.n) if not adjacent(0, t)]
            for t in sinks:
                min_st_cut(g, 0, t)
                min_st_separator(g, 0, t, limit=1)
            _graph_flow(g, [0], sinks)
            if isinstance(g, Graph):
                min_s_to_set_separator(g, 0, sinks)
                rooted_connectivity(g, 0)
            assert len(built) == 1 and g._network is built[0]


class TestDisjointPaths:
    """On an undirected graph the package packs with `weighted_paths` at unit
    weights, to the sinks' neighbours (`unit_paths`).  That packing is the
    greedy packing of internally vertex-disjoint paths (the reference
    `disjoint_paths`: same count, same paths less the final sink), so its
    count lies between the two-hop paths and kappa(s,t)."""

    def _cases(self):
        for seed in range(6):
            yield random_graph(13, (0.15, 0.25, 0.35, 0.5, 0.65, 0.8)[seed], seed)
        yield petersen()
        yield cycle(9)
        yield separator_first(3, 4)

    def test_paths_are_disjoint_and_bounded(self):
        longer = 0
        for g in self._cases():
            for s, t in itertools.permutations(range(g.n), 2):
                if g.has_edge(s, t):
                    continue
                kappa = brute_pair_kappa(g, s, t)
                hop = two_hop_weight(g, s, t)
                full = unit_paths(g.adj, g.n, s, (t,), None)
                for limit in (None, 0, 1, 2, hop, hop + 1, kappa, kappa + 1):
                    paths = assert_matches_reference(g.adj, g.n, s, (t,), limit)
                    count = len(paths)
                    assert count <= kappa
                    cap = kappa if limit is None else limit
                    assert count <= cap
                    assert count >= min(hop, cap)
                    inner = [v for p in paths for v in p[1:-1]]
                    assert len(inner) == len(set(inner)), (s, t, paths)
                    assert s not in inner and t not in inner
                    for p in paths:
                        assert p[0] == s and p[-1] == t
                        assert all(g.has_edge(a, b) for a, b in zip(p, p[1:]))
                    longer += sum(len(p) > 3 for p in paths)
                    assert count == (full if limit is None else min(full, max(limit, 0)))
        assert longer > 0

    def test_sink_sets_match_reference(self):
        """Toward a sink set of up to four vertices, as the isocut pair
        flows pack, the unit-capacity packing matches the reference too."""
        rng = random.Random(4)
        checked = several = 0
        for g in self._cases():
            for _ in range(40):
                s = rng.randrange(g.n)
                free = [v for v in range(g.n) if v != s and not g.has_edge(s, v)]
                if len(free) < 2:
                    continue
                sinks = tuple(rng.sample(free, rng.randrange(1, min(4, len(free)) + 1)))
                full = unit_paths(g.adj, g.n, s, sinks, None)
                for limit in (None, 1, full, full + 1):
                    assert_matches_reference(g.adj, g.n, s, sinks, limit)
                checked += 1
                several += len(sinks) > 1 and full > 0
        assert checked > 200 and several > 100

    def test_reaches_kappa_on_a_cycle_and_petersen(self):
        for g, kappa in ((cycle(9), 2), (petersen(), 3)):
            for s, t in itertools.combinations(range(g.n), 2):
                if not g.has_edge(s, t):
                    assert unit_paths(g.adj, g.n, s, (t,), None) == kappa

    def test_adjacent_terminals_rejected(self):
        with pytest.raises(InvariantError):
            unit_paths(cycle(5).adj, 5, 0, (1,), 2)


class TestWeightedPaths:
    """The vertex-capacitated packing is a set of real paths from s to the
    ends that no vertex carries more than its weight on, so its total lies
    between the two-hop weight and kappa(s,t)."""

    def _cases(self):
        for seed in range(6):
            yield random_digraph(11, (0.2, 0.3, 0.45)[seed % 3], (1, 8, 64)[seed % 3], seed)

    def test_paths_are_feasible_and_bounded(self):
        longer = 0
        for d in self._cases():
            for s, t in itertools.permutations(range(d.n), 2):
                if d.has_arc(s, t):
                    continue
                kappa = vertex_max_flow(d.n, list(d.arcs()), list(d.weights), [s], [t])[0]
                hop = two_hop_weight(d, s, t)
                ends = d.in_set(t)
                full = weighted_paths(d.out_adj, d.weights, s, ends, None)
                assert hop <= full <= kappa
                for limit in (None, 0, 1, hop, hop + 1, full, full + 1, kappa, kappa + 1):
                    paths = []
                    total = weighted_paths(d.out_adj, d.weights, s, ends, limit, paths)
                    assert total == sum(amount for _, amount in paths)
                    if limit is None:
                        assert total == full
                    else:
                        assert (total >= limit) == (full >= limit) and total <= full
                    carried = [0] * d.n
                    for p, amount in paths:
                        assert amount > 0 and p[0] == s and p[-1] in ends
                        assert all(d.has_arc(a, b) for a, b in zip(p, p[1:]))
                        assert not any(v in ends for v in p[1:-1])
                        assert s not in p[1:] and t not in p
                        for v in p[1:]:
                            carried[v] += amount
                    assert all(c <= w for c, w in zip(carried, d.weights)), (s, t, paths)
                    longer += sum(len(p) > 2 for p, _ in paths)
        assert longer > 0

    def test_source_among_ends_rejected(self):
        d = random_digraph(6, 0.5, 3, 1)
        with pytest.raises(InvariantError):
            weighted_paths(d.out_adj, d.weights, 0, {0, 1}, 2)


class TestPackingMemo:
    """`packing_reaches` with a memo packs once per key.  Under limits that
    never rise it decides and counts skips as a new packing per call does;
    under a rising limit a kept total that stopped at its own limit packs
    again, so each call still decides as a new packing would."""

    def test_memo_decides_as_new_packings(self):
        skips = 0
        for seed in range(4):
            d = random_digraph(10, (0.25, 0.4)[seed % 2], (1, 8)[seed % 2], seed)
            for s, t in itertools.permutations(range(d.n), 2):
                if d.has_arc(s, t):
                    continue
                ends = d.in_set(t)
                full = weighted_paths(d.out_adj, d.weights, s, ends, None)
                memo, mine, fresh = {}, Counters(), Counters()
                for limit in (full + 2, full + 1, full, full, full - 1, 1, 0, None):
                    got = packing_reaches(d.out_adj, d.weights, s, ends, limit, mine, memo, (s, t))
                    want = packing_reaches(d.out_adj, d.weights, s, ends, limit, fresh)
                    assert got == want, (s, t, limit)
                    assert mine.data == fresh.data
                assert list(memo) == [(s, t)] and memo[(s, t)] == (full, full + 2)
                rising = {}
                for limit in range(1, full + 3):
                    got = packing_reaches(d.out_adj, d.weights, s, ends, limit, None, rising, 0)
                    assert got == (full >= limit), (s, t, limit)
                skips += mine.get("path_skips")
        assert skips > 0


def _two_layers():
    """0 - {2, 3} - {4, 5} - 1, each layer joined to the next in full:
    kappa(0, 1) = 2, the 0-closest separator is {2, 3} and the 1-closest
    is {4, 5}."""
    return Graph.from_edges(6, [(0, 2), (0, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 1), (5, 1)])


class TestPairLedger:
    """The answer rule of a graph's pair ledger: every `min_st_cut` answer
    is a bare probe's (`conftest.bare_min_st_cut`), and a stored probe, a
    mirror bound or a kept packing stands in for work only where it
    decides the question."""

    @staticmethod
    def _ask(g, a, b, limit, monkeypatch):
        """(answer, packings, flows) of one `min_st_cut` question."""
        packings = []
        real = maxflow.weighted_paths

        def counted(*args):
            packings.append(args)
            return real(*args)

        stats = Counters()
        with monkeypatch.context() as patch:
            patch.setattr(maxflow, "weighted_paths", counted)
            got = min_st_cut(g, a, b, limit, stats)
        return got, len(packings), stats.get("flow_calls")

    def test_stored_probe_rule(self):
        cut = VertexCut([0], [1, 2], [3], 2)
        assert stored_probe(None, 3) is None
        assert stored_probe((2, cut), None) == (2, cut)
        assert stored_probe((2, cut), 3) == (2, cut)
        assert stored_probe((2, cut), 2) == (2, None)
        assert stored_probe((5, None), 5) == (5, None)
        assert stored_probe((5, None), 4) == (4, None)
        assert stored_probe((5, None), 6) is None
        assert stored_probe((5, None), None) is None

    def test_mirror_bound_answers(self, monkeypatch):
        g = Graph.from_edges(20, [e for e in itertools.combinations(range(20), 2) if e != (0, 1)])
        ledger = _ledger(g)
        assert self._ask(g, 0, 1, 5, monkeypatch) == ((5, None), 1, 0)
        assert ledger.probes == {(0, 1): (5, None)}
        assert self._ask(g, 1, 0, 5, monkeypatch) == ((5, None), 0, 0)
        assert self._ask(g, 1, 0, 3, monkeypatch) == ((3, None), 0, 0)
        assert (1, 0) not in ledger.packs and (1, 0) not in ledger.probes
        assert self._ask(g, 1, 0, 6, monkeypatch) == ((6, None), 1, 0)

    def test_mirror_bound_of_a_digraph_does_not_answer(self, monkeypatch):
        """kappa(s, t) and kappa(t, s) differ on a digraph: 0 -> {2..6} -> 1,
        but only 1 -> 7 -> 0 back."""
        arcs = [(0, v) for v in range(2, 7)] + [(v, 1) for v in range(2, 7)] + [(1, 7), (7, 0)]
        d = WeightedDigraph.from_arcs(8, arcs)
        assert self._ask(d, 0, 1, 5, monkeypatch) == ((5, None), 1, 0)
        assert not kappa_at_least(d, 1, 0, 5)
        (value, cut), _, flows = self._ask(d, 1, 0, 5, monkeypatch)
        assert (value, cut.S, flows) == (1, (7,), 1)
        assert _ledger(d).probes == {(0, 1): (5, None), (1, 0): (1, cut)}

    def test_mirror_cut_does_not_answer(self, monkeypatch):
        g = _two_layers()
        (value, far), _, flows = self._ask(g, 1, 0, None, monkeypatch)
        assert (value, far.S, flows) == (2, (4, 5), 1)
        # The mirror's value decides a capped question ...
        assert self._ask(g, 0, 1, 2, monkeypatch) == ((2, None), 0, 0)
        # ... but its cut is the other closest cut, so this one needs a flow.
        (value, near), _, flows = self._ask(g, 0, 1, 3, monkeypatch)
        assert (value, near.S, flows) == (2, (2, 3), 1)
        h = _two_layers()
        assert near == bare_min_st_cut(h, 0, 1)[1] and far == bare_min_st_cut(h, 1, 0)[1]

    def test_completed_probe_answers_every_limit(self, monkeypatch):
        g = _two_layers()
        got, _, flows = self._ask(g, 0, 1, None, monkeypatch)
        assert flows == 1
        assert self._ask(g, 0, 1, None, monkeypatch) == (got, 0, 0)
        assert self._ask(g, 0, 1, 3, monkeypatch) == (got, 0, 0)
        assert self._ask(g, 0, 1, 2, monkeypatch) == ((2, None), 0, 0)
        assert self._ask(g, 0, 2, 1, monkeypatch) == (NoSeparator, 0, 0)
        assert min_st_separator(g, 0, 1) == (2, (2, 3))

    def test_stopped_packing_packs_again(self, monkeypatch):
        g = Graph.from_edges(20, [e for e in itertools.combinations(range(20), 2) if e != (0, 1)])
        ledger = _ledger(g)
        assert kappa_at_least(g, 0, 1, 2)
        assert ledger.packs == {(0, 1): (2, 2)}
        assert self._ask(g, 0, 1, 6, monkeypatch) == ((6, None), 1, 0)
        assert ledger.packs == {(0, 1): (6, 6)}
        # A packing that ran out of paths below its limit is never redone.
        g = _two_layers()
        assert not kappa_at_least(g, 0, 1, 5)
        assert _ledger(g).packs == {(0, 1): (2, 5)}
        got, packings, flows = self._ask(g, 0, 1, 7, monkeypatch)
        assert (got[0], packings, flows) == (2, 0, 1)

    def test_same_source_and_sink_rejected(self):
        with pytest.raises(InvariantError):
            min_st_cut(cycle(5), 2, 2)
        with pytest.raises(InvariantError):
            min_st_cut(WeightedDigraph.from_arcs(2, [(0, 1)]), 1, 1)

    def test_answers_are_min_st_cut(self):
        """300 random questions on each of 6 graphs and 4 digraphs, each
        asked of the one ledger of its graph, against bare probes on a
        separate copy of the graph."""
        rng = random.Random(3)
        asked = 0
        graphs = [random_graph(14, (0.2, 0.35)[seed % 2], seed) for seed in range(6)]
        graphs += [random_digraph(11, (0.3, 0.45)[seed % 2], 5, seed) for seed in range(4)]
        for g in graphs:
            if isinstance(g, Graph):
                copy = Graph(g.n, g.adj)
            else:
                copy = WeightedDigraph(g.n, g.out_adj, g.weights)
            for _ in range(300):
                a, b = rng.sample(range(g.n), 2)
                limit = rng.choice((None, 1, 2, 3, 4, 5))
                want = bare_min_st_cut(copy, a, b, limit)
                assert min_st_cut(g, a, b, limit) == want, (g, a, b, limit)
                asked += 1
            assert copy._ledger is None
            assert any(cut is not None for _, cut in _ledger(g).probes.values())
        assert asked == 3000


class TestTwoHopCertificate:
    """The path check in min_st_cut, min_st_separator and
    min_s_to_set_separator returns exactly what the capped flow it skips
    would have returned, on both backends."""

    def _cases(self):
        for seed in range(4):
            yield random_graph(12, (0.2, 0.35, 0.5, 0.7)[seed], seed)
        for seed in range(4):
            yield random_digraph(10, (0.3, 0.5)[seed % 2], (1, 6)[seed // 2], seed)

    @staticmethod
    def _unchecked(g, s, t, limit, stats):
        """min_st_cut and min_st_separator answers from a bare flow."""
        value, sep, reach, completed = _graph_flow(g, [s], [t], limit=limit, stats=stats)
        if not completed:
            return (value, None), (value, None)
        left = {v for v in range(g.n) if reach[v]}
        right = set(range(g.n)) - left - set(sep)
        return (value, VertexCut(left, sep, right, value)), (value, tuple(sep))

    @staticmethod
    def _fresh(g):
        """g rebuilt, so that a question meets an empty pair ledger."""
        if isinstance(g, Graph):
            return Graph(g.n, g.adj)
        return WeightedDigraph(g.n, g.out_adj, g.weights)

    @staticmethod
    def _packed(g, s, sinks):
        if isinstance(g, Graph):
            return unit_paths(g.adj, g.n, s, sinks, None)
        ends = frozenset().union(*map(g.in_set, sinks))
        return weighted_paths(g.out_adj, g.weights, s, ends, None)

    def _check_pairs(self):
        skips = 0
        for g in self._cases():
            adjacent = g.has_edge if isinstance(g, Graph) else g.has_arc
            for s, t in itertools.permutations(range(g.n), 2):
                if adjacent(s, t):
                    continue
                hop = two_hop_weight(g, s, t)
                kappa = _graph_flow(g, [s], [t])[0]
                found = self._packed(g, s, (t,))
                assert hop <= found <= kappa
                for limit in sorted({1, hop, hop + 1, found, found + 1, kappa, kappa + 1}):
                    mine, ref = Counters(), Counters()
                    want_cut, want_sep = self._unchecked(g, s, t, limit, ref)
                    fresh = self._fresh
                    assert min_st_cut(fresh(g), s, t, limit=limit, stats=mine) == want_cut
                    assert min_st_separator(fresh(g), s, t, limit=limit, stats=mine) == want_sep
                    # each skip stands in for one capped flow
                    assert (
                        mine.get("flow_calls") + mine.get("path_skips")
                        == 2 * ref.get("flow_calls")
                    )
                    # a flow is skipped exactly when the packing reaches a
                    # positive limit; a limit of 0 needs no flow
                    assert mine.get("path_skips") == (2 if 0 < limit <= found else 0)
                    skips += mine.get("path_skips")
        assert skips > 0

    def _check_sink_sets(self):
        rng = random.Random(6)
        skips = flows = 0
        for g in self._cases():
            adjacent = g.has_edge if isinstance(g, Graph) else g.has_arc
            for s in range(g.n):
                free = [v for v in range(g.n) if v != s and not adjacent(s, v)]
                if len(free) < 2:
                    continue
                sinks = sorted(rng.sample(free, rng.randrange(2, min(4, len(free)) + 1)))
                kappa = _graph_flow(g, [s], sinks)[0]
                found = self._packed(g, s, sinks)
                assert found <= kappa
                for limit in sorted({1, found, found + 1, kappa, kappa + 1}):
                    mine, ref = Counters(), Counters()
                    value, sep, _, completed = _graph_flow(g, [s], sinks, limit=limit, stats=ref)
                    want = (value, tuple(sep) if completed else None)
                    assert min_s_to_set_separator(g, s, sinks, limit=limit, stats=mine) == want
                    assert (
                        mine.get("flow_calls") + mine.get("path_skips")
                        == ref.get("flow_calls")
                    )
                    assert mine.get("path_skips") == (0 < limit <= found)
                    skips += mine.get("path_skips")
                    flows += mine.get("flow_calls")
        assert skips > 0 and flows > 0

    def test_matches_unchecked_flow(self, python_backend):
        self._check_pairs()

    def test_matches_unchecked_flow_compiled(self, compiled_backend):
        self._check_pairs()

    def test_sink_sets_match_unchecked_flow(self, python_backend):
        self._check_sink_sets()

    def test_sink_sets_match_unchecked_flow_compiled(self, compiled_backend):
        self._check_sink_sets()

    def test_two_hop_weight_by_definition(self):
        """Both packings take the two-hop paths first, each at full weight;
        their summed weight is the two-hop weight by definition."""
        for g in self._cases():
            if isinstance(g, Graph):
                weight, out_adj, adjacent, near = [1] * g.n, g.adj, g.has_edge, g.neighbor_set
            else:
                weight, out_adj, adjacent, near = g.weights, g.out_adj, g.has_arc, g.in_set
            for s, t in itertools.permutations(range(g.n), 2):
                if adjacent(s, t):
                    continue
                middle = [v for v in range(g.n) if adjacent(s, v) and adjacent(v, t)]
                paths = []
                weighted_paths(out_adj, weight, s, near(t), None, paths)
                first = [(p[1], amount) for p, amount in paths[: len(middle)]]
                assert sorted(first) == [(v, weight[v]) for v in middle]
                assert two_hop_weight(g, s, t) == sum(weight[v] for v in middle)


class TestPyflowContract:
    """The backend contract of the pure-Python solver, compiled twin or not."""

    def test_limit_equal_to_max_flow_stops_early(self):
        num, tails, heads, caps, s, t = bypass_network(petersen(), [0], [7])
        value, reach, completed = _pyflow.solve(num, tails, heads, caps, s, t, None)
        assert (value, completed) == (3, True)
        assert _pyflow.solve(num, tails, heads, caps, s, t, 3) == (3, None, False)
        assert _pyflow.solve(num, tails, heads, caps, s, t, 4) == (3, reach, True)

    def test_memo_with_alternating_tuple_networks(self):
        nets = [bypass_network(cycle(8), [0], [4]), bypass_network(petersen(), [0], [7])]
        want = [_pyflow.solve(*net, None) for net in nets]
        frozen = [
            (num, tuple(tails), tuple(heads), tuple(caps), s, t)
            for num, tails, heads, caps, s, t in nets
        ]
        for _ in range(3):
            for net, expected in zip(frozen, want):
                assert _pyflow.solve(*net, None) == expected
                assert _pyflow.solve(*net, 1) == (1, None, False)

    def test_mutated_list_network_is_rebuilt(self):
        num, tails, heads, caps, s, t = bypass_network(cycle(8), [0], [4])
        assert _pyflow.solve(num, tails, heads, caps, s, t, None)[0] == 2
        caps[1] = 0  # vertex 1 can no longer carry flow
        assert _pyflow.solve(num, tails, heads, caps, s, t, None)[0] == 1
        tails.append(2 * 1 + 1)  # a chord 1 -> 4, unused while 1 is blocked
        heads.append(2 * 4)
        caps.append(num)
        assert _pyflow.solve(num, tails, heads, caps, s, t, None)[0] == 1
        caps[1] = 1
        value, reach, completed = _pyflow.solve(num, tails, heads, caps, s, t, None)
        assert (value, completed) == (2, True)
        assert reach == _pyflow.solve(num, list(tails), list(heads), list(caps), s, t, None)[1]
