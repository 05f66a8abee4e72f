import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from conftest import _guesses, _seen_loop, every_guess_union

from vcut import pseudorandom
from vcut.errors import ConstructionFailed, InvariantError
from vcut.oracle import (
    check_crossing_family,
    check_disperser,
    check_selector,
    check_symmetric_crossing,
)
from vcut.pseudorandom import (
    LeftRegularBipartite,
    asymmetric_crossing_family,
    build_disperser,
    build_mixing_graph,
    build_selector,
    build_unique_neighbor_expander,
    check_unique_neighbor_expansion,
    crossing_pairs,
    map_pairs,
    symmetric_crossing_family,
)

ALPHAS = (1, 2, 3, Fraction(5, 2), Fraction(7, 3), 1.5, 4.0)


class TestDisperser:
    def test_k_equals_n_trivial(self):
        bip = build_disperser(6, 6, 4, Fraction(1, 8))
        ok, method, _ = check_disperser(bip, 6, Fraction(1, 8))
        assert ok

    def test_greedy_passes_exhaustive(self):
        bip = build_disperser(12, 4, 4, Fraction(1, 8))
        ok, method, witness = check_disperser(bip, 4, Fraction(1, 8))
        assert ok and method == "exhaustive" and witness is None

    def test_impossible_coverage_fails(self):
        with pytest.raises(ConstructionFailed):
            build_disperser(12, 4, 4, 0, n_right=100)

    def test_amplified_degree_and_property(self):
        bip = build_disperser(8, 3, 12, Fraction(1, 4))
        assert bip.degree >= 12
        ok, _, _ = check_disperser(bip, 3, Fraction(1, 4))
        assert ok

    def test_determinism(self):
        a = build_disperser(10, 3, 4, Fraction(1, 8))
        b = build_disperser(10, 3, 4, Fraction(1, 8))
        assert a.table == b.table


class TestAsymmetricCrossing:
    def test_trivial_full_sets(self):
        fam = asymmetric_crossing_family(range(5), range(5), 5, 5)
        assert len(fam) >= 1
        ok, _ = check_crossing_family(fam.pairs, range(5), range(5), 5, 5)
        assert ok

    def test_exhaustive_small(self):
        fam = asymmetric_crossing_family(range(10), range(10), 2, 5)
        ok, witness = check_crossing_family(fam.pairs, range(10), range(10), 2, 5)
        assert ok, witness
        assert fam.max_degree() <= fam.degree_bound

    def test_large_r_path(self):
        fam = asymmetric_crossing_family(range(10), range(10), 2, 8)
        assert "large-r" in fam.method
        ok, witness = check_crossing_family(fam.pairs, range(10), range(10), 2, 8)
        assert ok, witness

    def test_degenerate_r_equals_b(self):
        fam = asymmetric_crossing_family(range(6), range(6), 6, 6)
        ok, _ = check_crossing_family(fam.pairs, range(6), range(6), 6, 6)
        assert ok

    def test_preconditions(self):
        with pytest.raises(InvariantError):
            asymmetric_crossing_family(range(4), range(4), 3, 2)  # l > r

    def test_never_composed(self):
        """Every family is the complete one, or a large-r / single-target
        part of it; the disperser composition is not built, also at
        (487, 487, 128, 128), where its declared bound beats |B|."""
        for na in range(1, 13):
            for nb in range(1, 13):
                for l in range(1, min(na, nb) + 1):
                    for r in range(l, nb + 1):
                        fam = asymmetric_crossing_family(range(na), range(nb), l, r)
                        assert "composed" not in fam.method, (na, nb, l, r)
                        assert fam.method.split("+")[0] in ("complete", "single-target")
        fam = asymmetric_crossing_family(range(487), range(487), 128, 128)
        assert fam.method == "complete" and len(fam) == 487 * 487


class TestSymmetricCrossing:
    @pytest.mark.parametrize("n,alpha", [(9, 2), (8, 1), (10, 3), (7, 1.5)])
    def test_exhaustive(self, n, alpha):
        fam = symmetric_crossing_family(n, alpha)
        ok, witness = check_symmetric_crossing(fam.pairs, n, alpha)
        assert ok, witness
        assert fam.max_degree() <= fam.degree_bound

    @pytest.mark.parametrize("alpha", (0.5, *ALPHAS))
    def test_holds_every_pair(self, alpha):
        """The completeness theorem of `symmetric_crossing_family`."""
        for n in range(3, 129):
            fam = symmetric_crossing_family(n, alpha)
            assert len(fam.pairs) == n * n, (n, alpha)

    @pytest.mark.parametrize("n", (487, 512))
    def test_holds_every_pair_past_composition_sizes(self, n):
        """At n = 487 the former guess arithmetic first tried the composed
        family (alpha < 1); the family now holds every pair there too."""
        fam = symmetric_crossing_family(n, 0.5)
        assert len(fam.pairs) == n * n
        assert "composed" not in fam.method

    @pytest.mark.parametrize("alpha", (0, -1, float("nan")))
    def test_alpha_must_be_positive(self, alpha):
        with pytest.raises(InvariantError):
            symmetric_crossing_family(9, alpha)
        with pytest.raises(InvariantError):
            crossing_pairs(9, alpha)

    def test_alpha_at_least_n_complete(self):
        fam = symmetric_crossing_family(6, 6)
        assert len(fam) == 36  # complete including self-pairs

    def test_unbalanced_partition_not_required(self):
        # Partitions violating |L| >= |S|/alpha carry no guarantee; the
        # checker only enumerates admissible ones, so a family passing it
        # may still miss such partitions.
        fam = symmetric_crossing_family(9, 2)
        ok, _ = check_symmetric_crossing(fam.pairs, 9, 2)
        assert ok

    def test_mapping_preserves_structure(self):
        fam = symmetric_crossing_family(4, 4)
        mapped = map_pairs(fam, [10, 20, 30, 40])
        assert all(u in (10, 20, 30, 40) and v in (10, 20, 30, 40) for u, v in mapped)

    def test_determinism(self):
        a = symmetric_crossing_family(9, 2)
        b = symmetric_crossing_family(9, 2)
        assert a.pairs == b.pairs


def _source_degree(pairs):
    """Largest number of distinct pairs sharing a source."""
    deg = {}
    for u, _ in set(pairs):
        deg[u] = deg.get(u, 0) + 1
    return max(deg.values(), default=0)


def _distinct(pairs):
    return len(set(pairs)) == len(pairs)


class TestPairFamilyContract:
    """Every builder returns distinct pairs; `crossing_pairs` is the pair
    loops' old de-duplication of the symmetric family."""

    def test_single_builders_emit_distinct_pairs(self):
        cases = {
            "complete": asymmetric_crossing_family(range(7), range(9), 2, 3),
            "single-target": asymmetric_crossing_family(range(6), range(6), 6, 6),
            "complete+large-r": asymmetric_crossing_family(range(16), range(16), 2, 12),
        }
        for method, fam in cases.items():
            assert fam.method == method
            assert fam.pairs and _distinct(fam.pairs), method
            assert fam.max_degree() == _source_degree(fam.pairs) <= fam.degree_bound

    def test_symmetric_union_is_deduplicated(self):
        for n in range(1, 41):
            for alpha in ALPHAS:
                fam = symmetric_crossing_family(n, alpha)
                assert _distinct(fam.pairs), (n, alpha)
                assert fam.max_degree() == _source_degree(fam.pairs) <= fam.degree_bound

    def test_unordered_matches_seen_loop(self):
        for n in range(1, 41):
            for alpha in ALPHAS:
                fam = symmetric_crossing_family(n, alpha)
                assert list(crossing_pairs(n, alpha)) == _seen_loop(fam.pairs), (n, alpha)

    def test_mapped_unordered_matches_map_pairs(self):
        rng = random.Random(5)
        for n in range(1, 41):
            ids = sorted(rng.sample(range(3 * n), n))
            for alpha in ALPHAS:
                fam = symmetric_crossing_family(n, alpha)
                mapped = [(ids[i], ids[j]) for i, j in crossing_pairs(n, alpha)]
                assert mapped == _seen_loop(map_pairs(fam, ids).pairs), (n, alpha)

    def test_unordered_drops_self_pairs_and_reversals(self):
        for n in range(41):
            for alpha in ALPHAS:
                got = list(crossing_pairs(n, alpha))
                assert all(a < b for a, b in got), (n, alpha)
                assert len(got) == len(set(got)) == n * (n - 1) // 2, (n, alpha)


class TestSymmetricStop:
    """The union stops once it holds all n * n pairs; its pairs, their
    order and the bound stay those of the former union
    (`every_guess_union`)."""

    def test_same_family_as_every_guess(self):
        for n in range(3, 81):
            for alpha in ALPHAS:
                if alpha >= n:
                    continue
                fam = symmetric_crossing_family(n, alpha)
                pairs, bound, _ = every_guess_union(n, alpha)
                assert fam.pairs == pairs, (n, alpha)
                assert fam.degree_bound == bound == n, (n, alpha)


# Every alpha the unweighted driver asks, max(1, 2 delta / ell) for
# delta <= 16 and ell = 2 .. 128, plus the balanced search's 1 / eps.
PINNED_ALPHAS = sorted(
    {4.0, Fraction(1, 2)}
    | {max(1, Fraction(2 * delta, 2**i)) for delta in range(17) for i in range(1, 8)}
)


@pytest.mark.parametrize("n", (*range(129), 487, 512))
def test_crossing_pairs_pinned_to_every_guess_union(n):
    """`crossing_pairs` and `symmetric_crossing_family` against the former
    union (`every_guess_union`), de-duplicated as the pair loops did.  The
    reference depends on alpha only through its guesses, so it is built
    once per distinct guess list."""
    refs = {}
    for alpha in PINNED_ALPHAS:
        key = None if n <= 2 or alpha >= n else tuple(_guesses(n, alpha))
        if key not in refs:
            union = every_guess_union(n, alpha)
            refs[key] = union, _seen_loop(union[0])
        union, unordered = refs[key]
        assert list(crossing_pairs(n, alpha)) == unordered, (n, alpha)
        fam = symmetric_crossing_family(n, alpha)
        assert (fam.pairs, fam.degree_bound, fam.method) == union, (n, alpha)


class TestSelector:
    @pytest.mark.parametrize("n,k,eps", [(8, 2, Fraction(1, 2)), (10, 3, Fraction(1, 4)), (7, 3, Fraction(1, 2))])
    def test_exhaustive_property(self, n, k, eps):
        fam = build_selector(n, k, eps)
        ok, witness = check_selector(fam.sets, n, k, eps)
        assert ok, witness
        assert all(len(s) >= 2 for s in fam.sets)

    def test_vacuous_configurations_pass(self):
        fam = build_selector(8, 2, Fraction(1, 2))
        ok, _ = check_selector(fam.sets, 8, 2, Fraction(1, 2))
        assert ok

    def test_size_floor_gate(self):
        with pytest.raises(ConstructionFailed):
            build_selector(4, 2, Fraction(1, 2))  # 2k >= n: L and S can cover [n]

    @pytest.mark.parametrize("n,k,eps", [
        (8, 2, Fraction(1, 2)), (10, 3, Fraction(1, 4)), (7, 3, Fraction(1, 2)),
        (129, 4, Fraction(1, 4)), (256, 2, Fraction(1, 2)), (300, 8, Fraction(1)),
    ])
    def test_family_of_all_two_subsets(self, n, k, eps):
        fam = build_selector(n, k, eps)
        assert fam.sets == tuple(itertools.combinations(range(n), 2))
        assert fam.method == "2-subsets"

    def test_no_expander_attempt(self, monkeypatch):
        # n = 1,024 with k = 8 was inside the unique-neighbour route's range.
        def refuse(*args, **kwargs):
            raise AssertionError("build_selector tried a unique-neighbour expander")

        monkeypatch.setattr(pseudorandom, "build_unique_neighbor_expander", refuse)
        fam = build_selector(1024, 8, Fraction(1, 4))
        assert fam.sets == tuple(itertools.combinations(range(1024), 2))


class TestUniqueNeighbor:
    def test_perfect_matching(self):
        bip = LeftRegularBipartite(4, 4, [[0], [1], [2], [3]])
        assert check_unique_neighbor_expansion(bip, 4, 1)

    def test_complete_bipartite_shares_everything(self):
        bip = LeftRegularBipartite(4, 4, [[0, 1, 2, 3]] * 4)
        assert not check_unique_neighbor_expansion(bip, 2, Fraction(3, 5))

    def test_greedy_certified_when_feasible(self):
        bip = build_unique_neighbor_expander(8, 1, 3, 8, 1)
        assert bip is not None
        assert check_unique_neighbor_expansion(bip, 1, 1)

    def test_greedy_loose_alpha(self):
        bip = build_unique_neighbor_expander(6, 2, 3, 12, Fraction(1, 2))
        if bip is not None:
            assert check_unique_neighbor_expansion(bip, 2, Fraction(1, 2))


class TestMixingGraph:
    def test_complete_when_degree_allows(self):
        mg = build_mixing_graph(8, 7)
        assert mg.method == "complete"
        assert mg.pair_threshold == 1

    def test_spot_check_mixing_inequality(self):
        mg = build_mixing_graph(64, 8)
        assert mg.max_degree <= 32
        adj = [set(row) for row in mg.adj]
        deg = mg.max_degree
        rng = random.Random(4)
        for _ in range(1000):
            size_s = rng.randrange(1, 33)
            size_t = rng.randrange(1, 33)
            nodes = rng.sample(range(64), size_s + size_t)
            s_side, t_side = set(nodes[:size_s]), set(nodes[size_s:])
            edges = sum(1 for u in s_side for v in adj[u] if v in t_side)
            bound = size_s * size_t * deg / 64 + mg.lam * deg * (size_s * size_t) ** 0.5
            assert edges <= bound + 1e-6

    def test_planted_threshold_pairs_connected(self):
        mg = build_mixing_graph(64, 8)
        adj = [set(row) for row in mg.adj]
        rng = random.Random(9)
        trials = 0
        for _ in range(2000):
            if trials >= 1000:
                break
            size_s = rng.randrange(1, 64)
            if size_s * (64 - size_s) < mg.pair_threshold:
                continue
            size_t_min = -(-mg.pair_threshold // size_s)
            if size_s + size_t_min > 64:
                continue
            nodes = rng.sample(range(64), size_s + size_t_min)
            s_side, t_side = set(nodes[:size_s]), set(nodes[size_s:])
            trials += 1
            edges = sum(1 for u in s_side for v in adj[u] if v in t_side)
            assert edges > 0, (size_s, size_t_min)

    def test_eigensolve_matches_numpy(self):
        mg = build_mixing_graph(32, 6)
        a = np.zeros((32, 32))
        for u, row in enumerate(mg.adj):
            for v in row:
                a[u, v] = 1.0 / mg.max_degree
        eigs = sorted(abs(x) for x in np.linalg.eigvalsh(a))
        assert abs(eigs[-2] - mg.lam) < 1e-8

    def test_closed_form_spectrum_matches_eigensolve(self):
        """Every circulant that `build_mixing_graph(n, d)` builds for
        n <= 40: its closed-form lambda is the dense eigensolve's, and so is
        the pair threshold derived from it."""
        checked = 0
        for n in range(2, 41):
            for d in range(1, n):
                mg = build_mixing_graph(n, d)
                if mg.method != "circulant":
                    continue
                a = np.zeros((n, n))
                for u, row in enumerate(mg.adj):
                    a[u, list(row)] = 1.0 / mg.max_degree
                lam = sorted(abs(x) for x in np.linalg.eigvalsh(a))[-2]
                assert abs(lam - mg.lam) < 1e-9, (n, d)
                safe = lam * (1 + 1e-9) + 1e-12
                assert mg.pair_threshold == int(safe * safe * n * n) + 1, (n, d)
                checked += 1
        assert checked > 400

    def test_degree_budget_respected(self):
        for n, d in [(20, 3), (50, 5), (33, 4)]:
            mg = build_mixing_graph(n, d)
            assert mg.max_degree <= 4 * d
            assert mg.n == n

    def test_determinism(self):
        a = build_mixing_graph(40, 6)
        b = build_mixing_graph(40, 6)
        assert a.adj == b.adj and a.pair_threshold == b.pair_threshold
