"""Dispersers, crossing families, selectors, unique-neighbor expanders, and
spectrally certified mixing graphs.

Backends follow one discipline: a construction is only returned together
with a checked certificate (exhaustive verification when the subset space is
small, deterministic sampling otherwise; for a mixing graph, the closed-form
spectrum of its circulant, computed with `math.cos`, so no linear algebra
library is needed), and whenever the parameter formulas degenerate at small
sizes, the trivial complete fallback takes over.  Crossing families are
always that fallback, or a part of it (see `asymmetric_crossing_family`).
All constructions are deterministic: same parameters, same output.

Pair families hold distinct pairs.  The single builders (complete,
single-target, large-r, `map_pairs`) emit distinct pairs by construction,
and `symmetric_crossing_family` by its column bands, so only the bucketed
unions in `weighted` de-duplicate.  Callers that need each unordered pair
of a symmetric family once iterate `crossing_pairs`, which builds nothing.
"""

from __future__ import annotations

import itertools
import math
import operator
import random
from collections import Counter
from fractions import Fraction

from .errors import ConstructionFailed, InvariantError
from .graphs import _log2ceil

# Disperser base left degree: max(d, ceil(log2 n)^DISPERSER_BASE_EXP).
DISPERSER_BASE_EXP = 1


class LeftRegularBipartite:
    """Left-regular bipartite graph as a neighbor table G(v,i) -> right id."""

    __slots__ = ("n_left", "n_right", "degree", "table")

    def __init__(self, n_left, n_right, table):
        self.n_left = n_left
        self.n_right = n_right
        self.table = tuple(tuple(row) for row in table)
        if len(self.table) != n_left:
            raise InvariantError("table height != n_left")
        degs = {len(row) for row in self.table} or {0}
        if len(degs) != 1:
            raise InvariantError("left degrees are not uniform")
        self.degree = degs.pop()
        for row in self.table:
            for w in row:
                if not 0 <= w < n_right:
                    raise InvariantError("right id out of range")

    def neighbors(self, v) -> frozenset:
        return frozenset(self.table[v])

    def __repr__(self):
        return f"LeftRegularBipartite({self.n_left}x{self.n_right}, d={self.degree})"


class PairFamily:
    """Ordered list of distinct (source, target) pairs, stored as given."""

    __slots__ = ("pairs", "degree_bound", "method")

    def __init__(self, pairs, degree_bound, method):
        self.pairs = tuple(pairs)
        self.degree_bound = degree_bound
        self.method = method

    def max_degree(self) -> int:
        """Largest number of pairs sharing a source."""
        return max(Counter(u for u, _ in self.pairs).values(), default=0)

    def __len__(self):
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self):
        return f"PairFamily({len(self.pairs)} pairs, bound={self.degree_bound}, {self.method})"


class SubsetFamily:
    """List of vertex subsets of a ground set [n]."""

    __slots__ = ("n", "sets", "method")

    def __init__(self, n, sets, method="constructed"):
        self.n = n
        dedup = sorted({tuple(sorted(s)) for s in sets})
        self.sets = tuple(dedup)
        self.method = method
        for s in self.sets:
            if not s:
                raise InvariantError("empty member set")

    def __len__(self):
        return len(self.sets)

    def __iter__(self):
        return iter(self.sets)

    def __repr__(self):
        return f"SubsetFamily(n={self.n}, {len(self.sets)} sets, {self.method})"


class MixingGraph:
    """Regular-ish graph with a numerically certified spectral bound.

    `pair_threshold` is the certificate: for disjoint A, B, if
    |A| * |B| >= pair_threshold then E(A,B) is nonempty.
    """

    __slots__ = ("n", "adj", "max_degree", "lam", "pair_threshold", "method")

    def __init__(self, n, adj, lam, pair_threshold, method):
        self.n = n
        self.adj = tuple(tuple(sorted(row)) for row in adj)
        self.max_degree = max((len(r) for r in self.adj), default=0)
        self.lam = lam
        self.pair_threshold = pair_threshold
        self.method = method

    def edges(self):
        for u, row in enumerate(self.adj):
            for v in row:
                if u < v:
                    yield (u, v)

    def __repr__(self):
        return (
            f"MixingGraph(n={self.n}, maxdeg={self.max_degree}, "
            f"lam={self.lam:.4f}, threshold={self.pair_threshold})"
        )


# ---------------------------------------------------------------------------
# Dispersers
# ---------------------------------------------------------------------------

def _subset_count(n, k):
    c = 1
    for i in range(k):
        c = c * (n - i) // (i + 1)
        if c > 10**9:
            return 10**9
    return c


def _verify_disperser(table, n_right, k, eps):
    from .oracle import check_disperser

    bip = LeftRegularBipartite(len(table), n_right, table)
    ok, method, _ = check_disperser(bip, k, eps)
    return bip if ok else None


def _greedy_disperser_table(n, k, d, n_right):
    """Conditional-expectation greedy slot assignment.

    Tracks, per left k-subset, the covered right mask and remaining slots;
    each slot picks the right vertex with the largest weighted marginal
    coverage.  Falls back to a seeded spread when the subset space is too
    large to track (the verification step stays authoritative either way).
    """
    work = _subset_count(n, k) * (n_right + k) * d
    if k < 1 or work > 3_000_000:
        rng = random.Random(f"disperser-spread:{n}:{k}:{d}:{n_right}")
        return [[rng.randrange(n_right) for _ in range(d)] for _ in range(n)]
    subsets = list(itertools.combinations(range(n), k))
    by_vertex = [[] for _ in range(n)]
    for idx, sub in enumerate(subsets):
        for v in sub:
            by_vertex[v].append(idx)
    covered = [0] * len(subsets)
    unassigned = [k * d] * len(subsets)
    q = 1.0 - 1.0 / n_right
    qpow = [q**i for i in range(k * d + 1)]
    table = [[0] * d for _ in range(n)]
    for v in range(n):
        for i in range(d):
            gain = [0.0] * n_right
            total = 0.0
            for idx in by_vertex[v]:
                w8 = qpow[unassigned[idx] - 1]
                total += w8
                mask = covered[idx]
                w = mask
                while w:
                    low = w & -w
                    gain[low.bit_length() - 1] -= w8
                    w ^= low
            best_w, best_gain = 0, -1.0
            for w in range(n_right):
                g = total + gain[w]
                if g > best_gain + 1e-12:
                    best_gain = g
                    best_w = w
            table[v][i] = best_w
            bit = 1 << best_w
            for idx in by_vertex[v]:
                covered[idx] |= bit
                unassigned[idx] -= 1
    return table


def build_disperser(n, k, d, eps, n_right=None):
    """Left-regular bipartite graph where every left set of size >= k covers
    at least a (1-eps) fraction of the right side.

    The left degree is max(d, base) where base = ceil(log2 n)^exp; degrees
    above the base are realized by group-contraction amplification of a
    larger base disperser.  Raises ConstructionFailed when no attempt can be
    certified (always, for example, with eps=0 and an explicit
    n_right > k*d).
    """
    eps = Fraction(eps)
    if not (1 <= k <= n):
        raise InvariantError("need 1 <= k <= n")
    if not (0 <= eps < 1):
        raise InvariantError("need 0 <= eps < 1")
    base = _log2ceil(n) ** DISPERSER_BASE_EXP
    if d > base:
        gamma = math.ceil(d / base)
        inner = build_disperser(gamma * n, gamma * k, base, eps, n_right=n_right)
        table = []
        for u in range(n):
            row = []
            for j in range(gamma):
                row.extend(inner.table[u * gamma + j])
            table.append(row)
        amplified = _verify_disperser(table, inner.n_right, k, eps)
        if amplified is None:
            raise ConstructionFailed("amplified disperser failed re-verification")
        return amplified
    d_eff = base
    if n_right is not None:
        attempts = [n_right]
    elif eps == 0:
        attempts = [d_eff]
    else:
        slots = k * d_eff
        spread = math.log(max(math.e, _subset_count(n, k) / float(eps)))
        sized = max(2, min(int(slots / spread), k * d_eff))
        attempts = []
        for cand in (sized, max(2, sized // 2), min(d_eff, sized)):
            if cand not in attempts:
                attempts.append(cand)
    for m in attempts:
        if m < 1:
            continue
        if m <= d_eff:
            # Full-coverage fallback: every left vertex sees the whole right
            # side, a (1,0)-disperser.
            table = [[i % m for i in range(d_eff)] for _ in range(n)]
        else:
            table = _greedy_disperser_table(n, k, d_eff, m)
        got = _verify_disperser(table, m, k, eps)
        if got is not None:
            return got
    raise ConstructionFailed(
        f"no certified ({k},{eps})-disperser at n={n}, d={d_eff}, sizes {attempts}"
    )


# ---------------------------------------------------------------------------
# Crossing families
# ---------------------------------------------------------------------------

def asymmetric_crossing_family(universe_a, universe_b, l, r):
    """(A,B,l,r)-crossing family: every L in A, R in B with |L| >= l,
    |R| >= r is crossed by some pair.

    The complete family A x B.  When r > |B|/2, every such R holds at least
    r' = |B| - r of the first 2r' elements of B, so the family for those
    elements and (min(l, r'), r') crosses too ("large-r"); when r' = 0, R is
    B and one target per source suffices ("single-target").

    The paper's smaller family, composed from two dispersers, is not built.
    It paid only where its declared degree bound
    2 * ceil(log2 |B|)^2 * ceil((|B| - r) / l) is below |B|, and the guesses
    of `symmetric_crossing_family` first reach such an (l, r) at n = 487
    (alpha <= 3/4), 1,536 (alpha = 1) and 3,328 (alpha = 4); no driver call
    measured (unweighted up to n = 192, weighted up to n = 256) reached one.
    """
    universe_a = tuple(sorted(universe_a))
    universe_b = tuple(sorted(universe_b))
    if not (1 <= l <= len(universe_a) and 1 <= r <= len(universe_b) and l <= r):
        raise InvariantError("need 1 <= l <= |A|, 1 <= r <= |B|, l <= r")

    if r > len(universe_b) // 2:
        r_dash = len(universe_b) - r
        if r_dash == 0:
            # R = B forced: one pair per source crosses everything.
            return PairFamily(
                [(a, universe_b[0]) for a in universe_a],
                degree_bound=1,
                method="single-target",
            )
        b_dash = universe_b[: 2 * r_dash]
        l_dash = min(l, r_dash)
        inner = asymmetric_crossing_family(universe_a, b_dash, l_dash, r_dash)
        return PairFamily(inner.pairs, inner.degree_bound, inner.method + "+large-r")

    # Self-pairs stay in: when the universes overlap, the crossing contract
    # quantifies over all L, R of the stated sizes, including L = R = {a}.
    return PairFamily(itertools.product(universe_a, universe_b), len(universe_b), "complete")


def _bands(n, alpha):
    """Column bands [lo, hi) of `symmetric_crossing_family(n, alpha)`, in
    order (see `crossing_pairs`)."""
    if not alpha > 0:
        raise InvariantError("need alpha > 0")
    if n <= 2 or alpha >= n:
        return [(0, n)]
    bands = []
    powers = [1 << i for i in range(n.bit_length())]
    for l, r in itertools.combinations_with_replacement(powers, 2):
        if l + r <= n < (2 * alpha + 2) * l + 2 * r:
            lo = bands[-1][1] if bands else 0
            hi = n if r <= n // 2 else 2 * (n - r)
            if hi > lo:
                bands.append((lo, hi))
            if hi == n:
                break
    return bands


def _band_pairs(n, lo, hi):
    yield from itertools.combinations(range(lo, hi), 2)
    for a in range(hi, n):
        for b in range(lo, hi):
            yield b, a


def crossing_pairs(n, alpha):
    """Each pair (a, b) of [n], a < b, once, in the order in which
    `symmetric_crossing_family(n, alpha)` first meets {a, b}, with no
    family built; InvariantError for alpha <= 0 or NaN.

    Each guess (l, r) of the family adds [n] x [0, m) row-major, with m = n
    if r <= n // 2, else m = 2(n - r) >= 2 (large-r; l + r <= n).  So the
    family is a run of column bands [lo, hi), hi the running maxima of m,
    each written row by row over all of [n], the last ending at n (the
    guess (R, R) has m = n; see `symmetric_crossing_family`).  In the band
    [lo, hi), a row a < lo meets only pairs met as (b, a) in the band of
    column a; a row lo <= a < hi meets {a, b} first for b in (a, hi) (b < a
    was met in row b); a row a >= hi meets every {a, b} first, as no
    earlier band holds column a or b, and yields it as (b, a).
    """
    return itertools.chain.from_iterable(
        _band_pairs(n, lo, hi) for lo, hi in _bands(n, alpha)
    )


def symmetric_crossing_family(n, alpha):
    """Pair family over [n] crossing every tri-partition (L,S,R) with
    |R| >= |L| >= |S|/alpha.

    The union, de-duplicated in first-occurrence order, over power-of-two
    guesses (l, r) with l <= r, l + r <= n and n < (2*alpha+2)*l + 2*r
    (the exact compatibility test for partitions whose floor-power-of-two
    sizes are (l, r)), up to the first guess that completes it; n <= 2 or
    alpha >= n gives the complete family.  It is built band by band (see
    `crossing_pairs`), with degree bound n and method "complete", or
    "complete+complete+large-r" when large-r guesses came first.

    The family holds all n * n pairs, for every n and alpha > 0, so a pair
    search over it is a search over every pair.  Proof for n >= 3 and
    alpha < n: let R = 2^floor(log2(n/2)), the largest power of two with
    2R <= n.  Then R > n/4, so (2*alpha + 2)*R + 2*R >= 4R > n, and (R, R) is
    a guess.  Its family is not large-r (R <= n // 2), so it is the complete
    family [n] x [n], and the union holds every pair.  The other cases
    return the complete family directly.
    """
    bands = _bands(n, alpha)
    pairs = [(a, b) for lo, hi in bands for a in range(n) for b in range(lo, hi)]
    method = "complete" if len(bands) == 1 else "complete+complete+large-r"
    return PairFamily(pairs, n, method)


def map_pairs(family: PairFamily, vertices) -> PairFamily:
    """Map a family over [n] onto a list of distinct ids (position i ->
    vertices[i]), so the mapped pairs stay distinct."""
    vertices = list(vertices)
    pairs = [(vertices[u], vertices[v]) for (u, v) in family.pairs]
    return PairFamily(pairs, family.degree_bound, family.method)


# ---------------------------------------------------------------------------
# Unique-neighbor expanders and selectors
# ---------------------------------------------------------------------------

def check_unique_neighbor_expansion(bip: LeftRegularBipartite, k, alpha):
    """(k,alpha)-unique-neighbor expansion: every left S with |S| <= k has
    at least alpha*d*|S| right vertices with exactly one neighbor in S.

    Exhaustive for left size <= 20, deterministic sampling otherwise
    (a sampled failure is definitive false).
    """
    alpha = Fraction(alpha)
    n = bip.n_left
    nbrs = [bip.neighbors(v) for v in range(n)]

    def ok(subset):
        count = {}
        for v in subset:
            for w in nbrs[v]:
                count[w] = count.get(w, 0) + 1
        uniques = sum(1 for c in count.values() if c == 1)
        return uniques >= alpha * bip.degree * len(subset)

    if n <= 20:
        for size in range(1, min(k, n) + 1):
            for subset in itertools.combinations(range(n), size):
                if not ok(subset):
                    return False
        return True
    from .oracle import SAMPLED_CHECK_TRIALS

    rng = random.Random(0x00E1)
    for _ in range(SAMPLED_CHECK_TRIALS):
        size = rng.randrange(1, min(k, n) + 1)
        if not ok(rng.sample(range(n), size)):
            return False
    return True


def build_unique_neighbor_expander(n_left, k, d, m, alpha, forbid=None):
    """Greedy d-left-regular (k,alpha)-unique-neighbor expander on [m].

    `forbid` pairs (x, y) must differ under every slot index.  Returns None
    when no certified attempt exists at these parameters.  No driver calls
    it: `build_selector` returns the 2-subset family, since this route never
    certified a table at a size the drivers run (see there).
    """
    forbid = forbid or []
    partners = {}
    for x, y in forbid:
        partners.setdefault(x, set()).add(y)
        partners.setdefault(y, set()).add(x)
    for attempt in range(3):
        rng = random.Random(f"une:{n_left}:{k}:{d}:{m}:{attempt}")
        load = [0] * m
        table = [[-1] * d for _ in range(n_left)]
        order = list(range(n_left))
        if attempt:
            rng.shuffle(order)
        feasible = True
        for v in order:
            for i in range(d):
                banned = {table[v][j] for j in range(i)}
                banned.update(
                    table[p][i] for p in partners.get(v, ()) if table[p][i] >= 0
                )
                options = [w for w in range(m) if w not in banned]
                if not options:
                    feasible = False
                    break
                best = min(options, key=lambda w: (load[w], w))
                table[v][i] = best
                load[best] += 1
            if not feasible:
                break
        if not feasible:
            continue
        bip = LeftRegularBipartite(n_left, m, table)
        if check_unique_neighbor_expansion(bip, k, alpha):
            return bip
    return None


def selector_method(n, k, eps):
    """The method of the family `build_selector(n, k, eps)` returns, without
    building it; raises as `build_selector` does."""
    eps = Fraction(eps)
    if k < 1 or not (0 < eps <= 1):
        raise InvariantError("need k >= 1 and eps in (0,1]")
    if 2 * k >= n:
        raise ConstructionFailed(
            f"no selector with member sets >= 2 exists for 2k={2*k} >= n={n}"
        )
    return "2-subsets"


def build_selector(n, k, eps):
    """(n,k,eps)-selector: for all disjoint L, S with eps*k < |L| <= k and
    |S| <= k some member set hits L exactly once and misses S; every member
    set has size >= 2.

    The family of all 2-subsets of [n], in lexicographic order.  It is a
    selector whenever 2k < n: pick l in L and some x outside L and S; {l, x}
    hits L once and misses S.  ConstructionFailed when 2k >= n: L and S can
    then cover the whole ground set and no size->=2 selector exists.

    The paper's unique-neighbour-expander selector never built here.  A scan
    made 1,957 calls that reached `build_unique_neighbor_expander`, and none
    got a certified table: every n = 129..512 at eps = 1/4 (k' = 4); n = 600,
    800, 1,024, 1,500 and 2,048 for every k' the route allowed; every
    n <= 256 and allowed k' at eps = 1/2 and 1.  Each failed attempt cost
    2.4-3.3 s at n = 1,024 and 9.3-11.2 s at n = 2,048 on a 2-core machine,
    and this family was built after it anyway, so the route is gone.
    """
    method = selector_method(n, k, eps)
    return SubsetFamily(n, itertools.combinations(range(n), 2), method)


# ---------------------------------------------------------------------------
# Mixing graphs
# ---------------------------------------------------------------------------

def _circulant_adj(n, offsets):
    adj = [set() for _ in range(n)]
    for o in offsets:
        for v in range(n):
            adj[v].add((v + o) % n)
            adj[v].add((v - o) % n)
    return [sorted(row) for row in adj]


def _spectral_lambda(adj) -> float:
    """max |eigenvalue| of the degree-normalized adjacency of the circulant
    graph `adj`, principal eigenvalue excluded.  A circulant's eigenvectors
    are the Fourier characters, so its eigenvalues are lambda_k = sum over
    w in N(0) of cos(2 pi w k / n) / deg, k = 0..n-1, with lambda_0 = 1
    the principal one."""
    n = len(adj)
    row = adj[0]
    return max(
        (
            abs(math.fsum(math.cos(2 * math.pi * (k * w) / n) for w in row) / len(row))
            for k in range(1, n)
        ),
        default=0.0,
    )


def build_mixing_graph(n, d) -> MixingGraph:
    """Graph on n vertices, max degree <= 4d, with a certificate
    guaranteeing E(A,B) != empty whenever |A|*|B| >= pair_threshold.

    Backend: deterministic circulant with offsets chosen greedily.  Adding
    offset o adds 2 cos(2 pi o k / n) to the k-th eigenvalue of the
    unnormalized adjacency, so each step takes the offset that leaves the
    smallest largest |eigenvalue|, k = 1..n-1, until the normalized value
    is at most 0.9 (with at least ceil(d/2) offsets) or the budget of
    max(ceil(d/2), min(2d, n // 2)) offsets is spent.  Each offset's cosine row is computed
    once per call.  The graph is certified by the closed-form spectrum of
    the final circulant (`_spectral_lambda`), method "circulant".  Complete
    graph, with lambda 0 and threshold 1, when d >= n-1 (or when n is too
    small to do better within the degree budget), method "complete".
    """
    if n < 1:
        raise InvariantError("n must be >= 1")
    if d >= n:
        raise InvariantError("need d < n")
    if d >= n - 1 or (n <= 8 and n - 1 <= 4 * d):
        adj = [[v for v in range(n) if v != u] for u in range(n)]
        return MixingGraph(n, adj, 0.0, 1, "complete")

    half = n // 2
    target_offsets = max(1, math.ceil(d / 2))
    # Up to 4d degree.  budget <= half, as d <= n - 2 gives
    # ceil(d/2) <= half, so an offset is always left to choose.
    budget = max(target_offsets, min(2 * d, half))
    rows = {
        o: [2 * math.cos(2 * math.pi * o * k / n) for k in range(1, n)]
        for o in range(1, half + 1)
    }
    chosen = []
    partial = [0.0] * (n - 1)
    while len(chosen) < budget:
        best_o, best_val = None, None
        for o, row in rows.items():
            val = max(map(abs, map(operator.add, partial, row)))
            if best_val is None or val < best_val - 1e-12:
                best_val = val
                best_o = o
        chosen.append(best_o)
        partial = list(map(operator.add, partial, rows.pop(best_o)))
        if len(chosen) >= target_offsets and max(map(abs, partial)) / (2 * len(chosen)) <= 0.9:
            break

    adj = _circulant_adj(n, chosen)
    if max(len(r) for r in adj) > 4 * d:
        raise ConstructionFailed(f"degree budget 4d={4*d} unreachable at n={n}")
    lam = _spectral_lambda(adj)
    lam_safe = lam * (1 + 1e-9) + 1e-12
    threshold = int(lam_safe * lam_safe * n * n) + 1
    return MixingGraph(n, adj, lam, threshold, "circulant")
