"""Acceptance suite: every criterion at its stated size and tolerance,
one pass/fail line each (run with `pytest -s tests/test_acceptance.py`).

Shared batches are computed lazily and cached so criteria that audit other
criteria's runs (9, 11, 12) see the same data regardless of selection.
"""

import itertools
import random
import time
from fractions import Fraction

from vcut.cnc import cnc
from vcut.gabow import KConnected, gabow_vc
from vcut.graphs import (
    NoCut,
    VertexCut,
    ni_sparsify,
    symdiff_size,
    validate_cut,
)
from vcut.instrument import Counters
from vcut.isocut import isolating_vertex_cuts
from vcut.kernel import build_kernel_index, query_kappa_upper
from vcut.oracle import (
    brute_isolating_values,
    brute_kappa,
    brute_pair_kappa,
    check_clustering,
    check_crossing_family,
    check_selector,
    check_symmetric_crossing,
    generate_planted,
    random_digraph,
    random_graph,
)
from vcut.pseudorandom import (
    asymmetric_crossing_family,
    build_selector,
    symmetric_crossing_family,
)
from vcut.unweighted import vertex_connectivity_unweighted
from vcut.weighted import sparsify_symmetric, vertex_connectivity_weighted

_CACHE = {}

# Criterion 12 (soft): on n >= 16 instances the sparsified lopsided
# instances must hold this many times fewer edges than the naive |P| * m.
SPARSIFY_FACTOR = 2.0


def _verdict(name, ok, detail):
    line = f"{name}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# Shared batches
# ---------------------------------------------------------------------------

def unweighted_runs():
    """>= 300 seeded connected graphs, n in [6,40], tree-like to dense."""
    if "c1" in _CACHE:
        return _CACHE["c1"]
    densities = [0.06, 0.1, 0.16, 0.24, 0.34, 0.46, 0.6, 0.75, 0.9]
    stats = Counters()
    results = []
    start = time.perf_counter()
    seed = 0
    for n in range(6, 41):
        for p in densities:
            seed += 1
            g = random_graph(n, max(p, 1.3 / n), seed)
            got = vertex_connectivity_unweighted(g, stats)
            want = brute_kappa(g)
            results.append((g, got, want))
    elapsed = time.perf_counter() - start
    _CACHE["c1"] = (results, stats, elapsed)
    return _CACHE["c1"]


def weighted_runs():
    """>= 150 seeded strongly connected digraphs, n in [5,20], W <= 8."""
    if "c2" in _CACHE:
        return _CACHE["c2"]
    start = time.perf_counter()
    per_graph = []
    results = []
    seed = 0
    densities = [0.2, 0.3, 0.42, 0.55, 0.7]
    for n in range(5, 21):
        for p in densities:
            for w in (3, 8) if n % 2 else (1, 8):
                seed += 1
                d = random_digraph(n, p, w, seed)
                stats = Counters()
                got = vertex_connectivity_weighted(d, stats)
                want = brute_kappa(d)
                results.append((d, got, want))
                per_graph.append((d.n, stats))
    elapsed = time.perf_counter() - start
    _CACHE["c2"] = (results, per_graph, elapsed)
    return _CACHE["c2"]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_1_unweighted_exactness():
    results, stats, elapsed = unweighted_runs()
    assert len(results) >= 300
    bad = []
    for g, got, want in results:
        if isinstance(want, tuple):
            ok = isinstance(got, VertexCut) and got.value == want[0] and validate_cut(g, got)
        else:
            ok = isinstance(got, NoCut) and got.value == want.value
        if not ok:
            bad.append((g.n, got, want))
    ok = not bad and elapsed < 300.0
    assert _verdict(
        "criterion 1 (unweighted exactness)",
        ok,
        f"{len(results)} graphs, {len(bad)} mismatches, {elapsed:.1f}s (< 300s)",
    )


def test_criterion_2_weighted_exactness():
    results, per_graph, elapsed = weighted_runs()
    assert len(results) >= 150
    bad = 0
    for d, got, want in results:
        if isinstance(want, tuple):
            if not (isinstance(got, VertexCut) and got.value == want[0] and validate_cut(d, got)):
                bad += 1
        elif not isinstance(got, NoCut):
            bad += 1
    ok = bad == 0 and elapsed < 600.0
    assert _verdict(
        "criterion 2 (weighted exactness)",
        ok,
        f"{len(results)} digraphs, {bad} mismatches, {elapsed:.1f}s (< 600s)",
    )


def test_criterion_3_gabow_decisions():
    rng = random.Random(33)
    cases = 0
    bad = []
    while cases < 200:
        n = rng.randrange(6, 41)
        p = rng.choice([0.1, 0.18, 0.3, 0.45, 0.6])
        k = rng.randrange(1, 9)
        g = random_graph(n, max(p, 1.3 / n), 1000 + cases, connected=rng.random() < 0.92)
        got = gabow_vc(g, k)
        want = brute_kappa(g)
        kappa = want[0] if isinstance(want, tuple) else want.value
        if kappa >= k:
            ok = isinstance(got, KConnected)
        elif isinstance(got, NoCut):
            ok = got.value == kappa
        else:
            ok = isinstance(got, VertexCut) and got.value == kappa and validate_cut(g, got)
        if not ok:
            bad.append((n, p, k, kappa, got))
        cases += 1
    assert _verdict(
        "criterion 3 (gap-based decisions)", not bad, f"{cases} cases, {len(bad)} mismatches"
    )


def test_criterion_4_crossing_families():
    start = time.perf_counter()
    settings = 0
    violations = []
    for n, alpha in [(6, 1), (7, 1), (8, 1.5), (9, 2), (10, 2), (11, 3), (12, 2),
                     (9, 1), (10, 4), (12, 5), (8, 8), (12, 12)]:
        fam = symmetric_crossing_family(n, alpha)
        ok, witness = check_symmetric_crossing(fam.pairs, n, alpha)
        if not ok or fam.max_degree() > fam.degree_bound:
            violations.append(("sym", n, alpha, witness))
        settings += 1
    for na, nb, l, r in [(6, 6, 1, 2), (8, 8, 2, 4), (10, 10, 2, 5), (12, 12, 3, 6),
                         (10, 12, 2, 8), (12, 10, 1, 5), (9, 11, 3, 7), (12, 12, 6, 6),
                         (7, 12, 2, 11), (12, 8, 4, 4), (11, 11, 1, 1), (10, 10, 5, 9)]:
        fam = asymmetric_crossing_family(range(na), range(nb), l, r)
        ok, witness = check_crossing_family(fam.pairs, range(na), range(nb), l, r)
        if not ok or fam.max_degree() > fam.degree_bound:
            violations.append(("asym", na, nb, l, r, witness))
        settings += 1
    elapsed = time.perf_counter() - start
    ok = settings >= 20 and not violations and elapsed < 120.0
    assert _verdict(
        "criterion 4 (crossing families exhaustive)",
        ok,
        f"{settings} settings, {len(violations)} violations, {elapsed:.1f}s (< 120s)",
    )


def test_criterion_5_selectors():
    violations = []
    settings = 0
    for n in range(7, 11):
        for k in (1, 2, 3):
            if 2 * k >= n:
                continue
            for eps in (Fraction(1, 4), Fraction(1, 2)):
                fam = build_selector(n, k, eps)
                ok, witness = check_selector(fam.sets, n, k, eps)
                sizes_ok = all(len(s) >= 2 for s in fam.sets)
                if not ok or not sizes_ok:
                    violations.append((n, k, eps, witness))
                settings += 1
    assert _verdict(
        "criterion 5 (selectors exhaustive)",
        not violations,
        f"{settings} settings, {len(violations)} violations",
    )


def test_criterion_6_clustering():
    rng = random.Random(66)
    graphs = 0
    failures = []
    sizes = [20, 30, 40, 60, 80, 100, 140, 200]
    while graphs < 100:
        n = sizes[graphs % len(sizes)]
        avg_deg = rng.choice([3, 5, 8])
        g = random_graph(n, min(0.9, avg_deg / n), 500 + graphs)
        d = rng.choice([2, 3, 4])
        dist = lambda u, v, _g=g: symdiff_size(_g, u, v)
        clustering = cnc(g, dist, d)
        ok, fails = check_clustering(clustering, g, dist, d, samples=1000, seed=graphs)
        if not ok:
            failures.append((n, d, fails[:2]))
        graphs += 1
    assert _verdict(
        "criterion 6 (clustering contract)",
        not failures,
        f"{graphs} graphs x 1000 cover samples, {len(failures)} failures",
    )


def test_criterion_7_kernel_soundness():
    bad_lower = 0
    pairs = 0
    for seed in range(50):
        n = 10 + seed % 16
        g = random_graph(n, 0.18 + 0.02 * (seed % 8), 700 + seed)
        ell = 1 + seed % 4
        idx = build_kernel_index(g, ell)
        for s, t in itertools.combinations(range(n), 2):
            if g.has_edge(s, t):
                continue
            pairs += 1
            if query_kappa_upper(idx, s, t) < brute_pair_kappa(g, s, t):
                bad_lower += 1
    promise_bad = 0
    for seed in range(50):
        inst = generate_planted(
            "unbalanced", {"l": 2, "s": 2 + seed % 3, "r": 11 + seed % 6}, seed=seed
        )
        g = inst.graph
        kappa = inst.cut.value
        idx = build_kernel_index(g, max(1, len(inst.cut.L)))
        for s in inst.cut.L:
            for t in inst.cut.R:
                if g.has_edge(s, t):
                    continue
                if query_kappa_upper(idx, s, t) != kappa:
                    promise_bad += 1
    ok = bad_lower == 0 and promise_bad == 0
    assert _verdict(
        "criterion 7 (kernel soundness + promise)",
        ok,
        f"{pairs} pairs never undershot ({bad_lower} bad), 50 planted promise instances ({promise_bad} bad)",
    )


def test_criterion_8_isolating_cuts():
    rng = random.Random(88)
    done = 0
    bad = 0
    attempts = 0
    while done < 100 and attempts < 500:
        attempts += 1
        n = rng.randrange(8, 26)
        g = random_graph(n, rng.choice([0.15, 0.25, 0.4]), 800 + attempts)
        order = list(range(n))
        rng.shuffle(order)
        target = rng.randrange(2, 9)
        indep = []
        for v in order:
            if all(not g.has_edge(v, u) for u in indep):
                indep.append(v)
            if len(indep) == target:
                break
        if len(indep) < 2:
            continue
        res = isolating_vertex_cuts(g, indep)
        truth = brute_isolating_values(g, indep)
        for v in indep:
            if res.value(v) != truth[v]:
                bad += 1
        done += 1
    assert _verdict(
        "criterion 8 (isolating cuts)", done >= 100 and bad == 0,
        f"{done} instances, {bad} per-terminal mismatches",
    )


def test_criterion_9_sparsifier_soundness():
    results, per_graph, _ = weighted_runs()
    invalid = sum(stats.get("sparsified_invalid") for _, stats in per_graph)
    rng = random.Random(99)
    sampled = 0
    bad = 0
    digraphs = [d for d, _, _ in results]
    while sampled < 500:
        d = digraphs[rng.randrange(len(digraphs))]
        s, t = rng.randrange(d.n), rng.randrange(d.n)
        if s == t or d.has_arc(s, t):
            continue
        sampled += 1
        h = sparsify_symmetric(d, s, t)
        if brute_pair_kappa(h, s, t) != brute_pair_kappa(d, s, t):
            bad += 1
    ok = invalid == 0 and bad == 0
    assert _verdict(
        "criterion 9 (sparsified-instance soundness)",
        ok,
        f"{invalid} invalid extractions across criterion-2 runs, {sampled} sampled pairs ({bad} value mismatches)",
    )


def test_criterion_10_sparsification():
    bad = []
    for seed in range(100):
        n = 8 + seed % 20
        g = random_graph(n, 0.2 + 0.03 * (seed % 10), 600 + seed)
        want = brute_kappa(g)
        kappa = want[0] if isinstance(want, tuple) else want.value
        for k in range(1, 6):
            out = ni_sparsify(g, k)
            got = brute_kappa(out)
            kp = got[0] if isinstance(got, tuple) else got.value
            if out.m > k * g.n or min(kp, k) != min(kappa, k):
                bad.append((seed, k))
    assert _verdict(
        "criterion 10 (sparsification)", not bad,
        f"100 graphs x k in 1..5, {len(bad)} violations",
    )


def test_criterion_11_terminal_reduction_contract():
    _, stats, _ = unweighted_runs()
    events = [e for e in stats.events if e[0] == "terminal_reduction"]
    shrink_bad = [e for e in events if e[2] > 0.9 * e[1]]
    valid_bad = [e for e in events if not e[3]]
    ok = events and not shrink_bad and not valid_bad
    assert _verdict(
        "criterion 11 (terminal reduction contract)",
        ok,
        f"{len(events)} invocations, {len(shrink_bad)} shrinkage violations, {len(valid_bad)} invalid cuts",
    )


def test_criterion_12_instrumentation():
    _, per_graph, _ = weighted_runs()
    spars = sum(s.get("sparsified_edges_lopsided") for n, s in per_graph if n >= 16)
    naive = sum(s.get("naive_edges_lopsided") for n, s in per_graph if n >= 16)
    factor = naive / spars if spars else float("inf")
    threshold = SPARSIFY_FACTOR
    ok = naive > 0 and factor >= threshold
    assert _verdict(
        "criterion 12 (instrumentation, soft)",
        ok,
        f"n>=16 instances: naive {naive} / sparsified {spars} = {factor:.2f}x (threshold {threshold}x)",
    )
