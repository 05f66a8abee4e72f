"""Span tracing of vcut's public layer functions, installed from outside.

A `Tracer` replaces each listed function with a timing wrapper in every
vcut module that binds it (a name bound by ``from .x import y`` lives in
the importing module too, so each binding is patched), plus the backend
``solve`` that ``vcut.maxflow`` looks up at call time.  Spans are kept in
memory as tuples and turned into per-layer metrics after the run; the
program itself is never edited.

A layer's self time is the sum over its spans of span duration minus the
durations of the span's direct children.  Children nest strictly inside
their parent on one thread, so self time is never negative.
"""

from __future__ import annotations

import sys
import time

# Layer -> module -> public functions traced as spans.
LAYERS = {
    "maxflow": {
        "vcut.maxflow": (
            "vertex_max_flow", "min_st_cut", "min_st_separator",
            "min_s_to_set_separator", "rooted_connectivity", "weak_separator",
        ),
    },
    "kernel": {"vcut.kernel": ("build_kernel_index", "query_kappa_upper")},
    "cnc": {"vcut.cnc": ("cnc", "weighted_cnc", "sketch_construct", "sketch_recover")},
    "isocut": {
        "vcut.isocut": (
            "balanced_terminal_vc", "subgraph_balanced_terminal_vc", "isolating_vertex_cuts",
        ),
    },
    "pseudorandom": {
        "vcut.pseudorandom": (
            "symmetric_crossing_family", "asymmetric_crossing_family", "map_pairs",
            "build_selector", "build_disperser", "build_unique_neighbor_expander",
            "build_mixing_graph",
        ),
    },
    "unweighted": {
        "vcut.unweighted": ("unbalanced_vc", "terminal_reduction", "expander_decomposition"),
    },
    "weighted": {
        "vcut.weighted": (
            "sparsify_lopsided", "sparsify_symmetric", "lopsided_pairs", "symmetric_pairs",
        ),
    },
    "gabow": {"vcut.gabow": ("rich_set_or_cut",)},
    "graphs": {"vcut.graphs": ("ni_sparsify", "validate_cut")},
}

SOLVE = "solve"
ROOT = "driver"
FAMILIES = ("symmetric_crossing_family", "asymmetric_crossing_family")
# Driver-level branches whose returned cuts decide `unweighted.decided_by`.
BRANCHES = {
    "unbalanced_vc": "unbalanced",
    "balanced_terminal_vc": "balanced",
    "terminal_reduction": "terminal_reduction",
}


def _note(name, args, kwargs, result):
    """Small facts about a span's call kept with the span (no references to
    program objects survive the call except cuts of driver branches)."""
    if name == SOLVE:
        return result[2]  # completed; False means stopped at its limit
    if name == "query_kappa_upper":
        cap = kwargs.get("cap", args[3] if len(args) > 3 else None)
        return cap is not None and result < cap
    if name in FAMILIES:
        return (len(result.pairs), "composed" in result.method)
    if name in BRANCHES:
        return result[0] if name == "terminal_reduction" else result
    return None


class Tracer:
    """Installs span wrappers around vcut's layer functions on demand."""

    def __init__(self):
        self.names = [ROOT, SOLVE]
        self.layer_of = {ROOT: "driver", SOLVE: "maxflow"}
        for layer, modules in LAYERS.items():
            for funcs in modules.values():
                for fn in funcs:
                    self.names.append(fn)
                    self.layer_of[fn] = layer
        self.spans = []  # (span id, parent id, name id, start ns, end ns, instance, note)
        self.stack = []
        self.next_id = 0
        self.instance = -1
        self._patches = self._plan()

    def _plan(self):
        """(module, attribute, original, wrapper) for every binding."""
        import vcut.maxflow

        backend = sys.modules[
            "vcut._pyflow" if vcut.maxflow.BACKEND == "python" else "vcut._core"
        ]
        targets = [(backend, SOLVE, getattr(backend, SOLVE))]
        vcut_modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "vcut" or key.startswith("vcut."))
        ]
        for modules in LAYERS.values():
            for home, funcs in modules.items():
                for fn in funcs:
                    original = getattr(sys.modules[home], fn)
                    for mod in vcut_modules:
                        if getattr(mod, fn, None) is original:
                            targets.append((mod, fn, original))
        index = {name: i for i, name in enumerate(self.names)}
        return [
            (mod, attr, original, self._wrap(original, attr, index[attr]))
            for mod, attr, original in targets
        ]

    def _wrap(self, fn, name, name_id):
        tracer = self
        clock = time.perf_counter_ns

        def span(*args, **kwargs):
            sid = tracer.next_id
            tracer.next_id = sid + 1
            stack = tracer.stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                note = None if result is None else _note(name, args, kwargs, result)
                tracer.spans.append((sid, parent, name_id, t0, t1, tracer.instance, note))

        span.__wrapped__ = fn
        return span

    def call(self, instance, fn, *args, **kwargs):
        """Run fn under a root span with every layer wrapper installed."""
        self.instance = instance
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        try:
            return self._wrap(fn, ROOT, 0)(*args, **kwargs)
        finally:
            for mod, attr, original, _ in self._patches:
                setattr(mod, attr, original)

    def write(self, path):
        """Write every span as one tab-separated line."""
        with open(path, "w") as out:
            out.write("instance\tspan\tparent\tname\tstart_ns\tend_ns\n")
            names = self.names
            out.writelines(
                f"{inst}\t{sid}\t{parent}\t{names[nid]}\t{t0}\t{t1}\n"
                for sid, parent, nid, t0, t1, inst, _ in self.spans
            )


def self_times(spans):
    """Per-span self time in ns, keyed by span id."""
    child = {}
    for _, parent, _, t0, t1, _, _ in spans:
        if parent >= 0:
            child[parent] = child.get(parent, 0) + (t1 - t0)
    return {sid: (t1 - t0) - child.get(sid, 0) for sid, _, _, t0, t1, _, _ in spans}


# Per-layer metrics and their units.  `_s` metrics are mean self seconds
# per traced driver call; counts and shares come from the first traced pass,
# which holds every instance exactly once, so they repeat exactly.
SELF_TIME = {
    "maxflow.solve_s": (SOLVE,),
    "maxflow.build_s": LAYERS["maxflow"]["vcut.maxflow"],
    "kernel.build_s": ("build_kernel_index",),
    "kernel.query_s": ("query_kappa_upper",),
    "cnc.s": ("cnc", "weighted_cnc"),
    "cnc.sketch_s": ("sketch_construct", "sketch_recover"),
    "isocut.balanced_s": ("balanced_terminal_vc", "subgraph_balanced_terminal_vc"),
    "isocut.isolating_s": ("isolating_vertex_cuts",),
    "pseudorandom.s": LAYERS["pseudorandom"]["vcut.pseudorandom"],
    "unweighted.unbalanced_s": ("unbalanced_vc",),
    "unweighted.terminal_reduction_s": ("terminal_reduction",),
    "unweighted.expander_s": ("expander_decomposition",),
    "weighted.sparsify_s": ("sparsify_lopsided", "sparsify_symmetric"),
    "weighted.pairs_s": ("lopsided_pairs", "symmetric_pairs"),
    "gabow.rich_set_s": ("rich_set_or_cut",),
    "graphs.sparsify_s": ("ni_sparsify",),
    "graphs.validate_s": ("validate_cut",),
    "driver.self_s": (ROOT,),
}
DECIDED_BY = ("min_degree", "unbalanced", "balanced", "terminal_reduction")
PER_LAYER = {
    **{name: "s" for name in SELF_TIME},
    "maxflow.calls": "count",
    "maxflow.arcs": "count",
    "maxflow.early_stop_share": "share",
    "maxflow.solve_share": "share",
    "kernel.query_calls": "count",
    "kernel.arcs": "count",
    "kernel.hit_share": "share",
    "pseudorandom.pairs": "count",
    "pseudorandom.composed_share": "share",
    "weighted.sparsified_edge_ratio": "ratio",
    "gabow.allpairs_fallback_share": "share",
    **{f"unweighted.decided_by.{branch}": "count" for branch in DECIDED_BY},
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
    "trace.spans": "count",
}


def _share(part, whole):
    return part / whole if whole else 0.0


def summarize(tracer, calls):
    """Per-layer metrics from the spans and the per-call records (dicts with
    first_pass, untraced_s, traced_s, counters, final, min_degree)."""
    from vcut.graphs import VertexCut

    first_calls = [c for c in calls if c["first_pass"]]
    n_first = len(first_calls)
    spans = [s for s in tracer.spans if s[5] < n_first]
    names = tracer.names
    name_of = {s[0]: names[s[2]] for s in spans}
    own = self_times(spans)

    self_ns = {}
    for sid, _, nid, _, _, _, _ in spans:
        self_ns[names[nid]] = self_ns.get(names[nid], 0) + own[sid]
    metrics = {
        metric: sum(self_ns.get(fn, 0) for fn in fns) / n_first / 1e9
        for metric, fns in SELF_TIME.items()
    }

    def counter(key):
        return sum(c["counters"].get(key, 0) for c in first_calls)

    solves = [s[6] for s in spans if names[s[2]] == SOLVE]
    queries = [s[6] for s in spans if names[s[2]] == "query_kappa_upper"]
    families = [
        s[6] for s in spans
        if names[s[2]] in FAMILIES
        and tracer.layer_of.get(name_of.get(s[1])) != "pseudorandom"
    ]
    root_ns = sum(s[4] - s[3] for s in spans if s[1] < 0)
    metrics.update({
        "maxflow.calls": counter("flow_calls") / n_first,
        "maxflow.arcs": counter("flow_edges") / n_first,
        "maxflow.early_stop_share": _share(sum(1 for done in solves if done is False), len(solves)),
        "maxflow.solve_share": _share(self_ns.get(SOLVE, 0), root_ns),
        "kernel.query_calls": len(queries) / n_first,
        "kernel.arcs": counter("kernel_edges") / n_first,
        "kernel.hit_share": _share(sum(1 for hit in queries if hit), len(queries)),
        "pseudorandom.pairs": sum(f[0] for f in families) / n_first,
        "pseudorandom.composed_share": _share(sum(1 for f in families if f[1]), len(families)),
        "weighted.sparsified_edge_ratio": _share(counter("sparsified_edges"), counter("naive_edges")),
        "gabow.allpairs_fallback_share": _share(
            sum(1 for c in first_calls if c["counters"].get("gabow_allpairs_fallback")), n_first
        ),
    })

    # Which driver-level branch first produced a cut of the final value.
    decided = dict.fromkeys(DECIDED_BY, 0)
    branch_calls = {}
    for sid, parent, nid, t0, _, inst, note in spans:
        if names[nid] in BRANCHES and name_of.get(parent) == ROOT:
            branch_calls.setdefault(inst, []).append((t0, BRANCHES[names[nid]], note))
    for inst, call in enumerate(first_calls):
        if call["min_degree"] is None:
            continue
        if call["final"] == call["min_degree"]:
            decided["min_degree"] += 1
            continue
        for _, branch, cut in sorted(branch_calls.get(inst, []), key=lambda b: b[0]):
            if isinstance(cut, VertexCut) and cut.value == call["final"]:
                decided[branch] += 1
                break
    metrics.update({f"unweighted.decided_by.{b}": v for b, v in decided.items()})

    untraced = sum(c["untraced_s"] for c in calls)
    traced = sum(c["traced_s"] for c in calls)
    metrics["trace.overhead_s"] = (traced - untraced) / len(calls)
    metrics["trace.overhead_share"] = _share(traced - untraced, untraced)
    metrics["trace.spans"] = len(tracer.spans) / len(calls)
    return metrics
