"""Cut fingerprints: the answers of the three exact drivers on small seeded
instances, pinned in `fingerprints.json`.

Each entry holds the driver's value and its cut (L, S, R), or the sentinel
it returned.  Optimisations must leave every answer bit-identical, so any
difference is a failure.  The answers are checked on the pure-Python flow
backend and, where a C compiler builds it, on the compiled one.  Regenerate
the file only for a change that is meant to alter answers, and say so with
the change:

    PYTHONPATH=src python tests/test_fingerprints.py --write
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path

import pytest

from vcut.gabow import KConnected, gabow_vc
from vcut.graphs import VertexCut
from vcut.instrument import Counters
from vcut.oracle import generate_planted, random_digraph, random_graph
from vcut.unweighted import vertex_connectivity_unweighted
from vcut.weighted import vertex_connectivity_weighted

PINNED = Path(__file__).with_name("fingerprints.json")


def _instances():
    """label -> zero-argument call of a driver."""
    out = {}
    for i in range(24):
        n, p = 8 + i % 17, (0.2, 0.3, 0.45)[i % 3]
        out[f"unweighted gnp n={n} p={p} seed={100 + i}"] = (
            vertex_connectivity_unweighted, (random_graph(n, p, 100 + i),))
    planted = [
        ("unbalanced", {"l": 2, "s": 3, "r": 12}),
        ("balanced-terminal", {"side": 6, "s": 3}),
    ]
    for kind, params in planted:
        for seed in (0, 1):
            g = generate_planted(kind, params, seed).graph
            out[f"unweighted {kind} n={g.n} seed={seed}"] = (vertex_connectivity_unweighted, (g,))
    # Sparse graphs whose balanced-terminal calls take the selector regime
    # (k / eps <= |T| / 4), which the instances above never reach.
    for n, p, seed in ((20, 0.12, 502), (28, 0.1, 505), (32, 0.12, 602), (36, 0.1, 601)):
        out[f"unweighted selector gnp n={n} p={p} seed={seed}"] = (
            vertex_connectivity_unweighted, (random_graph(n, p, seed),))
    for i in range(18):
        n, p, w = 6 + i % 9, (0.3, 0.45)[i % 2], (1, 4, 16, 64)[i % 4]
        out[f"weighted digraph n={n} p={p} W={w} seed={200 + i}"] = (
            vertex_connectivity_weighted, (random_digraph(n, p, w, 200 + i),))
    planted = [
        ("lopsided", {"l": 2, "s": 3, "r": 8, "W": 8}),
        ("symmetric", {"l": 3, "s": 3, "r": 6, "W": 8}),
    ]
    for kind, params in planted:
        for seed in (0, 1):
            d = generate_planted(kind, params, seed).graph
            out[f"weighted {kind} n={d.n} seed={seed}"] = (vertex_connectivity_weighted, (d,))
    for i in range(8):
        n, p = (16, 24, 32, 40)[i % 4], (0.2, 0.35)[i // 4]
        g = random_graph(n, p, 300 + i)
        delta = g.min_degree()
        for k in (delta - 1, delta + 1):
            if k >= 1:
                out[f"gabow gnp n={n} p={p} seed={300 + i} k={k}"] = (gabow_vc, (g, k))
    return out


def fingerprint(result):
    if isinstance(result, VertexCut):
        return {
            "value": result.value,
            "L": sorted(result.L),
            "S": sorted(result.S),
            "R": sorted(result.R),
        }
    if isinstance(result, KConnected):
        return {"sentinel": "KConnected", "k": result.k}
    return {"sentinel": type(result).__name__, "value": result.value}


INSTANCES = _instances()


@functools.cache
def _pinned():
    return json.loads(PINNED.read_text())


def test_pinned_labels_match_instances():
    assert sorted(_pinned()) == sorted(INSTANCES)


@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_answer_is_pinned(label, python_backend):
    driver, args = INSTANCES[label]
    assert fingerprint(driver(*args)) == _pinned()[label]


def test_answers_pinned_on_compiled_backend(compiled_backend):
    for label, (driver, args) in sorted(INSTANCES.items()):
        assert fingerprint(driver(*args)) == _pinned()[label], label


def _check_repeat_calls():
    """A second call on the same input object returns the same cut,
    counters and events as the first: the drivers keep what they learn
    about vertex pairs on the graphs they build per call, never on their
    input."""
    probes = 0
    for label, (driver, args) in sorted(INSTANCES.items()):
        runs = []
        for _ in range(2):
            stats = Counters()
            result = driver(*args, stats=stats)
            runs.append((fingerprint(result), stats.as_dict(), stats.events))
        assert runs[0] == runs[1], label
        assert runs[0][0] == _pinned()[label], label
        probes += runs[0][1].get("flow_calls", 0) + runs[0][1].get("path_skips", 0)
    assert probes > 0


def test_repeat_calls_match(python_backend):
    _check_repeat_calls()


def test_repeat_calls_match_compiled(compiled_backend):
    _check_repeat_calls()


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(__doc__)
    pinned = {label: fingerprint(driver(*args)) for label, (driver, args) in INSTANCES.items()}
    lines = (f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}" for k, v in sorted(pinned.items()))
    PINNED.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(pinned)} fingerprints to {PINNED}")
