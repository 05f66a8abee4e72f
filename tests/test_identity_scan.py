"""A bounded slice of `benchmarks/bench_identity.py`, on both flow backends:
the weighted driver gives the former four-call driver's cut on every
digraph of the slice, and the unweighted driver with and without its
unbalanced branch gives the same value on every graph (where their cuts
differ is data, not a failure)."""

import importlib.util
import os

import pytest

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "benchmarks", "bench_identity.py")


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_identity", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("backend", ("python_backend", "compiled_backend"))
def test_slice(bench, backend, request):
    request.getfixturevalue(backend)
    rows = bench.scan("weighted", bench.weighted_design(max_n=14, planted_seeds=1))
    total = bench.total(rows)
    assert total["instances"] == 204 and total["differences"] == 0, rows
    assert total["lopsided_run"] > 0 and total["lopsided_skipped"] > 0, total

    rows = bench.scan("unweighted", bench.unweighted_design(max_n=20, seeds=1, planted_seeds=1))
    total = bench.total(rows)
    assert total["instances"] == 112 and total["value_differences"] == 0, rows
