"""The span tracer of `perfbench/spans.py` finds every function it names.

The tracer looks up each (module, function) of its `LAYERS` with
`getattr` when it installs its spans, so renaming or deleting one of
those functions in vcut breaks `python3 perfbench/run.py --trace 1`, which
the test suite does not otherwise run.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _layers():
    return _spans().LAYERS


def test_every_traced_function_resolves():
    named = 0
    for layer, modules in _layers().items():
        for module_name, functions in modules.items():
            module = importlib.import_module(module_name)
            for name in functions:
                assert callable(getattr(module, name, None)), (layer, module_name, name)
                named += 1
    assert named > 20


def test_lopsided_instances_are_traced():
    from vcut.oracle import generate_planted
    from vcut.weighted import vertex_connectivity_weighted

    spans = _spans()
    for modules in spans.LAYERS.values():
        for module_name in modules:
            importlib.import_module(module_name)
    tracer = spans.Tracer()
    d = generate_planted("lopsided", {"l": 2, "s": 3, "r": 10, "W": 8}, seed=0).graph
    tracer.call(0, vertex_connectivity_weighted, d)
    names = [tracer.names[name_id] for _, _, name_id, *_ in tracer.spans]
    assert names.count("sparsify_lopsided") > 0, names
