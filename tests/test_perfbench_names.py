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


def _layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.LAYERS


def test_every_traced_function_resolves():
    named = 0
    for layer, modules in _layers().items():
        for module_name, functions in modules.items():
            module = importlib.import_module(module_name)
            for name in functions:
                assert callable(getattr(module, name, None)), (layer, module_name, name)
                named += 1
    assert named > 20
