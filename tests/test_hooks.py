"""The benchmark's span tracer finds every package attribute it rebinds.

A trim that renames or drops a traced stage would otherwise show only as
"hooks not found" in a traced benchmark run.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_benchmark_hook_resolves():
    spans = load_spans()
    assert spans.HOOKS
    tracer = spans.Tracer()
    with tracer.active():
        pass
    assert tracer.missing == set()
