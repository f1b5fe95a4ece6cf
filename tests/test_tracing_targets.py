"""The layers that perfbench traces, resolved against the package.

perfbench reports a traced name it cannot find as absent instead of failing,
so a rename in the package would silently drop a layer from the benchmark's
per-layer metrics; this test makes such a rename fail the suite instead.
"""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracer.absent == []
