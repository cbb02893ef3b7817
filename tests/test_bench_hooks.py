"""The benchmark's tracer wraps package functions by name; a rename in the
package must fail here rather than inside a benchmark run."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracer_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = dict(tracing.SPANS)
    targets["bitree.hn_model_log"] = (tracing.bitree, "hn_model_log")
    missing = [name for name, (mod, attr) in targets.items()
               if not callable(getattr(mod, attr, None))]
    assert not missing, f"traced functions not found: {missing}"
