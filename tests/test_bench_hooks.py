"""The benchmark's tracer wraps package functions by name, and its
workloads call the package with fixed arguments; a rename, or a removed
parameter, in the package must fail here rather than inside a benchmark
run."""

import ast
import importlib
import importlib.util
import inspect
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


WORKLOADS = TRACING.with_name("workloads.py")


def _package_calls():
    """(name, callable, argument nodes, keyword nodes) for every call in
    the benchmark's workloads whose callee is a `greengrowth` name, and
    for every function passed to `Round.call`, whose own arguments follow
    it there."""
    tree = ast.parse(WORKLOADS.read_text())
    names = {}
    for node in tree.body:
        if (isinstance(node, ast.ImportFrom) and node.module
                and node.module.split(".")[0] == "greengrowth"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                names[alias.asname or alias.name] = getattr(module,
                                                            alias.name)

    def resolve(expr):
        if isinstance(expr, ast.Name):
            return names.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            return None if owner is None else getattr(owner, expr.attr)
        return None

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        fn = resolve(node.func)
        if fn is not None:
            yield ast.unparse(node.func), fn, node.args, node.keywords
        elif (isinstance(node.func, ast.Attribute)
              and node.func.attr == "call" and len(node.args) >= 3):
            # Round.call(task, label, fn, *args, **kwargs)
            fn = resolve(node.args[2])
            if fn is not None:
                yield (ast.unparse(node.args[2]), fn, node.args[3:],
                       node.keywords)


def test_benchmark_calls_bind_to_the_package_signatures():
    # the benchmark is frozen: a parameter it passes cannot be removed
    # from the package without breaking its runs
    calls = list(_package_calls())
    assert len(calls) > 20
    bad = []
    for name, fn, args, keywords in calls:
        assert not any(isinstance(a, ast.Starred) for a in args), name
        assert all(k.arg is not None for k in keywords), name
        try:
            inspect.signature(fn).bind(*args, **{k.arg: k.value
                                                 for k in keywords})
        except TypeError as exc:
            bad.append(f"{name}: {exc}")
    assert not bad, bad
