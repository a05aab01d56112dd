"""The benchmark's tracer still finds every name it wraps in the package.

``perfbench/spans.py`` wraps functions at the names the calling modules bind
(``opnas.model.matmul``, the entries of the op tables, ``Supernet.save`` ...).
The root test run does not collect ``perfbench/``, so a name deleted or
renamed in ``src/`` would break only the traced benchmark; here the tracer is
installed on the package and undone, which takes milliseconds.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = ("tensor", "search_space", "evolution", "model", "supernet", "metrics")


def _load_spans():
    spec = importlib.util.spec_from_file_location("opnas_bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(modules) -> list[dict]:
    """Every namespace the tracer patches, copied."""
    t = modules["tensor"]
    owners = [*modules.values(), t.UNARY_OP_KINDS, t.BINARY_OP_KINDS, t.Adam,
              modules["model"].Model, modules["supernet"].Supernet]
    return [dict(o) if isinstance(o, dict) else dict(vars(o)) for o in owners]


def test_tracer_installs_on_the_package_and_undoes():
    spans = _load_spans()
    modules = {m: importlib.import_module(f"opnas.{m}") for m in MODULES}
    T, S = modules["tensor"], modules["search_space"]
    before = _bindings(modules)
    tracer, patches = spans.Tracer(), spans.Patches()
    try:
        spans.install(tracer, patches, modules)
        assert _bindings(modules) != before
        # the dag evaluator looks its ops up per call, so it runs the wrappers
        rng = np.random.default_rng(0)
        env = {name: T.Tensor(rng.normal(size=(6, 4))) for name in ("q", "k", "v")}
        S.eval_dag(S.standard_attention_dag(), env)
    finally:
        patches.undo()
    assert _bindings(modules) == before
    assert {f"tensor.{op}" for op in spans.TENSOR_OPS} <= set(tracer.names)
    table = tracer.table()
    assert table.of("tensor.softmax").sum() == 1
    assert table.of("tensor.matmul").sum() == 2
