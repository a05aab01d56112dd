"""The benchmark's tracer still finds every name it wraps in the package.

``perfbench/spans.py`` wraps functions at the names the calling modules bind
(``opnas.model.matmul``, the entries of the op tables, ``Supernet.save`` ...).
The root test run also collects ``perfbench/``, whose smoke test runs every
workload traced through a subprocess; here the tracer is installed on the
package in process and undone, which takes milliseconds, so a name deleted
or renamed in ``src/`` fails with that name. The search workloads' calls
into the package (``clock=``, ``BiwsEvaluator(save_path=)``, the
two-argument evaluator wrapper) run once each at tiny size.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = ("tensor", "search_space", "evolution", "model", "supernet", "metrics")


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"opnas_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _bindings(modules) -> list[dict]:
    """Every namespace the tracer patches, copied."""
    t = modules["tensor"]
    owners = [*modules.values(), t.UNARY_OP_KINDS, t.BINARY_OP_KINDS, t.Adam,
              modules["model"].Model, modules["supernet"].Supernet]
    return [dict(o) if isinstance(o, dict) else dict(vars(o)) for o in owners]


def test_tracer_installs_on_the_package_and_undoes():
    spans = _load("spans")
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


@pytest.mark.parametrize("workload", ["SearchSynthetic", "SearchBiws"])
def test_search_workload_unit_passes_its_checks(workload, tmp_path, monkeypatch):
    bench = _load("workloads")
    modules = {m: importlib.import_module(f"opnas.{m}") for m in MODULES}
    losses = bench.LossLog(modules["model"].TrainingDiverged)
    for owner in (modules["model"], modules["supernet"]):
        monkeypatch.setattr(owner, "mlm_pretrain", losses.wrap(owner.mlm_pretrain))
    w = getattr(bench, workload)(modules, seed=0, tiny=True, work=tmp_path)
    w.setup()
    units = [w.unit(keep=True)]
    units.append(w.reference(units))  # a second unit, so repeats are checked
    checks = w.checks(units, losses)
    assert checks and all(ok for _, ok, _ in checks), checks
