"""Span tracer for the benchmark's traced runs, and the per-layer metrics.

The tracer wraps public functions of the ``opnas`` package at the names the
calling module binds (``opnas.model.matmul``, ``opnas.evolution.mutate_intra``,
the entries of ``opnas.tensor.UNARY_OP_KINDS`` ...). Each call records one
span: name, start, end and the index of the span that was open when it
started. Spans stay in flat in-memory arrays and are written once, at the
end of the run. Self time is a span's duration minus the part its child
spans cover.

Nothing here changes what a wrapped function computes: wrappers pass
arguments and results through unchanged, and ``Patches.undo`` puts every
original back.
"""

from __future__ import annotations

import functools
import time
from array import array
from pathlib import Path

import numpy as np

# the tensor ops counted per training step, by the name the model module
# (or the dag evaluator's op tables) calls them
TENSOR_OPS = (
    "matmul", "add", "concat", "embedding", "layer_norm", "glu",
    "depthwise_conv1d", "softsign", "softmax", "scale", "transpose", "neg",
    "logsigmoid", "cosine", "euclidean", "masked_cross_entropy", "mul_const",
)

# model-module bindings of tensor functions; the rest of TENSOR_OPS reach the
# model only through search_space.eval_dag and the op tables
_MODEL_TENSOR_NAMES = (
    "add", "concat", "depthwise_conv1d", "embedding", "glu", "layer_norm",
    "masked_cross_entropy", "matmul", "mul_const", "softsign", "transpose",
)


class Patches:
    """Attribute and dict-entry replacements that can be undone in order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def get(self, owner, key: str):
        if isinstance(owner, dict):
            return owner[key]
        # a class attribute is read from __dict__ so a plain function comes
        # back, not a bound method
        return owner.__dict__[key] if isinstance(owner, type) else getattr(owner, key)

    def set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, self.get(owner, key)))
        if isinstance(owner, dict):
            owner[key] = value
        else:
            setattr(owner, key, value)

    def undo(self) -> None:
        while self._undo:
            owner, key, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[key] = old
            else:
                setattr(owner, key, old)


class Tracer:
    """Flat span store: name id, start, end, parent index per span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def span(self, name: str) -> "_Span":
        return _Span(self, self.name_id(name))

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(i)

        return traced

    def table(self) -> "SpanTable":
        return SpanTable(self.names, np.frombuffer(self.name, dtype=np.int32),
                         np.frombuffer(self.start), np.frombuffer(self.end),
                         np.frombuffer(self.parent, dtype=np.int32))

    def save(self, path: Path) -> None:
        t = self.table()
        np.savez(path, names=np.array(t.names), name=t.name, start=t.start,
                 end=t.end, parent=t.parent)


class _Span:
    __slots__ = ("tracer", "nid", "i")

    def __init__(self, tracer: Tracer, nid: int):
        self.tracer = tracer
        self.nid = nid

    def __enter__(self):
        self.i = self.tracer.open(self.nid)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.i)
        return False


def _traced_pool_class(tracer: Tracer, base):
    """ProcessPoolExecutor whose lifetime (fork, submit, wait, shutdown) is a span."""
    nid = tracer.name_id("evolution.pool")

    class TracedProcessPoolExecutor(base):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._bench_span = tracer.open(nid)

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                tracer.close(self._bench_span)

    return TracedProcessPoolExecutor


def _noop_marking(fn, tracer: Tracer):
    """mutate_intra that leaves an empty marker span when it returns the parent."""
    nid = tracer.name_id("search_space.mutate_intra_noop")

    @functools.wraps(fn)
    def mutate_intra(parent, *args, **kwargs):
        child = fn(parent, *args, **kwargs)
        if child == parent:
            tracer.close(tracer.open(nid))
        return child

    return mutate_intra


def install(tracer: Tracer, patches: Patches, opnas: dict) -> None:
    """Wrap every traced boundary; ``opnas`` maps short names to modules."""
    tensor, model, metrics = opnas["tensor"], opnas["model"], opnas["metrics"]
    evolution, supernet = opnas["evolution"], opnas["supernet"]

    def wrap(owner, key, name):
        patches.set(owner, key, tracer.wrap(patches.get(owner, key), name))

    # tensor: the model's own bindings, the dag op tables, backward and Adam
    for key in _MODEL_TENSOR_NAMES:
        wrap(model, key, f"tensor.{key}")
    for table in (tensor.UNARY_OP_KINDS, tensor.BINARY_OP_KINDS):
        for key in list(table):
            wrap(table, key, f"tensor.{key}")
    wrap(model, "backward", "tensor.backward")
    wrap(tensor.Adam, "step", "tensor.adam")

    # model: training, forward, masking, building, scoring (as called by the
    # harness through opnas.model and by BiwsEvaluator through opnas.supernet)
    wrap(model.Model, "forward", "model.forward")
    wrap(model, "mask_tokens", "model.mask_tokens")
    for owner in (model, supernet):
        wrap(owner, "mlm_pretrain", "model.mlm_pretrain")
        wrap(owner, "build_model", "model.build_model")
        wrap(owner, "proxy_evaluate", "model.proxy_evaluate")

    wrap(metrics, "uniformity_report", "metrics.uniformity_report")

    # search_space, at the names the search loop binds
    patches.set(evolution, "mutate_intra",
                _noop_marking(patches.get(evolution, "mutate_intra"), tracer))
    wrap(evolution, "mutate_intra", "search_space.mutate_intra")
    wrap(evolution, "mutate_inter", "search_space.mutate_inter")
    wrap(evolution, "random_dag", "search_space.random_dag")
    wrap(evolution, "backbone_to_payload", "search_space.backbone_to_payload")

    wrap(evolution, "op_distribution", "evolution.op_distribution")
    wrap(evolution, "record_result", "evolution.record_result")
    patches.set(evolution, "ProcessPoolExecutor",
                _traced_pool_class(tracer, evolution.ProcessPoolExecutor))

    wrap(supernet, "init_candidate", "supernet.init_candidate")
    wrap(supernet.Supernet, "save", "supernet.save")


class SpanTable:
    """Column view of recorded spans with the queries the metrics need."""

    def __init__(self, names, name, start, end, parent):
        self.names = list(names)
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.dur = end - start
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=self.dur[has_parent],
                                 minlength=len(name))
        self.self_time = self.dur - child_time

    def of(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, ancestor: np.ndarray) -> np.ndarray:
        """Spans that are, or descend from, a span in the ``ancestor`` mask."""
        flag = ancestor.copy()
        while True:
            nxt = flag | self.child_of(flag)
            if (nxt == flag).all():
                return flag
            flag = nxt

    def child_of(self, parent_mask: np.ndarray) -> np.ndarray:
        has_parent = self.parent >= 0
        return has_parent & parent_mask[np.where(has_parent, self.parent, 0)]


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if len(values) else 0.0


def layer_metrics(t: SpanTable, first_unit: np.ndarray, batch: int, seq_len: int,
                  last_losses: list[float]) -> dict[str, float]:
    """Per-layer metrics from the traced window.

    ``first_unit`` masks the first traced unit's spans: counts and ratios come
    from it alone, so they repeat exactly for a seed however many units the
    time box admitted. Times come from every traced unit.
    """
    out: dict[str, float] = {}
    pretrain = t.of("model.mlm_pretrain")
    in_pretrain = t.under(pretrain)
    adam = t.of("tensor.adam") & in_pretrain
    steps = int(adam.sum())
    steps_first = int((adam & first_unit).sum())

    def per_step(mask, values) -> float:
        return float(values[mask].sum()) / steps if steps else 0.0

    op_masks = {op: t.of(f"tensor.{op}") & in_pretrain for op in TENSOR_OPS}
    all_ops = np.zeros(len(t.name), dtype=bool)
    for mask in op_masks.values():
        all_ops |= mask
    out["tensor.calls_per_step"] = (
        int((all_ops & first_unit).sum()) / steps_first if steps_first else 0.0)
    for op, mask in op_masks.items():
        out[f"tensor.{op}.calls_per_step"] = (
            int((mask & first_unit).sum()) / steps_first if steps_first else 0.0)
        out[f"tensor.{op}.self_ms_per_step"] = 1e3 * per_step(mask, t.self_time)
    backward = t.of("tensor.backward") & in_pretrain
    out["tensor.backward_ms_per_step"] = 1e3 * per_step(backward, t.dur)
    out["tensor.adam_ms_per_step"] = 1e3 * per_step(adam, t.dur)

    pretrain_ms = 1e3 * per_step(pretrain, t.dur)
    direct = t.child_of(pretrain)
    forward = t.of("model.forward") & direct
    mask = t.of("model.mask_tokens") & direct
    excluded = forward | mask | (backward & direct) | (adam & direct)
    out["model.step_ms"] = pretrain_ms
    out["model.step_self_ms"] = pretrain_ms - 1e3 * per_step(excluded, t.dur)
    out["model.forward_ms_per_step"] = 1e3 * per_step(forward, t.dur)
    out["model.mask_ms_per_step"] = 1e3 * per_step(mask, t.dur)
    out["model.build_ms"] = 1e3 * _mean(t.dur[t.of("model.build_model")])
    out["model.proxy_ms"] = 1e3 * _mean(t.dur[t.of("model.proxy_evaluate")])
    pretrain_s = float(t.dur[pretrain].sum())
    out["model.tokens_per_s"] = steps * batch * seq_len / pretrain_s if pretrain_s else 0.0
    out["model.final_loss"] = float(np.mean(last_losses)) if last_losses else 0.0

    out["metrics.uniformity_ms"] = 1e3 * _mean(t.dur[t.of("metrics.uniformity_report")])

    for key, name in (("mutate_intra", "search_space.mutate_intra"),
                      ("mutate_inter", "search_space.mutate_inter"),
                      ("random_dag", "search_space.random_dag"),
                      ("payload", "search_space.backbone_to_payload")):
        out[f"search_space.{key}_us"] = 1e6 * _mean(t.dur[t.of(name)])
    intra = int((t.of("search_space.mutate_intra") & first_unit).sum())
    noop = int((t.of("search_space.mutate_intra_noop") & first_unit).sum())
    out["search_space.mutate_intra_noop_ratio"] = noop / intra if intra else 0.0

    search = t.of("evolution.search")
    iterations = int(t.of("bench.hook").sum())
    removed = t.child_of(search) & (
        t.of("bench.candidate") | t.of("evolution.pool") | t.of("bench.hook")
        | t.of("search_space.mutate_intra") | t.of("search_space.mutate_inter")
        | t.of("search_space.random_dag"))
    self_s = float(t.dur[search].sum() - t.dur[removed].sum())
    out["evolution.self_ms_per_iteration"] = 1e3 * self_s / iterations if iterations else 0.0
    out["evolution.op_distribution_us"] = 1e6 * _mean(t.dur[t.of("evolution.op_distribution")])
    out["evolution.record_result_us"] = 1e6 * _mean(t.dur[t.of("evolution.record_result")])

    hooks = t.of("bench.hook")
    saves = t.of("supernet.save")
    save_in_hook = saves & t.child_of(hooks)
    out["supernet.init_candidate_ms"] = 1e3 * _mean(t.dur[t.of("supernet.init_candidate")])
    out["supernet.save_ms"] = 1e3 * _mean(t.dur[saves])
    n_hooks = int(hooks.sum())
    out["supernet.write_back_ms"] = (
        1e3 * float(t.dur[hooks].sum() - t.dur[save_in_hook].sum()) / n_hooks
        if n_hooks and save_in_hook.any() else 0.0)
    return out


def op_microbench(tensor, reps: int) -> dict[str, float]:
    """Forward + backward time of each op called directly, in microseconds.

    Shapes are the model's (n=32, d=64, d_h=16, vocab 64, 4 heads): the dag
    primitives at n x d_h (softmax at n x n), the layer blocks at n x d.
    Non-scalar outputs are reduced with ``tensor_sum`` before ``backward``,
    so each figure includes one sum and its gradient. Median over reps.
    """
    rng = np.random.default_rng(0)
    n, d, dh, vocab = 32, 64, 16, 64

    def leaf(*shape):
        return tensor.Tensor(rng.normal(size=shape), requires_grad=True)

    ids = rng.integers(0, vocab, size=n)
    mask = np.zeros(n, dtype=bool)
    mask[::6] = True
    a, b = leaf(n, dh), leaf(n, dh)
    cases = {
        "matmul": (tensor.matmul, (leaf(n, d), leaf(d, dh))),
        "add": (tensor.add, (a, b)),
        "concat": (lambda *xs: tensor.concat(xs), tuple(leaf(n, dh) for _ in range(4))),
        "embedding": (tensor.embedding, (leaf(vocab, d), ids)),
        "layer_norm": (tensor.layer_norm, (leaf(n, d), leaf(d), leaf(d))),
        "glu": (tensor.glu, (leaf(n, 2 * d),)),
        "depthwise_conv1d": (tensor.depthwise_conv1d, (leaf(n, d), leaf(15, d))),
        "softsign": (tensor.softsign, (a,)),
        "softmax": (tensor.softmax, (leaf(n, n),)),
        "scale": (tensor.scale, (a,)),
        "transpose": (tensor.transpose, (a,)),
        "neg": (tensor.neg, (a,)),
        "logsigmoid": (tensor.logsigmoid, (a,)),
        "cosine": (tensor.cosine_similarity, (a, b)),
        "euclidean": (tensor.euclidean_distance, (a, b)),
        "masked_cross_entropy": (tensor.masked_cross_entropy, (leaf(n, vocab), ids, mask)),
        "mul_const": (tensor.mul_const, (leaf(n, d), 0.5)),
    }
    out = {}
    for op in TENSOR_OPS:
        fn, args = cases[op]
        leaves = [x for x in args if isinstance(x, tensor.Tensor)]
        times = []
        for _ in range(reps):
            for x in leaves:
                x.grad = None
            t0 = time.perf_counter()
            y = fn(*args)
            tensor.backward(y if y.shape == () else tensor.tensor_sum(y))
            times.append(time.perf_counter() - t0)
        out[f"tensor.{op}.fwdbwd_us"] = 1e6 * float(np.median(times))
    return out
