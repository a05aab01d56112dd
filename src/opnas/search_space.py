"""Attention-graph search space: encoding, shapes, generation, mutation,
and the parameter table (``param_shapes``) models and the supernet share.

An attention candidate is a small DAG over the projected inputs q, k, v, p
(each n x d_h) built from ten primitive ops. ``validate`` is the one
legality rule: 2..4 distinct declared inputs, each referenced, at most
MAX_PATH_LEN nodes, and shapes decided purely symbolically: every shape is
a pair over the symbols {n, dh}, every node type-checks and the final node
comes out n x d_h again. A backbone is an ordered list of layers,
each either an attention dag or a lightweight convolution with a kernel
size from a fixed menu. Parsing (``deserialize``, ``backbone_from_payload``)
runs ``validate`` on every attention layer, so a spec file or history row
the program reads holds only dags a search could have written.

Only the live part of a dag runs (``AttentionDag.live``, ``eval_dag``):
the nodes the output depends on, and the inputs they read. A dag may
declare inputs and carry nodes nothing reads, as evolved programs carry
redundant instructions. Dead nodes stay in the encoding and mutate like
any other, and a dead input keeps its projection in the parameter table,
but neither is computed.

Everything here is immutable after construction; mutation returns new
objects and takes an explicit ``random.Random`` so parallel callers with
separate rng streams stay deterministic.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from opnas.tensor import BINARY_OP_KINDS, UNARY_OP_KINDS, Tensor

__all__ = [
    "UNARY_OPS",
    "BINARY_OPS",
    "ALL_OPS",
    "KERNEL_MENU",
    "INPUT_NAMES",
    "MAX_PATH_LEN",
    "DagNode",
    "AttentionDag",
    "LayerSpec",
    "BackboneSpec",
    "IllegalGraph",
    "GenerationExhausted",
    "SpecParseError",
    "infer_shapes",
    "validate",
    "eval_dag",
    "random_dag",
    "mutate_intra",
    "mutate_inter",
    "uniform_op_distribution",
    "uniform_kernel_distribution",
    "standard_attention_dag",
    "softplus_key_attention_dag",
    "key_value_mix_attention_dag",
    "standard_backbone",
    "autobert_zero_backbone",
    "serialize",
    "deserialize",
    "backbone_to_payload",
    "backbone_from_payload",
    "MAX_KERNEL",
    "TRANSFORM_SIZES",
    "param_shapes",
    "count_params",
]

# the op names, in the op tables' order; every mutation draw depends on it
UNARY_OPS = tuple(UNARY_OP_KINDS)
BINARY_OPS = tuple(BINARY_OP_KINDS)
ALL_OPS = UNARY_OPS + BINARY_OPS

KERNEL_MENU = (3, 5, 7, 9, 15, 31, 65)
INPUT_NAMES = ("q", "k", "v", "p")

MAX_PATH_LEN = 12

# edits mutate_intra tries before it returns the parent unchanged
MUTATE_RETRIES = 50

# dags random_dag draws before it gives up; far beyond what the per-attempt
# acceptance rate needs, so exhaustion means a bug
DAG_ATTEMPTS = 200

# symbolic shapes: pairs over {"n", "dh"}. Every input is (n, dh), and every
# shape rule maps pairs to pairs
SHAPE_ND = ("n", "dh")

Ref = int | str
Shape = tuple[str, str]


class IllegalGraph(ValueError):
    """Shape inference failed at a specific node."""

    def __init__(self, node_index: int, reason: str):
        super().__init__(f"node {node_index}: {reason}")
        self.node_index = node_index
        self.reason = reason


class GenerationExhausted(RuntimeError):
    """random_dag ran out of rejection-sampling attempts."""


class SpecParseError(ValueError):
    """A serialized spec failed to parse; ``location`` names the bad field."""

    def __init__(self, location: str, reason: str):
        super().__init__(f"{location}: {reason}")
        self.location = location
        self.reason = reason


@dataclass(frozen=True)
class DagNode:
    op: str
    args: tuple[Ref, ...]

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))


@dataclass(frozen=True)
class AttentionDag:
    """Topologically ordered op list over a declared input subset.

    ``args`` entries are either input names or indices of earlier nodes.
    The final node is the output.
    """

    inputs: tuple[str, ...]
    nodes: tuple[DagNode, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(self.inputs))
        object.__setattr__(self, "nodes", tuple(self.nodes))

    @property
    def output(self) -> int:
        return len(self.nodes) - 1

    @functools.cached_property
    def live(self) -> tuple[tuple[int, ...], tuple[str, ...]]:
        """The nodes the output depends on, in topological order, and the
        declared inputs those nodes read, in declaration order.

        A reverse scan from ``output``: every other node is dead code whose
        value nothing reads, and every other input feeds only dead code.
        Cached on the dag (it derives from immutable fields only), so a
        model forward, which reads it twice per attention layer, allocates
        nothing for it.
        """
        live = [False] * len(self.nodes)
        live[self.output] = True
        read: set[str] = set()
        for i in range(self.output, -1, -1):
            if live[i]:
                for ref in self.nodes[i].args:
                    if isinstance(ref, int):
                        live[ref] = True
                    else:
                        read.add(ref)
        return (tuple(i for i, on in enumerate(live) if on),
                tuple(name for name in self.inputs if name in read))


@dataclass(frozen=True)
class LayerSpec:
    """Either an attention dag or a lightweight conv with a menu kernel."""

    kind: str
    dag: AttentionDag | None = None
    kernel: int | None = None

    def __post_init__(self):
        if self.kind == "attention":
            if self.dag is None or self.kernel is not None:
                raise ValueError("attention layer takes a dag and no kernel")
        elif self.kind == "conv":
            if self.dag is not None or self.kernel not in KERNEL_MENU:
                raise ValueError(f"conv layer takes a kernel from {KERNEL_MENU}")
        else:
            raise ValueError(f"unknown layer kind {self.kind!r}")

    @classmethod
    def attention(cls, dag: AttentionDag) -> "LayerSpec":
        return cls("attention", dag=dag)

    @classmethod
    def conv(cls, kernel: int) -> "LayerSpec":
        return cls("conv", kernel=kernel)


@dataclass(frozen=True)
class BackboneSpec:
    layers: tuple[LayerSpec, ...]

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not self.layers:
            raise ValueError("backbone needs at least one layer")

    @property
    def attention_indices(self) -> tuple[int, ...]:
        return tuple(i for i, l in enumerate(self.layers) if l.kind == "attention")


# ---------------------------------------------------------------------------
# symbolic shape inference


def _shape_rule(op: str, shapes: Sequence[Shape]) -> Shape | None:
    """Output shape of a known op on operand shapes of its arity, or None
    where they do not type-check (``infer_shapes`` words why)."""
    if op == "transpose":
        return (shapes[0][1], shapes[0][0])
    if op in UNARY_OPS:
        return shapes[0]
    a, b = shapes
    if op == "matmul":
        return (a[0], b[1]) if a[1] == b[0] else None
    if a != b:
        return None
    # add keeps the shape; cosine / euclidean compare rows pairwise
    return a if op == "add" else (a[0], a[0])


def infer_shapes(dag: AttentionDag) -> list[Shape]:
    """Per-node symbolic shapes, or IllegalGraph at the first bad node.

    Inputs all start as n x d_h. Succeeds only if every node type-checks
    and the final node is n x d_h again, so a legal dag slots into the
    layer stack without reshaping.
    """
    env: dict[Ref, Shape] = {name: SHAPE_ND for name in dag.inputs}
    table: list[Shape] = []
    for i, node in enumerate(dag.nodes):
        arity = 1 if node.op in UNARY_OPS else 2 if node.op in BINARY_OPS else None
        if arity is None:
            raise IllegalGraph(i, f"unknown op {node.op!r}")
        if len(node.args) != arity:
            raise IllegalGraph(i, f"{node.op} takes {arity} args, got {len(node.args)}")
        arg_shapes = []
        for ref in node.args:
            if isinstance(ref, bool) or not isinstance(ref, (int, str)):
                raise IllegalGraph(i, f"bad arg ref {ref!r}")
            if isinstance(ref, int):
                if not 0 <= ref < i:
                    raise IllegalGraph(i, f"ref {ref} is not an earlier node")
                arg_shapes.append(table[ref])
            else:
                if ref not in env:
                    raise IllegalGraph(i, f"ref {ref!r} is not a declared input")
                arg_shapes.append(env[ref])
        out = _shape_rule(node.op, arg_shapes)
        if out is None:
            a, b = arg_shapes
            raise IllegalGraph(i, f"matmul inner symbols differ: {a} x {b}"
                               if node.op == "matmul" else
                               f"{node.op} needs equal shapes, got {a} and {b}")
        table.append(out)
    if not table:
        raise IllegalGraph(0, "empty dag has no output")
    if table[-1] != SHAPE_ND:
        raise IllegalGraph(len(table) - 1, f"output shape {table[-1]} is not n x d_h")
    return table


def validate(dag: AttentionDag, max_len: int = MAX_PATH_LEN) -> tuple[bool, str]:
    """Structural invariants plus shape inference; never raises."""
    if not (2 <= len(dag.inputs) <= 4):
        return False, f"needs 2..4 inputs, got {len(dag.inputs)}"
    if len(set(dag.inputs)) != len(dag.inputs):
        return False, "duplicate inputs"
    bad = [x for x in dag.inputs if x not in INPUT_NAMES]
    if bad:
        return False, f"unknown inputs {bad}"
    if not dag.nodes:
        return False, "no nodes"
    if len(dag.nodes) > max_len:
        return False, f"{len(dag.nodes)} nodes exceeds limit {max_len}"
    used = {ref for node in dag.nodes for ref in node.args if isinstance(ref, str)}
    unused = [x for x in dag.inputs if x not in used]
    if unused:
        return False, f"declared inputs never referenced: {unused}"
    try:
        infer_shapes(dag)
    except IllegalGraph as e:
        return False, str(e)
    return True, "ok"


def eval_dag(dag: AttentionDag, inputs: Mapping[str, Tensor]) -> Tensor:
    """Run the dag's live nodes on concrete tensors keyed by input name.

    Only the nodes ``dag.live`` names run, in order, so a dead node cannot
    raise ``NonFiniteError``; the output and every gradient through it are
    those a run of every node gives. ``inputs`` needs only the live inputs;
    a missing one raises ``KeyError``.
    """
    nodes, _ = dag.live
    values: dict[int, Tensor] = {}
    for i in nodes:
        node = dag.nodes[i]
        args = [values[r] if isinstance(r, int) else inputs[r] for r in node.args]
        # looked up per call, so a replaced table entry takes effect
        table = UNARY_OP_KINDS if node.op in UNARY_OPS else BINARY_OP_KINDS
        values[i] = table[node.op](*args)
    return values[dag.output]


# ---------------------------------------------------------------------------
# generation and mutation

DistFn = Callable[[int], Mapping[str, float]]
KernelDistFn = Callable[[int], Mapping[int, float]]


def uniform_op_distribution(position: int) -> dict[str, float]:
    return {op: 1.0 / len(ALL_OPS) for op in ALL_OPS}


def uniform_kernel_distribution(layer: int) -> dict[int, float]:
    return {k: 1.0 / len(KERNEL_MENU) for k in KERNEL_MENU}


def _legal_arg_tuples(op: str, refs: Sequence[Ref],
                      shapes: Mapping[Ref, Shape]) -> list[tuple[Ref, ...]]:
    """Every argument tuple over ``refs`` that ``op`` type-checks on, the
    first argument varying slowest; a unary op takes any ref."""
    if op in UNARY_OPS:
        return [(r,) for r in refs]
    return [(a, b) for a, b in itertools.product(refs, repeat=2)
            if _shape_rule(op, (shapes[a], shapes[b])) is not None]


def _placeable(refs: Sequence[Ref], shapes: Mapping[Ref, Shape]) -> dict:
    """op -> its legal argument tuples over ``refs``, for the ops that have
    any, in ``ALL_OPS`` order."""
    table = {op: _legal_arg_tuples(op, refs, shapes) for op in ALL_OPS}
    return {op: legal for op, legal in table.items() if legal}


def _sample(choices: Sequence, dist: Mapping, rng: random.Random):
    """Draw one of ``choices`` with the weights ``dist`` gives them.

    Callers pass only what can be placed: a distribution can put all its
    mass on ops with no legal arguments at the slot being mutated (they
    stay unseen there forever), and drawing those would turn every such
    mutation into a no-op. Zero mass on ``choices`` falls back to uniform
    over them. ``choices`` comes in a fixed order (``ALL_OPS``,
    ``KERNEL_MENU``), so draws do not depend on dict history.
    """
    weights = [max(float(dist.get(c, 0.0)), 0.0) for c in choices]
    if sum(weights) <= 0.0:
        weights = [1.0] * len(choices)
    return rng.choices(choices, weights=weights, k=1)[0]


def random_dag(rng: random.Random, max_len: int = MAX_PATH_LEN) -> AttentionDag:
    """Rejection-sample a dag that passes validate().

    Each attempt draws the input subset, a length, then per node a uniform
    op with uniformly chosen legal args; the attempt is thrown away if the
    output shape or input-usage check fails. After ``DAG_ATTEMPTS``
    attempts it raises ``GenerationExhausted``.
    """
    for _ in range(DAG_ATTEMPTS):
        inputs = ["q", "k"]
        if rng.random() < 0.5:
            inputs.append("v")
        if rng.random() < 0.5:
            inputs.append("p")
        length = rng.randint(1, max_len)
        shapes: dict[Ref, Shape] = {name: SHAPE_ND for name in inputs}
        refs: list[Ref] = list(inputs)
        nodes: list[DagNode] = []
        for i in range(length):
            ops = list(ALL_OPS)
            rng.shuffle(ops)
            for op in ops:
                legal = _legal_arg_tuples(op, refs, shapes)
                if legal:  # some op always fits: a unary op takes any ref
                    break
            node = DagNode(op, rng.choice(legal))
            shapes[i] = _shape_rule(node.op, [shapes[r] for r in node.args])
            refs.append(i)
            nodes.append(node)
        dag = AttentionDag(tuple(inputs), tuple(nodes))
        if validate(dag, max_len)[0]:
            return dag
    raise GenerationExhausted(f"no valid dag in {DAG_ATTEMPTS} attempts")


def _node_shapes_env(dag: AttentionDag) -> dict[Ref, Shape]:
    env: dict[Ref, Shape] = {name: SHAPE_ND for name in dag.inputs}
    for i, s in enumerate(infer_shapes(dag)):
        env[i] = s
    return env


def _remap(nodes: Sequence[DagNode], ref: Callable[[Ref], Ref]) -> list[DagNode]:
    """``nodes`` with every argument ``r`` replaced by ``ref(r)``, called in
    node-then-argument order, the order input removal draws in."""
    return [DagNode(node.op, tuple(map(ref, node.args))) for node in nodes]


def _set_arg(nodes: Sequence[DagNode], slot: tuple[int, int], ref: Ref) -> list[DagNode]:
    """``nodes`` with argument s of node j set to ``ref``, where ``slot`` is (j, s)."""
    j, s = slot
    args = nodes[j].args
    return [*nodes[:j], DagNode(nodes[j].op, args[:s] + (ref,) + args[s + 1:]), *nodes[j + 1:]]


def _mutate_replace(dag, env, dists, rng):
    pos = rng.randrange(len(dag.nodes))
    table = _placeable(list(dag.inputs) + list(range(pos)), env)
    op = _sample(list(table), dists(pos), rng)
    # the parent's args stay when the new op type-checks on them
    args = dag.nodes[pos].args
    if args not in table[op]:
        args = rng.choice(table[op])
    nodes = list(dag.nodes)
    nodes[pos] = DagNode(op, args)
    return AttentionDag(dag.inputs, tuple(nodes))


def _mutate_insert(dag, env, dists, rng, max_len):
    if len(dag.nodes) >= max_len:
        return None
    pos = rng.randrange(len(dag.nodes) + 1)
    table = _placeable(list(dag.inputs) + list(range(pos)), env)
    op = _sample(list(table), dists(pos), rng)
    new_node = DagNode(op, rng.choice(table[op]))
    new_shape = _shape_rule(op, [env[r] for r in new_node.args])
    nodes = _remap(dag.nodes, lambda r: r + 1 if isinstance(r, int) and r >= pos else r)
    nodes.insert(pos, new_node)
    # rewire one same-shape consumer slot so the new node participates; the
    # slots are read on the parent, whose node j >= pos is the child's j + 1
    slots = [(j + 1, s) for j in range(pos, len(dag.nodes))
             for s, r in enumerate(dag.nodes[j].args) if env[r] == new_shape]
    if slots:
        nodes = _set_arg(nodes, rng.choice(slots), pos)
    return AttentionDag(dag.inputs, tuple(nodes))


def _mutate_delete(dag, rng):
    if len(dag.nodes) < 2:
        return None
    pos = rng.randrange(len(dag.nodes))
    repl = dag.nodes[pos].args[0]  # a predecessor by construction
    nodes = _remap(dag.nodes[:pos] + dag.nodes[pos + 1:],
                   lambda r: repl if r == pos else
                   r - 1 if isinstance(r, int) and r > pos else r)
    return AttentionDag(dag.inputs, tuple(nodes))


def _mutate_toggle(dag, env, rng):
    present = [x for x in ("v", "p") if x in dag.inputs]
    absent = [x for x in ("v", "p") if x not in dag.inputs]
    # v and p are each declared or not, so there are always two actions
    actions = [("add", x) for x in absent] + [("remove", x) for x in present]
    action, name = rng.choice(actions)
    if action == "add":
        inputs = tuple(x for x in INPUT_NAMES if x in dag.inputs or x == name)
        # point one n x d_h slot at the new input so it is actually used; node
        # 0 reads only inputs, all n x d_h, so there is always such a slot
        slots = [(j, s) for j, node in enumerate(dag.nodes)
                 for s, r in enumerate(node.args) if env[r] == SHAPE_ND]
        return AttentionDag(inputs, tuple(_set_arg(dag.nodes, rng.choice(slots), name)))
    inputs = tuple(x for x in dag.inputs if x != name)
    nodes = _remap(dag.nodes, lambda r: rng.choice(inputs) if r == name else r)
    return AttentionDag(inputs, tuple(nodes))


def mutate_intra(parent: AttentionDag, dists: DistFn, rng: random.Random,
                 max_len: int = MAX_PATH_LEN) -> AttentionDag:
    """One edit (replace / insert / delete / toggle-input) on a valid dag.

    Replace and insert draw the op from ``dists(position)``, the caller's
    per-position distribution. Falls back to the unmodified parent when no
    valid child is found in MUTATE_RETRIES edits.
    """
    env = _node_shapes_env(parent)
    for _ in range(MUTATE_RETRIES):
        kind = rng.choice(("replace", "insert", "delete", "toggle"))
        if kind == "replace":
            child = _mutate_replace(parent, env, dists, rng)
        elif kind == "insert":
            child = _mutate_insert(parent, env, dists, rng, max_len)
        elif kind == "delete":
            child = _mutate_delete(parent, rng)
        else:
            child = _mutate_toggle(parent, env, rng)
        if child is not None and child != parent and validate(child, max_len)[0]:
            return child
    return parent


def mutate_inter(parent: BackboneSpec, kernel_dists: KernelDistFn,
                 rng: random.Random, max_len: int = MAX_PATH_LEN) -> BackboneSpec:
    """Mutate one uniformly chosen layer of the backbone.

    Attention layers flip to conv (kernel drawn from that layer's
    distribution). Conv layers either flip to attention (installing a
    fresh random dag or a copy from another attention layer, 50/50) or
    resample their kernel. Backbone length never changes.
    """
    li = rng.randrange(len(parent.layers))
    layers = list(parent.layers)
    layer = layers[li]
    # an attention layer draws no coin: the test short-circuits
    if layer.kind == "conv" and rng.random() < 0.5:
        donors = [l.dag for l in parent.layers if l.kind == "attention"]
        if donors and rng.random() < 0.5:
            layers[li] = LayerSpec.attention(rng.choice(donors))
        else:
            layers[li] = LayerSpec.attention(random_dag(rng, max_len))
    else:
        layers[li] = LayerSpec.conv(_sample(KERNEL_MENU, kernel_dists(li), rng))
    return BackboneSpec(tuple(layers))


# ---------------------------------------------------------------------------
# published architectures


def standard_attention_dag() -> AttentionDag:
    """softmax(Q Kᵀ / sqrt(d_h)) V.

    The 1/sqrt(d_h) is applied to Q before the matmul: the scale op divides
    by sqrt of its operand's last axis, which for the n x n product would
    be n rather than d_h.
    """
    return AttentionDag(
        inputs=("q", "k", "v"),
        nodes=(
            DagNode("scale", ("q",)),
            DagNode("transpose", ("k",)),
            DagNode("matmul", (0, 1)),
            DagNode("softmax", (2,)),
            DagNode("matmul", (3, "v")),
        ),
    )


def softplus_key_attention_dag() -> AttentionDag:
    """softmax(Q softplus(Kᵀ) / sqrt(d_h)) (K + Q).

    The early-stack attention layer of the AutoBERT-Zero backbone.
    softplus = log(1 + exp(x)) is expressed inside the primitive set as
    neg(logsigmoid(neg(x))).
    """
    return AttentionDag(
        inputs=("q", "k"),
        nodes=(
            DagNode("scale", ("q",)),
            DagNode("transpose", ("k",)),
            DagNode("neg", (1,)),
            DagNode("logsigmoid", (2,)),
            DagNode("neg", (3,)),
            DagNode("matmul", (0, 4)),
            DagNode("softmax", (5,)),
            DagNode("add", ("k", "q")),
            DagNode("matmul", (6, 7)),
        ),
    )


def key_value_mix_attention_dag() -> AttentionDag:
    """softmax(Q (K / sqrt(d_h) + V)ᵀ / sqrt(d_h)) V.

    The final attention layer of the AutoBERT-Zero backbone: keys are
    blended with values before the similarity product.
    """
    return AttentionDag(
        inputs=("q", "k", "v"),
        nodes=(
            DagNode("scale", ("k",)),
            DagNode("add", (0, "v")),
            DagNode("transpose", (1,)),
            DagNode("scale", ("q",)),
            DagNode("matmul", (3, 2)),
            DagNode("softmax", (4,)),
            DagNode("matmul", (5, "v")),
        ),
    )


def standard_backbone(num_layers: int = 12) -> BackboneSpec:
    """All-attention stack of the standard scaled-dot-product layer."""
    dag = standard_attention_dag()
    return BackboneSpec(tuple(LayerSpec.attention(dag) for _ in range(num_layers)))


# 12-layer default; general even L falls back to evenly spaced menu picks
_KERNEL_SCHEDULE_12 = (65, 31, 15, 9, 5, 3)


def _conv_kernel_schedule(m: int) -> tuple[int, ...]:
    if m == len(_KERNEL_SCHEDULE_12):
        return _KERNEL_SCHEDULE_12
    menu = tuple(sorted(KERNEL_MENU, reverse=True))
    if m == 1:
        return (menu[0],)
    idx = [round(i * (len(menu) - 1) / (m - 1)) for i in range(m)]
    return tuple(menu[i] for i in idx)


def autobert_zero_backbone(num_layers: int = 12) -> BackboneSpec:
    """Alternating conv / attention stack with depth-descending kernels.

    Convs sit at even depths with kernels shrinking from 65 toward 3 (the
    12-layer schedule is 65, 31, 15, 9, 5, 3). The first attention slot
    holds the softplus-key dag and every later one the key-value-mix dag.
    """
    if num_layers < 2 or num_layers % 2 != 0:
        raise ValueError(f"layer count must be even and >= 2, got {num_layers}")
    kernels = _conv_kernel_schedule(num_layers // 2)
    mix = key_value_mix_attention_dag()
    layers = []
    for i in range(num_layers):
        if i % 2 == 0:
            layers.append(LayerSpec.conv(kernels[i // 2]))
        else:
            dag = softplus_key_attention_dag() if i == 1 else mix
            layers.append(LayerSpec.attention(dag))
    return BackboneSpec(tuple(layers))


# ---------------------------------------------------------------------------
# serialization (canonical key order: version, layers; type, inputs, nodes)

SPEC_VERSION = 1


def backbone_to_payload(spec: BackboneSpec) -> dict:
    """The canonical JSON-ready form of a backbone."""
    layers = []
    for layer in spec.layers:
        if layer.kind == "attention":
            layers.append({
                "type": "attention",
                "inputs": list(layer.dag.inputs),
                "nodes": [{"op": n.op, "args": list(n.args)} for n in layer.dag.nodes],
            })
        else:
            layers.append({"type": "conv", "kernel": layer.kernel})
    return {"version": SPEC_VERSION, "layers": layers}


def serialize(spec: BackboneSpec) -> str:
    return json.dumps(backbone_to_payload(spec), indent=2) + "\n"


def _expect(obj, key, types, location):
    if not isinstance(obj, dict):
        raise SpecParseError(location, f"expected an object, got {type(obj).__name__}")
    if key not in obj:
        raise SpecParseError(f"{location}.{key}", "missing field")
    val = obj[key]
    if not isinstance(val, types) or isinstance(val, bool):
        raise SpecParseError(f"{location}.{key}", f"bad type {type(val).__name__}")
    return val


def deserialize(text: str) -> BackboneSpec:
    """Parse a serialized backbone; SpecParseError pinpoints any bad field."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecParseError(f"line {e.lineno} col {e.colno}", e.msg) from None
    return backbone_from_payload(payload)


def backbone_from_payload(payload) -> BackboneSpec:
    """Parse a backbone payload; SpecParseError pinpoints any bad field.

    An attention dag that ``validate`` rejects fails at ``$.layers[i]``
    with the reason ``validate`` gives.
    """
    version = _expect(payload, "version", int, "$")
    if version != SPEC_VERSION:
        raise SpecParseError("$.version", f"unsupported version {version}")
    raw_layers = _expect(payload, "layers", list, "$")
    layers = []
    for i, raw in enumerate(raw_layers):
        loc = f"$.layers[{i}]"
        kind = _expect(raw, "type", str, loc)
        if kind == "conv":
            kernel = _expect(raw, "kernel", int, loc)
            if kernel not in KERNEL_MENU:
                raise SpecParseError(f"{loc}.kernel", f"{kernel} not in {KERNEL_MENU}")
            layers.append(LayerSpec.conv(kernel))
            continue
        if kind != "attention":
            raise SpecParseError(f"{loc}.type", f"unknown layer type {kind!r}")
        inputs = _expect(raw, "inputs", list, loc)
        for j, name in enumerate(inputs):
            if not isinstance(name, str):
                raise SpecParseError(f"{loc}.inputs[{j}]", f"bad input {name!r}")
        raw_nodes = _expect(raw, "nodes", list, loc)
        nodes = []
        for j, raw_node in enumerate(raw_nodes):
            nloc = f"{loc}.nodes[{j}]"
            op = _expect(raw_node, "op", str, nloc)
            args = _expect(raw_node, "args", list, nloc)
            nodes.append(DagNode(op, tuple(args)))
        dag = AttentionDag(tuple(inputs), tuple(nodes))
        ok, reason = validate(dag)
        if not ok:
            raise SpecParseError(loc, reason)
        layers.append(LayerSpec.attention(dag))
    if not layers:
        raise SpecParseError("$.layers", "backbone needs at least one layer")
    return BackboneSpec(tuple(layers))


# ---------------------------------------------------------------------------
# parameter accounting


MAX_KERNEL = max(KERNEL_MENU)
TRANSFORM_SIZES = tuple(k for k in KERNEL_MENU if k != MAX_KERNEL)


def param_shapes(config, spec: BackboneSpec | None = None) -> dict[str, tuple]:
    """Parameter name -> shape, in declared order (also the rng draw order).

    With ``spec``: the parameters a model of that spec trains. Without: the
    supernet store, where every layer holds both branches at their widest
    (all four projections; the 65-tap kernel plus one k x k transform per
    smaller kernel size) and all three layer norms. ``config``: a ModelConfig.
    """
    d = config.d_model
    shapes: dict[str, tuple] = {
        "tok_emb": (config.vocab, d),
        "pos_emb": (config.seq_len, d),
    }
    for i in range(config.num_layers):
        layer = None if spec is None else spec.layers[i]
        att = layer is None or layer.kind == "attention"
        conv = layer is None or layer.kind == "conv"
        if att:
            for name in INPUT_NAMES if layer is None else layer.dag.inputs:
                shapes[f"layer{i}.att.{name}"] = (config.n_heads, d, config.d_h)
            shapes[f"layer{i}.att.wo"] = (d, d)
        if conv:
            shapes[f"layer{i}.conv.proj"] = (d, 2 * d)
            kernel = MAX_KERNEL if layer is None else layer.kernel
            shapes[f"layer{i}.conv.kernel"] = (kernel, d)
            if layer is None:
                for k in TRANSFORM_SIZES:
                    shapes[f"layer{i}.conv.transform.{k}"] = (k, k)
        if att:
            shapes[f"layer{i}.ffn.w1"] = (d, config.ffn_ratio * d)
            shapes[f"layer{i}.ffn.w2"] = (config.ffn_ratio * d, d)
        norms = (("ln_att", "ln_ffn") if att else ()) + (("ln_conv",) if conv else ())
        for part in norms:
            shapes[f"layer{i}.{part}.gain"] = (d,)
            shapes[f"layer{i}.{part}.bias"] = (d,)
    return shapes


def count_params(spec: BackboneSpec, config, kind: str | None = None) -> int:
    """Architecture parameters only: the ``.att.`` and ``.conv.`` entries of
    ``param_shapes`` (projections, output mix, GLU projection, conv kernel).

    ``kind`` restricts the sum to one layer type. Embeddings, layer norms
    and FFNs are identical across candidates and excluded. ``spec`` may be
    shorter than ``config.num_layers``: its own layers are counted.
    """
    tags = [tag for k, tag in (("attention", ".att."), ("conv", ".conv."))
            if kind in (None, k)]
    shapes = param_shapes(dataclasses.replace(config, num_layers=len(spec.layers)), spec)
    return sum(math.prod(shape) for name, shape in shapes.items()
               if any(tag in name for tag in tags))
