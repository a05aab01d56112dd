"""Graph validation, generation, mutation, and serialization checks."""

import hashlib
import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from opnas import tensor as T
from opnas import search_space as S
from opnas.model import ModelConfig


def make_inputs(rng, names=("q", "k", "v"), n=7, dh=5):
    return {name: T.Tensor(rng.normal(size=(n, dh))) for name in names}


# ---------------------------------------------------------------------------
# validation


def test_standard_dag_is_legal():
    ok, reason = S.validate(S.standard_attention_dag())
    assert ok, reason


def test_output_shape_must_be_n_dh():
    # ends in an n x n score matrix, never projected back
    dag = S.AttentionDag(
        inputs=("q", "k"),
        nodes=(
            S.DagNode("transpose", ("k",)),
            S.DagNode("matmul", ("q", 0)),
        ),
    )
    ok, reason = S.validate(dag)
    assert not ok
    assert "output" in reason


def test_illegal_matmul_is_rejected():
    dag = S.AttentionDag(
        inputs=("q", "k"),
        nodes=(S.DagNode("matmul", ("q", "k")),),  # (n,dh) @ (n,dh)
    )
    ok, reason = S.validate(dag)
    assert not ok


def test_forward_reference_is_rejected():
    dag = S.AttentionDag(
        inputs=("q", "k"),
        nodes=(
            S.DagNode("neg", (1,)),  # refers to a later node
            S.DagNode("neg", ("q",)),
        ),
    )
    ok, _ = S.validate(dag)
    assert not ok


def test_max_path_len_enforced():
    nodes = [S.DagNode("neg", ("q",))]
    for i in range(12):
        nodes.append(S.DagNode("neg", (i,)))
    dag = S.AttentionDag(inputs=("q", "k"), nodes=tuple(nodes))
    ok, reason = S.validate(dag)
    assert not ok
    assert "exceeds" in reason


def test_infer_shapes_raises_with_node_index():
    dag = S.AttentionDag(
        inputs=("q", "k"),
        nodes=(S.DagNode("matmul", ("q", "k")),),
    )
    with pytest.raises(S.IllegalGraph) as exc:
        S.infer_shapes(dag)
    assert exc.value.node_index == 0


@pytest.mark.parametrize("nodes,reason", [
    ((S.DagNode("scale", ("q",)), S.DagNode("matmul", (0, "k"))),
     "node 1: matmul inner symbols differ: ('n', 'dh') x ('n', 'dh')"),
    ((S.DagNode("transpose", ("k",)), S.DagNode("add", ("q", 0))),
     "node 1: add needs equal shapes, got ('n', 'dh') and ('dh', 'n')"),
    ((S.DagNode("transpose", ("k",)), S.DagNode("cosine", (0, "q"))),
     "node 1: cosine needs equal shapes, got ('dh', 'n') and ('n', 'dh')"),
])
def test_shape_rule_refusals_are_worded(nodes, reason):
    assert S.validate(S.AttentionDag(("q", "k"), nodes)) == (False, reason)


def _node_shapes(inputs, nodes):
    """Each node's shape, or None if some node does not type-check. A
    trailing neg(input) makes the output n x d_h, so only a bad node fails."""
    dag = S.AttentionDag(inputs, (*nodes, S.DagNode("neg", (inputs[0],))))
    try:
        return S.infer_shapes(dag)[:-1]
    except S.IllegalGraph:
        return None


def test_legal_arg_tuples_equal_brute_force():
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        inputs = tuple(rng.sample(S.INPUT_NAMES, rng.randint(1, 4)))
        nodes = []
        for _ in range(rng.randint(0, 8)):
            refs = list(inputs) + list(range(len(nodes)))
            while True:
                op = rng.choice(S.ALL_OPS)
                arity = 1 if op in S.UNARY_OPS else 2
                node = S.DagNode(op, tuple(rng.choice(refs) for _ in range(arity)))
                if _node_shapes(inputs, nodes + [node]) is not None:
                    nodes.append(node)
                    break
        shapes = dict.fromkeys(inputs, S.SHAPE_ND) | dict(enumerate(_node_shapes(inputs, nodes)))
        seen.update(shapes.values())
        refs = list(shapes)
        rng.shuffle(refs)
        for op in S.ALL_OPS:
            arity = 1 if op in S.UNARY_OPS else 2
            want = [args for args in itertools.product(refs, repeat=arity)
                    if _node_shapes(inputs, nodes + [S.DagNode(op, args)]) is not None]
            assert S._legal_arg_tuples(op, refs, shapes) == want, (seed, op)
    assert seen == {("n", "dh"), ("dh", "n"), ("n", "n"), ("dh", "dh")}


# ---------------------------------------------------------------------------
# evaluation against closed forms


def test_standard_dag_matches_closed_form(rng):
    env = make_inputs(rng)
    got = S.eval_dag(S.standard_attention_dag(), env).data
    want = oracles.standard_attention(env["q"].data, env["k"].data, env["v"].data)
    assert np.allclose(got, want, atol=1e-12)


def test_softplus_key_dag_matches_closed_form(rng):
    env = make_inputs(rng)
    got = S.eval_dag(S.softplus_key_attention_dag(), env).data
    want = oracles.softplus_key_attention(env["q"].data, env["k"].data, env["v"].data)
    assert np.allclose(got, want, atol=1e-12)


def test_key_value_mix_dag_matches_closed_form(rng):
    env = make_inputs(rng)
    got = S.eval_dag(S.key_value_mix_attention_dag(), env).data
    want = oracles.key_value_mix_attention(env["q"].data, env["k"].data, env["v"].data)
    assert np.allclose(got, want, atol=1e-12)


def test_eval_dag_missing_input_raises(rng):
    env = make_inputs(rng, names=("q",))
    with pytest.raises(KeyError):
        S.eval_dag(S.standard_attention_dag(), env)


# ---------------------------------------------------------------------------
# dead-node elimination

GOLDEN_DAGS = (S.standard_attention_dag(), S.softplus_key_attention_dag(),
               S.key_value_mix_attention_dag())

# the output is softmax(q k^T) v: node 3 and node 4 are dead, and p, read
# only by node 3, is a dead input
DEAD_CODE_DAG = S.AttentionDag(("q", "k", "v", "p"), (
    S.DagNode("transpose", ("k",)),
    S.DagNode("matmul", ("q", 0)),
    S.DagNode("softmax", (1,)),
    S.DagNode("logsigmoid", ("p",)),
    S.DagNode("euclidean", ("q", 3)),
    S.DagNode("matmul", (2, "v")),
))


def _overflow_dag(live: bool) -> S.AttentionDag:
    # (q k^T) squared three times overflows on inputs of 1e20; the output
    # reads that chain only when ``live``
    chain = (S.DagNode("transpose", ("k",)), S.DagNode("matmul", ("q", 0)),
             S.DagNode("matmul", (1, 1)), S.DagNode("matmul", (2, 2)),
             S.DagNode("matmul", (3, 3)))
    out = S.DagNode("matmul", (4, "q")) if live else S.DagNode("neg", ("q",))
    return S.AttentionDag(("q", "k"), chain + (out,))


def _recording(fn, op, calls):
    def run(*args):
        calls.append(op)
        return fn(*args)
    return run


def test_live_part_of_golden_dags_is_whole():
    for dag in GOLDEN_DAGS:
        assert dag.live == (tuple(range(len(dag.nodes))), dag.inputs)


def test_live_part_drops_dead_nodes_and_inputs():
    assert S.validate(DEAD_CODE_DAG) == (True, "ok")
    assert DEAD_CODE_DAG.live == ((0, 1, 2, 5), ("q", "k", "v"))


def test_eval_dag_needs_only_live_inputs(rng):
    env = make_inputs(rng)
    got = S.eval_dag(DEAD_CODE_DAG, env).data
    want = oracles.standard_attention(env["q"].data * np.sqrt(5), env["k"].data,
                                      env["v"].data)
    assert np.allclose(got, want, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_pruned_eval_equals_every_node_eval(seed):
    dag = S.random_dag(random.Random(seed), max_len=12)
    data = np.random.default_rng(seed)
    arrays = {name: data.normal(size=(2, 3, 6, 4)) for name in dag.inputs}
    w = data.normal(size=(2, 3, 6, 4))
    live_nodes, live_inputs = oracles.dag_ancestors(dag)
    pruned = {name: T.Tensor(a, requires_grad=True) for name, a in arrays.items()}
    full = {name: T.Tensor(a, requires_grad=True) for name, a in arrays.items()}
    calls = []
    # an overflow, live or dead, ends in NonFiniteError rather than a warning
    with np.errstate(over="ignore", invalid="ignore"), pytest.MonkeyPatch.context() as mp:
        try:
            want = oracles.eval_dag_every_node(
                dag, full, lambda op, x: T.UNARY_OP_KINDS[op](x),
                lambda op, a, b: T.BINARY_OP_KINDS[op](a, b))
        except T.NonFiniteError:
            want = None
        for table in (T.UNARY_OP_KINDS, T.BINARY_OP_KINDS):
            for op, fn in list(table.items()):
                mp.setitem(table, op, _recording(fn, op, calls))
        try:
            got = S.eval_dag(dag, pruned)
        except T.NonFiniteError:
            got = None
    # the live nodes are a subset of every node: a failure there fails both
    assert want is not None or got is None
    assume(want is not None)
    assert calls == [dag.nodes[i].op for i in live_nodes]
    assert np.array_equal(got.data, want.data)
    with np.errstate(over="ignore", invalid="ignore"):
        T.backward(T.tensor_sum(T.mul(got, T.Tensor(w))))
        T.backward(T.tensor_sum(T.mul(want, T.Tensor(w))))
    for name in dag.inputs:
        if name in live_inputs:
            assert np.array_equal(pruned[name].grad, full[name].grad, equal_nan=True)
        else:
            assert pruned[name].grad is None and full[name].grad is None


def test_dead_overflow_does_not_raise_and_live_overflow_does():
    env = {name: T.Tensor(np.full((6, 4), 1e20)) for name in ("q", "k")}
    assert np.array_equal(S.eval_dag(_overflow_dag(live=False), env).data,
                          -env["q"].data)
    with pytest.warns(RuntimeWarning, match="overflow"), \
            pytest.raises(T.NonFiniteError):
        S.eval_dag(_overflow_dag(live=True), env)


# ---------------------------------------------------------------------------
# generation


@pytest.mark.parametrize("seed", range(8))
def test_random_dags_validate(seed):
    r = random.Random(seed)
    for _ in range(25):
        dag = S.random_dag(r)
        ok, reason = S.validate(dag)
        assert ok, reason
        assert "q" in dag.inputs and "k" in dag.inputs


def test_random_dag_covers_optional_inputs():
    r = random.Random(0)
    seen = set()
    for _ in range(200):
        seen.add(S.random_dag(r).inputs)
    # q,k always; v and p optionally: all four combinations show up
    assert len(seen) == 4


def test_random_dag_respects_max_len():
    r = random.Random(1)
    for _ in range(100):
        dag = S.random_dag(r, max_len=4)
        assert len(dag.nodes) <= 4


def test_random_dag_deterministic():
    a = [S.random_dag(random.Random(7)) for _ in range(5)]
    b = [S.random_dag(random.Random(7)) for _ in range(5)]
    assert a == b


def test_random_dag_finds_a_dag_at_max_len_1():
    # about 1.5% of attempts are accepted there, so 200 attempts ran out
    for seed in range(200):
        dag = S.random_dag(random.Random(seed), 1)
        assert S.validate(dag, 1)[0], seed


def test_generation_exhausted_raises(monkeypatch):
    monkeypatch.setattr(S, "DAG_ATTEMPTS", 0)
    with pytest.raises(S.GenerationExhausted):
        S.random_dag(random.Random(0))


# ---------------------------------------------------------------------------
# mutation


def test_mutations_stay_legal():
    r = random.Random(0)
    parent = S.standard_attention_dag()
    for _ in range(200):
        child = S.mutate_intra(parent, S.uniform_op_distribution, r)
        ok, reason = S.validate(child)
        assert ok, reason
        parent = child


def test_mutation_returns_the_parent_when_no_edit_is_valid():
    # at max_len 1 no edit of add(q, k) gives another valid dag
    parent = S.AttentionDag(("q", "k"), (S.DagNode("add", ("q", "k")),))
    r = random.Random(0)
    for _ in range(20):
        assert S.mutate_intra(parent, S.uniform_op_distribution, r, max_len=1) is parent


def test_mutation_usually_changes_the_dag():
    r = random.Random(0)
    parent = S.standard_attention_dag()
    changed = sum(
        S.mutate_intra(parent, S.uniform_op_distribution, r) != parent
        for _ in range(100)
    )
    assert changed >= 90


def test_inter_mutation_touches_at_most_one_layer():
    # a conv kernel resample may redraw the same kernel, so zero diffs is legal
    r = random.Random(0)
    parent = S.standard_backbone(6)
    changed = 0
    for _ in range(50):
        child = S.mutate_inter(parent, S.uniform_kernel_distribution, r)
        diffs = [
            i for i, (a, b) in enumerate(zip(parent.layers, child.layers)) if a != b
        ]
        assert len(diffs) <= 1
        assert len(child.layers) == len(parent.layers)
        changed += bool(diffs)
        parent = child
    assert changed >= 35


def test_inter_mutation_reaches_conv_and_back():
    r = random.Random(3)
    spec = S.standard_backbone(4)
    kinds = set()
    for _ in range(80):
        spec = S.mutate_inter(spec, S.uniform_kernel_distribution, r)
        kinds.update(layer.kind for layer in spec.layers)
    assert kinds == {"attention", "conv"}


def _skewed_op_distribution(position):
    # most ops get no mass, and which ones do depends on the position, so
    # some slots hold no op with mass and the draw falls back to uniform
    heavy = S.ALL_OPS[position % len(S.ALL_OPS)]
    return {heavy: 5.0, "matmul": 1.0, "transpose": 0.5, "cosine": 0.0}


def _zero_op_distribution(position):
    return {op: 0.0 for op in S.ALL_OPS}


def _kernel_distribution_without_15(layer):
    return {k: 0.0 if k == 15 else 1.0 / k for k in S.KERNEL_MENU}


# sha256 of the serialized draws below; every draw is a pure function of its
# seed, so a change to any generation or mutation rule shows here first
DRAW_PIN = "cdcef04db67861a62e126bc5cc41976b2d5d24439dac9f54a19aecbcfb1f0762"


def test_fixed_seed_draws_equal_the_pinned_digest():
    digest = hashlib.sha256()

    def pin(spec):
        digest.update(S.serialize(spec).encode())

    r = random.Random(11)
    dags = [S.random_dag(r) for _ in range(300)]
    for dag in dags:
        pin(S.BackboneSpec((S.LayerSpec.attention(dag),)))
    for seed, dist in enumerate((S.uniform_op_distribution, _skewed_op_distribution,
                                 _zero_op_distribution)):
        r = random.Random(100 + seed)
        for start in (S.standard_attention_dag(), *dags[:3]):
            dag = start
            for _ in range(100):
                dag = S.mutate_intra(dag, dist, r)
                pin(S.BackboneSpec((S.LayerSpec.attention(dag),)))
    r = random.Random(200)
    spec = S.autobert_zero_backbone(6)
    for _ in range(500):
        spec = S.mutate_inter(spec, _kernel_distribution_without_15, r)
        assert all(layer.kernel != 15 for layer in spec.layers)
        pin(spec)
    assert digest.hexdigest() == DRAW_PIN


class _Scripted(random.Random):
    """Fixed draws for a worked example: ``randrange`` gives ``pos`` and
    ``choice`` the first item; ``choices`` stays seeded, and a one-op
    distribution decides it."""

    def __init__(self, pos):
        super().__init__(0)
        self.pos = pos

    def randrange(self, *args):
        return self.pos

    def choice(self, seq):
        return seq[0]


def test_delete_renumbers_by_worked_example():
    # scale(q), transpose(k), matmul(0, 1), softmax(2), matmul(3, v) less
    # node 2: softmax's ref to it becomes its first argument, 0, and the
    # final matmul's ref 3 shifts down to 2
    child = S._mutate_delete(S.standard_attention_dag(), _Scripted(pos=2))
    assert child == S.AttentionDag(("q", "k", "v"), (
        S.DagNode("scale", ("q",)), S.DagNode("transpose", ("k",)),
        S.DagNode("softmax", (0,)), S.DagNode("matmul", (2, "v"))))


def test_insert_renumbers_by_worked_example():
    # neg(q) goes in at 2: softmax's ref 2 and the final matmul's ref 3 shift
    # up to 3 and 4, refs 0 and 1 stay, and the new node takes the first
    # consumer slot of its shape, the old matmul's first argument
    dag = S.standard_attention_dag()
    child = S._mutate_insert(dag, S._node_shapes_env(dag), lambda pos: {"neg": 1.0},
                             _Scripted(pos=2), S.MAX_PATH_LEN)
    assert child == S.AttentionDag(("q", "k", "v"), (
        S.DagNode("scale", ("q",)), S.DagNode("transpose", ("k",)),
        S.DagNode("neg", ("q",)), S.DagNode("matmul", (2, 1)),
        S.DagNode("softmax", (3,)), S.DagNode("matmul", (4, "v"))))


@pytest.mark.parametrize("seed", range(6))
def test_input_removal_redraws_refs_in_node_then_argument_order(seed):
    dag = S.AttentionDag(("q", "k", "v", "p"), (
        S.DagNode("add", ("v", "q")), S.DagNode("add", ("v", "v")),
        S.DagNode("add", ("p", 1)), S.DagNode("add", (0, "p")),
        S.DagNode("add", (3, 2))))
    rng = random.Random(seed)
    hand = random.Random()
    hand.setstate(rng.getstate())
    child = S._mutate_toggle(dag, S._node_shapes_env(dag), rng)
    _, name = hand.choice([("remove", "v"), ("remove", "p")])
    inputs = tuple(x for x in dag.inputs if x != name)
    nodes = []
    for node in dag.nodes:
        args = []
        for r in node.args:
            args.append(hand.choice(inputs) if r == name else r)
        nodes.append(S.DagNode(node.op, tuple(args)))
    assert child == S.AttentionDag(inputs, tuple(nodes))
    assert rng.getstate() == hand.getstate()  # no draw more or less


def test_input_addition_by_worked_example():
    # the absent input comes first among the actions, so v is added; it takes
    # the first n x d_h slot, node 0's first argument, and q is still read
    dag = S.AttentionDag(("q", "k", "p"), (
        S.DagNode("add", ("q", "p")), S.DagNode("transpose", ("k",)),
        S.DagNode("matmul", (0, 1)), S.DagNode("matmul", (2, "q"))))
    child = S._mutate_toggle(dag, S._node_shapes_env(dag), _Scripted(pos=0))
    assert child == S.AttentionDag(("q", "k", "v", "p"), (
        S.DagNode("add", ("v", "p")), S.DagNode("transpose", ("k",)),
        S.DagNode("matmul", (0, 1)), S.DagNode("matmul", (2, "q"))))
    assert S.validate(child)[0]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_input_toggle_always_returns_a_dag(seed):
    # one of v and p can always be added or removed, and node 0 reads only
    # inputs, so an added input always finds an n x d_h slot
    r = random.Random(seed)
    dag = S.random_dag(r)
    assert isinstance(S._mutate_toggle(dag, S._node_shapes_env(dag), r), S.AttentionDag)


class _Coins(random.Random):
    """A generator seeded 0 whose first ``randrange`` gives ``pos`` and whose
    first ``random`` draws give ``coins``; the rest come from the seed, and
    ``draws`` counts the ``random`` calls."""

    def __init__(self, pos, *coins):
        super().__init__(0)
        self.pos, self.coins, self.draws = [pos], list(coins), 0

    def randrange(self, *args):
        return self.pos.pop() if self.pos else super().randrange(*args)

    def random(self):
        self.draws += 1
        return self.coins.pop(0) if self.coins else super().random()

    # defined here, it keeps choice and shuffle on the seeded bits: a subclass
    # that overrides only random makes them draw from random
    def getrandbits(self, k):
        return super().getrandbits(k)


def _only_15(layer):
    return {15: 1.0}


MIX = S.key_value_mix_attention_dag()


def test_inter_attention_to_conv_by_worked_example():
    # no coin: the only draw is the kernel's
    parent = S.BackboneSpec((S.LayerSpec.attention(MIX), S.LayerSpec.conv(7)))
    rng = _Coins(0)
    child = S.mutate_inter(parent, _only_15, rng)
    assert child == S.BackboneSpec((S.LayerSpec.conv(15), S.LayerSpec.conv(7)))
    assert rng.draws == 1


def test_inter_conv_to_donor_copy_by_worked_example():
    parent = S.BackboneSpec((S.LayerSpec.attention(MIX), S.LayerSpec.conv(7)))
    rng = _Coins(1, 0.0, 0.0)  # flip to attention, then copy a donor
    child = S.mutate_inter(parent, _only_15, rng)
    assert child == S.BackboneSpec((S.LayerSpec.attention(MIX),) * 2)
    assert rng.draws == 2


def test_inter_conv_to_fresh_dag_by_worked_example():
    # flip to attention, then no donor: the dag is random_dag's on the rest
    # of the stream, which the scripted draws did not advance
    parent = S.BackboneSpec((S.LayerSpec.attention(MIX), S.LayerSpec.conv(7)))
    child = S.mutate_inter(parent, _only_15, _Coins(1, 0.0, 0.5))
    fresh = S.random_dag(random.Random(0))
    assert fresh != MIX
    assert child == S.BackboneSpec((S.LayerSpec.attention(MIX), S.LayerSpec.attention(fresh)))


def test_inter_conv_to_conv_by_worked_example():
    parent = S.BackboneSpec((S.LayerSpec.attention(MIX), S.LayerSpec.conv(7)))
    rng = _Coins(1, 0.5)  # no flip: the kernel is redrawn
    child = S.mutate_inter(parent, _only_15, rng)
    assert child == S.BackboneSpec((S.LayerSpec.attention(MIX), S.LayerSpec.conv(15)))
    assert rng.draws == 2


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_mutation_property_legal_everywhere(seed):
    r = random.Random(seed)
    parent = S.random_dag(r)
    child = S.mutate_intra(parent, S.uniform_op_distribution, r)
    ok, reason = S.validate(child)
    assert ok, reason


# ---------------------------------------------------------------------------
# serialization


def test_round_trip_all_published_specs():
    for spec in (S.standard_backbone(12), S.autobert_zero_backbone(12),
                 S.autobert_zero_backbone(4)):
        assert S.deserialize(S.serialize(spec)) == spec


def test_round_trip_random_specs():
    r = random.Random(0)
    for _ in range(20):
        layers = []
        for _ in range(4):
            if r.random() < 0.5:
                layers.append(S.LayerSpec.conv(r.choice(S.KERNEL_MENU)))
            else:
                layers.append(S.LayerSpec.attention(S.random_dag(r)))
        spec = S.BackboneSpec(tuple(layers))
        assert S.deserialize(S.serialize(spec)) == spec


def test_serialized_form_is_stable_json():
    text = S.serialize(S.autobert_zero_backbone(12))
    payload = json.loads(text)
    assert payload["version"] == S.SPEC_VERSION
    assert len(payload["layers"]) == 12
    assert text.endswith("\n")


@pytest.mark.parametrize("mangle,fragment", [
    (lambda p: p.pop("version"), "version"),
    (lambda p: p["layers"][0].update(type="dense"), "type"),
    (lambda p: p["layers"][0].update(kernel=4), "kernel"),
    (lambda p: p["layers"][1]["nodes"][0].update(op="relu"), "op"),
    (lambda p: p["layers"][1].update(inputs=["q", "x"]), "input"),
    # the dag checks are validate's, located at the layer
    pytest.param(lambda p: p["layers"][1].update(nodes=[
        {"op": "transpose", "args": ["k"]}, {"op": "matmul", "args": ["q", 0]}]),
        "$.layers[1]: node 1: output shape ('n', 'n') is not n x d_h", id="output-shape"),
    pytest.param(lambda p: p["layers"][1].update(nodes=[{"op": "matmul", "args": ["q", "k"]}]),
                 "$.layers[1]: node 0: matmul inner symbols differ: ('n', 'dh') x ('n', 'dh')",
                 id="matmul-inner"),
    pytest.param(lambda p: p["layers"][1].update(nodes=[
        {"op": "transpose", "args": ["k"]}, {"op": "add", "args": ["q", 0]}]),
        "$.layers[1]: node 1: add needs equal shapes, got ('n', 'dh') and ('dh', 'n')",
        id="add-shapes"),
    pytest.param(lambda p: p["layers"][1].update(inputs=["q", "k", "v"]),
                 "$.layers[1]: declared inputs never referenced: ['v']", id="unused-input"),
    pytest.param(lambda p: p["layers"][3].update(inputs=["q", "k", "v", "k"]),
                 "$.layers[3]: duplicate inputs", id="duplicate-inputs"),
    pytest.param(lambda p: p["layers"][1].update(nodes=[
        {"op": "add", "args": ["q", "k"]},
        *({"op": "neg", "args": [i]} for i in range(12))]),
        "$.layers[1]: 13 nodes exceeds limit 12", id="13-nodes"),
])
def test_bad_payloads_rejected(mangle, fragment):
    payload = json.loads(S.serialize(S.autobert_zero_backbone(12)))
    mangle(payload)
    with pytest.raises(S.SpecParseError) as exc:
        S.backbone_from_payload(payload)
    assert fragment in str(exc.value)


def test_forward_reference_in_payload_rejected():
    payload = json.loads(S.serialize(S.standard_backbone(1)))
    payload["layers"][0]["nodes"][0]["args"] = [3]
    with pytest.raises(S.SpecParseError) as exc:
        S.backbone_from_payload(payload)
    assert "layers[0]" in str(exc.value)


def test_parse_error_carries_location():
    with pytest.raises(S.SpecParseError) as exc:
        S.deserialize("{not json")
    assert exc.value.location


def test_golden_files_match_builders():
    import importlib.resources as res

    golden = res.files("opnas") / "golden"
    assert (golden / "autobert-zero.json").read_text() == S.serialize(
        S.autobert_zero_backbone(12))
    assert (golden / "standard-attention.json").read_text() == S.serialize(
        S.standard_backbone(12))


# ---------------------------------------------------------------------------
# published architectures


def test_autobert_alternates_conv_attention():
    for num_layers in (2, 4, 12):
        spec = S.autobert_zero_backbone(num_layers)
        assert len(spec.layers) == num_layers
        for i, layer in enumerate(spec.layers):
            assert layer.kind == ("conv" if i % 2 == 0 else "attention")
            if i == 1:
                assert layer.dag == S.softplus_key_attention_dag()
            elif i % 2 == 1:
                assert layer.dag == S.key_value_mix_attention_dag()


def test_autobert_kernel_schedule_decreases():
    spec = S.autobert_zero_backbone(12)
    kernels = [l.kernel for l in spec.layers if l.kind == "conv"]
    assert kernels == [65, 31, 15, 9, 5, 3]
    spec4 = S.autobert_zero_backbone(4)
    k4 = [l.kernel for l in spec4.layers if l.kind == "conv"]
    assert k4[0] == 65 and k4[-1] == 3


def test_autobert_rejects_odd_or_tiny_depth():
    with pytest.raises(ValueError):
        S.autobert_zero_backbone(5)
    with pytest.raises(ValueError):
        S.autobert_zero_backbone(0)


# ---------------------------------------------------------------------------
# parameter counting


def test_standard_layer_param_count_formula():
    cfg = ModelConfig(num_layers=1, d_model=64, n_heads=4)
    spec = S.standard_backbone(1)
    got = S.count_params(spec, cfg, kind="attention")
    # three input projections plus the output projection
    assert got == 4 * cfg.d_model * cfg.d_h * cfg.n_heads


def test_param_count_scales_with_used_inputs():
    cfg = ModelConfig(num_layers=1, d_model=32, n_heads=2)
    two = S.BackboneSpec((S.LayerSpec.attention(S.softplus_key_attention_dag()),))
    three = S.BackboneSpec((S.LayerSpec.attention(S.standard_attention_dag()),))
    d = cfg.d_model
    assert S.count_params(three, cfg) - S.count_params(two, cfg) == d * d


def test_conv_param_count():
    cfg = ModelConfig(num_layers=1, d_model=32, n_heads=2)
    spec = S.BackboneSpec((S.LayerSpec.conv(9),))
    d = cfg.d_model
    assert S.count_params(spec, cfg) == 2 * d * d + 9 * d


def test_autobert_attention_params_below_standard():
    cfg = ModelConfig(num_layers=12, d_model=64, n_heads=4)
    auto = S.count_params(S.autobert_zero_backbone(12), cfg, kind="attention")
    std = S.count_params(S.standard_backbone(12), cfg, kind="attention")
    assert auto < std
