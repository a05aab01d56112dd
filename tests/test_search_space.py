"""Graph validation, generation, mutation, and serialization checks."""

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
            want = oracles.eval_dag_every_node(dag, full, T.apply_unary, T.apply_binary)
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


def test_generation_exhausted_raises():
    r = random.Random(0)
    with pytest.raises(S.GenerationExhausted):
        S.random_dag(r, attempts=0)


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
    spec = S.autobert_zero_backbone(12)
    for i, layer in enumerate(spec.layers):
        assert layer.kind == ("conv" if i % 2 == 0 else "attention")


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


def test_backbone_warnings_flag_conv_only():
    conv_only = S.BackboneSpec(tuple(S.LayerSpec.conv(3) for _ in range(4)))
    assert any("attention" in w for w in S.backbone_warnings(conv_only))
    assert S.backbone_warnings(S.standard_backbone(4)) == []


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
