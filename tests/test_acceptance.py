"""End-to-end release gate: eleven checks, one printed line each.

Every test records a [PASS]/[FAIL] line naming the measured value and its
tolerance before asserting, and conftest echoes the collected lines in a
terminal summary section. The directional checks (search efficiency,
warm-start speedup, token uniformity) run real toy-scale training with
frozen seeds, sizes and budgets so the whole gate is deterministic.
"""

import json
import math
import random
import time

import numpy as np
import pytest

import oracles
from opnas import search_space as S
from opnas import tensor as T
from opnas.evolution import (
    Candidate,
    EvalRecord,
    SearchConfig,
    UcbStats,
    op_distribution,
    random_search,
    record_result,
    search,
    ucb_score,
    vanilla_ea,
)
from opnas.metrics import mean_pairwise_cosine, relative_residual_norm, uniformity_report
from opnas.model import ModelConfig, build_model, mlm_pretrain, synth_corpus
from opnas.supernet import (
    BiwsEvaluator,
    center_slice,
    init_candidate,
    init_supernet,
    write_back,
)

ZERO_CLOCK = lambda: 0.0  # noqa: E731


@pytest.fixture
def gate(request):
    def record(name: str, ok: bool, detail: str) -> None:
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        request.config._acceptance_lines.append(line)
        print(line)
        assert ok, line

    return record


# ---------------------------------------------------------------------------
# 1. gradient correctness for every differentiable op


def _projected(build):
    """Scalar loss sum(w * f(xs)) with a fixed random projection w."""

    def make(arrays, w):
        def scalar(*arrs):
            out = build([T.Tensor(a) for a in arrs])
            return float((out.data * w).sum())

        return scalar

    return make


GRAD_CASES = [
    ("neg", lambda r: [r.normal(size=(4, 5))], lambda ts: T.neg(ts[0])),
    ("transpose", lambda r: [r.normal(size=(4, 5))], lambda ts: T.transpose(ts[0])),
    ("scale", lambda r: [r.normal(size=(4, 5))], lambda ts: T.scale(ts[0])),
    ("softmax", lambda r: [r.normal(size=(4, 5))], lambda ts: T.softmax(ts[0])),
    ("logsigmoid", lambda r: [r.normal(size=(4, 5))], lambda ts: T.logsigmoid(ts[0])),
    ("softsign", lambda r: [r.normal(size=(4, 5))], lambda ts: T.softsign(ts[0])),
    ("add", lambda r: [r.normal(size=(4, 5)), r.normal(size=(4, 5))],
     lambda ts: T.add(ts[0], ts[1])),
    ("matmul", lambda r: [r.normal(size=(4, 3)), r.normal(size=(3, 5))],
     lambda ts: T.matmul(ts[0], ts[1])),
    ("cosine", lambda r: [r.normal(size=(4, 5)), r.normal(size=(4, 5))],
     lambda ts: T.cosine_similarity(ts[0], ts[1])),
    ("euclidean", lambda r: [r.normal(size=(4, 5)), r.normal(size=(4, 5))],
     lambda ts: T.euclidean_distance(ts[0], ts[1])),
    ("linear", lambda r: [r.normal(size=(5, 4)), r.normal(size=(4, 3))],
     lambda ts: T.matmul(ts[0], ts[1])),
    ("conv", lambda r: [r.normal(size=(9, 3)), r.normal(size=(5, 3))],
     lambda ts: T.depthwise_conv1d(ts[0], ts[1])),
    ("glu", lambda r: [r.normal(size=(5, 8))], lambda ts: T.glu(ts[0])),
    ("layer_norm",
     lambda r: [r.normal(size=(5, 4)), 1.0 + 0.1 * r.normal(size=4),
                0.1 * r.normal(size=4)],
     lambda ts: T.layer_norm(ts[0], ts[1], ts[2])),
]


def test_01_gradients(gate):
    t0 = time.perf_counter()
    worst = 0.0
    for case_idx, (name, make_arrays, build) in enumerate(GRAD_CASES):
        for inst in range(20):
            r = np.random.default_rng([case_idx, inst])
            arrays = [np.asarray(a, dtype=np.float64) for a in make_arrays(r)]
            w = r.normal(size=build([T.Tensor(a) for a in arrays]).shape)

            tensors = [T.Tensor(a, requires_grad=True) for a in arrays]
            T.backward(T.tensor_sum(T.mul(build(tensors), T.Tensor(w))))
            scalar = _projected(build)(arrays, w)
            for i, t in enumerate(tensors):
                fd = oracles.finite_difference(scalar, arrays, i)
                got = t.grad if t.grad is not None else np.zeros_like(fd)
                worst = max(worst, oracles.relative_error(got, fd))

    # the loss is already scalar, so it is differenced directly
    for inst in range(20):
        r = np.random.default_rng([99, inst])
        logits = r.normal(size=(8, 6))
        targets = r.integers(0, 6, size=8)
        mask = r.random(8) < 0.5
        mask[0] = True

        lt = T.Tensor(logits, requires_grad=True)
        T.backward(T.masked_cross_entropy(lt, targets, mask))

        def scalar(arr):
            return float(T.masked_cross_entropy(T.Tensor(arr), targets, mask).data)

        fd = oracles.finite_difference(scalar, [logits], 0)
        worst = max(worst, oracles.relative_error(lt.grad, fd))

    elapsed = time.perf_counter() - t0
    ok = worst < 1e-4 and elapsed < 60.0
    gate("gradients", ok,
         f"max rel err {worst:.2e} < 1e-4 over 15 op families x 20 instances, "
         f"central differences h=1e-5; {elapsed:.1f}s < 60s")


# ---------------------------------------------------------------------------
# 2. symbolic legality agrees with concrete execution, exhaustively


def _concrete_apply(op, vals):
    """Plain-numpy node semantics; None signals a shape violation."""
    if op == "neg":
        return -vals[0]
    if op == "transpose":
        return vals[0].T
    if op == "scale":
        return oracles.scale(vals[0])
    if op == "softmax":
        return oracles.softmax_rows(vals[0])
    if op == "logsigmoid":
        return oracles.logsigmoid(vals[0])
    if op == "softsign":
        return oracles.softsign(vals[0])
    a, b = vals
    if op == "add":
        return a + b if a.shape == b.shape else None
    if op == "matmul":
        return a @ b if a.shape[1] == b.shape[0] else None
    if a.shape != b.shape:
        return None
    return oracles.cosine_rows(a, b) if op == "cosine" else oracles.euclidean_rows(a, b)


def test_02_shape_verdicts(gate):
    """The shape system must predict concrete execution exactly.

    validate() is stricter than the shape system on purpose: it also
    requires every declared input to be referenced, a canonical-form rule
    with no runtime counterpart. That delta is pinned here too, so the
    full legality verdict stays accounted for.
    """
    t0 = time.perf_counter()
    n, dh = 7, 5  # distinct and > 1 so the four symbolic shapes stay distinguishable
    rng = np.random.default_rng(2)
    base = {"q": rng.normal(size=(n, dh)), "k": rng.normal(size=(n, dh))}
    checked = 0
    shape_disagreements = []
    validate_disagreements = []

    nodes: list = []
    values: list = []
    dead = 0  # nodes in the current prefix that failed to evaluate

    def judge():
        nonlocal checked
        dag = S.AttentionDag(inputs=("q", "k"), nodes=tuple(nodes))
        try:
            S.infer_shapes(dag)
            shape_legal = True
        except S.IllegalGraph:
            shape_legal = False
        # every node executes, so one bad node fails the whole dag even
        # when the output never references it
        concrete = dead == 0 and values[-1].shape == (n, dh)
        checked += 1
        if shape_legal != concrete and len(shape_disagreements) < 5:
            shape_disagreements.append((dag.nodes, shape_legal, concrete))
        used = {r for node in nodes for r in node.args if isinstance(r, str)}
        want_valid = shape_legal and used == {"q", "k"}
        if S.validate(dag)[0] != want_valid and len(validate_disagreements) < 5:
            validate_disagreements.append(dag.nodes)

    def extend():
        nonlocal dead
        depth = len(nodes)
        refs = ["q", "k", *range(depth)]
        for op in S.ALL_OPS:
            if op in S.UNARY_OPS:
                arg_lists = [(r,) for r in refs]
            else:
                arg_lists = [(a, b) for a in refs for b in refs]
            for args in arg_lists:
                if dead:
                    val = None
                else:
                    picked = [base[a] if isinstance(a, str) else values[a]
                              for a in args]
                    val = _concrete_apply(op, picked)
                nodes.append(S.DagNode(op, args))
                values.append(val)
                dead += val is None
                judge()
                if depth + 1 < 3:
                    extend()
                dead -= val is None
                nodes.pop()
                values.pop()

    extend()
    elapsed = time.perf_counter() - t0
    # 28 one-node dags, then x54 and x88 extension choices
    ok = (checked == 134_596 and not shape_disagreements
          and not validate_disagreements and elapsed < 120.0)
    gate("shape verdicts", ok,
         f"{checked} dags with <= 3 nodes over inputs (q, k): "
         f"{len(shape_disagreements)} shape-vs-concrete disagreements at "
         f"(n, d_h)=({n}, {dh}), {len(validate_disagreements)} validate-vs-"
         f"(shapes + all-inputs-used) disagreements; {elapsed:.1f}s < 120s")
    assert not shape_disagreements, shape_disagreements
    assert not validate_disagreements, validate_disagreements


# ---------------------------------------------------------------------------
# 3. the standard-attention dag reproduces softmax attention


def test_03_standard_attention(gate):
    dag = S.standard_attention_dag()
    worst = 0.0
    for trial in range(50):
        r = np.random.default_rng([3, trial])
        n = int(r.integers(3, 12))
        dh = int(r.integers(3, 12))
        q, k, v = (r.normal(size=(n, dh)) for _ in range(3))
        got = S.eval_dag(dag, {name: T.Tensor(x)
                               for name, x in zip(("q", "k", "v"), (q, k, v))})
        want = oracles.standard_attention(q, k, v)
        worst = max(worst, float(np.abs(got.data - want).max()))
    ok = worst < 1e-6
    gate("standard attention", ok,
         f"max |engine - oracle| {worst:.2e} < 1e-6 over 50 random inputs "
         f"with n, d_h in [3, 12)")


# ---------------------------------------------------------------------------
# 4. the two named hybrid-backbone dags match their closed forms


def test_04_closed_form_dags(gate):
    cases = [
        ("softplus-key", S.softplus_key_attention_dag(), oracles.softplus_key_attention),
        ("key-value-mix", S.key_value_mix_attention_dag(), oracles.key_value_mix_attention),
    ]
    n, dh = 4, 8
    worst = 0.0
    all_legal = True
    shapes_ok = True
    for name, dag, oracle in cases:
        legal, reason = S.validate(dag)
        all_legal = all_legal and legal
        shapes_ok = shapes_ok and S.infer_shapes(dag)[-1] == ("n", "dh")
        for trial in range(10):
            r = np.random.default_rng([4, trial])
            q, k, v = (r.normal(size=(n, dh)) for _ in range(3))
            env = {nm: T.Tensor(x) for nm, x in zip(("q", "k", "v"), (q, k, v))
                   if nm in dag.inputs}
            got = S.eval_dag(dag, env)
            shapes_ok = shapes_ok and got.data.shape == (n, dh)
            worst = max(worst, float(np.abs(got.data - oracle(q, k, v)).max()))
    ok = worst < 1e-9 and all_legal and shapes_ok
    gate("closed-form dags", ok,
         f"softplus-key and key-value-mix: max |engine - closed form| "
         f"{worst:.2e} < 1e-9 on {n}x{dh} inputs, legal={all_legal}, "
         f"n x d_h output={shapes_ok}")


# ---------------------------------------------------------------------------
# 5. acquisition arithmetic


def test_05_ucb_arithmetic(gate):
    worst = 0.0
    exact_identity = True
    r = np.random.default_rng(5)
    for trial in range(100):
        total = int(r.integers(1, 1000))
        n_i = int(r.integers(1, total + 1))
        sum_val = float(r.uniform(0.0, n_i))
        alpha = float(r.uniform(0.0, 2.0))
        st = UcbStats()
        st.visits[0] = {"add": n_i}
        st.sums[0] = {"add": sum_val}
        st.totals[0] = total
        mu = sum_val / n_i
        worst = max(worst, abs(ucb_score(st, 0, "add", alpha) - oracles.ucb(mu, total, n_i, alpha)))
        exact_identity = exact_identity and ucb_score(st, 0, "add", 0.0) == mu

    # distributions: uniform before any data, unit mass always
    fresh = op_distribution(UcbStats(), 0, 0.5)
    uniform_ok = set(fresh) == set(S.ALL_OPS) and all(
        p == 1.0 / len(S.ALL_OPS) for p in fresh.values())

    st = UcbStats()
    rr = np.random.default_rng(55)
    for cid in range(12):
        dag = S.random_dag(random.Random(cid), max_len=6)
        spec = S.BackboneSpec((S.LayerSpec.attention(dag),))
        score = float(rr.uniform(0, 1))
        record_result(st, Candidate(cid, spec, score, None), score)
    sum_err = max(abs(sum(op_distribution(st, pos, 0.3).values()) - 1.0)
                  for pos in st.totals)

    ok = worst < 1e-6 and exact_identity and uniform_ok and sum_err < 1e-9
    gate("ucb arithmetic", ok,
         f"max |score - direct arithmetic| {worst:.2e} < 1e-6 over 100 tuples, "
         f"alpha=0 identity exact={exact_identity}, unseen uniform={uniform_ok}, "
         f"max |sum(p) - 1| {sum_err:.1e} < 1e-9")


# ---------------------------------------------------------------------------
# 6. guided search beats the unguided baselines on a synthetic landscape


GOOD_OPS = ("add", "softsign")
FITNESS_THRESHOLD = 0.9
EVAL_BUDGET = 300


def good_op_fitness(spec, candidate_id):
    """Mean over layers of the fraction of good ops; conv layers score 0."""
    per_layer = []
    for layer in spec.layers:
        if layer.kind != "attention":
            per_layer.append(0.0)
            continue
        nodes = layer.dag.nodes
        per_layer.append(sum(n.op in GOOD_OPS for n in nodes) / len(nodes))
    return sum(per_layer) / len(per_layer)


def _evals_to_threshold(records):
    for i, rec in enumerate(records, start=1):
        if rec.score >= FITNESS_THRESHOLD:
            return i
    return EVAL_BUDGET + 1  # not reached within budget


def test_06_search_efficiency(gate):
    t0 = time.perf_counter()
    op_evals, ea_evals, rs_evals = [], [], []
    for seed in range(5):
        cfg = SearchConfig(population_size=16, k=4, alpha=0.25,
                           max_iterations=40, children_per_parent=2,
                           seed=seed, num_layers=4, max_path_len=5,
                           max_evaluations=EVAL_BUDGET, patience=10_000)
        op_evals.append(_evals_to_threshold(search(cfg, good_op_fitness, clock=ZERO_CLOCK)))
        ea_evals.append(_evals_to_threshold(vanilla_ea(cfg, good_op_fitness, clock=ZERO_CLOCK)))
        rs_evals.append(_evals_to_threshold(random_search(cfg, good_op_fitness, clock=ZERO_CLOCK)))
    elapsed = time.perf_counter() - t0

    wins = sum(1 for op, rs in zip(op_evals, rs_evals) if op < rs)
    op_med = sorted(op_evals)[2]
    ea_med = sorted(ea_evals)[2]
    ok = wins >= 4 and op_med <= ea_med and elapsed < 180.0
    gate("search efficiency", ok,
         f"evals to fitness >= {FITNESS_THRESHOLD} (budget {EVAL_BUDGET}, "
         f"{EVAL_BUDGET + 1} = not reached): guided {op_evals} median {op_med}, "
         f"vanilla-ea median {ea_med}, beats random in {wins}/5 paired seeds "
         f"(need >= 4 and guided median <= ea median); {elapsed:.1f}s < 180s")


# ---------------------------------------------------------------------------
# 7. supernet-initialized training reaches the from-scratch loss early


SMOOTH_WINDOW = 25


def _first_reach(losses, target):
    for t in range(SMOOTH_WINDOW, len(losses) + 1):
        if float(np.mean(losses[t - SMOOTH_WINDOW:t])) <= target:
            return t
    return None


def test_07_warm_start_speedup(gate):
    t0 = time.perf_counter()
    config = ModelConfig(num_layers=4)  # d=64, 4 heads
    corpus = synth_corpus(0, size=256)
    candidate = S.autobert_zero_backbone(4)

    # warm the supernet on a sibling differing only in the final layer,
    # exactly the parent/child relation the search produces
    sibling = S.BackboneSpec((
        S.LayerSpec.conv(65),
        S.LayerSpec.attention(S.softplus_key_attention_dag()),
        S.LayerSpec.conv(3),
        S.LayerSpec.attention(S.standard_attention_dag()),
    ))
    sn = init_supernet(config, 0)
    evaluator = BiwsEvaluator(sn, corpus, steps=600)
    warm = evaluator(sibling, candidate_id=0)
    warm_rec = EvalRecord(id=0, parent_id=None, spec=sibling, score=warm.score,
                          iteration=0, wall_ms=0.0)
    evaluator.on_iteration_end(0, [(warm_rec, warm.payload)])

    ratios = []
    for seed in (0, 1, 2):
        scratch = build_model(candidate, config, rng=np.random.default_rng([seed, 7]))
        _, scratch_losses = mlm_pretrain(scratch, corpus, 600,
                                         rng=np.random.default_rng([seed]))
        warm_model = build_model(candidate, config,
                                 params=init_candidate(sn, candidate))
        _, warm_losses = mlm_pretrain(warm_model, corpus, 600,
                                      rng=np.random.default_rng([seed]))
        target = float(np.mean(scratch_losses[-SMOOTH_WINDOW:]))
        reached = _first_reach(warm_losses, target)
        ratios.append(reached / 600 if reached is not None else math.inf)

    elapsed = time.perf_counter() - t0
    median_ratio = sorted(ratios)[1]
    ok = median_ratio <= 0.5 and elapsed < 600.0
    shown = [f"{x:.3f}" if math.isfinite(x) else "inf" for x in ratios]
    gate("warm-start speedup", ok,
         f"steps to reach the from-scratch step-600 loss (trailing-{SMOOTH_WINDOW} "
         f"mean), as a fraction of 600: {shown}, median {median_ratio:.3f} <= 0.5 "
         f"over 3 seeds at L=4 d=64; {elapsed:.0f}s < 600s")


# ---------------------------------------------------------------------------
# 8. elastic-kernel bookkeeping round-trips exactly


def test_08_conv_round_trip(gate):
    slices_ok = all(
        center_slice(k) == slice(32 - (k - 1) // 2, 32 + (k - 1) // 2 + 1)
        for k in S.KERNEL_MENU)

    config = ModelConfig(num_layers=1, d_model=16, n_heads=2, vocab=32, seq_len=16)
    r = np.random.default_rng(8)

    def effective(params, k):
        kernel = params["layer0.conv.kernel"]
        return kernel if k == 65 else params[f"layer0.conv.transform.{k}"] @ kernel

    worst = 0.0
    for k in S.KERNEL_MENU:
        sn = init_supernet(config, r)
        trained = {"layer0.conv.kernel": r.normal(size=(k, config.d_model))}
        if k < 65:
            # well-conditioned but far from identity
            trained[f"layer0.conv.transform.{k}"] = np.eye(k) + 0.3 * r.normal(size=(k, k))
        write_back(sn, trained)
        back = init_candidate(sn, S.BackboneSpec((S.LayerSpec.conv(k),)))
        worst = max(worst, float(np.abs(effective(back, k) - effective(trained, k)).max()))

    ok = slices_ok and worst < 1e-7
    gate("conv round-trip", ok,
         f"center-slice indices exact for every kernel in {S.KERNEL_MENU}; "
         f"max |write_back then extract - kernel| {worst:.2e} < 1e-7 "
         f"with non-identity transforms")


# ---------------------------------------------------------------------------
# 9. attention-only stacks collapse token representations faster


def test_09_token_uniformity(gate):
    # metric fidelity first: double-loop / closed-form oracles
    r = np.random.default_rng(9)
    metric_err = 0.0
    for _ in range(20):
        x = r.normal(size=(int(r.integers(3, 9)), int(r.integers(2, 7))))
        pairs = []
        for i in range(x.shape[0]):
            for j in range(i + 1, x.shape[0]):
                ni, nj = np.linalg.norm(x[i]), np.linalg.norm(x[j])
                pairs.append(float(x[i] @ x[j] / (ni * nj)))
        metric_err = max(metric_err,
                         abs(mean_pairwise_cosine(x) - sum(pairs) / len(pairs)))
        resid = np.linalg.norm(x - x.mean(axis=0)) / np.linalg.norm(x)
        metric_err = max(metric_err, abs(relative_residual_norm(x) - resid))

    config = ModelConfig(num_layers=6, d_model=32, n_heads=2)
    corpus = synth_corpus(3, size=128)
    wins = 0
    cosines = []
    for seed in (0, 1, 2):
        per_tag = {}
        for tag, spec in (("attention", S.standard_backbone(6)),
                          ("hybrid", S.autobert_zero_backbone(6))):
            model = build_model(spec, config, rng=np.random.default_rng([seed, 11]))
            mlm_pretrain(model, corpus, 300, rng=np.random.default_rng([seed, 13]))
            per_tag[tag] = uniformity_report([(tag, model)], corpus.heldout,
                                             batch=16)[0]["cosine"]
        cosines.append((round(per_tag["attention"], 3), round(per_tag["hybrid"], 3)))
        wins += per_tag["attention"] > per_tag["hybrid"]

    ok = wins >= 2 and metric_err < 1e-9
    gate("token uniformity", ok,
         f"final-layer mean pairwise cosine (attention-only, hybrid) per seed "
         f"{cosines}: attention-only higher in {wins}/3 (need >= 2); "
         f"metric oracle max err {metric_err:.1e} < 1e-9")


# ---------------------------------------------------------------------------
# 10. the hybrid backbone spends fewer parameters on attention


def test_10_parameter_accounting(gate):
    config = ModelConfig()  # 12 layers, d=64, 4 heads
    hybrid = S.count_params(S.autobert_zero_backbone(12), config, "attention")
    standard = S.count_params(S.standard_backbone(12), config, "attention")

    one = S.count_params(
        S.BackboneSpec((S.LayerSpec.attention(S.standard_attention_dag()),)),
        config, "attention")
    formula = 4 * config.d_model * config.d_h * config.n_heads

    ok = hybrid < standard and one == formula
    gate("parameter accounting", ok,
         f"attention params {hybrid} (hybrid) < {standard} (all-standard) at "
         f"d=64 H=4 L=12; one standard layer {one} == 4*d*d_h*H = {formula}")


# ---------------------------------------------------------------------------
# 11. histories are bit-identical under fixed seeds, across resume


def test_11_determinism_and_resume(gate, tmp_path):
    base = dict(population_size=6, k=2, alpha=0.5, children_per_parent=2,
                seed=3, num_layers=2, max_path_len=6)

    search(SearchConfig(max_iterations=4, **base), good_op_fitness,
           out_dir=tmp_path / "a", clock=ZERO_CLOCK)
    search(SearchConfig(max_iterations=4, **base), good_op_fitness,
           out_dir=tmp_path / "b", clock=ZERO_CLOCK)
    gold = (tmp_path / "a" / "history.jsonl").read_bytes()
    repeat_ok = gold == (tmp_path / "b" / "history.jsonl").read_bytes()

    search(SearchConfig(max_iterations=2, **base), good_op_fitness,
           out_dir=tmp_path / "cut", clock=ZERO_CLOCK)
    search(SearchConfig(max_iterations=4, **base), good_op_fitness,
           out_dir=tmp_path / "cut", resume=True, clock=ZERO_CLOCK)
    resume_ok = gold == (tmp_path / "cut" / "history.jsonl").read_bytes()

    rows = gold.decode().strip().splitlines()
    parsed_ok = all(isinstance(json.loads(row)["id"], int) for row in rows)

    ok = repeat_ok and resume_ok and parsed_ok
    gate("determinism and resume", ok,
         f"{len(rows)} history rows: same-seed reruns bit-identical={repeat_ok}, "
         f"interrupted-then-resumed run byte-identical={resume_ok}")
