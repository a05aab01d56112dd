"""Compare the guided search against its two baselines on a synthetic score.

The fitness counts how much of the backbone is built from two designated
ops, so no training is involved and a full three-way comparison runs in
seconds. Also demonstrates the on-disk history and checkpoint files and
that an interrupted run resumes to the same bytes.
"""

import tempfile
from pathlib import Path

from opnas.evolution import (
    SearchConfig,
    random_search,
    read_history,
    search,
    vanilla_ea,
)

GOOD_OPS = ("add", "softsign")
THRESHOLD = 0.9


def fitness(spec, candidate_id):
    """Mean over layers of the fraction of good ops; conv layers score 0."""
    per_layer = []
    for layer in spec.layers:
        if layer.kind != "attention":
            per_layer.append(0.0)
            continue
        nodes = layer.dag.nodes
        per_layer.append(sum(n.op in GOOD_OPS for n in nodes) / len(nodes))
    return sum(per_layer) / len(per_layer)


def evals_to_threshold(records):
    for i, rec in enumerate(records, start=1):
        if rec.score >= THRESHOLD:
            return i
    return None


def main():
    cfg = SearchConfig(population_size=16, k=4, alpha=0.25, max_iterations=40,
                       children_per_parent=2, seed=1, num_layers=4,
                       max_path_len=5, max_evaluations=300, patience=10_000)

    # ------------------------------------------------------------------
    # same budget, same seed, three strategies
    print(f"evaluations to reach fitness >= {THRESHOLD} (budget 300):")
    for tag, algo in (("guided", search), ("vanilla ea", vanilla_ea),
                      ("random", random_search)):
        records = algo(cfg, fitness)
        best = max(r.score for r in records)
        hit = evals_to_threshold(records)
        print(f"  {tag:>10}: {hit if hit else 'not reached':>11}  "
              f"(best {best:.3f} over {len(records)} evaluations)")

    # ------------------------------------------------------------------
    # runs persist a history.jsonl and a small checkpoint.json (rng state
    # and counters); resume replays the history up to the checkpoint and
    # reproduces the uninterrupted bytes
    with tempfile.TemporaryDirectory() as tmp:
        gold_dir, cut_dir = Path(tmp) / "gold", Path(tmp) / "cut"
        short = SearchConfig(population_size=8, k=2, alpha=0.25, seed=5,
                             num_layers=2, max_path_len=5, max_iterations=6)
        search(short, fitness, out_dir=gold_dir)

        half = SearchConfig(population_size=8, k=2, alpha=0.25, seed=5,
                            num_layers=2, max_path_len=5, max_iterations=3)
        search(half, fitness, out_dir=cut_dir)
        search(short, fitness, out_dir=cut_dir, resume=True)

        gold = (gold_dir / "history.jsonl").read_bytes()
        cut = (cut_dir / "history.jsonl").read_bytes()
        rows = read_history(gold_dir / "history.jsonl")
        print(f"\nhistory rows: {len(rows)}, first id {rows[0].id}, "
              f"last id {rows[-1].id}")
        print(f"interrupted-then-resumed history identical: {gold == cut}")


if __name__ == "__main__":
    main()
