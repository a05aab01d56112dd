"""Command-line surface: search, eval, export-arch, metrics, plot-data.

Configuration comes from an optional JSON config file with sections
{search, model, corpus, trainer, metrics}, overridden by flags (flags
win); the fully resolved config is written into the run directory as
config.json. Outputs go to --out-dir (env OPNAS_OUT_DIR, default
./opnas-out); input files are never modified.

Exit codes: 0 ok, 2 config error, 3 checkpoint error, 4 spec error,
5 data error (also a search whose three batches in a row scored nothing,
and an eval or metrics run whose model diverges or turns non-finite).

Search histories written by this command record wall_ms = 0.0: the run
artifacts are specified to be byte-identical for a fixed seed, which real
timing cannot satisfy. Library callers get real timing by default.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from opnas.evolution import (
    CheckpointError,
    EvaluationFailed,
    SearchConfig,
    random_search,
    read_history,
    search,
    vanilla_ea,
)
from opnas.metrics import uniformity_report
from opnas.model import (
    MlmEvaluator,
    ModelConfig,
    OptimConfig,
    TrainingDiverged,
    build_model,
    mlm_pretrain,
    proxy_evaluate,
    synth_corpus,
)
from opnas.search_space import (
    SpecParseError,
    autobert_zero_backbone,
    backbone_warnings,
    count_params,
    deserialize,
    serialize,
    standard_backbone,
    validate,
)
from opnas.supernet import BiwsEvaluator, Supernet, init_candidate, init_supernet
from opnas.tensor import NonFiniteError

__all__ = ["main"]

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_SPEC = 4
EXIT_DATA = 5

ARCH_NAMES = ("autobert-zero", "standard-attention")

DEFAULT_CORPUS_SIZE = 512
DEFAULT_TRAIN_STEPS = 100
DEFAULT_METRIC_SEEDS = 1


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# configuration


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as e:
        raise CliError(EXIT_CONFIG, f"cannot read config file: {e}") from None
    except json.JSONDecodeError as e:
        raise CliError(EXIT_CONFIG, f"config file line {e.lineno}: {e.msg}") from None
    if not isinstance(payload, dict):
        raise CliError(EXIT_CONFIG, "config file must hold a JSON object")
    return payload


def _resolve(args) -> dict:
    """Merge config file and flags into one resolved run configuration."""
    raw = _load_config_file(getattr(args, "config", None))
    for section in raw:
        if section not in ("search", "model", "corpus", "trainer", "metrics"):
            raise CliError(EXIT_CONFIG, f"unknown config section {section!r}")
    search_raw = dict(raw.get("search", {}))
    model_raw = dict(raw.get("model", {}))
    corpus_raw = dict(raw.get("corpus", {}))
    trainer_raw = dict(raw.get("trainer", {}))
    metrics_raw = dict(raw.get("metrics", {}))

    if getattr(args, "seed", None) is not None:
        search_raw["seed"] = args.seed
    if getattr(args, "iterations", None) is not None:
        search_raw["max_iterations"] = args.iterations
    if getattr(args, "population", None) is not None:
        search_raw["population_size"] = args.population
    if getattr(args, "k", None) is not None:
        search_raw["k"] = args.k
    if getattr(args, "alpha", None) is not None:
        search_raw["alpha"] = args.alpha
    if getattr(args, "jobs", None) is not None:
        search_raw["jobs"] = args.jobs

    try:
        model_config = ModelConfig(**model_raw)
        # the backbone length has one source of truth: the model section
        search_raw["num_layers"] = model_config.num_layers
        if "k" not in search_raw:
            population = search_raw.get("population_size", 20)
            search_raw["k"] = min(5, population)
        search_config = SearchConfig(**search_raw)
        optim = OptimConfig(
            lr=float(trainer_raw.get("lr", 1e-3)),
            warmup=int(trainer_raw.get("warmup", 60)),
            batch_size=int(trainer_raw.get("batch_size", 8)),
        )
    except (TypeError, ValueError) as e:
        raise CliError(EXIT_CONFIG, f"bad configuration: {e}") from None

    out_dir = getattr(args, "out_dir", None) or os.environ.get("OPNAS_OUT_DIR") \
        or "opnas-out"
    resolved = {
        "search": asdict(search_config),
        "model": model_config.to_json_dict(),
        "corpus": {
            "size": int(corpus_raw.get("size", DEFAULT_CORPUS_SIZE)),
            "seed": int(corpus_raw.get("seed", search_config.seed)),
            "heldout_fraction": float(corpus_raw.get("heldout_fraction", 0.125)),
        },
        "trainer": {
            "steps": int(trainer_raw.get("steps", DEFAULT_TRAIN_STEPS)),
            "lr": optim.lr,
            "warmup": optim.warmup,
            "batch_size": optim.batch_size,
        },
        "metrics": {
            "seeds": int(metrics_raw.get("seeds", DEFAULT_METRIC_SEEDS)),
        },
        "out_dir": str(out_dir),
    }
    return resolved


def _out_dir(resolved: dict) -> Path:
    out = Path(resolved["out_dir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_resolved(resolved: dict, out: Path) -> None:
    (out / "config.json").write_text(json.dumps(resolved, indent=2) + "\n")


def _search_config(resolved: dict) -> SearchConfig:
    return SearchConfig(**resolved["search"])


def _model_config(resolved: dict) -> ModelConfig:
    return ModelConfig.from_json_dict(resolved["model"])


def _corpus(resolved: dict):
    model_config = _model_config(resolved)
    c = resolved["corpus"]
    return synth_corpus(seed=c["seed"], size=c["size"], vocab=model_config.vocab,
                        seq_len=model_config.seq_len,
                        heldout_fraction=c["heldout_fraction"])


def _optim(resolved: dict) -> OptimConfig:
    t = resolved["trainer"]
    return OptimConfig(lr=t["lr"], warmup=t["warmup"], batch_size=t["batch_size"])


def _load_spec(path: str):
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise CliError(EXIT_SPEC, f"cannot read spec: {e}") from None
    try:
        spec = deserialize(text)
    except SpecParseError as e:
        raise CliError(EXIT_SPEC, f"{path}: {e}") from None
    for i, layer in enumerate(spec.layers):
        if layer.kind != "attention":
            continue
        ok, reason = validate(layer.dag)
        if not ok:
            raise CliError(EXIT_SPEC, f"{path}: layer {i}: {reason}")
    return spec


# ---------------------------------------------------------------------------
# commands


def cmd_search(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    _write_resolved(resolved, out)
    search_config = _search_config(resolved)
    model_config = _model_config(resolved)
    corpus = _corpus(resolved)
    optim = _optim(resolved)
    steps = resolved["trainer"]["steps"]

    if args.biws:
        biws_path = Path(args.biws)
        if biws_path.exists():
            try:
                supernet = Supernet.load(biws_path)
            except (OSError, ValueError, KeyError) as e:
                raise CliError(EXIT_CHECKPOINT, f"bad supernet checkpoint: {e}") from None
            if supernet.config != model_config:
                raise CliError(EXIT_CHECKPOINT,
                               "supernet checkpoint config differs from run config")
        else:
            supernet = init_supernet(model_config, search_config.seed)
            supernet.save(biws_path)
        evaluator = BiwsEvaluator(supernet, corpus, steps=steps, optim=optim,
                                  seed=search_config.seed, save_path=biws_path)
    else:
        evaluator = MlmEvaluator(model_config, corpus, steps=steps, optim=optim,
                                 seed=search_config.seed)

    algo = {"op": search, "ea": vanilla_ea, "rs": random_search}[args.baseline]
    try:
        records = algo(search_config, evaluator, out_dir=out, resume=args.resume,
                       clock=lambda: 0.0)
    except CheckpointError as e:
        raise CliError(EXIT_CHECKPOINT, str(e)) from None
    except EvaluationFailed as e:
        raise CliError(EXIT_DATA, str(e)) from None
    if not records:
        raise CliError(EXIT_DATA, "search produced no evaluations")
    best = max(records, key=lambda r: (r.score, -r.id))
    (out / "best.json").write_text(serialize(best.spec))
    print(f"evaluations: {len(records)}")
    print(f"best score: {best.score:.4f} (candidate {best.id})")
    print(f"history: {out / 'history.jsonl'}")
    print(f"best spec: {out / 'best.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    resolved = _resolve(args)
    spec = _load_spec(args.spec)
    # the spec file determines depth; width settings come from the config
    model_config = dataclasses.replace(_model_config(resolved),
                                       num_layers=len(spec.layers))
    result: dict = {
        "valid": True,
        "params": count_params(spec, model_config),
    }
    warnings = backbone_warnings(spec)
    if warnings:
        result["warnings"] = warnings
    if not args.dry_run:
        out = _out_dir(resolved)
        _write_resolved(resolved, out)
        corpus = _corpus(resolved)
        optim = _optim(resolved)
        steps = resolved["trainer"]["steps"]
        seed = resolved["search"]["seed"]
        if args.biws:
            try:
                supernet = Supernet.load(args.biws)
            except (OSError, ValueError, KeyError) as e:
                raise CliError(EXIT_CHECKPOINT, f"bad supernet checkpoint: {e}") from None
            try:
                params = init_candidate(supernet, spec)
            except ValueError as e:
                raise CliError(EXIT_CONFIG, str(e)) from None
            model = build_model(spec, supernet.config, params=params)
        else:
            model = build_model(spec, model_config, rng=np.random.default_rng(seed))
        try:
            mlm_pretrain(model, corpus, steps, optim, np.random.default_rng(seed))
            result["score"] = proxy_evaluate(model, corpus.heldout).value
        except (TrainingDiverged, NonFiniteError) as e:
            raise CliError(EXIT_DATA, f"evaluation failed: {e}") from None
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_export_arch(args) -> int:
    resolved = _resolve(args)
    if args.name not in ARCH_NAMES:
        raise CliError(EXIT_CONFIG,
                       f"unknown architecture {args.name!r}; choose from "
                       f"{', '.join(ARCH_NAMES)}")
    num_layers = _model_config(resolved).num_layers
    if args.name == "autobert-zero":
        spec = autobert_zero_backbone(num_layers)
    else:
        spec = standard_backbone(num_layers)
    out = _out_dir(resolved)
    path = out / f"{args.name}.json"
    path.write_text(serialize(spec))
    print(path)
    return EXIT_OK


def cmd_metrics(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    _write_resolved(resolved, out)
    model_config = _model_config(resolved)
    corpus = _corpus(resolved)
    optim = _optim(resolved)
    steps = resolved["trainer"]["steps"]
    seeds = resolved["metrics"]["seeds"]
    base_seed = resolved["search"]["seed"]

    rows = []
    for path in args.specs:
        spec = _load_spec(path)
        spec_config = dataclasses.replace(model_config, num_layers=len(spec.layers))
        tag = Path(path).stem
        for s in range(seeds):
            rng = np.random.default_rng([base_seed, s])
            model = build_model(spec, spec_config, rng=rng)
            try:
                mlm_pretrain(model, corpus, steps, optim, rng)
                report = uniformity_report([(tag, model)], corpus.heldout)[0]
            except (TrainingDiverged, NonFiniteError) as e:
                raise CliError(EXIT_DATA, f"{tag} seed {s}: {e}") from None
            rows.append((tag, report["cosine"], report["residual"], s))

    csv_path = out / "uniformity.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "cosine", "residual", "seed"])
        writer.writerows(rows)
    print(csv_path.read_text(), end="")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    path = Path(args.history)
    try:
        records = read_history(path)
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as e:
        raise CliError(EXIT_DATA, f"cannot read history {path}: {e}") from None
    tag = path.resolve().parent.name
    lines = ["algorithm,evaluation,score,best_score"]
    best = float("-inf")
    for i, rec in enumerate(records, start=1):
        best = max(best, rec.score)
        lines.append(f"{tag},{i},{rec.score},{best}")
    text = "\n".join(lines) + "\n"
    (out / "plot.csv").write_text(text)
    print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opnas",
        description="Evolutionary search over primitive-op attention backbones.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--seed", type=int, help="search / training seed")
        p.add_argument("--out-dir", dest="out_dir",
                       help="run directory (env OPNAS_OUT_DIR, default ./opnas-out)")

    p = sub.add_parser("search", help="run architecture search")
    add_common(p)
    p.add_argument("--iterations", type=int, help="mutation iterations")
    p.add_argument("--population", type=int, help="population size")
    p.add_argument("--k", type=int, help="parents kept per iteration")
    p.add_argument("--alpha", type=float, help="exploration weight")
    p.add_argument("--baseline", choices=("op", "ea", "rs"), default="op",
                   help="op = priority-guided (default), ea = uniform mutation, "
                        "rs = random sampling")
    p.add_argument("--resume", action="store_true",
                   help="continue from the checkpoint in the run directory")
    p.add_argument("--jobs", type=int, help="parallel evaluation workers")
    p.add_argument("--biws", metavar="CHECKPOINT",
                   help="evaluate with supernet weight sharing; path is loaded "
                        "if present, else initialized and saved there")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="validate and score one spec file")
    add_common(p)
    p.add_argument("spec", help="architecture file")
    p.add_argument("--dry-run", action="store_true",
                   help="validate and count parameters only")
    p.add_argument("--biws", metavar="CHECKPOINT",
                   help="initialize from a supernet checkpoint")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("export-arch", help="write a canonical architecture file")
    add_common(p)
    p.add_argument("name", help=f"one of: {', '.join(ARCH_NAMES)}")
    p.set_defaults(func=cmd_export_arch)

    p = sub.add_parser("metrics", help="token-uniformity report for spec files")
    add_common(p)
    p.add_argument("specs", nargs="+", help="architecture files")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("plot-data", help="best-score-so-far table from a history")
    add_common(p)
    p.add_argument("history", help="history.jsonl path")
    p.set_defaults(func=cmd_plot_data)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as e:
        print(f"error: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
