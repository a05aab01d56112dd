"""Command-line surface: search, eval, export-arch, metrics, plot-data.

Configuration comes from an optional JSON config file with sections
{search, model, corpus, trainer, metrics}, overridden by flags (flags
win); an unknown section or key is a config error. The fully resolved
config is written into the run directory as config.json, which a search
refused with exit 3 leaves as it was. Outputs go to --out-dir (env
OPNAS_OUT_DIR, default ./opnas-out); input files are never modified.

Exit codes: 0 ok, 2 config error, 3 checkpoint error, 4 spec error,
5 data error (also a search whose three batches in a row scored nothing,
and an eval or metrics run whose model diverges or turns non-finite).

Every command that trains goes through one evaluator,
``opnas.supernet.BiwsEvaluator``, seeded by (seed, candidate id): ``search``
scores candidate i, ``eval`` scores its spec as a search with that seed
scores candidate 0, and ``metrics`` trains seed s as candidate s. With
``--biws`` the weights start from a supernet checkpoint, whose config must
equal the run config (exit 3 otherwise); ``eval`` never writes it back.

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
import zipfile
from dataclasses import asdict
from pathlib import Path

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
from opnas.model import ModelConfig, OptimConfig, TrainingDiverged, synth_corpus
from opnas.search_space import (
    SpecParseError,
    autobert_zero_backbone,
    count_params,
    deserialize,
    serialize,
    standard_backbone,
)
from opnas.supernet import BiwsEvaluator, Supernet, init_supernet
from opnas.tensor import NonFiniteError

__all__ = ["main"]

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CHECKPOINT = 3
EXIT_SPEC = 4
EXIT_DATA = 5

ARCH_NAMES = ("autobert-zero", "standard-attention")

DEFAULT_CORPUS_SIZE = 512
DEFAULT_TRAIN_STEPS = 100
DEFAULT_METRIC_SEEDS = 1

# the keys of the sections read field by field; SearchConfig and
# ModelConfig refuse unknown search and model keys themselves
SECTION_KEYS = {
    "corpus": ("size", "seed", "heldout_fraction"),
    "trainer": ("steps", "lr", "warmup", "batch_size"),
    "metrics": ("seeds",),
}


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
    for section, keys in raw.items():
        if section not in ("search", "model", *SECTION_KEYS):
            raise CliError(EXIT_CONFIG, f"unknown config section {section!r}")
        if not isinstance(keys, dict):
            raise CliError(EXIT_CONFIG, f"config section {section!r} must be an object")
        for key in keys:
            if section in SECTION_KEYS and key not in SECTION_KEYS[section]:
                raise CliError(EXIT_CONFIG,
                               f"unknown key {key!r} in config section {section!r}")
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
        return deserialize(text)
    except SpecParseError as e:
        raise CliError(EXIT_SPEC, f"{path}: {e}") from None


def _load_supernet(path, model_config: ModelConfig) -> Supernet:
    try:
        supernet = Supernet.load(path)
    # a cut-short file is no zip (BadZipFile), an empty one no npy (EOFError)
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile) as e:
        raise CliError(EXIT_CHECKPOINT, f"bad supernet checkpoint: {e}") from None
    if supernet.config != model_config:
        raise CliError(EXIT_CHECKPOINT,
                       "supernet checkpoint config differs from run config")
    return supernet


# ---------------------------------------------------------------------------
# commands


def cmd_search(args) -> int:
    resolved = _resolve(args)
    out = _out_dir(resolved)
    config_path = out / "config.json"
    previous = config_path.read_bytes() if config_path.exists() else None
    _write_resolved(resolved, out)
    try:
        return _search(args, resolved, out)
    except CliError as e:
        if e.code == EXIT_CHECKPOINT:  # a refused run leaves config.json as it was
            if previous is None:
                config_path.unlink()
            else:
                config_path.write_bytes(previous)
        raise


def _search(args, resolved: dict, out: Path) -> int:
    search_config = _search_config(resolved)
    model_config = _model_config(resolved)
    corpus = _corpus(resolved)
    optim = _optim(resolved)
    steps = resolved["trainer"]["steps"]

    source, biws_path = model_config, None
    if args.biws:
        biws_path = Path(args.biws)
        if biws_path.exists():
            source = _load_supernet(biws_path, model_config)
        elif args.resume:
            # fresh weights would make the resumed history differ from an
            # uninterrupted run's
            raise CliError(EXIT_CHECKPOINT, f"cannot resume: no supernet checkpoint "
                                            f"at {biws_path}")
        else:
            source = init_supernet(model_config, search_config.seed)
            source.save(biws_path)
    evaluator = BiwsEvaluator(source, corpus, steps=steps, optim=optim,
                              seed=search_config.seed, save_path=biws_path)

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
    if not spec.attention_indices:
        result["warnings"] = ["backbone has no attention layers"]
    # a dry run checks the checkpoint too
    source = _load_supernet(args.biws, model_config) if args.biws else model_config
    if not args.dry_run:
        out = _out_dir(resolved)
        _write_resolved(resolved, out)
        # scored exactly as a search with this seed scores candidate 0
        evaluator = BiwsEvaluator(source, _corpus(resolved),
                                  steps=resolved["trainer"]["steps"],
                                  optim=_optim(resolved), seed=resolved["search"]["seed"])
        try:
            result["score"] = evaluator(spec, 0).score
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

    rows = []
    for path in args.specs:
        spec = _load_spec(path)
        spec_config = dataclasses.replace(model_config, num_layers=len(spec.layers))
        evaluator = BiwsEvaluator(spec_config, corpus, steps=steps, optim=optim,
                                  seed=resolved["search"]["seed"])
        tag = Path(path).stem
        for s in range(resolved["metrics"]["seeds"]):
            try:
                model = evaluator.train(spec, s)
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
                        "if present, else initialized and saved there (a "
                        "--resume needs it present)")
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
