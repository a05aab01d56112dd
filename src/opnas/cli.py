"""Command-line surface: search, eval, export-arch, metrics, plot-data.

Configuration comes from an optional JSON config file with sections
{search, model, corpus, trainer, metrics}, overridden by flags (flags
win). One step, ``_resolve``, merges them with the defaults, casts and
checks every value, and hands each command typed configs. An unknown
section or key, a value of the wrong type or out of range, and a
``search.num_layers`` other than ``model.num_layers`` are config errors,
refused before any file is written. The resolved config is written into
the run directory as config.json, which is itself a valid ``--config``
and which a search refused with exit 3 leaves as it was. Outputs go to
--out-dir (env OPNAS_OUT_DIR, default ./opnas-out); input files are never
modified.

Exit codes: 0 ok, 2 config error, 3 checkpoint error (``plot-data``'s too),
4 spec error, 5 data error (also a search whose three batches in a row scored
nothing, and an eval or metrics run whose model diverges or turns non-finite).

Every command that trains goes through one evaluator,
``opnas.supernet.BiwsEvaluator``, seeded by (seed, candidate id): ``search``
scores candidate i, ``eval`` scores its spec as a search with that seed
scores candidate 0, and ``metrics`` trains seed s as candidate s. With
``--biws`` the weights start from a supernet checkpoint, whose config must
equal the run config (exit 3 otherwise); ``eval`` never writes it back.
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
from dataclasses import asdict, dataclass
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
from opnas.model import (Corpus, ModelConfig, OptimConfig, TrainingDiverged,
                         check_corpus_split, check_number, synth_corpus)
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

# the bundled backbones by name, each built at the model's depth
ARCHS = {"autobert-zero": autobert_zero_backbone, "standard-attention": standard_backbone}

# each key-by-key section's keys in config.json order, with the CLI's defaults
# (the trainer's apart from OptimConfig's; corpus.seed defaults to the search
# seed); a given value must be a number of its default's type
SECTION_DEFAULTS = {
    "corpus": {"size": 512, "seed": 0, "heldout_fraction": 0.125},
    "trainer": {"steps": 100, "lr": 1e-3, "warmup": 60, "batch_size": 8},
    "metrics": {"seeds": 1},
}

# flag -> the search field it overrides
SEARCH_FLAGS = {"seed": "seed", "iterations": "max_iterations",
                "population": "population_size", "k": "k", "alpha": "alpha",
                "jobs": "jobs"}


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


@dataclass(frozen=True)
class RunConfig:
    """A resolved run: typed configs, the key-by-key sections, the run directory."""

    search: SearchConfig
    model: ModelConfig
    optim: OptimConfig
    corpus: dict
    trainer: dict
    metrics: dict
    out: Path

    def write(self) -> None:
        """Create the run directory and write config.json, itself a valid --config."""
        self.out.mkdir(parents=True, exist_ok=True)
        # optim repeats the trainer section, and out is where the file sits
        resolved = {k: v for k, v in asdict(self).items() if k not in ("optim", "out")}
        (self.out / "config.json").write_text(json.dumps(resolved, indent=2) + "\n")

    def build_corpus(self) -> Corpus:
        return synth_corpus(vocab=self.model.vocab, seq_len=self.model.seq_len,
                            **self.corpus)


def _run_dir(args) -> Path:
    return Path(getattr(args, "out_dir", None) or os.environ.get("OPNAS_OUT_DIR")
                or "opnas-out")


def _cast(value, default, where: str):
    check_number(value, type(default).__name__, where)
    return type(default)(value)


def _resolve(args) -> RunConfig:
    """Merge config file, flags and defaults into typed, checked configs."""
    raw = _load_config_file(getattr(args, "config", None))
    for section, keys in raw.items():
        if section not in ("search", "model", *SECTION_DEFAULTS):
            raise CliError(EXIT_CONFIG, f"unknown config section {section!r}")
        if not isinstance(keys, dict):
            raise CliError(EXIT_CONFIG, f"config section {section!r} must be an object")
        for key in keys:
            if section in SECTION_DEFAULTS and key not in SECTION_DEFAULTS[section]:
                raise CliError(EXIT_CONFIG,
                               f"unknown key {key!r} in config section {section!r}")
    search_raw = {**raw.get("search", {}),
                  **{field: getattr(args, flag) for flag, field in SEARCH_FLAGS.items()
                     if getattr(args, flag, None) is not None}}

    try:
        model = ModelConfig(**raw.get("model", {}))
        # the backbone length has one source of truth: the model section
        num_layers = search_raw.setdefault("num_layers", model.num_layers)
        if num_layers != model.num_layers:
            raise ValueError(f"search.num_layers {num_layers!r} differs from "
                             f"model.num_layers {model.num_layers}")
        population = search_raw.get("population_size", SearchConfig.population_size)
        check_number(population, "int", "search.population_size")  # before min() reads it
        search_raw.setdefault("k", min(SearchConfig.k, population))
        search = SearchConfig(**search_raw)
        if search.seed < 0:  # seeds numpy generators, which take none below 0
            raise ValueError(f"search.seed must be >= 0, got {search.seed}")
        given = {**raw, "corpus": {"seed": search.seed, **raw.get("corpus", {})}}
        sections = {name: {key: _cast(given.get(name, {}).get(key, default), default,
                                      f"{name}.{key}")
                           for key, default in table.items()}
                    for name, table in SECTION_DEFAULTS.items()}
        optim = OptimConfig(**{key: value for key, value in sections["trainer"].items()
                               if key != "steps"})
        check_corpus_split(sections["corpus"]["size"],
                           sections["corpus"]["heldout_fraction"])
        for name, key, low in (("trainer", "steps", 1), ("metrics", "seeds", 1),
                               ("corpus", "seed", 0)):
            if sections[name][key] < low:
                raise ValueError(f"{name}.{key} must be >= {low}, "
                                 f"got {sections[name][key]}")
    except (TypeError, ValueError) as e:
        raise CliError(EXIT_CONFIG, f"bad configuration: {e}") from None
    return RunConfig(search, model, optim, **sections, out=_run_dir(args))


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
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as e:
        raise CliError(EXIT_CHECKPOINT, f"bad supernet checkpoint: {e}") from None
    if supernet.config != model_config:
        raise CliError(EXIT_CHECKPOINT,
                       "supernet checkpoint config differs from run config")
    return supernet


# ---------------------------------------------------------------------------
# commands


def cmd_search(args) -> int:
    cfg = _resolve(args)
    config_path = cfg.out / "config.json"
    previous = config_path.read_bytes() if config_path.exists() else None
    cfg.write()
    try:
        return _search(args, cfg)
    except CliError as e:
        if e.code == EXIT_CHECKPOINT:  # a refused run leaves config.json as it was
            if previous is None:
                config_path.unlink()
            else:
                config_path.write_bytes(previous)
        raise


def _search(args, cfg: RunConfig) -> int:
    source, biws_path = cfg.model, None
    if args.biws:
        biws_path = Path(args.biws)
        if biws_path.exists():
            source = _load_supernet(biws_path, cfg.model)
        elif args.resume:
            # fresh weights would make the resumed history differ from an
            # uninterrupted run's
            raise CliError(EXIT_CHECKPOINT, f"cannot resume: no supernet checkpoint "
                                            f"at {biws_path}")
        else:
            source = init_supernet(cfg.model, cfg.search.seed)
            source.save(biws_path)
    evaluator = BiwsEvaluator(source, cfg.build_corpus(), steps=cfg.trainer["steps"],
                              optim=cfg.optim, seed=cfg.search.seed, save_path=biws_path)

    algo = {"op": search, "ea": vanilla_ea, "rs": random_search}[args.baseline]
    try:
        records = algo(cfg.search, evaluator, out_dir=cfg.out, resume=args.resume)
    except CheckpointError as e:
        raise CliError(EXIT_CHECKPOINT, str(e)) from None
    except EvaluationFailed as e:
        raise CliError(EXIT_DATA, str(e)) from None
    if not records:
        raise CliError(EXIT_DATA, "search produced no evaluations")
    best = max(records, key=lambda r: (r.score, -r.id))
    (cfg.out / "best.json").write_text(serialize(best.spec))
    print(f"evaluations: {len(records)}")
    print(f"best score: {best.score:.4f} (candidate {best.id})")
    print(f"history: {cfg.out / 'history.jsonl'}")
    print(f"best spec: {cfg.out / 'best.json'}")
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = _resolve(args)
    spec = _load_spec(args.spec)
    # the spec file determines depth; width settings come from the config
    model_config = dataclasses.replace(cfg.model, num_layers=len(spec.layers))
    result: dict = {
        "valid": True,
        "params": count_params(spec, model_config),
    }
    if not spec.attention_indices:
        result["warnings"] = ["backbone has no attention layers"]
    # a dry run checks the checkpoint too
    source = _load_supernet(args.biws, model_config) if args.biws else model_config
    if not args.dry_run:
        cfg.write()
        # scored exactly as a search with this seed scores candidate 0
        evaluator = BiwsEvaluator(source, cfg.build_corpus(), steps=cfg.trainer["steps"],
                                  optim=cfg.optim, seed=cfg.search.seed)
        try:
            result["score"] = evaluator(spec, 0).score
        except (TrainingDiverged, NonFiniteError) as e:
            raise CliError(EXIT_DATA, f"evaluation failed: {e}") from None
    print(json.dumps(result, indent=2))
    return EXIT_OK


def cmd_export_arch(args) -> int:
    cfg = _resolve(args)
    if args.name not in ARCHS:
        raise CliError(EXIT_CONFIG, f"unknown architecture {args.name!r}; choose from "
                                    f"{', '.join(ARCHS)}")
    try:
        spec = ARCHS[args.name](cfg.model.num_layers)
    except ValueError as e:  # autobert-zero pairs its layers
        raise CliError(EXIT_CONFIG, f"bad configuration: {e}") from None
    cfg.out.mkdir(parents=True, exist_ok=True)
    path = cfg.out / f"{args.name}.json"
    path.write_text(serialize(spec))
    print(path)
    return EXIT_OK


def cmd_metrics(args) -> int:
    cfg = _resolve(args)
    # every spec parses before anything is written or trained
    specs = [(Path(path).stem, _load_spec(path)) for path in args.specs]
    cfg.write()
    corpus = cfg.build_corpus()
    rows = []
    for tag, spec in specs:
        spec_config = dataclasses.replace(cfg.model, num_layers=len(spec.layers))
        evaluator = BiwsEvaluator(spec_config, corpus, steps=cfg.trainer["steps"],
                                  optim=cfg.optim, seed=cfg.search.seed)
        for s in range(cfg.metrics["seeds"]):
            try:
                model = evaluator.train(spec, s)
                report = uniformity_report([(tag, model)], corpus.heldout)[0]
            except (TrainingDiverged, NonFiniteError) as e:
                raise CliError(EXIT_DATA, f"{tag} seed {s}: {e}") from None
            rows.append((tag, report["cosine"], report["residual"], s))

    csv_path = cfg.out / "uniformity.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "cosine", "residual", "seed"])
        writer.writerows(rows)
    print(csv_path.read_text(), end="")
    return EXIT_OK


def cmd_plot_data(args) -> int:
    out = _run_dir(args)
    out.mkdir(parents=True, exist_ok=True)
    path = Path(args.history)
    try:
        records = read_history(path)
    except CheckpointError as e:
        raise CliError(EXIT_CHECKPOINT, f"cannot read checkpoint beside {path}: {e}") from None
    except ValueError as e:  # its text starts with the path
        raise CliError(EXIT_DATA, f"cannot read history {e}") from None
    except OSError as e:
        raise CliError(EXIT_DATA, f"cannot read history {path}: {e.strerror}") from None
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

    def add_common(p, config=True, seed=True):
        if config:
            p.add_argument("--config", help="JSON config file")
        if seed:
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
    add_common(p, seed=False)
    p.add_argument("name", help=f"one of: {', '.join(ARCHS)}")
    p.set_defaults(func=cmd_export_arch)

    p = sub.add_parser("metrics", help="token-uniformity report for spec files")
    add_common(p)
    p.add_argument("specs", nargs="+", help="architecture files")
    p.set_defaults(func=cmd_metrics)

    p = sub.add_parser("plot-data", help="best-score-so-far table from a history")
    add_common(p, config=False, seed=False)
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
