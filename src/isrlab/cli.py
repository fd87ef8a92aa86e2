"""Command-line surface: corpus generation, training, evaluation, baselines.

Subcommands: gen-corpus, train-guesser, train-enquirer, eval,
baseline-heuristic.  Flag precedence is explicit flags, then --config file
entries (``key = value`` lines), then built-in defaults; the defaults for
the training hyperparameters are the published reference settings, and
--reference-defaults pins them against config-file overrides.  All outputs
are CSV/JSON/JSONL; identical flags plus --threads 1 reproduce outputs
byte for byte (training summaries differ only in their wall_time_s field).

Heavy imports happen inside the command handlers so --threads can cap the
BLAS pool before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_GEN_DEFAULTS = {
    "dim": 32, "vocab_size": 20, "train_speakers": 200, "test_speakers": 60,
    "enrollments": 8, "sharpness": 3.0, "utterance_noise": 0.6,
    "enrollment_noise": 0.2, "seed": 0,
}

_SPLIT_DEFAULTS = {"train_fraction": 0.8, "split_seed": 0}

_TRAIN_GUESSER_DEFAULTS = {
    **_SPLIT_DEFAULTS,
    "games": 45_000, "batch_size": 1024, "lr": 3e-4, "guests": 5, "words": 3,
    "dropout": 0.5, "eval_games": 10_000, "eval_every": 10, "seed": 0,
}
_TRAIN_GUESSER_REFERENCE = ("games", "batch_size", "lr", "guests", "words", "dropout")

_TRAIN_ENQUIRER_DEFAULTS = {
    **_SPLIT_DEFAULTS,
    "episodes": 80_000, "lr": 5e-3, "clip": 0.2, "gamma": 0.9, "gae_lambda": 0.95,
    "entropy_coef": 0.01, "value_coef": 0.5, "grad_clip": 1.0, "horizon": 1024,
    "update_batches": 4, "update_batch_size": 512, "guests": 5, "words": 3,
    "eval_games": 2000, "seed": 0,
}
_TRAIN_ENQUIRER_REFERENCE = (
    "episodes", "lr", "clip", "gamma", "gae_lambda", "entropy_coef", "grad_clip",
    "horizon", "update_batches", "update_batch_size", "guests", "words")

_EVAL_DEFAULTS = {
    **_SPLIT_DEFAULTS,
    "games": 10_000, "guests": 5, "words": 3, "seeds": "0",
    "eta": 20_000, "curated_size": 6, "diversity_games": 142,
    "grid": "", "split": "test",
}

_HEURISTIC_DEFAULTS = {
    **_SPLIT_DEFAULTS,
    "eta": 20_000, "curated_size": 6, "guests": 5, "words": 3,
    "eval_games": 10_000, "seed": 0, "split": "test",
}
_HEURISTIC_REFERENCE = ("eta",)


def _read_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    for line_no, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{line_no}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(ns: argparse.Namespace, defaults: dict, reference_keys=()) -> dict:
    """Apply the flags > config file > defaults precedence."""
    config_values: dict[str, str] = {}
    if getattr(ns, "config", None):
        config_values = _read_config_file(ns.config)
    pin = bool(getattr(ns, "reference_defaults", False))
    out = {}
    for key, default in defaults.items():
        flag = getattr(ns, key, None)
        if flag is not None:
            out[key] = flag
        elif key in config_values and not (pin and key in reference_keys):
            try:
                out[key] = type(default)(config_values[key])
            except ValueError:
                raise ValueError(f"{ns.config}: {key} = {config_values[key]!r} is not "
                                 f"a valid {type(default).__name__}") from None
        else:
            out[key] = default
    return out


def _out_dir(ns: argparse.Namespace) -> Path:
    base = ns.out_dir or os.environ.get("ISRLAB_OUT", ".")
    path = Path(base)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _emit(path: Path) -> None:
    print(path)


def _load_split(corpus_path: str, cfg: dict, which: str = "train"):
    from .corpus import load_corpus, split_speakers
    if which not in ("train", "test", "full"):
        raise ValueError(f"unknown split {which!r}: expected train, test or full")
    full = load_corpus(corpus_path)
    if which == "full":
        return full
    train, test = split_speakers(full, cfg["train_fraction"], cfg["split_seed"])
    return {"train": train, "test": test}[which]


def _write_curve_csv(path: Path, rows: list[dict], fields: list[str]) -> None:
    import csv
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)


def cmd_gen_corpus(ns: argparse.Namespace) -> int:
    from .corpus import SynthConfig, generate_synthetic, save_corpus
    cfg = _resolve(ns, _GEN_DEFAULTS)
    out = Path(ns.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    config = SynthConfig(
        dimension=cfg["dim"], vocab_size=cfg["vocab_size"],
        train_speakers=cfg["train_speakers"], test_speakers=cfg["test_speakers"],
        enrollments=cfg["enrollments"], sharpness=cfg["sharpness"],
        utterance_noise=cfg["utterance_noise"],
        enrollment_noise=cfg["enrollment_noise"], seed=cfg["seed"])
    corpus = generate_synthetic(config)
    save_corpus(corpus, out)
    _emit(out)
    sidecar = out.with_name(out.name + ".config.json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump({"synth_config": cfg, "speakers": corpus.n_speakers,
                   "dimension": corpus.dimension, "vocab": list(corpus.vocab)},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    _emit(sidecar)
    return 0


def cmd_train_guesser(ns: argparse.Namespace) -> int:
    from .corpus import corpus_fingerprint
    from .evaluation import write_summary_json
    from .guesser import GuesserTrainConfig, train_guesser
    cfg = _resolve(ns, _TRAIN_GUESSER_DEFAULTS, _TRAIN_GUESSER_REFERENCE)
    train = _load_split(ns.corpus, cfg, "train")
    valid = _load_split(ns.corpus, cfg, "test")
    config = GuesserTrainConfig(
        n_guests=cfg["guests"], word_budget=cfg["words"],
        batch_size=cfg["batch_size"], lr=cfg["lr"], n_games=cfg["games"],
        dropout=cfg["dropout"], valid_games=cfg["eval_games"],
        eval_every=cfg["eval_every"], seed=cfg["seed"])
    started = time.perf_counter()
    model, curve = train_guesser(train, valid, config)
    wall = time.perf_counter() - started

    out = _out_dir(ns)
    ckpt = out / "guesser.json"
    model.save(ckpt)
    _emit(ckpt)
    curve_path = out / "guesser_curve.csv"
    _write_curve_csv(curve_path, curve,
                     ["epoch", "games_seen", "train_loss", "valid_accuracy"])
    _emit(curve_path)
    summary = out / "guesser_summary.json"
    write_summary_json(summary, {
        "command": "train-guesser", "config": cfg, "seed": cfg["seed"],
        "final_valid_accuracy": curve[-1]["valid_accuracy"],
        "games_seen": curve[-1]["games_seen"], "wall_time_s": wall,
        "train_fingerprint": corpus_fingerprint(train),
        "valid_fingerprint": corpus_fingerprint(valid)})
    _emit(summary)
    return 0


def cmd_train_enquirer(ns: argparse.Namespace) -> int:
    from .corpus import corpus_fingerprint
    from .enquirer import PpoConfig, evaluate_enquirer, train_enquirer
    from .evaluation import write_summary_json
    from .guesser import GuesserModel
    cfg = _resolve(ns, _TRAIN_ENQUIRER_DEFAULTS, _TRAIN_ENQUIRER_REFERENCE)
    train = _load_split(ns.corpus, cfg, "train")
    test = _load_split(ns.corpus, cfg, "test")
    guesser = GuesserModel.load(ns.guesser)
    if guesser.config.dim != train.dimension:
        raise ValueError(
            f"guesser checkpoint dimension {guesser.config.dim} does not match "
            f"corpus dimension {train.dimension}")
    config = PpoConfig(
        gamma=cfg["gamma"], gae_lambda=cfg["gae_lambda"], clip=cfg["clip"],
        entropy_coef=cfg["entropy_coef"], value_coef=cfg["value_coef"],
        lr=cfg["lr"], grad_clip=cfg["grad_clip"], episodes=cfg["episodes"],
        horizon=cfg["horizon"], update_batches=cfg["update_batches"],
        update_batch_size=cfg["update_batch_size"], word_budget=cfg["words"],
        n_guests=cfg["guests"], seed=cfg["seed"])
    started = time.perf_counter()
    model, curve = train_enquirer(guesser, train, config)
    wall = time.perf_counter() - started
    heldout = evaluate_enquirer(model, guesser, test, cfg["guests"], cfg["words"],
                                cfg["eval_games"], seed=cfg["seed"] + 1)

    out = _out_dir(ns)
    ckpt = out / "enquirer.json"
    model.save(ckpt)
    _emit(ckpt)
    curve_path = out / "enquirer_curve.csv"
    _write_curve_csv(curve_path, curve,
                     ["episode", "moving_avg_reward", "entropy", "value_loss",
                      "policy_loss"])
    _emit(curve_path)
    summary = out / "enquirer_summary.json"
    write_summary_json(summary, {
        "command": "train-enquirer", "config": cfg, "seed": cfg["seed"],
        "first_moving_avg_reward": curve[0]["moving_avg_reward"],
        "final_moving_avg_reward": curve[-1]["moving_avg_reward"],
        "heldout_greedy_success": heldout.success_rate,
        "heldout_greedy_stderr": heldout.stderr,
        "episodes": curve[-1]["episode"], "wall_time_s": wall,
        "train_fingerprint": corpus_fingerprint(train),
        "test_fingerprint": corpus_fingerprint(test)})
    _emit(summary)
    return 0


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip() != ""]


def cmd_eval(ns: argparse.Namespace) -> int:
    from .enquirer import EnquirerModel, evaluate_enquirer
    from .evaluation import (HeuristicConfig, aggregate_rows, diversity_index,
                             heuristic_baseline, word_sweep, guest_sweep,
                             write_rows_csv, write_summary_json)
    from .guesser import (GuesserModel, evaluate_guesser, sample_word_subsets)
    import numpy as np

    cfg = _resolve(ns, _EVAL_DEFAULTS)
    corpus = _load_split(ns.corpus, cfg, cfg["split"])
    guesser = GuesserModel.load(ns.guesser)
    if guesser.config.dim != corpus.dimension:
        raise ValueError(
            f"guesser checkpoint dimension {guesser.config.dim} does not match "
            f"corpus dimension {corpus.dimension}")
    enquirer = EnquirerModel.load(ns.enquirer) if ns.enquirer else None
    seeds = _parse_int_list(cfg["seeds"])
    if not seeds:
        raise ValueError("need at least one seed")
    out = _out_dir(ns)
    written = []

    if ns.sweep:
        grid = _parse_int_list(cfg["grid"])
        if not grid:
            raise ValueError("--sweep requires --grid values")
        if ns.sweep == "words":
            heur = (HeuristicConfig(games_per_word=cfg["eta"],
                                    curated_size=cfg["curated_size"])
                    if ns.include_heuristic else None)
            result = word_sweep(guesser, corpus, grid, cfg["guests"], seeds,
                                n_games=cfg["games"], enquirer=enquirer,
                                heuristic=heur)
        else:
            result = guest_sweep(guesser, corpus, grid, cfg["words"], seeds,
                                 n_games=cfg["games"])
        rows = result.rows
        csv_path = out / f"sweep_{ns.sweep}.csv"
        write_rows_csv(csv_path, rows)
        written.append(csv_path)
        summary_path = out / f"sweep_{ns.sweep}_summary.json"
        write_summary_json(summary_path, {
            "command": "eval", "sweep": ns.sweep, "grid": grid, "seeds": seeds,
            "config": cfg, "aggregate": aggregate_rows(rows)}, corpus)
        written.append(summary_path)
    else:
        policy = ns.policy or "random"
        rows = []
        curated = None
        for seed in seeds:
            if policy == "random":
                acc, err = evaluate_guesser(guesser, corpus, cfg["guests"],
                                            cfg["words"], "random", cfg["games"], seed)
            elif policy == "fixed":
                words = _parse_int_list(ns.fixed_words or "")
                if len(words) < cfg["words"]:
                    raise ValueError("--fixed-words needs at least --words entries")
                acc, err = evaluate_guesser(guesser, corpus, cfg["guests"],
                                            cfg["words"], words, cfg["games"], seed)
            elif policy == "heuristic":
                res = heuristic_baseline(
                    guesser, corpus,
                    HeuristicConfig(games_per_word=cfg["eta"],
                                    curated_size=cfg["curated_size"],
                                    n_guests=cfg["guests"], word_budget=cfg["words"],
                                    eval_games=cfg["games"]), seed)
                acc, err = res.accuracy, res.stderr
                if curated is None:     # the diversity tuples draw from the first seed's list
                    curated = res.curated
            elif policy == "enquirer":
                if enquirer is None:
                    raise ValueError("--policy enquirer requires --enquirer")
                res = evaluate_enquirer(enquirer, guesser, corpus, cfg["guests"],
                                        cfg["words"], cfg["games"], seed)
                acc, err = res.success_rate, res.stderr
            else:
                raise ValueError(f"unknown policy {policy!r}")
            rows.append({"variable": "none", "value": cfg["words"], "policy": policy,
                         "seed": seed, "accuracy": acc, "stderr": err})
        csv_path = out / "eval_metrics.csv"
        write_rows_csv(csv_path, rows)
        written.append(csv_path)
        summary_path = out / "eval_summary.json"
        write_summary_json(summary_path, {
            "command": "eval", "policy": policy, "seeds": seeds, "config": cfg,
            "aggregate": aggregate_rows(rows)}, corpus)
        written.append(summary_path)

        if ns.diversity:
            n_tuples = cfg["diversity_games"]
            if policy == "enquirer":
                res = evaluate_enquirer(enquirer, guesser, corpus, cfg["guests"],
                                        cfg["words"], n_tuples, seeds[0])
                tuples = res.word_tuples
            elif policy == "fixed":
                words = _parse_int_list(ns.fixed_words or "")
                if len(words) != cfg["words"]:
                    raise ValueError("--diversity with a fixed policy needs exactly "
                                     "--words entries in --fixed-words")
                tuples = np.tile(np.asarray(words), (n_tuples, 1))
            elif policy == "heuristic":
                tuples = sample_word_subsets(np.random.default_rng(seeds[0]),
                                             n_tuples, np.asarray(curated), cfg["words"])
            else:
                tuples = sample_word_subsets(np.random.default_rng(seeds[0]),
                                             n_tuples,
                                             np.arange(corpus.vocab_size),
                                             cfg["words"])
            report = diversity_index(list(map(tuple, tuples)))
            tuples_path = out / "word_tuples.jsonl"
            with open(tuples_path, "w", encoding="utf-8") as fh:
                for t in report.word_tuples:
                    fh.write(json.dumps({"words": list(t)}) + "\n")
            written.append(tuples_path)
            div_path = out / "diversity.json"
            write_summary_json(div_path, {
                "command": "eval", "policy": policy, "n_games": report.n_games,
                "tuple_size": report.tuple_size, "omega": report.omega}, corpus)
            written.append(div_path)

    for path in written:
        _emit(path)
    return 0


def cmd_baseline_heuristic(ns: argparse.Namespace) -> int:
    from .evaluation import (HeuristicConfig, heuristic_baseline, write_rows_csv,
                             write_summary_json)
    from .guesser import GuesserModel
    cfg = _resolve(ns, _HEURISTIC_DEFAULTS, _HEURISTIC_REFERENCE)
    corpus = _load_split(ns.corpus, cfg, cfg["split"])
    guesser = GuesserModel.load(ns.guesser)
    result = heuristic_baseline(
        guesser, corpus,
        HeuristicConfig(games_per_word=cfg["eta"], curated_size=cfg["curated_size"],
                        n_guests=cfg["guests"], word_budget=cfg["words"],
                        eval_games=cfg["eval_games"]), cfg["seed"])
    out = _out_dir(ns)
    scores_path = out / "heuristic_scores.csv"
    write_rows_csv(scores_path, [
        {"word": w, "label": corpus.vocab[w], "forced_word_accuracy": float(s),
         "curated": int(w in result.curated)}
        for w, s in enumerate(result.word_scores)])
    _emit(scores_path)
    json_path = out / "heuristic.json"
    write_summary_json(json_path, {
        "command": "baseline-heuristic", "config": cfg,
        "curated": list(result.curated),
        "curated_labels": [corpus.vocab[w] for w in result.curated],
        "accuracy": result.accuracy, "stderr": result.stderr}, corpus)
    _emit(json_path)
    return 0


def _add_common(parser: argparse.ArgumentParser, defaults: dict) -> None:
    parser.add_argument("--config", help="key = value file; flags take precedence")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread cap; 1 is the reproducibility mode")
    parser.add_argument("--out-dir", default=None,
                        help="output directory (default: $ISRLAB_OUT or '.')")
    if "train_fraction" in defaults:
        parser.add_argument("--train-fraction", type=float,
                            help=f"speaker share for the train split "
                                 f"(default: {defaults['train_fraction']})")
        parser.add_argument("--split-seed", type=int,
                            help=f"speaker split seed (default: {defaults['split_seed']})")


def _flags(parser, defaults: dict, helps: dict[str, str], reference=()) -> None:
    """Typed --flags from ``helps``; tag the ``reference`` keys and offer pinning them."""
    for name, text in helps.items():
        tag = " [reference setting]" if name in reference else ""
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name,
                            type=type(defaults[name]),
                            help=f"{text} (default: {defaults[name]}){tag}")
    if reference:
        parser.add_argument("--reference-defaults", action="store_true",
                            help="pin reference hyperparameters against --config overrides")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isrlab",
        description="Interactive speaker recognition game: corpora, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    d = _GEN_DEFAULTS
    p = sub.add_parser("gen-corpus", help="write a synthetic corpus JSONL file")
    p.add_argument("--out", required=True, help="corpus output path (.jsonl)")
    _flags(p, d, {"dim": "embedding dimension",
                  "vocab_size": "vocabulary size",
                  "train_speakers": "speakers intended for training",
                  "test_speakers": "held-out speakers",
                  "enrollments": "enrollment vectors per voice print",
                  "sharpness": "word informativeness sharpness",
                  "utterance_noise": "utterance noise scale",
                  "enrollment_noise": "enrollment noise scale",
                  "seed": "generator seed"})
    _add_common(p, d)
    p.set_defaults(handler=cmd_gen_corpus)

    d = _TRAIN_GUESSER_DEFAULTS
    p = sub.add_parser("train-guesser", help="supervised training on random-word games")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    _flags(p, d, {"games": "training games",
                  "batch_size": "games per Adam step",
                  "lr": "learning rate",
                  "guests": "guests per game",
                  "words": "word budget per game",
                  "dropout": "hidden dropout rate",
                  "eval_games": "validation games per curve point",
                  "eval_every": "batches between curve points",
                  "seed": "training seed"}, _TRAIN_GUESSER_REFERENCE)
    _add_common(p, d)
    p.set_defaults(handler=cmd_train_guesser)

    d = _TRAIN_ENQUIRER_DEFAULTS
    p = sub.add_parser("train-enquirer", help="PPO training against a frozen guesser")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--guesser", required=True, help="guesser checkpoint path")
    _flags(p, d, {"episodes": "training episodes",
                  "lr": "learning rate",
                  "clip": "PPO clipping",
                  "gamma": "discount factor",
                  "gae_lambda": "advantage coefficient",
                  "entropy_coef": "entropy bonus coefficient",
                  "value_coef": "value loss coefficient",
                  "grad_clip": "global gradient norm clip",
                  "horizon": "transitions per update round",
                  "update_batches": "minibatches per round",
                  "update_batch_size": "transitions per minibatch",
                  "guests": "guests per game",
                  "words": "word budget per game",
                  "eval_games": "held-out greedy games for the summary",
                  "seed": "training seed"}, _TRAIN_ENQUIRER_REFERENCE)
    _add_common(p, d)
    p.set_defaults(handler=cmd_train_enquirer)

    d = _EVAL_DEFAULTS
    p = sub.add_parser("eval", help="accuracy, sweeps, and diversity metrics")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--guesser", required=True, help="guesser checkpoint path")
    p.add_argument("--enquirer", default=None, help="enquirer checkpoint path")
    p.add_argument("--policy", choices=["random", "fixed", "heuristic", "enquirer"],
                   default=None, help="word policy to evaluate (default: random)")
    p.add_argument("--fixed-words", default=None,
                   help="comma-separated word ids for --policy fixed")
    p.add_argument("--sweep", choices=["words", "guests"], default=None,
                   help="sweep the word budget or the guest count")
    p.add_argument("--include-heuristic", action="store_true",
                   help="add the heuristic policy to a words sweep")
    p.add_argument("--diversity", action="store_true",
                   help="report the word-tuple overlap index for the policy")
    _flags(p, d, {"grid": "comma-separated sweep grid",
                  "games": "games per evaluation",
                  "guests": "guests per game",
                  "words": "word budget per game",
                  "seeds": "comma-separated evaluation seeds",
                  "eta": "games per word when curating the heuristic",
                  "curated_size": "heuristic curated list size",
                  "diversity_games": "word tuples for the diversity index",
                  "split": "corpus side to evaluate: train, test, or full"})
    _add_common(p, d)
    p.set_defaults(handler=cmd_eval)

    d = _HEURISTIC_DEFAULTS
    p = sub.add_parser("baseline-heuristic",
                       help="curate discriminant words and score the fixed policy")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--guesser", required=True, help="guesser checkpoint path")
    _flags(p, d, {"eta": "games per candidate word",
                  "curated_size": "curated list size",
                  "guests": "guests per game",
                  "words": "word budget per game",
                  "eval_games": "evaluation games for the curated policy",
                  "seed": "scoring seed",
                  "split": "corpus side to score on: train, test, or full"},
           _HEURISTIC_REFERENCE)
    _add_common(p, d)
    p.set_defaults(handler=cmd_baseline_heuristic)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.threads is not None:
        if ns.threads < 1:
            parser.error("--threads must be >= 1")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            os.environ[var] = str(ns.threads)
    try:
        return ns.handler(ns)
    except BrokenPipeError:
        return 1
    except Exception as exc:  # noqa: BLE001 - the record is the contract
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
