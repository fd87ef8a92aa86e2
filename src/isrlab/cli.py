"""Command-line surface: corpus generation, training, evaluation, baselines.

Subcommands: gen-corpus, train-guesser, train-enquirer, eval,
baseline-heuristic.  Flag precedence is explicit flags, then --config file
entries (``key = value`` lines; a key that is not one of the command's
settings is rejected), then defaults.  A flag that fills a field of the
command's library config (``SynthConfig``, ``GuesserTrainConfig``,
``PpoConfig``, ``HeuristicConfig``) takes its default from that field, so
the training hyperparameters default to the published reference settings;
--reference-defaults pins them against config-file overrides.  All outputs
are CSV/JSON/JSONL; identical flags plus --threads 1 reproduce outputs
byte for byte (training summaries differ only in their wall_time_s field).
gen-corpus writes beside --out; every other command writes in --out-dir.
Each command writes all its files through ``_write`` and only then prints
their paths, one a line, so a failed run prints none.

Importing this module loads no numpy.  ``main`` reads --threads and caps the
BLAS pool first, then builds the parser, whose defaults come from the
numpy-importing library modules.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

_SPLIT_DEFAULTS = {"train_fraction": 0.8, "split_seed": 0}

_TRAIN_GUESSER_REFERENCE = ("games", "batch_size", "lr", "guests", "words", "dropout")
_TRAIN_ENQUIRER_REFERENCE = (
    "episodes", "lr", "clip", "gamma", "gae_lambda", "entropy_coef", "grad_clip",
    "horizon", "update_batches", "update_batch_size", "guests", "words")
_HEURISTIC_REFERENCE = ("eta",)

# flag names that differ from the library config field they fill, each a count of at least 1
_FIELD_NAMES = {"dim": "dimension", "games": "n_games", "guests": "n_guests",
                "words": "word_budget", "eta": "games_per_word"}


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


def _resolve(ns: argparse.Namespace) -> tuple[dict, object]:
    """Apply the flags > config file > defaults precedence.

    Returns the settings by flag name and the library config they fill.
    """
    config_values: dict[str, str] = {}
    if ns.config:
        config_values = _read_config_file(ns.config)
    for key in config_values:
        if key not in ns.settings:
            raise ValueError(f"{ns.config}: unknown key {key!r} for {ns.command}")
    pin = bool(getattr(ns, "reference_defaults", False))
    out = {}
    for key, default in ns.settings.items():
        flag = getattr(ns, key)
        if flag is not None:
            out[key] = flag
        elif key in config_values and not (pin and key in ns.reference):
            try:
                out[key] = type(default)(config_values[key])
            except ValueError:
                raise ValueError(f"{ns.config}: {key} = {config_values[key]!r} is not "
                                 f"a valid {type(default).__name__}") from None
        else:
            out[key] = default
    for key in _FIELD_NAMES:
        if key in out and out[key] < 1:
            raise ValueError(f"--{key} must be at least 1, got {out[key]}")
    for key in ("train_fraction", "split_seed"):
        if out.get("split") == "full" and getattr(ns, key) is not None:
            raise ValueError(f"--{key.replace('_', '-')} needs --split train or test; "
                             "it does nothing with --split full")
    return out, ns.library_config(**{field: out[key] for key, field in ns.fields.items()})


def _out_dir(ns: argparse.Namespace) -> Path:
    return Path(ns.out_dir or os.environ.get("ISRLAB_OUT", "."))


def _write(directory: Path, artifacts: list[tuple]) -> None:
    """Write each ``(file name, writer, *args)`` as ``writer(directory / name,
    *args)``, in order, in ``directory`` (made if missing); then print the paths."""
    directory.mkdir(parents=True, exist_ok=True)
    for name, writer, *args in artifacts:
        writer(directory / name, *args)
    for name, *_ in artifacts:
        print(directory / name)


def _load_split(corpus_path: str, cfg: dict, *sides: str, swept: str | None = None) -> list:
    """Parse the corpus once and return each named side: train, test or full.
    A setting in ``cfg`` the side cannot hold, a --words above the vocabulary
    or a --guests above its speakers, is rejected naming the flag: --grid for
    the ``swept`` setting."""
    from .corpus import load_corpus, split_speakers
    for which in sides:
        if which not in ("train", "test", "full"):
            raise ValueError(f"unknown split {which!r}: expected train, test or full")
    named = {"full": load_corpus(corpus_path)}
    if set(sides) - {"full"}:
        named["train"], named["test"] = split_speakers(
            named["full"], cfg["train_fraction"], cfg["split_seed"])
    for which in sides:
        corpus = named[which]
        for key, limit, what in (("words", corpus.vocab_size, "words of the vocabulary"),
                                 ("guests", corpus.n_speakers, f"speakers of the {which} split")):
            if key in cfg and cfg[key] > limit:
                flag = "grid" if key == swept else key
                raise ValueError(f"--{flag} {cfg[key]} exceeds the {limit} {what}")
    return [named[which] for which in sides]


def _load_checkpoint(kind: str, path: str, corpus):
    """The guesser or enquirer checkpoint at ``path``, rejected unless its
    dimension, and an enquirer's vocabulary size, match the corpus."""
    from .corpus import check_fit
    from .enquirer import EnquirerModel
    from .guesser import GuesserModel
    model = {"guesser": GuesserModel, "enquirer": EnquirerModel}[kind].load(path)
    check_fit(f"{kind} checkpoint", model.config, corpus)
    return model


def cmd_gen_corpus(ns: argparse.Namespace) -> int:
    from .corpus import generate_synthetic, save_corpus
    from .evaluation import write_summary_json
    cfg, config = _resolve(ns)
    out = Path(ns.out)
    corpus = generate_synthetic(config)
    _write(out.parent, [
        (out.name, lambda path: save_corpus(corpus, path)),
        (out.name + ".config.json", write_summary_json, {
            "synth_config": cfg, "speakers": corpus.n_speakers,
            "dimension": corpus.dimension, "vocab": list(corpus.vocab)})])
    return 0


def cmd_train_guesser(ns: argparse.Namespace) -> int:
    from .corpus import corpus_fingerprint
    from .evaluation import write_rows_csv, write_summary_json
    from .guesser import train_guesser
    cfg, config = _resolve(ns)
    train, valid = _load_split(ns.corpus, cfg, "train", "test")
    started = time.perf_counter()
    model, curve = train_guesser(train, valid, config)
    wall = time.perf_counter() - started
    _write(_out_dir(ns), [
        ("guesser.json", model.save),
        ("guesser_curve.csv", write_rows_csv, curve),
        ("guesser_summary.json", write_summary_json, {
            "command": "train-guesser", "config": cfg, "seed": cfg["seed"],
            "final_valid_accuracy": curve[-1]["valid_accuracy"],
            "games_seen": curve[-1]["games_seen"], "wall_time_s": wall,
            "train_fingerprint": corpus_fingerprint(train),
            "valid_fingerprint": corpus_fingerprint(valid)})])
    return 0


def cmd_train_enquirer(ns: argparse.Namespace) -> int:
    from .corpus import corpus_fingerprint
    from .enquirer import evaluate_enquirer, train_enquirer
    from .evaluation import write_rows_csv, write_summary_json
    cfg, config = _resolve(ns)
    if cfg["eval_games"] < 1:               # checked before the PPO run, not after
        raise ValueError(f"eval_games must be at least 1, got {cfg['eval_games']}")
    train, test = _load_split(ns.corpus, cfg, "train", "test")
    guesser = _load_checkpoint("guesser", ns.guesser, train)
    started = time.perf_counter()
    model, curve = train_enquirer(guesser, train, config)
    wall = time.perf_counter() - started
    heldout = evaluate_enquirer(model, guesser, test, cfg["guests"], cfg["words"],
                                cfg["eval_games"], seed=cfg["seed"] + 1)
    _write(_out_dir(ns), [
        ("enquirer.json", model.save),
        ("enquirer_curve.csv", write_rows_csv, curve),
        ("enquirer_summary.json", write_summary_json, {
            "command": "train-enquirer", "config": cfg, "seed": cfg["seed"],
            "first_moving_avg_reward": curve[0]["moving_avg_reward"],
            "final_moving_avg_reward": curve[-1]["moving_avg_reward"],
            "heldout_greedy_success": heldout.success_rate,
            "heldout_greedy_stderr": heldout.stderr,
            "episodes": curve[-1]["episode"], "wall_time_s": wall,
            "train_fingerprint": corpus_fingerprint(train),
            "test_fingerprint": corpus_fingerprint(test)})])
    return 0


def _parse_int_list(flag: str, text: str, least: int | None = None) -> list[int]:
    """The comma-separated integers of ``--flag``; a token that is not an
    integer, one below ``least`` or a repeat (a seed or grid point counted
    twice) is rejected naming the flag."""
    values = []
    for tok in filter(str.strip, text.split(",")):
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"--{flag} value {tok.strip()!r} is not an integer") from None
        if least is not None and values[-1] < least:
            raise ValueError(f"--{flag} values must be at least {least}, got {values[-1]}")
        if values[-1] in values[:-1]:
            raise ValueError(f"--{flag} value {values[-1]} is repeated")
    return values


def cmd_eval(ns: argparse.Namespace) -> int:
    from .evaluation import (aggregate_rows, diversity_index, evaluate_policy, metrics_row,
                             word_sweep, guest_sweep, write_rows_csv, write_summary_json)

    policy = ns.policy or "random"
    mode = f"--sweep {ns.sweep}" if ns.sweep else f"--policy {policy}"
    curates = ns.policy == "heuristic" or ns.include_heuristic
    curating = "--policy heuristic or --include-heuristic"
    for flag, given, needed, applies in (
            ("--include-heuristic", ns.include_heuristic, "--sweep words", ns.sweep == "words"),
            ("--fixed-words", ns.fixed_words is not None, "--policy fixed", ns.policy == "fixed"),
            ("--policy", ns.policy is not None, "no --sweep", not ns.sweep),
            ("--diversity", ns.diversity, "no --sweep", not ns.sweep),
            ("--enquirer", ns.enquirer is not None, "--policy enquirer or --sweep words",
             ns.policy == "enquirer" or ns.sweep == "words"),
            ("--grid", ns.grid is not None, "--sweep", ns.sweep),
            ("--diversity-games", ns.diversity_games is not None, "--diversity", ns.diversity),
            ("--curated-size", ns.curated_size is not None, curating, curates),
            ("--eta", ns.eta is not None, curating, curates)):
        if given and not applies:
            raise ValueError(f"{flag} needs {needed}; it does nothing with {mode}")
    if policy == "enquirer" and ns.enquirer is None:
        raise ValueError("--policy enquirer requires --enquirer")
    cfg, heuristic = _resolve(ns)
    seeds = _parse_int_list("seeds", cfg["seeds"], least=0)
    if not seeds:
        raise ValueError("need at least one seed")
    grid = _parse_int_list("grid", cfg["grid"], least=1)
    if ns.sweep and not grid:
        raise ValueError("--sweep requires --grid values")
    words = _parse_int_list("fixed-words", ns.fixed_words or "") if policy == "fixed" else "random"
    if policy == "fixed" and len(words) < cfg["words"]:
        raise ValueError("--fixed-words needs at least --words entries")
    if ns.diversity and cfg["diversity_games"] < 2:
        raise ValueError(f"diversity_games must be at least 2, got {cfg['diversity_games']}")
    if ns.diversity and cfg["diversity_games"] > cfg["games"]:
        raise ValueError(f"--diversity-games {cfg['diversity_games']} exceeds --games "
                         f"{cfg['games']}: the tuples are the first seed's games")
    # a sweep's grid, at its largest, takes the place of the setting it varies
    swept = {ns.sweep: max(grid)} if ns.sweep else {}
    [corpus] = _load_split(ns.corpus, {**cfg, **swept}, cfg["split"], swept=ns.sweep)
    guesser = _load_checkpoint("guesser", ns.guesser, corpus)
    enquirer = (_load_checkpoint("enquirer", ns.enquirer, corpus)
                if ns.enquirer is not None else None)

    if ns.sweep == "words":
        rows = word_sweep(guesser, corpus, grid, cfg["guests"], seeds, n_games=cfg["games"],
                          enquirer=enquirer,
                          heuristic=heuristic if ns.include_heuristic else None).rows
    elif ns.sweep == "guests":
        rows = guest_sweep(guesser, corpus, grid, cfg["words"], seeds, n_games=cfg["games"]).rows
    else:
        played = [evaluate_policy(policy, guesser, corpus, cfg["guests"], cfg["words"],
                                  cfg["games"], seed, words, enquirer, heuristic) for seed in seeds]
        rows = [metrics_row("none", cfg["words"], policy, seed, each)
                for seed, each in zip(seeds, played)]
    rows_name, summary_name, about = (
        (f"sweep_{ns.sweep}.csv", f"sweep_{ns.sweep}_summary.json",
         {"sweep": ns.sweep, "grid": grid}) if ns.sweep
        else ("eval_metrics.csv", "eval_summary.json", {"policy": policy}))
    artifacts = [
        (rows_name, write_rows_csv, rows),
        (summary_name, write_summary_json, {"command": "eval", **about, "seeds": seeds,
                                            "config": cfg, "aggregate": aggregate_rows(rows)},
         corpus)]
    if ns.diversity:
        report = diversity_index(played[0].word_tuples[:cfg["diversity_games"]])
        artifacts += [
            ("word_tuples.jsonl", Path.write_text, "".join(
                json.dumps({"words": list(t)}) + "\n" for t in report.word_tuples), "utf-8"),
            ("diversity.json", write_summary_json, {
                "command": "eval", "policy": policy, "n_games": report.n_games,
                "tuple_size": report.tuple_size, "omega": report.omega}, corpus)]
    _write(_out_dir(ns), artifacts)
    return 0


def cmd_baseline_heuristic(ns: argparse.Namespace) -> int:
    from .evaluation import heuristic_baseline, write_rows_csv, write_summary_json
    cfg, config = _resolve(ns)
    [corpus] = _load_split(ns.corpus, cfg, cfg["split"])
    guesser = _load_checkpoint("guesser", ns.guesser, corpus)
    result = heuristic_baseline(guesser, corpus, config, cfg["seed"])
    _write(_out_dir(ns), [
        ("heuristic_scores.csv", write_rows_csv, [
            {"word": w, "label": corpus.vocab[w], "forced_word_accuracy": float(s),
             "curated": int(w in result.curated)}
            for w, s in enumerate(result.word_scores)]),
        ("heuristic.json", write_summary_json, {
            "command": "baseline-heuristic", "config": cfg, "curated": list(result.curated),
            "curated_labels": [corpus.vocab[w] for w in result.curated],
            "accuracy": result.played.success_rate, "stderr": result.played.stderr},
         corpus)])
    return 0


def _add_common(parser: argparse.ArgumentParser, defaults: dict) -> None:
    parser.add_argument("--config", help="key = value file; flags take precedence")
    parser.add_argument("--threads", type=int, default=None,
                        help="BLAS/OpenMP thread cap; 1 is the reproducibility mode")
    if "train_fraction" in defaults:
        parser.add_argument("--out-dir", default=None,
                            help="output directory (default: $ISRLAB_OUT or '.')")
        parser.add_argument("--train-fraction", type=float,
                            help=f"speaker share for the train split "
                                 f"(default: {defaults['train_fraction']})")
        parser.add_argument("--split-seed", type=int,
                            help=f"speaker split seed (default: {defaults['split_seed']})")


def _settings(parser, library_config, helps: dict[str, str], own: dict | None = None,
              rename: dict[str, str] | None = None, reference=()) -> None:
    """Typed --flags from ``helps``; tag the ``reference`` keys and offer pinning them.

    A flag in ``own`` keeps that CLI-only default.  Every other flag fills the
    ``library_config`` field it names (``_FIELD_NAMES``, then ``rename``, map
    the names that differ) and takes its default from that field.
    """
    own = own or {}
    names = {**_FIELD_NAMES, **(rename or {})}
    fields = {name: names.get(name, name) for name in helps if name not in own}
    base = library_config()
    defaults = {**own, **{name: getattr(base, field) for name, field in fields.items()}}
    for name, text in helps.items():
        tag = " [reference setting]" if name in reference else ""
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name,
                            type=type(defaults[name]),
                            help=f"{text} (default: {defaults[name]}){tag}")
    if reference:
        parser.add_argument("--reference-defaults", action="store_true",
                            help="pin reference hyperparameters against --config overrides")
    _add_common(parser, defaults)
    parser.set_defaults(settings=defaults, fields=fields, library_config=library_config,
                        reference=reference)


def build_parser() -> argparse.ArgumentParser:
    from .corpus import SynthConfig
    from .enquirer import PpoConfig
    from .evaluation import HeuristicConfig
    from .guesser import GuesserTrainConfig
    parser = argparse.ArgumentParser(
        prog="isrlab",
        description="Interactive speaker recognition game: corpora, training, evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-corpus", help="write a synthetic corpus JSONL file")
    p.add_argument("--out", required=True, help="corpus output path (.jsonl)")
    _settings(p, SynthConfig, {"dim": "embedding dimension",
                               "vocab_size": "vocabulary size",
                               "train_speakers": "corpus size: speakers beside --test-speakers "
                                                 "(other commands split by --train-fraction)",
                               "test_speakers": "corpus size: speakers beside --train-speakers "
                                                "(other commands split by --train-fraction)",
                               "enrollments": "enrollment vectors per voice print",
                               "sharpness": "word informativeness sharpness",
                               "utterance_noise": "utterance noise scale",
                               "enrollment_noise": "enrollment noise scale",
                               "seed": "generator seed"})
    p.set_defaults(handler=cmd_gen_corpus)

    p = sub.add_parser("train-guesser", help="supervised training on random-word games")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    _settings(p, GuesserTrainConfig, {"games": "training games",
                                      "batch_size": "games per Adam step",
                                      "lr": "learning rate",
                                      "guests": "guests per game",
                                      "words": "word budget per game",
                                      "dropout": "hidden dropout rate",
                                      "eval_games": "validation games per curve point",
                                      "eval_every": "batches between curve points",
                                      "seed": "training seed"},
              _SPLIT_DEFAULTS, {"eval_games": "valid_games"}, _TRAIN_GUESSER_REFERENCE)
    p.set_defaults(handler=cmd_train_guesser)

    p = sub.add_parser("train-enquirer", help="PPO training against a frozen guesser")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--guesser", required=True, help="guesser checkpoint path")
    _settings(p, PpoConfig, {"episodes": "training episodes",
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
                             "seed": "training seed"},
              {**_SPLIT_DEFAULTS, "eval_games": 2000}, reference=_TRAIN_ENQUIRER_REFERENCE)
    p.set_defaults(handler=cmd_train_enquirer)

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
                   help="report the word-tuple overlap index of the first seed's games")
    _settings(p, HeuristicConfig, {"grid": "comma-separated sweep grid",
                                   "games": "games per evaluation",
                                   "guests": "guests per game",
                                   "words": "word budget per game",
                                   "seeds": "comma-separated evaluation seeds",
                                   "eta": "games per word when curating the heuristic",
                                   "curated_size": "heuristic curated list size",
                                   "diversity_games": "word tuples for the diversity index",
                                   "split": "corpus side to evaluate: train, test, or full"},
              {**_SPLIT_DEFAULTS, "seeds": "0", "diversity_games": 142, "grid": "",
               "split": "test"}, {"games": "eval_games"})
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("baseline-heuristic",
                       help="curate discriminant words and score the fixed policy")
    p.add_argument("--corpus", required=True, help="corpus JSONL path")
    p.add_argument("--guesser", required=True, help="guesser checkpoint path")
    _settings(p, HeuristicConfig, {"eta": "games per candidate word",
                                   "curated_size": "curated list size",
                                   "guests": "guests per game",
                                   "words": "word budget per game",
                                   "eval_games": "evaluation games for the curated policy",
                                   "seed": "scoring seed",
                                   "split": "corpus side to score on: train, test, or full"},
              {**_SPLIT_DEFAULTS, "seed": 0, "split": "test"},
              reference=_HEURISTIC_REFERENCE)
    p.set_defaults(handler=cmd_baseline_heuristic)
    return parser


def _cap_threads(argv) -> None:
    """Set the BLAS thread variables from --threads before numpy loads."""
    pre = argparse.ArgumentParser(add_help=False)
    pre.add_argument("--threads", nargs="?")
    try:
        threads = int(pre.parse_known_args(argv)[0].threads)
    except (TypeError, ValueError):
        return                  # absent, or malformed and reported by the full parser
    if threads >= 1:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
            os.environ[var] = str(threads)


def main(argv=None) -> int:
    _cap_threads(argv)          # the parser reads the library configs, which load numpy
    parser = build_parser()
    ns = parser.parse_args(argv)
    if ns.threads is not None and ns.threads < 1:
        parser.error("--threads must be >= 1")
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
