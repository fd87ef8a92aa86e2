"""Experiment harness: baselines, sweeps, and the word-diversity index.

Everything here treats trained models as read-only and reports accuracy
with binomial standard errors.  Results serialize to CSV rows plus a JSON
summary that embeds the corpus fingerprint for provenance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from . import neural
from .corpus import Corpus, corpus_fingerprint
from .enquirer import evaluate_enquirer
from .guesser import (Games, GuesserModel, Played, evaluate_guesser_words, guesser_success,
                      play_games, word_pool_policy)


@dataclass
class DiversityReport:
    n_games: int
    tuple_size: int
    word_tuples: list[tuple[int, ...]]
    pair_jaccards: np.ndarray   # upper-triangle values, i < j
    omega: float


def diversity_index(tuples) -> DiversityReport:
    """Mean Jaccard overlap across all distinct pairs of word tuples.

    1 means every game requested the same words; uniform random 3-of-20
    tuples land near 0.095.  Requires at least two non-empty tuples of
    equal size, of distinct word ids that are at least 0.
    """
    as_tuples = [tuple(int(w) for w in t) for t in tuples]
    if len(as_tuples) < 2:
        raise ValueError("need at least two word tuples")
    sizes = {len(t) for t in as_tuples}
    if len(sizes) != 1:
        raise ValueError(f"tuples must share one size, got sizes {sorted(sizes)}")
    if len({len(set(t)) for t in as_tuples} | sizes) != 1:
        raise ValueError("tuples may not repeat words")
    size = sizes.pop()
    if size == 0:
        raise ValueError("word tuples may not be empty, got ()")
    lowest = min(min(t) for t in as_tuples)
    if lowest < 0:
        raise ValueError(f"word id {lowest} is negative")
    width = max(max(t) for t in as_tuples) + 1
    members = np.zeros((len(as_tuples), width), dtype=np.float64)
    for i, t in enumerate(as_tuples):
        members[i, list(t)] = 1.0
    inter = members @ members.T
    union = 2 * size - inter
    pairs = (inter / union)[np.triu_indices(len(as_tuples), k=1)]
    return DiversityReport(n_games=len(as_tuples), tuple_size=size,
                           word_tuples=as_tuples, pair_jaccards=pairs,
                           omega=float(pairs.mean()))


def nearest_print_success(games: Games) -> np.ndarray:
    """0/1 per game: does the mean per-word cosine pick the target's print?"""
    guests, uttered = games.guests, games.uttered
    sims = np.einsum("btd,bkd->btk", uttered, guests)
    sims /= np.linalg.norm(uttered, axis=2)[:, :, None]
    sims /= np.linalg.norm(guests, axis=2)[:, None, :]
    return np.argmax(sims.mean(axis=1), axis=1) == games.targets


def cosine_nearest_print_accuracy(corpus: Corpus, n_guests: int, n_words: int,
                                  n_games: int, seed: int) -> tuple[float, float]:
    """Parameter-free reference guesser: average per-word cosine to each print.

    Serves as the independent yardstick the trained guesser is compared
    against; it never sees the training corpus.
    """
    played = play_games(
        corpus, n_guests, n_games, word_pool_policy(np.arange(corpus.vocab_size), n_words),
        nearest_print_success, np.random.default_rng(seed))
    return played.success_rate, played.stderr


@dataclass(frozen=True)
class HeuristicConfig:
    """Curation settings, each a count of at least 1."""

    games_per_word: int = 20_000   # games scored per candidate word
    curated_size: int = 6
    n_guests: int = 5
    word_budget: int = 3
    eval_games: int = 10_000

    def __post_init__(self):
        neural.check_counts(self, *(field.name for field in fields(self)))


@dataclass
class HeuristicResult:
    word_scores: np.ndarray        # (V,) forced-word guesser accuracy
    curated: tuple[int, ...]       # top words, best first
    played: Played                 # the evaluation of the curated list


def heuristic_baseline(guesser: GuesserModel, corpus: Corpus,
                       config: HeuristicConfig, seed: int) -> HeuristicResult:
    """Curate the globally most discriminant words, then play from that list.

    Each word is scored by guesser accuracy over games where it is forced
    into an otherwise random word set, played in chunks of 4,096 from one
    seeded stream; the top ``curated_size`` words, from ``word_budget`` to
    V, form the pool the fixed policy samples from.  ``played`` is a fresh
    seeded evaluation of that policy: its games, successes, accuracy and words.
    """
    v = corpus.vocab_size
    if not config.word_budget <= config.curated_size <= v:
        raise ValueError(
            f"need word_budget <= curated_size <= {v}, got {config.curated_size}")

    def forcing(word: int):
        # the word, then the first word_budget - 1 of the other words in a
        # random order: the words and draws of word_pool_policy(others,
        # word_budget - 1), which at a budget of one would ask for no words
        others = np.delete(np.arange(v), word)
        if not others.size:     # a one-word vocabulary: the word alone
            return lambda guest_rows, targets, rng: np.full((len(targets), 1), word)
        shuffled = word_pool_policy(others, others.size)
        return lambda guest_rows, targets, rng: np.concatenate(
            [np.full((len(targets), 1), word),
             shuffled(guest_rows, targets, rng)[:, :config.word_budget - 1]], axis=1)

    rng = np.random.default_rng(seed)
    score = partial(guesser_success, guesser)
    scores = np.array([play_games(corpus, config.n_guests, config.games_per_word,
                                  forcing(word), score, rng).success_rate for word in range(v)])

    order = np.argsort(-scores, kind="stable")     # ties to the lower word id
    curated = tuple(int(w) for w in order[:config.curated_size])
    return HeuristicResult(word_scores=scores, curated=curated, played=evaluate_guesser_words(
        guesser, corpus, config.n_guests, config.word_budget, list(curated),
        config.eval_games, seed=seed + 1))


def evaluate_policy(policy: str, guesser: GuesserModel, corpus: Corpus, n_guests: int,
                    n_words: int, n_games: int, seed: int, words="random", enquirer=None,
                    heuristic: HeuristicConfig | None = None) -> Played:
    """The seeded games of one word policy: ``random`` words, the ``fixed``
    pool ``words``, the ``heuristic``'s list curated at ``seed`` for these
    counts, or the greedy ``enquirer``; each names the input it lacks."""
    if {"fixed": isinstance(words, str), "heuristic": heuristic is None,
            "enquirer": enquirer is None}.get(policy):
        raise ValueError(f"policy {policy!r} needs {'words' if policy == 'fixed' else policy}=")
    if policy in ("random", "fixed"):
        return evaluate_guesser_words(guesser, corpus, n_guests, n_words,
                                      words if policy == "fixed" else "random", n_games, seed)
    if policy == "heuristic":
        return heuristic_baseline(guesser, corpus, replace(
            heuristic, n_guests=n_guests, word_budget=n_words, eval_games=n_games), seed).played
    if policy == "enquirer":
        return evaluate_enquirer(enquirer, guesser, corpus, n_guests, n_words, n_games, seed)
    raise ValueError(f"unknown policy {policy!r}: expected random, fixed, heuristic or enquirer")


def metrics_row(variable: str, value: int, policy: str, seed: int, played: Played) -> dict:
    """One reading's row: the setting varied, its value, policy, seed, accuracy and stderr."""
    return {"variable": variable, "value": int(value), "policy": policy, "seed": int(seed),
            "accuracy": played.success_rate, "stderr": played.stderr}


@dataclass
class SweepResult:
    rows: list[dict]           # one per grid point per seed per policy


def word_sweep(guesser: GuesserModel, corpus: Corpus, t_grid, n_guests: int,
               seeds, n_games: int = 10_000, enquirer=None,
               heuristic: HeuristicConfig | None = None) -> SweepResult:
    """Accuracy versus word budget for the configured policies.

    The random policy always runs; a heuristic config re-curates per grid
    point, at least T words (where it would keep every word, the random
    policy at the heuristic's evaluation seed); an enquirer plays greedily.
    """
    rows = []
    for t in t_grid:
        play = partial(evaluate_policy, guesser=guesser, corpus=corpus, n_guests=n_guests,
                       n_words=t, n_games=n_games)
        for seed in seeds:
            readings = {"random": play("random", seed=seed)}
            if heuristic is not None:
                size = max(heuristic.curated_size, t)
                readings["heuristic"] = (
                    play("random", seed=seed + 1) if size == corpus.vocab_size
                    else play("heuristic", seed=seed,
                              heuristic=replace(heuristic, curated_size=size)))
            if enquirer is not None:
                readings["enquirer"] = play("enquirer", seed=seed, enquirer=enquirer)
            rows += [metrics_row("word_budget", t, policy, seed, played)
                     for policy, played in readings.items()]
    return SweepResult(rows=rows)


def guest_sweep(guesser: GuesserModel, corpus: Corpus, k_grid, word_budget: int,
                seeds, n_games: int = 10_000) -> SweepResult:
    """Accuracy versus number of guests under the random word policy."""
    for k in k_grid:
        if k > corpus.n_speakers:
            raise ValueError(f"grid point {k} exceeds the {corpus.n_speakers}-speaker corpus")
    return SweepResult(rows=[
        metrics_row("n_guests", k, "random", seed,
                    evaluate_policy("random", guesser, corpus, k, word_budget, n_games, seed))
        for k in k_grid for seed in seeds])


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean, std, and stderr of accuracy over seeds per (policy, value).

    The seeds are independent runs, so two rows of one policy, value and
    seed are rejected, naming them."""
    groups: dict[tuple, dict] = {}
    for row in rows:
        members = groups.setdefault((row["policy"], row["value"]), {})
        if row["seed"] in members:
            raise ValueError(f"two rows of policy {row['policy']!r} at value {row['value']} "
                             f"have seed {row['seed']}: each seed must be one run")
        members[row["seed"]] = row
    out = []
    for (policy, value), members in sorted(groups.items()):
        accs = np.array([m["accuracy"] for m in members.values()])
        out.append({"policy": policy, "value": value, "n_seeds": len(members),
                    "mean_accuracy": float(accs.mean()),
                    "std_accuracy": float(accs.std(ddof=1)) if len(accs) > 1 else 0.0,
                    "stderr_accuracy": (float(accs.std(ddof=1) / np.sqrt(len(accs)))
                                        if len(accs) > 1 else 0.0)})
    return out


def write_rows_csv(path, rows: list[dict]) -> None:
    if not rows:
        raise ValueError("no rows to write")
    fields = list(rows[0])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def write_summary_json(path, payload: dict, corpus: Corpus | None = None) -> None:
    if corpus is not None:
        payload = {**payload, "corpus_fingerprint": corpus_fingerprint(corpus)}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
