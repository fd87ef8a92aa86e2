"""Experiment harness: baselines, sweeps, and the word-diversity index.

Everything here treats trained models as read-only and reports accuracy
with binomial standard errors.  Results serialize to CSV rows plus a JSON
summary that embeds the corpus fingerprint for provenance.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .corpus import Corpus, corpus_fingerprint
from .enquirer import evaluate_enquirer
from .guesser import (Games, GuesserModel, evaluate_guesser, guesser_success, play_games,
                      word_pool_policy)


def jaccard(a, b) -> float:
    """|A intersect B| / |A union B| for two non-empty word sets."""
    sa, sb = set(a), set(b)
    union = sa | sb
    if not union:
        raise ValueError("jaccard undefined for two empty sets")
    return len(sa & sb) / len(union)


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
    tuples land near 0.095.  Requires at least two tuples of equal size.
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
                                  n_games: int, seed: int,
                                  chunk: int = 4096) -> tuple[float, float]:
    """Parameter-free reference guesser: average per-word cosine to each print.

    Serves as the independent yardstick the trained guesser is compared
    against; it never sees the training corpus.
    """
    rate, stderr, _ = play_games(
        corpus, n_guests, n_games, word_pool_policy(np.arange(corpus.vocab_size), n_words),
        nearest_print_success,
        np.random.default_rng(seed), chunk)
    return rate, stderr


@dataclass(frozen=True)
class HeuristicConfig:
    games_per_word: int = 20_000   # games scored per candidate word
    curated_size: int = 6
    n_guests: int = 5
    word_budget: int = 3
    eval_games: int = 10_000


@dataclass
class HeuristicResult:
    word_scores: np.ndarray        # (V,) forced-word guesser accuracy
    curated: tuple[int, ...]       # top words, best first
    accuracy: float
    stderr: float


def heuristic_baseline(guesser: GuesserModel, corpus: Corpus,
                       config: HeuristicConfig, seed: int) -> HeuristicResult:
    """Curate the globally most discriminant words, then play from that list.

    Each word is scored by guesser accuracy over games where it is forced
    into an otherwise random word set, played in chunks of 4,096 from one
    seeded stream; the top ``curated_size`` words form the pool the fixed
    policy samples from.  The reported accuracy comes from a fresh seeded
    evaluation run.
    """
    v = corpus.vocab_size
    if not config.word_budget <= config.curated_size <= v:
        raise ValueError(
            f"need word_budget <= curated_size <= {v}, got {config.curated_size}")
    if config.games_per_word < 1 or config.eval_games < 1:
        raise ValueError("game counts must be positive")

    def forcing(word: int):
        rest = word_pool_policy(np.delete(np.arange(v), word), config.word_budget - 1)
        return lambda guest_rows, targets, rng: np.concatenate(
            [np.full((len(targets), 1), word), rest(guest_rows, targets, rng)], axis=1)

    rng = np.random.default_rng(seed)
    score = partial(guesser_success, guesser)
    scores = np.array([play_games(corpus, config.n_guests, config.games_per_word,
                                  forcing(word), score, rng)[0] for word in range(v)])

    order = np.argsort(-scores, kind="stable")     # ties to the lower word id
    curated = tuple(int(w) for w in order[:config.curated_size])
    accuracy, stderr = evaluate_guesser(
        guesser, corpus, config.n_guests, config.word_budget, list(curated),
        config.eval_games, seed=seed + 1)
    return HeuristicResult(word_scores=scores, curated=curated,
                           accuracy=accuracy, stderr=stderr)


@dataclass
class SweepResult:
    variable: str              # "word_budget" or "n_guests"
    grid: tuple[int, ...]
    rows: list[dict]           # one per grid point per seed per policy


def word_sweep(guesser: GuesserModel, corpus: Corpus, t_grid, n_guests: int,
               seeds, n_games: int = 10_000, enquirer=None,
               heuristic: HeuristicConfig | None = None) -> SweepResult:
    """Accuracy versus word budget for the configured policies.

    The random policy always runs; a heuristic config re-curates per grid
    point (where it would keep every word, the random policy at the
    heuristic's evaluation seed); an enquirer is evaluated greedily.
    """
    rows = []
    for t in t_grid:
        for seed in seeds:
            acc, err = evaluate_guesser(guesser, corpus, n_guests, t, "random",
                                        n_games, seed)
            rows.append({"variable": "word_budget", "value": int(t), "policy": "random",
                         "seed": int(seed), "accuracy": acc, "stderr": err})
            if heuristic is not None:
                size = max(heuristic.curated_size, t)
                if size == corpus.vocab_size:     # curating would keep every word
                    acc, err = evaluate_guesser(guesser, corpus, n_guests, t, "random",
                                                n_games, seed + 1)
                else:
                    res = heuristic_baseline(guesser, corpus, replace(
                        heuristic, curated_size=size, n_guests=n_guests, word_budget=t,
                        eval_games=n_games), seed)
                    acc, err = res.accuracy, res.stderr
                rows.append({"variable": "word_budget", "value": int(t),
                             "policy": "heuristic", "seed": int(seed),
                             "accuracy": acc, "stderr": err})
            if enquirer is not None:
                res = evaluate_enquirer(enquirer, guesser, corpus, n_guests, t,
                                        n_games, seed)
                rows.append({"variable": "word_budget", "value": int(t),
                             "policy": "enquirer", "seed": int(seed),
                             "accuracy": res.success_rate, "stderr": res.stderr})
    return SweepResult(variable="word_budget", grid=tuple(int(t) for t in t_grid),
                       rows=rows)


def guest_sweep(guesser: GuesserModel, corpus: Corpus, k_grid, word_budget: int,
                seeds, n_games: int = 10_000) -> SweepResult:
    """Accuracy versus number of guests under the random word policy."""
    for k in k_grid:
        if k > corpus.n_speakers:
            raise ValueError(f"grid point {k} exceeds the {corpus.n_speakers}-speaker corpus")
    rows = []
    for k in k_grid:
        for seed in seeds:
            acc, err = evaluate_guesser(guesser, corpus, k, word_budget, "random",
                                        n_games, seed)
            rows.append({"variable": "n_guests", "value": int(k), "policy": "random",
                         "seed": int(seed), "accuracy": acc, "stderr": err})
    return SweepResult(variable="n_guests", grid=tuple(int(k) for k in k_grid),
                       rows=rows)


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean, std, and stderr of accuracy over seeds per (policy, value)."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault((row["policy"], row["value"]), []).append(row)
    out = []
    for (policy, value), members in sorted(groups.items()):
        accs = np.array([m["accuracy"] for m in members])
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
