"""Correctness checks on the program's outputs.

None of these compares against a stored copy of an earlier output.  Each
states a property the output must have (a margin over chance, an ordering,
agreement with finite differences, with an independent re-computation or
with a batched replay) and returns ``(ok, detail)``.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import fields, is_dataclass
from itertools import combinations

import numpy as np

from isrlab import enquirer, guesser, neural

FD_STEP = 1e-5
FD_TOLERANCE = 1e-4     # the finite-difference tolerance of acceptance criterion 8


def binomial_sigma(p: float, n: int) -> float:
    return math.sqrt(p * (1.0 - p) / n)


def beats_chance(accuracy: float, n_guests: int, n_games: int,
                 sigmas: float = 4.0) -> tuple[bool, str]:
    chance = 1.0 / n_guests
    floor = chance + sigmas * binomial_sigma(chance, n_games)
    return accuracy > floor, f"accuracy {accuracy:.4f} vs 1/K + {sigmas:g} sigma = {floor:.4f}"


def loss_below_chance(loss: float, n_guests: int) -> tuple[bool, str]:
    chance = math.log(n_guests)
    return bool(loss < chance), f"final train loss {loss:.4f} vs ln K {chance:.4f}"


def strictly_monotone(values, decreasing: bool = False) -> tuple[bool, str]:
    pairs = list(zip(values[:-1], values[1:]))
    ok = all((a > b) if decreasing else (a < b) for a, b in pairs)
    return ok, (" > " if decreasing else " < ").join(f"{v:.4f}" for v in values)


def not_worse(rate: float, n_rate: int, baseline: float, n_baseline: int,
              sigmas: float) -> tuple[bool, str]:
    sigma = math.hypot(binomial_sigma(rate, n_rate), binomial_sigma(baseline, n_baseline))
    floor = baseline - sigmas * sigma
    return rate >= floor, f"{rate:.4f} vs {baseline:.4f} - {sigmas:g} sigma = {floor:.4f}"


def valid_word_tuples(tuples: np.ndarray, budget: int, vocab_size: int) -> tuple[bool, str]:
    tuples = np.asarray(tuples)
    if tuples.ndim != 2 or tuples.shape[1] != budget:
        return False, f"tuples of shape {tuples.shape}, expected (n, {budget})"
    bad = [i for i, row in enumerate(tuples.tolist())
           if len(set(row)) != budget or min(row) < 0 or max(row) >= vocab_size]
    return not bad, f"{len(bad)} of {len(tuples)} tuples repeat a word or leave [0, {vocab_size})"


def mean_pairwise_jaccard(tuples) -> float:
    """Reference for ``diversity_index``: plain sets, every pair once."""
    sets = [set(t) for t in tuples]
    pairs = [len(a & b) / len(a | b) for a, b in combinations(sets, 2)]
    return sum(pairs) / len(pairs)


def diversity_matches(omega: float, tuples, tolerance: float = 1e-12) -> tuple[bool, str]:
    reference = mean_pairwise_jaccard(tuples)
    return abs(omega - reference) <= tolerance, f"omega {omega!r} vs reference {reference!r}"


def curated_is_top(word_scores: np.ndarray, curated, size: int) -> tuple[bool, str]:
    curated = [int(w) for w in curated]
    rest = [w for w in range(len(word_scores)) if w not in curated]
    ok = (len(curated) == size == len(set(curated))
          and all(0 <= w < len(word_scores) for w in curated)
          and (not rest or min(word_scores[curated]) >= max(word_scores[rest])))
    return ok, f"curated {curated} of {len(word_scores)} scored words"


def digest(obj) -> str:
    """Hash of a nested result: dataclasses, dicts, sequences, arrays, scalars."""
    h = hashlib.sha256()

    def feed(x):
        if isinstance(x, np.ndarray):
            h.update(f"{x.dtype}{x.shape}".encode())
            h.update(np.ascontiguousarray(x).tobytes())
        elif is_dataclass(x):
            for f in fields(x):
                h.update(f.name.encode())
                feed(getattr(x, f.name))
        elif isinstance(x, dict):
            for key in sorted(x):
                h.update(repr(key).encode())
                feed(x[key])
        elif isinstance(x, (list, tuple)):
            h.update(f"[{len(x)}".encode())
            for item in x:
                feed(item)
        else:
            h.update(repr(x).encode())

    feed(obj)
    return h.hexdigest()


def all_identical(digests: list[str], what: str) -> tuple[bool, str]:
    distinct = len(set(digests))
    return distinct == 1, f"{len(digests)} {what} give {distinct} distinct result(s)"


# ---------------------------------------------------------------------------
# Finite-difference spot checks


def sample_coordinates(values: dict, rng: np.random.Generator, n: int) -> list:
    names = sorted(values)
    coords = []
    for _ in range(n):
        name = names[int(rng.integers(len(names)))]
        coords.append((name, tuple(int(rng.integers(s)) for s in values[name].shape)))
    return coords


def fd_spot_check(values: dict, analytic: dict, objective, coords,
                  min_checked: int) -> tuple[bool, str]:
    """Central differences at ``coords`` against ``analytic`` gradients.

    ``objective()`` returns ``(loss, pattern)``; a coordinate whose +-step
    changes ``pattern`` (the ReLU on/off pattern, or None where there are
    no kinks) crosses a kink and is skipped.
    """
    _, base = objective()
    worst, checked = 0.0, 0
    for name, idx in coords:
        p = values[name]
        orig = p[idx]
        p[idx] = orig + FD_STEP
        hi, pattern_hi = objective()
        p[idx] = orig - FD_STEP
        lo, pattern_lo = objective()
        p[idx] = orig
        if base is not None and not (np.array_equal(base, pattern_hi)
                                     and np.array_equal(base, pattern_lo)):
            continue
        numeric = (hi - lo) / (2.0 * FD_STEP)
        worst = max(worst, neural.max_relative_error(np.array(analytic[name][idx]),
                                                     np.array(numeric)))
        checked += 1
    ok = checked >= min_checked and worst <= FD_TOLERANCE
    return ok, (f"{checked} of {len(coords)} coordinates kink-free, "
                f"worst relative error {worst:.2e} (tolerance {FD_TOLERANCE:g})")


def guesser_gradients(model, guests, uttered, targets):
    """Analytic ``guesser_loss`` gradients and the FD objective for them."""
    store = model.store
    store.zero_grads()
    guesser.guesser_loss(model, guesser.guesser_forward(model, guests, uttered), targets)
    analytic = {name: g.copy() for name, g in store.grads.items()}
    store.zero_grads()
    b, k, d = guests.shape
    t = uttered.shape[1]

    def objective():
        acts = guesser.guesser_forward(model, guests, uttered)
        losses, _ = neural.softmax_cross_entropy(acts.score_logits, targets)
        attn_in = np.concatenate(
            [uttered, np.broadcast_to(acts.mean_guest[:, None, :], (b, t, d))], axis=2)
        score_in = np.concatenate(
            [guests, np.broadcast_to(acts.pooled[:, None, :], (b, k, d))], axis=2)
        pattern = np.concatenate([
            (attn_in.reshape(b * t, 2 * d) @ store.values["attn/W0"]
             + store.values["attn/b0"]).ravel() > 0,
            (score_in.reshape(b * k, 2 * d) @ store.values["score/W0"]
             + store.values["score/b0"]).ravel() > 0])
        return float(losses.mean()), pattern

    return analytic, objective


def bilstm_gradients(model, sequence, d_hidden):
    """Analytic ``bilstm_backward`` gradients (and the start token's) and
    the FD objective ``sum(bilstm_forward(...) * d_hidden)``."""
    store = model.store
    names = ["lstm/Wf", "lstm/bf", "lstm/Wb", "lstm/bb", "start"]
    store.zero_grads()
    _, cache = neural.bilstm_forward(store, "lstm", model.lstm_spec, sequence,
                                     store.values["start"])
    d_inputs = neural.bilstm_backward(store, "lstm", model.lstm_spec, cache, d_hidden)
    analytic = {name: store.grads[name].copy() for name in names[:4]}
    analytic["start"] = d_inputs[:, 0, :].sum(axis=0)
    store.zero_grads()

    def objective():
        hidden, _ = neural.bilstm_forward(store, "lstm", model.lstm_spec, sequence,
                                          store.values["start"])
        return float((hidden * d_hidden).sum()), None

    return {name: store.values[name] for name in names}, analytic, objective


# ---------------------------------------------------------------------------
# Live games at batch 1 against batched replays


def replay_games(enquirer_model, guesser_model, corpus, games, chunk: int = 512):
    """Replay single-game records in batches of ``chunk`` games.

    Each record holds ``guest_prints``, ``target_index``, ``target_id``,
    ``words``, the per-turn ``probs`` seen at batch 1 and the ``reward``.
    Returns the largest probability difference, the number of games whose
    words differ and the number whose rewards differ.
    """
    worst, word_mismatch, reward_mismatch = 0.0, 0, 0
    vocab = corpus.vocab_size
    for start in range(0, len(games), chunk):
        part = games[start:start + chunk]
        b, budget = len(part), len(part[0]["words"])
        guests = np.stack([g["guest_prints"] for g in part])
        uttered = np.zeros((b, budget, corpus.dimension))
        mask = np.zeros((b, vocab), dtype=bool)
        words = np.zeros((b, budget), dtype=np.int64)
        for turn in range(budget):
            out = enquirer.enquirer_forward(enquirer_model, guests, uttered[:, :turn], mask)
            seen = np.stack([g["probs"][turn] for g in part])
            worst = max(worst, float(np.max(np.abs(out.probs - seen))))
            words[:, turn] = enquirer.sample_actions(out.probs, "greedy")
            mask[np.arange(b), words[:, turn]] = True
            for i, g in enumerate(part):
                uttered[i, turn] = corpus.utterance(g["target_id"], int(words[i, turn]))
        probs = guesser.guesser_forward(guesser_model, guests, uttered).probs
        rewards = np.argmax(probs, axis=1) == np.array([g["target_index"] for g in part])
        word_mismatch += int(np.sum(np.any(words != np.array([g["words"] for g in part]),
                                           axis=1)))
        reward_mismatch += int(np.sum(rewards != np.array([bool(g["reward"]) for g in part])))
    return worst, word_mismatch, reward_mismatch
