"""The recognition game as an episodic MDP.

Each game samples K guests and secretly marks one as the target speaker.
A policy requests words one at a time; every request appends the target's
utterance embedding for that word to the state.  After exactly T requests
the episode ends, and the one-or-zero reward is whether a guesser's argmax
over the K guests lands on the target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import neural
from .corpus import Corpus
from .guesser import sample_game_batch


@dataclass(frozen=True)
class GameConfig:
    """K guests and T words per game, each at least 1 (``new_game`` fits them)."""

    n_guests: int
    word_budget: int

    def __post_init__(self):
        neural.check_counts(self, "n_guests", "word_budget")


@dataclass(frozen=True)
class GameState:
    """Immutable episode state; ``step`` returns a fresh copy each turn."""

    guest_ids: tuple[int, ...]
    guest_prints: np.ndarray        # (K, D), read-only
    target_index: int
    word_budget: int
    requested: tuple[int, ...] = ()
    uttered: tuple[np.ndarray, ...] = ()

    @property
    def turn(self) -> int:
        return len(self.requested)

    @property
    def target_id(self) -> int:
        return self.guest_ids[self.target_index]

    def uttered_matrix(self) -> np.ndarray:
        """Collected utterances as a (turn, D) array."""
        if not self.uttered:
            return np.zeros((0, self.guest_prints.shape[1]))
        return np.stack(self.uttered)


@dataclass(frozen=True)
class StepOutcome:
    state: GameState
    reward: float
    terminal: bool


def new_game(corpus: Corpus, config: GameConfig, rng: np.random.Generator) -> GameState:
    """Deal one game of at most V words: K distinct uniform guests and a uniform target."""
    if config.word_budget > corpus.vocab_size:
        raise ValueError(
            f"word budget {config.word_budget} exceeds the {corpus.vocab_size} words")
    guest_rows, targets = sample_game_batch(corpus, 1, config.n_guests, rng)
    rows, target = guest_rows[0], int(targets[0])
    prints = corpus.voice_prints[rows].copy()
    prints.setflags(write=False)
    return GameState(
        guest_ids=tuple(int(corpus.speaker_ids[r]) for r in rows),
        guest_prints=prints, target_index=target, word_budget=config.word_budget)


def step(state: GameState, word: int, corpus: Corpus) -> StepOutcome:
    """Request ``word``; the target utters it and the embedding is appended.

    Non-terminal turns carry reward 0 by construction; the indicator reward
    only exists at the end of the episode (see ``terminal_reward``).
    """
    if state.turn >= state.word_budget:
        raise ValueError("episode already used its word budget")
    embedding = corpus.utterance(state.target_id, word)    # checks the word id
    if word in state.requested:
        raise ValueError(f"word {word} was already requested this game")
    next_state = GameState(
        guest_ids=state.guest_ids, guest_prints=state.guest_prints,
        target_index=state.target_index, word_budget=state.word_budget,
        requested=state.requested + (word,),
        uttered=state.uttered + (embedding,))
    return StepOutcome(state=next_state, reward=0.0,
                       terminal=next_state.turn == state.word_budget)


def terminal_reward(state: GameState, guesser_probabilities: np.ndarray) -> int:
    """1 if the argmax guest is the target, else 0; ties go to the lowest index."""
    probs = np.asarray(guesser_probabilities, dtype=np.float64)
    if probs.shape != (len(state.guest_ids),):
        raise ValueError(
            f"expected {len(state.guest_ids)} probabilities, got shape {probs.shape}")
    return int(int(np.argmax(probs)) == state.target_index)


def write_episode_trace(path, state: GameState) -> None:
    """Dump a finished (or partial) episode as JSON Lines, one record per turn."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"type": "game", "guests": list(state.guest_ids),
                             "target_index": state.target_index,
                             "word_budget": state.word_budget}) + "\n")
        for turn, word in enumerate(state.requested):
            fh.write(json.dumps({"type": "turn", "turn": turn, "word": int(word),
                                 "embedding": state.uttered[turn].tolist()}) + "\n")
