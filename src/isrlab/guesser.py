"""Identify the target among K voice prints from the words they uttered.

Architecture: the K guest prints are averaged into a context vector; an
attention net scores each uttered embedding against that context; the
attention-weighted sum of utterances is then paired with every guest print
and scored by a second net, and a softmax over the K scores gives the
per-guest probabilities.  Scoring is per guest, so the whole thing is
permutation-equivariant in the guest list by construction.  Both nets are
``neural.pair_forward`` nets: each game's context half of the first layer
is taken once, not once per word or guest, and an eval pass runs in blocks.
An eval pass over dealt games (``Games``) takes the item half from the
corpus rows, once per distinct guest print or utterance.

Training is plain supervised cross-entropy on games with uniformly random
word sets, no policy involved.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from functools import cached_property, partial

import numpy as np

from . import neural
from .corpus import Corpus
from .neural import MlpSpec, ParamStore


class TrainingDiverged(RuntimeError):
    """Raised when a training loss goes non-finite."""


@dataclass(frozen=True)
class GuesserConfig:
    dim: int
    attn_hidden: int = 256
    score_hidden: int = 512
    dropout: float = 0.5

    def arch(self) -> dict:
        return {"model": "guesser", **asdict(self)}


class GuesserModel:
    """Parameter container for the two scoring nets."""

    def __init__(self, config: GuesserConfig, store: ParamStore | None = None):
        self.config = config
        self.store = store if store is not None else ParamStore()

    @classmethod
    def init(cls, config: GuesserConfig, rng: np.random.Generator) -> "GuesserModel":
        model = cls(config)
        for prefix, hidden in (("attn", config.attn_hidden), ("score", config.score_hidden)):
            neural.init_mlp(model.store, prefix, MlpSpec(2 * config.dim, (hidden,), 1), rng)
        return model

    def save(self, path) -> None:
        neural.save_params(path, self.store, "guesser", self.config.arch())

    @classmethod
    def load(cls, path) -> "GuesserModel":
        store, kind, arch = neural.load_params(path)
        if kind != "guesser":
            raise ValueError(f"checkpoint holds a {kind!r} model, not a guesser")
        config = GuesserConfig(**{f.name: arch[f.name] for f in fields(GuesserConfig)})
        neural.check_params(store, cls.init(config, np.random.default_rng(0)).store)
        return cls(config, store)


@dataclass
class GuesserActivations:
    """Everything the forward pass computed, batched over games.

    ``attn_weights`` rows sum to 1 and ``pooled`` is their convex
    combination of the uttered embeddings; ``probs`` rows sum to 1 over
    the K guests.  Only a training pass keeps the two nets' caches.
    """

    mean_guest: np.ndarray    # (B, D)
    attn_logits: np.ndarray   # (B, T)
    attn_weights: np.ndarray  # (B, T)
    pooled: np.ndarray        # (B, D)
    score_logits: np.ndarray  # (B, K)
    probs: np.ndarray         # (B, K)
    _guests: np.ndarray = None
    _uttered: np.ndarray = None
    _attn_cache: object = None
    _score_cache: object = None


@dataclass(frozen=True)
class Games:
    """A batch of dealt games: each game's guests as corpus rows, the
    target's column among them and the words the target uttered; the
    gathered ``guests`` (B, K, D) and ``uttered`` (B, T, D) are taken from
    the corpus on first use."""

    corpus: Corpus
    guest_rows: np.ndarray    # (B, K)
    targets: np.ndarray       # (B,) columns into guest_rows
    words: np.ndarray         # (B, T)

    def __post_init__(self):
        neural.check_indices("guest row", self.guest_rows, self.corpus.n_speakers)
        neural.check_indices("target column", self.targets, self.guest_rows.shape[1])
        neural.check_indices("word id", self.words, self.corpus.vocab_size)

    @cached_property
    def target_rows(self) -> np.ndarray:
        return self.guest_rows[np.arange(len(self.targets)), self.targets]

    @cached_property
    def guests(self) -> np.ndarray:
        return self.corpus.voice_prints[self.guest_rows]

    @cached_property
    def uttered(self) -> np.ndarray:
        return self.corpus.utterances[self.target_rows[:, None], self.words]

    def tables(self, b: int, k: int, t: int):
        """The (table, rows) pairs of the guests and the utterances, each
        (R, D) table with (B, K) or (B, T) rows into it."""
        corpus = self.corpus
        shapes = (self.guest_rows.shape, self.targets.shape, self.words.shape)
        if shapes != ((b, k), (b,), (b, t)):
            raise ValueError(
                f"games of shapes {self.guest_rows.shape}, {self.targets.shape} and "
                f"{self.words.shape} do not match {b} games of {k} guests and {t} words")
        cells = self.target_rows[:, None] * corpus.vocab_size + self.words
        return ((corpus.voice_prints, self.guest_rows),
                (corpus.utterances.reshape(-1, corpus.dimension), cells))


def guesser_forward(model: GuesserModel, guests: np.ndarray, uttered: np.ndarray,
                    train: bool = False, rng: np.random.Generator | None = None, *,
                    rows: Games | None = None) -> GuesserActivations:
    """Score guests given uttered embeddings.

    ``guests`` is (B, K, D) and ``uttered`` (B, T, D); a single game may be
    passed as (K, D) and (T, D) and comes back with a batch axis of one.
    Requires K >= 1 and T >= 1.  An eval pass given as ``rows`` the ``Games``
    the arrays were gathered from takes the nets' item products from the
    corpus rows, each distinct row once, with the same outputs at one BLAS thread.
    """
    guests = np.asarray(guests, dtype=np.float64)
    uttered = np.asarray(uttered, dtype=np.float64)
    if guests.ndim == 2:
        guests = guests[None]
    if uttered.ndim == 2:
        uttered = uttered[None]
    b, k, d = guests.shape
    if d != model.config.dim:
        raise ValueError(f"guest dimension {d} != model dimension {model.config.dim}")
    if uttered.shape[0] != b or uttered.shape[2] != d:
        raise ValueError(f"uttered shape {uttered.shape} incompatible with guests {guests.shape}")
    t = uttered.shape[1]
    if k < 1 or t < 1:
        raise ValueError("need at least one guest and one uttered word")

    # each net's items: the gathered arrays, or a corpus table and rows into it
    (guest_items, guest_rows), (utter_items, utter_rows) = (
        ((guests, None), (uttered, None)) if rows is None else rows.tables(b, k, t))

    mean_guest = guests.mean(axis=1)                                    # (B, D)
    dropout = model.config.dropout if train else 0.0
    attn_logits, attn_cache = neural.pair_forward(
        model.store, "attn", utter_items, mean_guest, keep_cache=train, dropout=dropout,
        rng=rng, rows=utter_rows)
    attn_weights = neural.softmax(attn_logits, axis=1)
    pooled = np.einsum("bt,btd->bd", attn_weights, uttered)

    score_logits, score_cache = neural.pair_forward(
        model.store, "score", guest_items, pooled, keep_cache=train, dropout=dropout,
        rng=rng, rows=guest_rows)
    probs = neural.softmax(score_logits, axis=1)
    return GuesserActivations(
        mean_guest=mean_guest, attn_logits=attn_logits, attn_weights=attn_weights,
        pooled=pooled, score_logits=score_logits, probs=probs,
        _guests=guests, _uttered=uttered,
        _attn_cache=attn_cache, _score_cache=score_cache)


def guesser_loss(model: GuesserModel, acts: GuesserActivations, targets) -> float:
    """Mean cross-entropy at the target guests; accumulates parameter grads.

    The backward pass runs through the score net, the attention pooling
    and the attention net.  Eval-mode activations carry no caches, so each
    net is run once more on the same inputs, explicitly without dropout,
    to rebuild them.
    """
    targets = np.atleast_1d(np.asarray(targets))
    b = acts.probs.shape[0]
    attn_cache, score_cache = acts._attn_cache, acts._score_cache
    if score_cache is None:
        _, attn_cache = neural.pair_forward(model.store, "attn", acts._uttered,
                                            acts.mean_guest, keep_cache=True, dropout=0.0)
        _, score_cache = neural.pair_forward(model.store, "score", acts._guests,
                                             acts.pooled, keep_cache=True, dropout=0.0)
    losses, dlogits = neural.softmax_cross_entropy(acts.score_logits, targets)
    dlogits /= b

    dpooled = neural.pair_backward(model.store, "score", score_cache, dlogits,
                                   context_grad=True)                   # (B, D)
    dalpha = np.einsum("bd,btd->bt", dpooled, acts._uttered)
    de = acts.attn_weights * (dalpha - (acts.attn_weights * dalpha).sum(axis=1, keepdims=True))
    neural.pair_backward(model.store, "attn", attn_cache, de)
    return float(losses.mean())


def sample_game_batch(corpus: Corpus, n_games: int, n_guests: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform guests without replacement plus a uniform target per game.

    Returns guest row indices (n_games, K) into the corpus arrays and the
    target column (n_games,) into each guest row.  This is the one dealer:
    batched evaluation, rollouts and the single-game ``game.new_game`` all
    deal through it.
    """
    if n_guests > corpus.n_speakers:
        raise ValueError(f"{n_guests} guests exceed the {corpus.n_speakers} corpus speakers")
    keys = rng.random((n_games, corpus.n_speakers))
    guest_rows = np.argsort(keys, axis=1)[:, :n_guests]
    targets = rng.integers(0, n_guests, size=n_games)
    return guest_rows, targets


def sample_word_subsets(rng: np.random.Generator, n_games: int, pool: np.ndarray,
                        n_words: int) -> np.ndarray:
    """Per game, ``n_words`` distinct words drawn uniformly from ``pool``."""
    pool = np.asarray(pool)
    if n_words > pool.size:
        raise ValueError(f"cannot draw {n_words} distinct words from a pool of {pool.size}")
    keys = rng.random((n_games, pool.size))
    picks = np.argsort(keys, axis=1)[:, :n_words]
    return pool[picks]


def play_games(corpus: Corpus, n_guests: int, n_games: int, policy, scorer,
               rng: np.random.Generator, chunk: int = 4096) -> tuple[float, float, np.ndarray]:
    """Deal, play and score ``n_games`` seeded games, ``chunk`` at a time.

    Per chunk the games are dealt from ``rng``, then ``policy(guest_rows,
    targets, rng)`` returns each game's (b, T) word ids and ``scorer(games)``
    the 0/1 successes of those ``Games``.  Returns the success rate, its
    binomial stderr and the (n_games, T) words played.
    """
    if n_games < 1:
        raise ValueError(f"need at least one game to score, got {n_games}")
    if chunk < 1:
        raise ValueError(f"need a chunk of at least one game, got {chunk}")
    hits, played = 0, []
    for start in range(0, n_games, chunk):
        guest_rows, targets = sample_game_batch(
            corpus, min(chunk, n_games - start), n_guests, rng)
        games = Games(corpus, guest_rows, targets, policy(guest_rows, targets, rng))
        hits += int(scorer(games).sum())
        played.append(games.words)
    rate = hits / n_games
    return rate, float(np.sqrt(rate * (1.0 - rate) / n_games)), np.concatenate(played)


def word_pool_policy(pool: np.ndarray, n_words: int):
    """The policy that draws ``n_words`` distinct words per game from ``pool``."""
    return lambda guest_rows, targets, rng: sample_word_subsets(rng, len(targets), pool, n_words)


@dataclass(frozen=True)
class GuesserTrainConfig:
    n_guests: int = 5
    word_budget: int = 3
    batch_size: int = 1024
    lr: float = 3e-4
    n_games: int = 45_000
    dropout: float = 0.5
    attn_hidden: int = 256
    score_hidden: int = 512
    grad_clip: float | None = None
    valid_games: int = 10_000
    eval_every: int = 10          # batches between validation points
    seed: int = 0

    def __post_init__(self):
        neural.check_counts(self, "n_guests", "word_budget", "batch_size", "n_games",
                            "valid_games", "eval_every")


def train_guesser(corpus_train: Corpus, corpus_valid: Corpus,
                  config: GuesserTrainConfig) -> tuple[GuesserModel, list[dict]]:
    """Supervised training on freshly sampled random-word games.

    Returns the model and a curve of dicts with keys epoch, games_seen,
    train_loss, valid_accuracy.  Validation always runs on the same seeded
    held-out games so curves are comparable across runs.
    """
    if corpus_train.dimension != corpus_valid.dimension:
        raise ValueError("train and validation corpora disagree on dimension")
    if corpus_train.vocab != corpus_valid.vocab:
        raise ValueError("train and validation corpora disagree on vocabulary")
    rng = np.random.default_rng(config.seed)
    model = GuesserModel.init(
        GuesserConfig(dim=corpus_train.dimension, attn_hidden=config.attn_hidden,
                      score_hidden=config.score_hidden, dropout=config.dropout), rng)

    vocab = np.arange(corpus_train.vocab_size)
    n_batches = max(1, int(np.ceil(config.n_games / config.batch_size)))
    curve: list[dict] = []
    losses_since_eval: list[float] = []
    games_seen = 0
    start = time.perf_counter()

    def record(epoch: int) -> None:
        acc, _ = evaluate_guesser(model, corpus_valid, config.n_guests,
                                  config.word_budget, "random",
                                  config.valid_games, seed=config.seed + 1)
        curve.append({"epoch": epoch, "games_seen": games_seen,
                      "train_loss": float(np.mean(losses_since_eval)) if losses_since_eval else float("nan"),
                      "valid_accuracy": acc})
        losses_since_eval.clear()

    for batch_idx in range(n_batches):
        b = min(config.batch_size, config.n_games - games_seen)
        guest_rows, targets = sample_game_batch(corpus_train, b, config.n_guests, rng)
        games = Games(corpus_train, guest_rows, targets,
                      sample_word_subsets(rng, b, vocab, config.word_budget))
        acts = guesser_forward(model, games.guests, games.uttered, train=True, rng=rng)
        loss = guesser_loss(model, acts, targets)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss {loss} at batch {batch_idx} "
                f"({games_seen} games seen, lr={config.lr})")
        neural.adam_step(model.store, config.lr, clip_norm=config.grad_clip)
        games_seen += b
        losses_since_eval.append(loss)
        if (batch_idx + 1) % config.eval_every == 0:
            record(len(curve) + 1)
    if not curve or curve[-1]["games_seen"] != games_seen:
        record(len(curve) + 1)
    curve[-1]["wall_time_s"] = time.perf_counter() - start
    return model, curve


def evaluate_guesser(model: GuesserModel, corpus: Corpus, n_guests: int,
                     n_words: int, word_policy, n_games: int, seed: int,
                     chunk: int = 4096) -> tuple[float, float]:
    """Mean terminal success and binomial stderr over seeded games.

    ``word_policy`` is "random" or a fixed pool of distinct word ids in
    [0, V) to draw from (used exactly when its length equals the budget).
    """
    if not isinstance(word_policy, (str, list, tuple, np.ndarray)):
        raise TypeError(f"unsupported word policy: {word_policy!r}")
    if isinstance(word_policy, str) and word_policy != "random":
        raise ValueError(f"unknown word policy {word_policy!r}")
    v = corpus.vocab_size
    pool = np.arange(v) if isinstance(word_policy, str) else np.asarray(word_policy, dtype=int)
    outside = pool[(pool < 0) | (pool >= v)]
    if outside.size:
        raise ValueError(f"word id {outside[0]} in the word pool is outside [0, {v})")
    ids, counts = np.unique(pool, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"word id {ids[counts > 1][0]} is repeated in the word pool")
    rate, stderr, _ = play_games(
        corpus, n_guests, n_games, word_pool_policy(pool, n_words),
        partial(guesser_success, model), np.random.default_rng(seed), chunk)
    return rate, stderr


def guesser_success(model: GuesserModel, games: Games) -> np.ndarray:
    """Batched 0/1 indicator of argmax matching the target (eval mode),
    scored from the corpus rows the games were dealt from."""
    probs = guesser_forward(model, games.guests, games.uttered, rows=games).probs
    return (np.argmax(probs, axis=1) == games.targets).astype(np.float64)
