"""Identify the target among K voice prints from the words they uttered.

Architecture: the K guest prints are averaged into a context vector; an
attention net scores each uttered embedding against that context; the
attention-weighted sum of utterances is then paired with every guest print
and scored by a second net, and a softmax over the K scores gives the
per-guest probabilities.  Scoring is per guest, so the whole thing is
permutation-equivariant in the guest list by construction.  Both nets are
``neural.pair_forward`` nets: each game's context half of the first layer
is taken once, not once per word or guest, and every pass runs in blocks
of games.  A pass on gathered arrays (``guesser_forward``) takes a block's
item rows at a time and keeps one activation per net for ``guesser_loss``.
Scoring dealt games (``guesser_success``) takes the item half from the
corpus tables, once per distinct guest print or utterance, then the games
128 at a time, one guest or word slot at a time, and keeps no activation.

Training is plain supervised cross-entropy on games with uniformly random
word sets, no policy involved.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, partial

import numpy as np

from . import neural
from .corpus import Corpus, check_fit, check_integer
from .neural import MlpSpec, ParamStore


CHUNK_GAMES = 4096      # games ``play_games`` deals, plays and scores at a time


class TrainingDiverged(RuntimeError):
    """Raised when a training loss goes non-finite."""


@dataclass(frozen=True)
class GuesserConfig:
    dim: int
    attn_hidden: int = 256
    score_hidden: int = 512
    dropout: float = 0.5

    def __post_init__(self):
        neural.check_dropout(self.dropout)

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
            neural.init_mlp(model.store, prefix, MlpSpec(2 * config.dim, hidden, 1), rng)
        return model

    def save(self, path) -> None:
        neural.save_params(path, self.store, "guesser", self.config.arch())

    @classmethod
    def load(cls, path) -> "GuesserModel":
        return cls(*neural.load_model(
            path, "guesser", GuesserConfig, lambda c: cls.init(c, np.random.default_rng(0)).store))


@dataclass
class GuesserActivations:
    """Everything the forward pass computed, batched over games.

    ``attn_weights`` rows sum to 1 and ``pooled`` is their convex
    combination of the uttered embeddings; ``probs`` rows sum to 1 over
    the K guests.  The two nets' caches are what ``guesser_loss`` runs
    back through; the attention cache's items are the utterances.
    """

    mean_guest: np.ndarray    # (B, D)
    attn_logits: np.ndarray   # (B, T)
    attn_weights: np.ndarray  # (B, T)
    pooled: np.ndarray        # (B, D)
    score_logits: np.ndarray  # (B, K)
    probs: np.ndarray         # (B, K)
    _attn_cache: object = None
    _score_cache: object = None


def mean_guest_prints(voice_prints: np.ndarray, guest_rows: np.ndarray) -> np.ndarray:
    """Each game's mean guest print, ``voice_prints[guest_rows].mean(axis=1)``
    bit for bit, gathered ``neural.PREDICT_BLOCK_ROWS`` games at a time: a
    game's mean reads only its own K rows, so no (B, K, D) gather is held."""
    means = np.empty((len(guest_rows), voice_prints.shape[1]))
    for start in range(0, len(guest_rows), neural.PREDICT_BLOCK_ROWS):
        block = guest_rows[start:start + neural.PREDICT_BLOCK_ROWS]
        voice_prints[block].mean(axis=1, out=means[start:start + len(block)])
    return means


@dataclass(frozen=True)
class Games:
    """A batch of dealt games: each game's guests as corpus rows, the
    target's column among them and the words the target uttered; the
    gathered ``guests`` (B, K, D) and ``uttered`` (B, T, D) and the
    ``mean_guest`` (B, D) are taken from the corpus on first use.  Scoring
    gathers neither ``guests`` nor ``uttered``: training and the cosine
    yardstick read them.  The three arrays must agree on B."""

    corpus: Corpus
    guest_rows: np.ndarray    # (B, K)
    targets: np.ndarray       # (B,) columns into guest_rows
    words: np.ndarray         # (B, T)

    def __post_init__(self):
        shapes = (self.guest_rows.shape, self.targets.shape, self.words.shape)
        if [len(shape) for shape in shapes] != [2, 1, 2] or len({s[0] for s in shapes}) > 1:
            raise ValueError(f"games of shapes {shapes[0]}, {shapes[1]} and {shapes[2]} are "
                             "not (B, K), (B,) and (B, T) for one B")
        if self.words.shape[1] < 1:
            raise ValueError(f"need at least one word per game, got {self.words.shape[1]}")
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
    def mean_guest(self) -> np.ndarray:
        return mean_guest_prints(self.corpus.voice_prints, self.guest_rows)

    @cached_property
    def uttered(self) -> np.ndarray:
        return self.corpus.utterances[self.target_rows[:, None], self.words]


def guesser_forward(model: GuesserModel, guests: np.ndarray, uttered: np.ndarray,
                    train: bool = False, rng: np.random.Generator | None = None
                    ) -> GuesserActivations:
    """Score guests given uttered embeddings.

    ``guests`` is (B, K, D) and ``uttered`` (B, T, D); a single game may be
    passed as (K, D) and (T, D) and comes back with a batch axis of one.
    Requires K >= 1 and T >= 1.  The activations keep both nets' caches for
    ``guesser_loss``, as a training pass does; dropout applies only with
    ``train``.  Dealt games are scored without these arrays or caches by
    ``guesser_success``, as ``evaluate_guesser`` does.
    """
    guests = np.asarray(guests, dtype=np.float64)
    uttered = np.asarray(uttered, dtype=np.float64)
    neural.check_game_shapes(guests, model.config.dim,
                             uttered=(uttered, ("T", model.config.dim)))
    if guests.ndim == 2:
        guests, uttered = guests[None], uttered[None]
    if uttered.shape[1] < 1:
        raise ValueError("need at least one uttered word")
    return _forward(model, (guests, None), (uttered, None), guests.mean(axis=1), train, rng)


def _forward(model: GuesserModel, guests: tuple, uttered: tuple, mean_guest: np.ndarray,
             train: bool = False, rng: np.random.Generator | None = None
             ) -> GuesserActivations:
    # ``guests`` and ``uttered`` are each net's (items, rows) for
    # ``neural.pair_forward``: (B, N, D) arrays and None, a cached pass, or
    # an (R, D) table and (B, N) rows into it, an eval pass
    (guest_items, guest_rows), (utter_items, utter_rows) = guests, uttered
    dropout = model.config.dropout if train else 0.0
    attn_logits, attn_cache = neural.pair_forward(
        model.store, "attn", utter_items, mean_guest, dropout=dropout, rng=rng, rows=utter_rows)
    attn_weights = neural.softmax(attn_logits)
    pooled = np.empty(mean_guest.shape)
    for start in range(0, len(pooled), neural.PREDICT_BLOCK_ROWS):   # a block of games at a time
        block = slice(start, start + neural.PREDICT_BLOCK_ROWS)
        items = utter_items[block] if utter_rows is None else utter_items[utter_rows[block]]
        pooled[block] = np.einsum("bt,btd->bd", attn_weights[block], items)

    score_logits, score_cache = neural.pair_forward(
        model.store, "score", guest_items, pooled, dropout=dropout, rng=rng, rows=guest_rows)
    return GuesserActivations(
        mean_guest=mean_guest, attn_logits=attn_logits, attn_weights=attn_weights,
        pooled=pooled, score_logits=score_logits, probs=neural.softmax(score_logits),
        _attn_cache=attn_cache, _score_cache=score_cache)


def guesser_loss(model: GuesserModel, acts: GuesserActivations, targets) -> float:
    """Mean cross-entropy at the target guests; accumulates parameter grads.

    The backward pass runs through the score net, the attention pooling
    and the attention net, on the caches ``guesser_forward`` kept.
    """
    targets = np.atleast_1d(np.asarray(targets))
    b, t = acts.attn_weights.shape
    losses, dlogits = neural.softmax_cross_entropy(acts.score_logits, targets)
    dlogits /= b

    dpooled = neural.pair_backward(model.store, "score", acts._score_cache, dlogits,
                                   context_grad=True)                   # (B, D)
    uttered = acts._attn_cache.items.reshape(b, t, -1)
    dalpha = np.einsum("bd,btd->bt", dpooled, uttered)
    de = acts.attn_weights * (dalpha - (acts.attn_weights * dalpha).sum(axis=1, keepdims=True))
    neural.pair_backward(model.store, "attn", acts._attn_cache, de)
    return float(losses.mean())


def sample_game_batch(corpus: Corpus, n_games: int, n_guests: int,
                      rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform guests without replacement plus a uniform target per game.

    Returns guest row indices (n_games, K) into the corpus arrays and the
    target column (n_games,) into each guest row.  This is the one dealer:
    batched evaluation, rollouts and the single-game ``game.new_game`` all
    deal through it.
    """
    if n_guests < 1:
        raise ValueError(f"need at least one guest per game, got {n_guests}")
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
    if n_words < 1:
        raise ValueError(f"n_words must be at least 1, got {n_words}")
    if n_words > pool.size:
        raise ValueError(f"cannot draw {n_words} distinct words from a pool of {pool.size}")
    keys = rng.random((n_games, pool.size))
    picks = np.argsort(keys, axis=1)[:, :n_words]
    return pool[picks]


@dataclass(frozen=True)
class Played:
    """Seeded games as played, in order: the dealt ``games`` and each
    game's 0/1 ``success``, from which the success rate, its binomial
    stderr and the (n_games, T) words played are read."""

    games: Games
    success: np.ndarray       # (n_games,)

    @property
    def success_rate(self) -> float:
        return int(self.success.sum()) / len(self.success)

    @property
    def stderr(self) -> float:
        return float(np.sqrt(self.success_rate * (1.0 - self.success_rate) / len(self.success)))

    @property
    def word_tuples(self) -> np.ndarray:
        return self.games.words


def play_games(corpus: Corpus, n_guests: int, n_games: int, policy, scorer,
               rng: np.random.Generator) -> Played:
    """Deal, play and score ``n_games`` seeded games, ``CHUNK_GAMES`` at a
    time (another size would deal other games).

    Per chunk the games are dealt from ``rng``, then ``policy(guest_rows,
    targets, rng)`` returns each game's (b, T) word ids and ``scorer(games)``
    the 0/1 successes of those ``Games``.  Returns the ``Played`` record of
    every game; it holds the dealt rows, targets and words but nothing the
    scorer gathered from the corpus.
    """
    if n_games < 1:
        raise ValueError(f"need at least one game to score, got {n_games}")
    dealt, success = [], []
    for start in range(0, n_games, CHUNK_GAMES):
        guest_rows, targets = sample_game_batch(
            corpus, min(CHUNK_GAMES, n_games - start), n_guests, rng)
        games = Games(corpus, guest_rows, targets, policy(guest_rows, targets, rng))
        success.append(scorer(games))
        dealt.append((guest_rows, targets, games.words))
    return Played(Games(corpus, *map(np.concatenate, zip(*dealt))), np.concatenate(success))


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
    valid_games: int = 10_000
    eval_every: int = 10          # batches between validation points
    seed: int = 0

    def __post_init__(self):
        neural.check_counts(self, "n_guests", "word_budget", "batch_size", "n_games",
                            "valid_games", "eval_every")
        neural.check_positive("lr", self.lr)
        neural.check_dropout(self.dropout)


def train_guesser(corpus_train: Corpus, corpus_valid: Corpus,
                  config: GuesserTrainConfig) -> tuple[GuesserModel, list[dict]]:
    """Supervised training on freshly sampled random-word games.

    Returns the model and a curve of dicts with exactly the keys epoch,
    games_seen, train_loss and valid_accuracy.  Validation always runs on
    the same seeded held-out games so curves are comparable across runs.

    One batch is alive at a time: its games, their gathered guests and
    utterances and the two nets' activations are released before the next
    batch is dealt or the validation games are played.  ``pair_backward``
    works in the activations, so a step holds no other batch-sized array.
    """
    if corpus_train.dimension != corpus_valid.dimension:
        raise ValueError("train and validation corpora disagree on dimension")
    if corpus_train.vocab != corpus_valid.vocab:
        raise ValueError("train and validation corpora disagree on vocabulary")
    rng = np.random.default_rng(config.seed)
    model = GuesserModel.init(
        GuesserConfig(dim=corpus_train.dimension, dropout=config.dropout), rng)

    vocab = np.arange(corpus_train.vocab_size)
    n_batches = max(1, int(np.ceil(config.n_games / config.batch_size)))
    curve: list[dict] = []
    losses_since_eval: list[float] = []
    games_seen = 0

    def record(epoch: int) -> None:
        acc, _ = evaluate_guesser(model, corpus_valid, config.n_guests,
                                  config.word_budget, "random",
                                  config.valid_games, seed=config.seed + 1)
        curve.append({"epoch": epoch, "games_seen": games_seen,
                      "train_loss": float(np.mean(losses_since_eval)) if losses_since_eval else float("nan"),
                      "valid_accuracy": acc})
        losses_since_eval.clear()

    def step(b: int) -> float:
        # one batch's deal, forward and backward, whose arrays die on return
        guest_rows, targets = sample_game_batch(corpus_train, b, config.n_guests, rng)
        games = Games(corpus_train, guest_rows, targets,
                      sample_word_subsets(rng, b, vocab, config.word_budget))
        acts = guesser_forward(model, games.guests, games.uttered, train=True, rng=rng)
        return guesser_loss(model, acts, targets)

    for batch_idx in range(n_batches):
        b = min(config.batch_size, config.n_games - games_seen)
        loss = step(b)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"non-finite loss {loss} at batch {batch_idx} "
                f"({games_seen} games seen, lr={config.lr})")
        neural.adam_step(model.store, config.lr)
        games_seen += b
        losses_since_eval.append(loss)
        if (batch_idx + 1) % config.eval_every == 0:
            record(len(curve) + 1)
    if not curve or curve[-1]["games_seen"] != games_seen:
        record(len(curve) + 1)
    return model, curve


def evaluate_guesser(model: GuesserModel, corpus: Corpus, n_guests: int,
                     n_words: int, word_policy, n_games: int, seed: int) -> tuple[float, float]:
    """Mean terminal success and binomial stderr over seeded games.

    ``word_policy`` is "random" or a fixed pool of distinct integer word ids
    in [0, V) to draw from (used exactly when its length equals the budget).
    """
    played = evaluate_guesser_words(model, corpus, n_guests, n_words, word_policy, n_games,
                                    seed)
    return played.success_rate, played.stderr


def evaluate_guesser_words(model: GuesserModel, corpus: Corpus, n_guests: int,
                           n_words: int, word_policy, n_games: int, seed: int) -> Played:
    """The ``Played`` record of ``evaluate_guesser``'s games."""
    if not isinstance(word_policy, (str, list, tuple, np.ndarray)):
        raise TypeError(f"unsupported word policy: {word_policy!r}")
    if isinstance(word_policy, str) and word_policy != "random":
        raise ValueError(f"unknown word policy {word_policy!r}")
    v = corpus.vocab_size
    if isinstance(word_policy, str):
        pool = np.arange(v)
    else:
        # np.asarray(..., dtype=int) would read True as 1, "7" as 7 and truncate 1.7 to 1
        is_array = isinstance(word_policy, np.ndarray)
        for entry in np.atleast_1d(word_policy).tolist() if is_array else word_policy:
            check_integer(entry, "word id")
        pool = np.asarray(word_policy, dtype=int)
    outside = pool[(pool < 0) | (pool >= v)]
    if outside.size:
        raise ValueError(f"word id {outside[0]} in the word pool is outside [0, {v})")
    ids, counts = np.unique(pool, return_counts=True)
    if (counts > 1).any():
        raise ValueError(f"word id {ids[counts > 1][0]} is repeated in the word pool")
    return play_games(corpus, n_guests, n_games, word_pool_policy(pool, n_words),
                      partial(guesser_success, model), np.random.default_rng(seed))


def guesser_success(model: GuesserModel, games: Games) -> np.ndarray:
    """Batched 0/1 indicator of argmax matching the target (eval mode),
    scored from the corpus tables the games were dealt from: each net's
    item products are taken once per distinct guest print or utterance,
    and neither the (B, K, D) guests nor the (B, T, D) utterances are
    gathered."""
    corpus = games.corpus
    check_fit("guesser", model.config, corpus)
    cells = games.target_rows[:, None] * corpus.vocab_size + games.words
    probs = _forward(model, (corpus.voice_prints, games.guest_rows),
                     (corpus.utterances.reshape(-1, corpus.dimension), cells),
                     games.mean_guest).probs
    return (np.argmax(probs, axis=1) == games.targets).astype(np.float64)
