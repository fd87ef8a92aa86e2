"""Word-selection policy and its PPO trainer.

The policy encodes the uttered-so-far embeddings with a bidirectional LSTM
(a learned start token stands in at turn zero), concatenates the last
hidden state with the mean guest print, and maps that through two heads:
a softmax over the vocabulary and a scalar value baseline.  Words already
requested in a game are masked to exactly zero probability, during
training as well as evaluation.

At turn t the trunk is the forward state after ``[start, u_0..u_{t-1}]``,
the backward direction's one step from the zero state on the newest
input, and the mean guest print, so one forward sweep over an episode
yields every turn's trunk: games carry the forward state from turn to
turn, and a PPO minibatch sweeps each sampled episode once (T cell steps
where re-encoding each prefix took T(T+1)/2).  The steps from the zero
state (the backward direction's one step, the forward direction's
start-token step and a game's turn 0) multiply only the input rows of the
LSTM weights.

Training maximizes the clipped PPO surrogate plus an entropy bonus minus
a value regression term, with GAE advantages and a single Adam step with
global-norm clipping per minibatch.  The terminal reward of an episode is
whether a frozen guesser picks the target from the collected utterances.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, fields
from functools import partial

import numpy as np

from . import neural
from .corpus import Corpus
from .guesser import Games, GuesserModel, guesser_success, play_games, sample_game_batch
from .neural import BiLstmSpec, MlpSpec, ParamStore


class RewardCollapse(RuntimeError):
    """Raised when every episode in a long trailing window scored zero."""


@dataclass(frozen=True)
class EnquirerConfig:
    dim: int
    vocab_size: int
    lstm_hidden: int = 128
    policy_hidden: int = 256
    value_hidden: int = 256

    def arch(self) -> dict:
        return {"model": "enquirer", **asdict(self)}


class EnquirerModel:
    """Start token, biLSTM trunk, and the policy and value heads."""

    def __init__(self, config: EnquirerConfig, store: ParamStore | None = None):
        self.config = config
        trunk_width = 2 * config.lstm_hidden + config.dim
        self.lstm_spec = BiLstmSpec(config.dim, config.lstm_hidden)
        self.policy_spec = MlpSpec(trunk_width, (config.policy_hidden,), config.vocab_size)
        self.value_spec = MlpSpec(trunk_width, (config.value_hidden,), 1)
        self.store = store if store is not None else ParamStore()

    @classmethod
    def init(cls, config: EnquirerConfig, rng: np.random.Generator) -> "EnquirerModel":
        model = cls(config)
        model.store.add("start", neural.uniform_fan_in(rng, config.dim, (config.dim,)))
        neural.init_bilstm(model.store, "lstm", model.lstm_spec, rng)
        neural.init_mlp(model.store, "policy", model.policy_spec, rng)
        neural.init_mlp(model.store, "value", model.value_spec, rng)
        return model

    def save(self, path) -> None:
        neural.save_params(path, self.store, "enquirer", self.config.arch())

    @classmethod
    def load(cls, path) -> "EnquirerModel":
        store, kind, arch = neural.load_params(path)
        if kind != "enquirer":
            raise ValueError(f"checkpoint holds a {kind!r} model, not an enquirer")
        config = EnquirerConfig(**{f.name: arch[f.name] for f in fields(EnquirerConfig)})
        neural.check_params(store, cls.init(config, np.random.default_rng(0)).store)
        return cls(config, store)


@dataclass
class EnquirerOutput:
    probs: np.ndarray       # (B, V), masked entries exactly 0
    log_probs: np.ndarray   # (B, V), masked entries -inf
    value: np.ndarray       # (B,)
    _lstm_cache: object = None
    _policy_cache: object = None
    _value_cache: object = None
    _mask: np.ndarray = None


def _heads(model: EnquirerModel, h_forward: np.ndarray, newest: np.ndarray,
           mean_guest: np.ndarray, mask: np.ndarray, lstm_cache=()) -> EnquirerOutput:
    """Policy and value from the trunk at a turn, given the forward state
    there and the newest input, on which the backward direction steps."""
    store = model.store
    h_backward, steps_b = neural.lstm_forward(store.values["lstm/Wb"], store.values["lstm/bb"],
                                              newest[:, None], [0], model.config.lstm_hidden)
    trunk = np.concatenate([h_forward, h_backward[:, 0], mean_guest], axis=1)
    logits, policy_cache = neural.mlp_forward(store, "policy", model.policy_spec, trunk)
    value, value_cache = neural.mlp_forward(store, "value", model.value_spec, trunk)
    log_probs = neural.masked_log_softmax(logits, mask)
    return EnquirerOutput(probs=np.exp(log_probs), log_probs=log_probs, value=value[:, 0],
                          _lstm_cache=(*lstm_cache, steps_b), _policy_cache=policy_cache,
                          _value_cache=value_cache, _mask=mask)


def _policy_pass(model: EnquirerModel, mean_guest: np.ndarray, uttered: np.ndarray,
                 mask: np.ndarray, rows: np.ndarray, turns: np.ndarray) -> EnquirerOutput:
    """Outputs at turn ``turns[k]`` (-1 is the last) of sequence ``rows[k]``
    for each k, from one forward sweep over the start token and ``uttered``
    (E, L-1, D).  ``mean_guest`` is (E, D); no (row, turn) pair may repeat."""
    inputs = neural.bilstm_inputs(model.lstm_spec, uttered, model.store.values["start"])
    states_f, steps_f = neural.lstm_forward(
        model.store.values["lstm/Wf"], model.store.values["lstm/bf"], inputs,
        range(inputs.shape[1]), model.config.lstm_hidden)
    return _heads(model, states_f[rows, turns], inputs[rows, turns], mean_guest[rows], mask,
                  (inputs.shape, rows, turns, steps_f))


def _forward_core(model: EnquirerModel, mean_guest: np.ndarray, uttered: np.ndarray,
                  mask: np.ndarray) -> EnquirerOutput:
    b = len(mask)
    return _policy_pass(model, mean_guest, uttered, mask, np.arange(b), np.full(b, -1))


def enquirer_forward(model: EnquirerModel, guests: np.ndarray, uttered: np.ndarray,
                     mask: np.ndarray) -> EnquirerOutput:
    """Action distribution and value for a batch of game prefixes.

    ``guests`` is (B, K, D), ``uttered`` (B, t, D) with t >= 0 utterances
    so far, ``mask`` (B, V) boolean marking words already requested.  A
    single game may be passed unbatched as (K, D), (t, D), (V,).
    """
    guests = np.asarray(guests, dtype=np.float64)
    uttered = np.asarray(uttered, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    if guests.ndim == 2:
        guests, uttered, mask = guests[None], uttered[None], mask[None]
    if mask.shape[1] != model.config.vocab_size:
        raise ValueError(f"mask width {mask.shape[1]} != vocabulary {model.config.vocab_size}")
    return _forward_core(model, guests.mean(axis=1), uttered, mask)


def _backward_core(model: EnquirerModel, out: EnquirerOutput,
                   dlogits: np.ndarray, dvalue: np.ndarray) -> None:
    # Masked logits were replaced by -inf before the softmax, so no
    # gradient may flow back into the policy net at masked positions.
    dlogits = np.where(out._mask, 0.0, dlogits)
    dtrunk = neural.mlp_backward(model.store, "policy", model.policy_spec,
                                 out._policy_cache, dlogits)
    dtrunk += neural.mlp_backward(model.store, "value", model.value_spec,
                                  out._value_cache, dvalue[:, None])
    (e, length, _), rows, turns, steps_f, steps_b = out._lstm_cache
    store, hidden = model.store, model.config.lstm_hidden
    d_states = np.zeros((e, length, hidden))
    d_states[rows, turns] = dtrunk[:, :hidden]
    d_inputs = neural.lstm_backward(store, "lstm/Wf", "lstm/bf", steps_f, d_states, hidden)
    # at turn 0 the backward direction's one step also reads the start token
    d_inputs[rows, turns] += neural.lstm_backward(
        store, "lstm/Wb", "lstm/bb", steps_b, dtrunk[:, None, hidden:2 * hidden], hidden)[:, 0]
    store.grads["start"] += d_inputs[:, 0].sum(axis=0)


def sample_actions(probs: np.ndarray, mode: str, rng: np.random.Generator | None = None) -> np.ndarray:
    """Select one word per row: categorical in explore mode, argmax in greedy.

    Zero-probability (masked) words are never selected in either mode.
    """
    probs = np.asarray(probs, dtype=np.float64)
    squeeze = probs.ndim == 1
    if squeeze:
        probs = probs[None]
    if not np.all(np.isfinite(probs)) or np.any(probs < 0.0):
        raise ValueError("invalid action distribution")
    totals = probs.sum(axis=1)
    if np.any(totals <= 0.0):
        raise ValueError("degenerate all-zero action distribution")
    if mode == "greedy":
        actions = np.argmax(probs, axis=1)
    elif mode == "explore":
        if rng is None:
            raise ValueError("explore mode requires an rng")
        cum = np.cumsum(probs, axis=1)
        cum /= cum[:, -1:]
        r = rng.random(probs.shape[0])
        actions = np.sum(cum <= r[:, None], axis=1)
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    return int(actions[0]) if squeeze else actions


def compute_gae(rewards: np.ndarray, values: np.ndarray, gamma: float,
                lam: float) -> tuple[np.ndarray, np.ndarray]:
    """Generalized advantage estimates and value targets.

    Accepts (T,) vectors or (E, T) batches.  The post-terminal bootstrap
    value is zero, so ``delta_t = r_t + gamma * V_{t+1} - V_t`` with
    ``V_T = 0`` and ``A_t = sum_l (gamma * lam)^l delta_{t+l}``; returns
    are ``A_t + V_t``.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    squeeze = rewards.ndim == 1
    if squeeze:
        rewards, values = rewards[None], values[None]
    e, t = rewards.shape
    next_values = np.concatenate([values[:, 1:], np.zeros((e, 1))], axis=1)
    deltas = rewards + gamma * next_values - values
    advantages = np.zeros_like(deltas)
    carry = np.zeros(e)
    for step in range(t - 1, -1, -1):
        carry = deltas[:, step] + gamma * lam * carry
        advantages[:, step] = carry
    returns = advantages + values
    if squeeze:
        return advantages[0], returns[0]
    return advantages, returns


@dataclass(frozen=True)
class PpoConfig:
    gamma: float = 0.9
    gae_lambda: float = 0.95
    clip: float = 0.2
    entropy_coef: float = 0.01
    value_coef: float = 0.5
    lr: float = 5e-3
    grad_clip: float = 1.0
    episodes: int = 80_000
    horizon: int = 1024           # transitions collected per update round
    update_batches: int = 4
    update_batch_size: int = 512
    word_budget: int = 3
    n_guests: int = 5
    collapse_patience: int = 5000
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gamma and gae_lambda must be in [0, 1]")
        if self.clip <= 0.0:
            raise ValueError("clip must be positive")
        neural.check_counts(self, "episodes", "horizon", "update_batches",
                            "update_batch_size", "word_budget", "n_guests",
                            "collapse_patience")


def ppo_update(model: EnquirerModel, games: _PlayedGames, idx: np.ndarray,
               config: PpoConfig) -> dict:
    """One clipped-surrogate update on the rollout transitions ``idx``.

    Transition ``i`` of the (E, T) rollout is turn ``i % T`` of episode
    ``i // T``.  One forward sweep over each sampled episode serves all of
    its sampled turns, and one backward pass returns through it.
    Advantages are normalized to zero mean and unit variance within the
    minibatch.  The objective is max E[min(ratio * A, clip(ratio) * A)]
    plus an entropy bonus minus the value regression term; one Adam step
    with global-norm clipping applies the combined gradient.
    """
    n, t_max = len(idx), games.actions.shape[1]
    episodes, turns = np.divmod(idx, t_max)
    actions = games.actions[episodes, turns]
    adv = games.advantages[episodes, turns]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    played, rows = np.unique(episodes, return_inverse=True)
    out = _policy_pass(model, games.mean_guest[played], games.uttered[played, :t_max - 1],
                       games.masks[episodes, turns], rows, turns)
    sel = np.arange(n)
    new_log_probs = out.log_probs[sel, actions]
    entropies = neural.categorical_entropy(out.probs, out.log_probs)

    ratios = np.exp(new_log_probs - games.log_probs[episodes, turns])
    if not np.all(np.isfinite(ratios)):
        bad = int(np.flatnonzero(~np.isfinite(ratios))[0])
        raise RuntimeError(
            f"non-finite PPO ratio at transition {bad} "
            f"(turn {int(turns[bad])}, action {int(actions[bad])})")
    surrogate = np.minimum(ratios * adv, np.clip(ratios, 1.0 - config.clip,
                                                 1.0 + config.clip) * adv)
    value_err = out.value - games.returns[episodes, turns]

    # d(surrogate)/d(ratio) is the advantage wherever the unclipped branch
    # is active, zero on the flat clipped branch.
    active = np.where(adv >= 0.0, ratios <= 1.0 + config.clip,
                      ratios >= 1.0 - config.clip)
    d_logp = -(adv * ratios * active) / n
    d_value = 2.0 * config.value_coef * value_err / n

    one_hot = np.zeros_like(out.probs)
    one_hot[sel, actions] = 1.0
    dlogits = d_logp[:, None] * (one_hot - out.probs)
    safe_logp = np.where(out.probs > 0.0, out.log_probs, 0.0)
    dlogits += (config.entropy_coef / n) * out.probs * (safe_logp + entropies[:, None])
    _backward_core(model, out, dlogits, d_value)
    neural.adam_step(model.store, config.lr, clip_norm=config.grad_clip)

    return {"policy_loss": float(-surrogate.mean()),
            "value_loss": float(np.mean(value_err ** 2)),
            "entropy": float(entropies.mean()),
            "mean_ratio": float(ratios.mean())}


@dataclass
class _PlayedGames:
    """A batch of games played to the word budget, with each turn's record."""

    mean_guest: np.ndarray   # (B, D)
    uttered: np.ndarray      # (B, T, D)
    masks: np.ndarray        # (B, T, V) words already requested before each turn
    actions: np.ndarray      # (B, T)
    log_probs: np.ndarray    # (B, T) of the chosen words
    values: np.ndarray       # (B, T)
    advantages: np.ndarray | None = None   # (B, T) GAE, set by a training rollout
    returns: np.ndarray | None = None      # (B, T) value targets, likewise


def _play_games(model: EnquirerModel, corpus: Corpus, guest_rows: np.ndarray,
                targets: np.ndarray, word_budget: int, mode: str,
                rng: np.random.Generator) -> _PlayedGames:
    """Play the dealt games with the policy; explore mode draws from ``rng``.

    Each turn costs two LSTM cell steps: the forward direction's state is
    carried from turn to turn, and ``_heads`` adds the backward
    direction's one step on the newest input.  The outputs are those of
    ``_policy_pass`` on each turn's whole prefix.
    """
    b, t_max, v = len(targets), word_budget, corpus.vocab_size
    target_rows = guest_rows[np.arange(b), targets]
    mean_guest = corpus.voice_prints[guest_rows].mean(axis=1)

    store, hidden = model.store, model.config.lstm_hidden
    w_f, b_f = store.values["lstm/Wf"], store.values["lstm/bf"]
    h = c = None    # the zero state
    x = np.broadcast_to(store.values["start"], (b, corpus.dimension))

    rows = np.arange(b)
    uttered = np.zeros((b, t_max, corpus.dimension))
    masks = np.zeros((b, t_max, v), dtype=bool)
    actions = np.zeros((b, t_max), dtype=np.int64)
    log_probs = np.zeros((b, t_max))
    values = np.zeros((b, t_max))
    mask_now = np.zeros((b, v), dtype=bool)
    for turn in range(t_max):
        h, c, _ = neural.lstm_cell(w_f, b_f, x, h, c, hidden)
        masks[:, turn] = mask_now
        out = _heads(model, h, x, mean_guest, mask_now)
        acts = sample_actions(out.probs, mode, rng)
        actions[:, turn] = acts
        log_probs[:, turn] = out.log_probs[rows, acts]
        values[:, turn] = out.value
        mask_now[rows, acts] = True
        x = uttered[:, turn] = corpus.utterances[target_rows, acts]
    return _PlayedGames(mean_guest, uttered, masks, actions, log_probs, values)


def _collect_rollout(model: EnquirerModel, corpus: Corpus, n_episodes: int,
                     config: PpoConfig, rng: np.random.Generator,
                     reward_fn) -> tuple[_PlayedGames, np.ndarray]:
    e, t_max = n_episodes, config.word_budget
    guest_rows, targets = sample_game_batch(corpus, e, config.n_guests, rng)
    games = _play_games(model, corpus, guest_rows, targets, t_max, "explore", rng)
    episode_rewards = np.asarray(
        reward_fn(Games(corpus, guest_rows, targets, games.actions)), dtype=np.float64)
    rewards = np.zeros((e, t_max))
    rewards[:, -1] = episode_rewards
    games.advantages, games.returns = compute_gae(rewards, games.values, config.gamma,
                                                  config.gae_lambda)
    return games, episode_rewards


def train_enquirer(guesser: GuesserModel | None, corpus: Corpus, config: PpoConfig,
                   reward_fn=None) -> tuple[EnquirerModel, list[dict]]:
    """PPO training against a frozen guesser (or a custom reward).

    ``reward_fn(games)`` gets a round's played episodes as ``Games``, the
    requested words as ``words``, and returns their (E,) terminal rewards;
    the default is ``guesser_success`` of the guesser.  Episodes are rolled
    out in explore mode; whenever ``horizon`` transitions have accumulated,
    ``update_batches`` minibatches of ``update_batch_size`` transitions are
    drawn and applied.  Returns the model and a curve of dicts (episode,
    moving_avg_reward, entropy, value_loss, policy_loss); the moving average
    covers the trailing 1000 episodes.  Raises RewardCollapse after
    ``collapse_patience`` consecutive zero-reward episodes.
    """
    if reward_fn is None:
        if guesser is None:
            raise ValueError("need a guesser or an explicit reward_fn")
        reward_fn = partial(guesser_success, guesser)
    rng = np.random.default_rng(config.seed)
    model = EnquirerModel.init(
        EnquirerConfig(dim=corpus.dimension, vocab_size=corpus.vocab_size), rng)

    episodes_per_round = max(1, int(np.ceil(config.horizon / config.word_budget)))
    curve: list[dict] = []
    reward_history: list[float] = []
    zero_run = 0
    episodes_done = 0
    start = time.perf_counter()
    while episodes_done < config.episodes:
        n_episodes = min(episodes_per_round, config.episodes - episodes_done)
        games, episode_rewards = _collect_rollout(
            model, corpus, n_episodes, config, rng, reward_fn)
        episodes_done += n_episodes
        reward_history.extend(episode_rewards.tolist())

        nonzero = np.flatnonzero(episode_rewards)
        zero_run = (zero_run + n_episodes if nonzero.size == 0
                    else n_episodes - 1 - int(nonzero[-1]))
        if zero_run >= config.collapse_patience:
            raise RewardCollapse(
                f"no reward in the last {zero_run} episodes "
                f"({episodes_done} played, lr={config.lr}, clip={config.clip})")

        stats = []
        n_transitions = games.actions.size
        for _ in range(config.update_batches):
            size = min(config.update_batch_size, n_transitions)
            idx = rng.choice(n_transitions, size=size, replace=False)
            stats.append(ppo_update(model, games, idx, config))
        window = reward_history[-1000:]
        curve.append({"episode": episodes_done,
                      "moving_avg_reward": float(np.mean(window)),
                      "entropy": float(np.mean([s["entropy"] for s in stats])),
                      "value_loss": float(np.mean([s["value_loss"] for s in stats])),
                      "policy_loss": float(np.mean([s["policy_loss"] for s in stats]))})
    if curve:
        curve[-1]["wall_time_s"] = time.perf_counter() - start
    return model, curve


@dataclass
class EnquirerEvalResult:
    success_rate: float
    stderr: float
    word_tuples: np.ndarray   # (n_games, T) requested word ids in order


def evaluate_enquirer(enquirer: EnquirerModel, guesser: GuesserModel, corpus: Corpus,
                      n_guests: int, word_budget: int, n_games: int, seed: int,
                      chunk: int = 4096) -> EnquirerEvalResult:
    """Greedy no-replacement rollouts scored by the guesser.

    Also returns the per-game requested word tuples, which feed the
    diversity index.
    """
    def greedy(guest_rows, targets, rng):
        return _play_games(enquirer, corpus, guest_rows, targets, word_budget, "greedy",
                           rng).actions

    rate, stderr, tuples = play_games(corpus, n_guests, n_games, greedy,
                                      partial(guesser_success, guesser),
                                      np.random.default_rng(seed), chunk)
    return EnquirerEvalResult(success_rate=rate, stderr=stderr, word_tuples=tuples)
