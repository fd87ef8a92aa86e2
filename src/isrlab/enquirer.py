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
turn, and a PPO minibatch sweeps each sampled episode once, to its last
sampled turn.  Steps from the zero state multiply only the input rows of
the LSTM weights, and the steps no game's state enters are taken once:
each direction's start-token step on one row, in play and in the update,
and in play each later turn's backward steps on a table of the distinct
(speaker, word) cells requested.  Played games go turn by turn in blocks
of 256 games.  The update forms no input gradient for an utterance,
which is data; only the start token's reaches a parameter.

Training maximizes the clipped PPO surrogate plus an entropy bonus minus
a value regression term, with GAE advantages and a single Adam step with
global-norm clipping per minibatch.  The terminal reward of an episode is
whether a frozen guesser picks the target from the collected utterances.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from . import neural
from .corpus import Corpus, check_fit
from .guesser import (Games, GuesserModel, Played, guesser_success, mean_guest_prints,
                      play_games, sample_game_batch)
from .neural import BiLstmSpec, MlpSpec, ParamStore


COLLAPSE_PATIENCE = 5000    # zero-reward episodes in a row that raise RewardCollapse


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
        self.policy_spec = MlpSpec(trunk_width, config.policy_hidden, config.vocab_size)
        self.value_spec = MlpSpec(trunk_width, config.value_hidden, 1)
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
        return cls(*neural.load_model(
            path, "enquirer", EnquirerConfig, lambda c: cls.init(c, np.random.default_rng(0)).store))


@dataclass
class EnquirerOutput:
    probs: np.ndarray       # (B, V), masked entries exactly 0
    log_probs: np.ndarray   # (B, V), masked entries -inf
    value: np.ndarray       # (B,)
    _lstm_cache: object = None
    _policy_cache: object = None
    _value_cache: object = None
    _mask: np.ndarray = None


def _heads(model: EnquirerModel, h_forward: np.ndarray, h_backward: np.ndarray,
           mean_guest: np.ndarray, mask: np.ndarray, lstm_cache=None) -> EnquirerOutput:
    """Policy and value from the trunk at a turn: the two directions'
    states there and the mean guest print.  Given the LSTM's
    ``lstm_cache``, the output keeps the caches ``_backward_core`` reads;
    without it, none."""
    store = model.store
    trunk = np.concatenate([h_forward, h_backward, mean_guest], axis=1)
    logits, policy_cache = neural.mlp_forward(store, "policy", model.policy_spec, trunk)
    value, value_cache = neural.mlp_forward(store, "value", model.value_spec, trunk)
    log_probs = neural.masked_log_softmax(logits, mask)
    out = EnquirerOutput(probs=np.exp(log_probs), log_probs=log_probs, value=value[:, 0])
    if lstm_cache is not None:
        out._lstm_cache, out._policy_cache, out._value_cache, out._mask = (
            lstm_cache, policy_cache, value_cache, mask)
    return out


def _start_step(model: EnquirerModel, tag: str) -> tuple:
    """``lstm_cell``'s ``(h, c, step)`` for direction ``tag``'s ("f" or "b")
    step from the zero state on the start token, one row for every game."""
    store = model.store
    return neural.lstm_cell(store.values[f"lstm/W{tag}"], store.values[f"lstm/b{tag}"],
                            store.values["start"][None], None, None, model.config.lstm_hidden)


def _policy_pass(model: EnquirerModel, mean_guest: np.ndarray, uttered: np.ndarray,
                 mask: np.ndarray, rows: np.ndarray, turns: np.ndarray) -> EnquirerOutput:
    """Outputs at turn ``turns[k]`` (-1 is the last) of sequence ``rows[k]``
    for each k, from the start token and ``uttered`` (E, L-1, D);
    ``mean_guest`` is (E, D) and no (row, turn) pair may repeat.

    Each direction steps the start token once.  The forward direction
    sweeps each sequence to its last requested turn, ordered by that turn,
    latest first, so those still stepping are a leading slice (the order
    is the given one when every turn is the last).  At one BLAS thread the
    outputs are those of full sweeps over every sequence.
    """
    store, hidden = model.store, model.config.lstm_hidden
    e, length = uttered.shape[0], uttered.shape[1] + 1
    turns = turns % length
    guest = mean_guest[rows]
    if turns.min() == length - 1:
        active = [e] * (length - 1)
    else:
        last = np.zeros(e, dtype=np.intp)
        np.maximum.at(last, rows, turns)
        order = np.argsort(-last, kind="stable")
        rows, uttered = np.argsort(order)[rows], uttered[order]
        active = [np.count_nonzero(last >= pos) for pos in range(1, last.max() + 1)]
    h, c, start_f = _start_step(model, "f")
    h, c = h.repeat(e, axis=0), c.repeat(e, axis=0)
    states = np.empty((e, length, hidden))
    states[:, 0] = h
    steps_f = []
    for pos, n in enumerate(active, 1):
        h, c, step = neural.lstm_cell(store.values["lstm/Wf"], store.values["lstm/bf"],
                                      uttered[:n, pos - 1], h[:n], c[:n], hidden)
        states[:n, pos] = h
        steps_f.append(step)
    # the backward direction's one step: on the start token once, for every
    # turn 0, and on each later turn's newest utterance
    later = np.flatnonzero(turns)
    h_backward = np.empty((len(turns), hidden))
    start_b = step_b = None
    if len(later) < len(turns):
        h_backward[turns == 0], _, start_b = _start_step(model, "b")
    if len(later):
        h_backward[later], _, step_b = neural.lstm_cell(
            store.values["lstm/Wb"], store.values["lstm/bb"],
            uttered[rows[later], turns[later] - 1], None, None, hidden)
    return _heads(model, states[rows, turns], h_backward, guest, mask,
                  (states.shape, rows, turns, start_f, steps_f, start_b, step_b))


def enquirer_forward(model: EnquirerModel, guests: np.ndarray, uttered: np.ndarray,
                     mask: np.ndarray) -> EnquirerOutput:
    """Action distribution and value for a batch of game prefixes, with
    the caches ``_backward_core`` reads.

    ``guests`` is (B, K, D) with K >= 1, ``uttered`` (B, t, D) with t >= 0
    utterances so far, ``mask`` (B, V) boolean marking words already
    requested.  A single game may be passed unbatched as (K, D), (t, D), (V,).
    """
    guests = np.asarray(guests, dtype=np.float64)
    uttered = np.asarray(uttered, dtype=np.float64)
    mask = np.asarray(mask, dtype=bool)
    neural.check_game_shapes(guests, model.config.dim,
                             uttered=(uttered, ("t", model.config.dim)),
                             mask=(mask, (model.config.vocab_size,)))
    if guests.ndim == 2:
        guests, uttered, mask = guests[None], uttered[None], mask[None]
    return _policy_pass(model, guests.mean(axis=1), uttered, mask, np.arange(len(mask)),
                        np.full(len(mask), -1))


def _backward_core(model: EnquirerModel, out: EnquirerOutput,
                   dlogits: np.ndarray, dvalue: np.ndarray) -> None:
    """Accumulate every parameter's gradient through the steps
    ``_policy_pass`` took.  No input gradient is formed for an utterance,
    which is data: a forward step passes back only its hidden columns.  A
    start-token step, which every sequence shares, takes its rows' gate
    gradients' column sums and passes the start token its gradient."""
    # Masked logits were replaced by -inf before the softmax, so no
    # gradient may flow back into the policy net at masked positions.
    dlogits = np.where(out._mask, 0.0, dlogits)
    dtrunk = neural.mlp_backward(model.store, "policy", out._policy_cache, dlogits)
    dtrunk += neural.mlp_backward(model.store, "value", out._value_cache, dvalue[:, None])
    (e, length, hidden), rows, turns, start_f, steps_f, start_b, step_b = out._lstm_cache
    store, dim = model.store, model.config.dim

    def weight_grads(tag, step, dgates):
        store.grads[f"lstm/W{tag}"][:step[0].shape[1]] += step[0].T @ dgates
        store.grads[f"lstm/b{tag}"] += dgates.sum(axis=0)
        return dgates

    def start_grads(tag, step, dh, dc):
        # the start row's one step serves every row: the column sums of
        # their gate gradients, and the start token's input gradient
        dgates = neural.lstm_gate_grads(step, dh, dc).sum(axis=0, keepdims=True)
        return weight_grads(tag, step, dgates) @ store.values[f"lstm/W{tag}"][:dim].T

    d_states = np.zeros((e, length, hidden))
    d_states[rows, turns] = dtrunk[:, :hidden]
    dh_next, dc_next = np.zeros((e, hidden)), np.zeros((e, hidden))
    for pos in range(len(steps_f), 0, -1):
        step = steps_f[pos - 1]
        n = len(step[0])
        dgates = neural.lstm_gate_grads(step, d_states[:n, pos] + dh_next[:n], dc_next[:n])
        dh_next[:n] = weight_grads("f", step, dgates) @ store.values["lstm/Wf"][dim:].T
    d_start = start_grads("f", start_f, d_states[:, 0] + dh_next, dc_next)
    dh_backward = dtrunk[:, hidden:2 * hidden]
    if start_b is not None:
        dh = dh_backward[turns == 0]
        d_start += start_grads("b", start_b, dh, np.zeros_like(dh))
    if step_b is not None:
        dh = dh_backward[turns > 0]
        weight_grads("b", step_b, neural.lstm_gate_grads(step_b, dh, np.zeros_like(dh)))
    store.grads["start"] += d_start[0]


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
    """Generalized advantage estimates and value targets of (E, T) episodes.

    The post-terminal bootstrap value is zero, so ``delta_t = r_t + gamma *
    V_{t+1} - V_t`` with ``V_T = 0`` and ``A_t = sum_l (gamma * lam)^l
    delta_{t+l}``; returns are ``A_t + V_t``.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    e, t = rewards.shape
    next_values = np.concatenate([values[:, 1:], np.zeros((e, 1))], axis=1)
    deltas = rewards + gamma * next_values - values
    advantages = np.zeros_like(deltas)
    carry = np.zeros(e)
    for step in range(t - 1, -1, -1):
        carry = deltas[:, step] + gamma * lam * carry
        advantages[:, step] = carry
    return advantages, advantages + values


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
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.gamma <= 1.0 or not 0.0 <= self.gae_lambda <= 1.0:
            raise ValueError("gamma and gae_lambda must be in [0, 1]")
        for name in ("lr", "grad_clip", "clip"):
            neural.check_positive(name, getattr(self, name))
        for name in ("value_coef", "entropy_coef"):
            neural.check_positive(name, getattr(self, name), zero=True)
        neural.check_counts(self, "episodes", "horizon", "update_batches",
                            "update_batch_size", "word_budget", "n_guests")


def ppo_update(model: EnquirerModel, rollout: _Rollout, idx: np.ndarray,
               config: PpoConfig) -> dict:
    """One clipped-surrogate update on the rollout transitions ``idx``.

    Transition ``i`` of the (E, T) rollout is turn ``i % T`` of episode
    ``i // T``; the mean guests and utterances come from the dealt
    ``Games``, and its mask marks the words requested before its turn.
    One forward sweep over each sampled episode serves all of its sampled
    turns, and one backward pass returns through it.  Advantages are
    normalized to zero mean and unit variance within the minibatch.  The
    objective is max E[min(ratio * A, clip(ratio) * A)] plus an entropy
    bonus minus the value regression term; one Adam step with global-norm
    clipping applies the combined gradient.
    """
    dealt = rollout.dealt
    n, t_max = len(idx), dealt.words.shape[1]
    episodes, turns = np.divmod(idx, t_max)
    actions = dealt.words[episodes, turns]
    adv = rollout.advantages[episodes, turns]
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    masks = np.zeros((n, dealt.corpus.vocab_size), dtype=bool)
    k, before = np.nonzero(np.arange(t_max) < turns[:, None])
    masks[k, dealt.words[episodes[k], before]] = True
    played, rows = np.unique(episodes, return_inverse=True)
    out = _policy_pass(model, dealt.mean_guest[played], dealt.uttered[played, :t_max - 1],
                       masks, rows, turns)
    sel = np.arange(n)
    new_log_probs = out.log_probs[sel, actions]
    entropies = neural.categorical_entropy(out.probs, out.log_probs)

    ratios = np.exp(new_log_probs - rollout.log_probs[episodes, turns])
    if not np.all(np.isfinite(ratios)):
        bad = int(np.flatnonzero(~np.isfinite(ratios))[0])
        raise RuntimeError(
            f"non-finite PPO ratio at transition {bad} "
            f"(turn {int(turns[bad])}, action {int(actions[bad])})")
    surrogate = np.minimum(ratios * adv, np.clip(ratios, 1.0 - config.clip,
                                                 1.0 + config.clip) * adv)
    value_err = out.value - rollout.returns[episodes, turns]

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


@dataclass(frozen=True)
class _Rollout:
    """A round of explored episodes: the dealt ``Games``, whose words are
    the chosen actions, and each turn's record for the update."""

    dealt: Games
    log_probs: np.ndarray    # (E, T) of the chosen words
    advantages: np.ndarray   # (E, T) GAE
    returns: np.ndarray      # (E, T) value targets


def _play_games(model: EnquirerModel, corpus: Corpus, guest_rows: np.ndarray,
                targets: np.ndarray, word_budget: int, mode: str,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Play the dealt games with the policy; explore mode draws from ``rng``.
    Returns the (B, T) chosen words, their log-probabilities and the values.

    Turn by turn, the games go ``neural.PREDICT_BLOCK_ROWS`` at a time: each
    block carries its forward state one step and its heads write the
    block's rows of the turn's log-probabilities and values, and then
    ``sample_actions`` picks every game's word at once.  Steps that depend
    on no game's state are taken once: turn 0's steps of both directions
    on the start token, and each later turn's backward step on each
    distinct (speaker, word) cell, a table the blocks gather from for both
    directions' inputs.  At one BLAS thread a row's product does not depend
    on its batch or its block, so the outputs are those of ``_policy_pass``
    on each turn's whole prefix.  No step keeps a cache: the PPO update
    re-runs ``_policy_pass``.
    """
    b, t_max, v = len(targets), word_budget, corpus.vocab_size
    if not 1 <= word_budget <= v:
        raise ValueError(f"word_budget must be in [1, {v}], got {word_budget}")
    target_rows = guest_rows[np.arange(b), targets]
    mean_guest = mean_guest_prints(corpus.voice_prints, guest_rows)
    cell_inputs = corpus.utterances.reshape(-1, corpus.dimension)

    store, hidden = model.store, model.config.lstm_hidden
    w_f, b_f = store.values["lstm/Wf"], store.values["lstm/bf"]
    w_b, b_b = store.values["lstm/Wb"], store.values["lstm/bb"]
    # turn 0 steps both directions on the start token, the same for every game
    h, c, _ = _start_step(model, "f")
    h, c = np.repeat(h, b, axis=0), np.repeat(c, b, axis=0)
    backward = _start_step(model, "b")[0]
    newest_rows = np.zeros(b, dtype=np.intp)    # each game's row of ``backward``

    rows = np.arange(b)
    actions = np.zeros((b, t_max), dtype=np.int64)
    log_probs = np.zeros((b, t_max))
    values = np.zeros((b, t_max))
    mask = np.zeros((b, v), dtype=bool)
    log_probs_now = np.empty((b, v))
    for turn in range(t_max):
        if turn:    # the backward direction's one step, on each distinct newest input
            cells, newest_rows = np.unique(target_rows * v + actions[:, turn - 1],
                                           return_inverse=True)
            newest = cell_inputs[cells]
            backward = np.empty((len(newest), hidden))
            for start, stop in neural._blocks(len(newest)):
                backward[start:stop] = neural.lstm_cell(w_b, b_b, newest[start:stop], None,
                                                        None, hidden)[0]
        for start, stop in neural._blocks(b):
            block = slice(start, stop)
            if turn:
                h[block], c[block] = neural.lstm_cell(w_f, b_f, newest[newest_rows[block]],
                                                      h[block], c[block], hidden)[:2]
            out = _heads(model, h[block], backward[newest_rows[block]], mean_guest[block],
                         mask[block])
            log_probs_now[block], values[block, turn] = out.log_probs, out.value
        acts = sample_actions(np.exp(log_probs_now), mode, rng)
        actions[:, turn] = acts
        log_probs[:, turn] = log_probs_now[rows, acts]
        mask[rows, acts] = True
    return actions, log_probs, values


def _collect_rollout(model: EnquirerModel, corpus: Corpus, n_episodes: int,
                     config: PpoConfig, rng: np.random.Generator,
                     reward_fn) -> tuple[_Rollout, np.ndarray]:
    guest_rows, targets = sample_game_batch(corpus, n_episodes, config.n_guests, rng)
    actions, log_probs, values = _play_games(model, corpus, guest_rows, targets,
                                             config.word_budget, "explore", rng)
    dealt = Games(corpus, guest_rows, targets, actions)
    episode_rewards = np.asarray(reward_fn(dealt), dtype=np.float64)
    rewards = np.zeros_like(values)
    rewards[:, -1] = episode_rewards
    advantages, returns = compute_gae(rewards, values, config.gamma, config.gae_lambda)
    return _Rollout(dealt, log_probs, advantages, returns), episode_rewards


def train_enquirer(guesser: GuesserModel | None, corpus: Corpus, config: PpoConfig,
                   reward_fn=None) -> tuple[EnquirerModel, list[dict]]:
    """PPO training against a frozen guesser (or a custom reward).

    ``reward_fn(games)`` gets a round's played episodes as ``Games``, the
    requested words as ``words``, and returns their (E,) terminal rewards;
    the default is ``guesser_success`` of the guesser.  Episodes are rolled
    out in explore mode; whenever ``horizon`` transitions have accumulated,
    ``update_batches`` minibatches of ``update_batch_size`` transitions are
    drawn and applied.  Returns the model and a curve of dicts with exactly
    the keys episode, moving_avg_reward, entropy, value_loss and
    policy_loss, one per round; the moving average covers the trailing 1000
    episodes.  Raises RewardCollapse after ``COLLAPSE_PATIENCE`` consecutive
    zero-reward episodes.
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
    while episodes_done < config.episodes:
        n_episodes = min(episodes_per_round, config.episodes - episodes_done)
        rollout, episode_rewards = _collect_rollout(
            model, corpus, n_episodes, config, rng, reward_fn)
        episodes_done += n_episodes
        reward_history.extend(episode_rewards.tolist())

        nonzero = np.flatnonzero(episode_rewards)
        zero_run = (zero_run + n_episodes if nonzero.size == 0
                    else n_episodes - 1 - int(nonzero[-1]))
        if zero_run >= COLLAPSE_PATIENCE:
            raise RewardCollapse(
                f"no reward in the last {zero_run} episodes "
                f"({episodes_done} played, lr={config.lr}, clip={config.clip})")

        stats = []
        n_transitions = rollout.log_probs.size
        for _ in range(config.update_batches):
            size = min(config.update_batch_size, n_transitions)
            idx = rng.choice(n_transitions, size=size, replace=False)
            stats.append(ppo_update(model, rollout, idx, config))
        window = reward_history[-1000:]
        curve.append({"episode": episodes_done,
                      "moving_avg_reward": float(np.mean(window)),
                      "entropy": float(np.mean([s["entropy"] for s in stats])),
                      "value_loss": float(np.mean([s["value_loss"] for s in stats])),
                      "policy_loss": float(np.mean([s["policy_loss"] for s in stats]))})
    return model, curve


def evaluate_enquirer(enquirer: EnquirerModel, guesser: GuesserModel, corpus: Corpus,
                      n_guests: int, word_budget: int, n_games: int, seed: int) -> Played:
    """Greedy no-replacement rollouts scored by the guesser: the ``Played``
    record of the seeded games, whose words feed the diversity index.  An
    enquirer that does not fit the corpus is rejected naming both sizes."""
    check_fit("enquirer", enquirer.config, corpus)

    def greedy(guest_rows, targets, rng):
        return _play_games(enquirer, corpus, guest_rows, targets, word_budget, "greedy",
                           rng)[0]

    return play_games(corpus, n_guests, n_games, greedy, partial(guesser_success, guesser),
                      np.random.default_rng(seed))
