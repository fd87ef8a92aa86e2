"""One episode-major rollout record from play to PPO update.

The reference functions below are the flat transition batch that
``ppo_update`` used to take and that update's body, kept as they were
apart from a namespace in place of the batch class and the dropped
non-finite ratio check: every episode's mean guest and utterances
repeated once per turn, the turns tiled, and a minibatch selected row by
row, each turn's prefixes re-encoded from the start token.
``ppo_update`` on the (E, T) record, reading transition ``i`` as
``divmod(i, T)`` and sweeping each sampled episode once, must reproduce
it over several updates.  Only the rounding differs (the BLAS products
see other batch shapes and the gradients are summed in another order),
so the stats must agree to 1e-12 and the parameters to 1e-9, relative;
an indexing error moves them by O(1).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from isrlab import neural
from isrlab.corpus import SynthConfig, generate_synthetic
from isrlab.enquirer import (EnquirerConfig, EnquirerModel, PpoConfig, _backward_core,
                             _collect_rollout, enquirer_forward, ppo_update)


def reference_flatten(rollout):
    games = rollout.dealt
    e, t_max = games.words.shape
    turns = np.tile(np.arange(t_max), e)
    episode_words = np.repeat(games.words, t_max, axis=0)
    masks = np.zeros((e * t_max, games.corpus.vocab_size), dtype=bool)
    for k, turn in enumerate(turns):
        masks[k, episode_words[k, :turn]] = True
    return SimpleNamespace(
        mean_guest=np.repeat(games.mean_guest, t_max, axis=0),
        episode_uttered=np.repeat(games.uttered, t_max, axis=0),
        turns=turns, masks=masks,
        actions=games.words.ravel(), behavior_log_probs=rollout.log_probs.ravel(),
        advantages=rollout.advantages.ravel(), returns=rollout.returns.ravel())


def reference_select(batch, idx):
    return SimpleNamespace(**{name: value[idx] for name, value in vars(batch).items()})


def reference_ppo_update(model, batch, config):
    n = len(batch.actions)
    adv = batch.advantages
    adv = (adv - adv.mean()) / (adv.std() + 1e-8)

    rows = np.arange(n)
    new_log_probs = np.zeros(n)
    values = np.zeros(n)
    entropies = np.zeros(n)
    groups = []
    for turn in np.unique(batch.turns):
        sel = rows[batch.turns == turn]
        out = enquirer_forward(model, batch.mean_guest[sel, None],
                               batch.episode_uttered[sel, :turn], batch.masks[sel])
        groups.append((sel, out))
        new_log_probs[sel] = out.log_probs[np.arange(len(sel)), batch.actions[sel]]
        values[sel] = out.value
        entropies[sel] = neural.categorical_entropy(out.probs, out.log_probs)

    ratios = np.exp(new_log_probs - batch.behavior_log_probs)
    surrogate = np.minimum(ratios * adv, np.clip(ratios, 1.0 - config.clip,
                                                 1.0 + config.clip) * adv)
    value_err = values - batch.returns
    active = np.where(adv >= 0.0, ratios <= 1.0 + config.clip,
                      ratios >= 1.0 - config.clip)
    d_logp = -(adv * ratios * active) / n
    d_value = 2.0 * config.value_coef * value_err / n

    for sel, out in groups:
        one_hot = np.zeros_like(out.probs)
        one_hot[np.arange(len(sel)), batch.actions[sel]] = 1.0
        dlogits = d_logp[sel, None] * (one_hot - out.probs)
        safe_logp = np.where(out.probs > 0.0, out.log_probs, 0.0)
        dlogits += (config.entropy_coef / n) * out.probs * (safe_logp + entropies[sel, None])
        _backward_core(model, out, dlogits, d_value[sel])
    neural.adam_step(model.store, config.lr, clip_norm=config.grad_clip)

    return {"policy_loss": float(-surrogate.mean()),
            "value_loss": float(np.mean(value_err ** 2)),
            "entropy": float(entropies.mean()),
            "mean_ratio": float(ratios.mean())}


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SynthConfig(dimension=6, vocab_size=8, train_speakers=20,
                                          test_speakers=0, enrollments=2, seed=6))


def new_model():
    return EnquirerModel.init(
        EnquirerConfig(dim=6, vocab_size=8, lstm_hidden=5, policy_hidden=7,
                       value_hidden=6), np.random.default_rng(0))


@pytest.mark.parametrize("word_budget", [1, 3, 5])
def test_record_updates_equal_the_flat_batch(corpus, word_budget):
    # a large lr moves the ratios away from 1 after the first step, so the
    # later updates exercise both clip branches
    config = PpoConfig(word_budget=word_budget, n_guests=4, lr=0.05, clip=0.1, seed=2)
    model, reference = new_model(), new_model()
    rng = np.random.default_rng(2)
    reward = lambda games: (
        (games.words == 1).any(axis=1) | (games.targets == 0)).astype(float)
    rollout, _ = _collect_rollout(model, corpus, 37, config, rng, reward)
    batch = reference_flatten(rollout)

    for _ in range(4):
        idx = rng.choice(rollout.log_probs.size, size=23, replace=False)
        got = ppo_update(model, rollout, idx, config)
        want = reference_ppo_update(reference, reference_select(batch, idx), config)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        for name, value in reference.store.values.items():
            np.testing.assert_allclose(model.store.values[name], value, rtol=1e-9, atol=0.0,
                                       err_msg=name)
