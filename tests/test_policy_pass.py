"""The PPO update's pass through the biLSTM against the full sweep.

``_policy_pass`` takes each direction's start-token step once and sweeps
each sequence only as far as its last requested turn, and
``_backward_core`` forms no input gradient for an utterance.  The
reference below is the full sweep they replaced, kept as it was: the
forward direction over every sequence's L positions with the start token
on every row, the backward direction's step on every turn's newest input,
and ``neural.lstm_backward`` through both.  At one BLAS thread a row's
product does not depend on its batch, so the outputs must be equal bit for
bit; the gradients are summed in another order, so they must agree to
1e-9, relative.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from isrlab import neural
from isrlab.enquirer import _heads


def reference_policy_pass(model, mean_guest, uttered, mask, rows, turns):
    store, hidden = model.store, model.config.lstm_hidden
    e, _, dim = uttered.shape
    inputs = np.concatenate(
        [np.broadcast_to(store.values["start"], (e, 1, dim)), uttered], axis=1)
    states_f, steps_f = neural.lstm_forward(store.values["lstm/Wf"], store.values["lstm/bf"],
                                            inputs, range(inputs.shape[1]), hidden)
    h_backward, steps_b = neural.lstm_forward(store.values["lstm/Wb"], store.values["lstm/bb"],
                                              inputs[rows, turns][:, None], [0], hidden)
    return _heads(model, states_f[rows, turns], h_backward[:, 0], mean_guest[rows], mask,
                  (inputs.shape, rows, turns, steps_f, steps_b))


def reference_backward_core(model, out, dlogits, dvalue):
    dlogits = np.where(out._mask, 0.0, dlogits)
    dtrunk = neural.mlp_backward(model.store, "policy", out._policy_cache, dlogits)
    dtrunk += neural.mlp_backward(model.store, "value", out._value_cache, dvalue[:, None])
    (e, length, _), rows, turns, steps_f, steps_b = out._lstm_cache
    store, hidden = model.store, model.config.lstm_hidden
    d_states = np.zeros((e, length, hidden))
    d_states[rows, turns] = dtrunk[:, :hidden]
    d_inputs = neural.lstm_backward(store, "lstm/Wf", "lstm/bf", steps_f, d_states, hidden)
    d_inputs[rows, turns] += neural.lstm_backward(
        store, "lstm/Wb", "lstm/bb", steps_b, dtrunk[:, None, hidden:2 * hidden], hidden)[:, 0]
    store.grads["start"] += d_inputs[:, 0].sum(axis=0)


def masks_before(words, turns, vocab_size):
    # row k marks the words ``words[k]`` requested before turn ``turns[k]``
    masks = np.zeros((len(words), vocab_size), dtype=bool)
    for k, turn in enumerate(turns):
        masks[k, words[k, :turn]] = True
    return masks


def minibatches(words, rng):
    """(rows, turns) patterns as ``ppo_update`` draws them from the (E, T)
    rollout of ``words``, with the episodes they play: 1, 2, 40 and 512
    transitions, and two where episodes stop at turns 0 and 1."""
    n_episodes, t_max = words.shape
    for size in (1, 2, 40, 512):
        idx = rng.choice(n_episodes * t_max, size=size, replace=False)
        episodes, turns = np.divmod(idx, t_max)
        played, rows = np.unique(episodes, return_inverse=True)
        yield played, rows, turns
    yield np.arange(3), np.array([0, 1, 1, 2, 2, 2]), np.array([0, 1, 0, 2, 0, 1])
    yield np.arange(3), np.array([2, 0, 1, 0]), np.array([1, 0, 0, 1])


def check_against_full_sweep(seed):
    """On the minibatches of a default-width rollout (D=32, 128 hidden
    units, T=3, 342 episodes) the forward outputs equal the full sweep's
    bit for bit, as do ``enquirer_forward``'s on every prefix, and the
    gradients agree to 1e-9."""
    from isrlab.corpus import SynthConfig, generate_synthetic
    from isrlab.enquirer import (EnquirerConfig, EnquirerModel, PpoConfig, _backward_core,
                                 _collect_rollout, _policy_pass, enquirer_forward)
    corpus = generate_synthetic(SynthConfig(test_speakers=0, enrollments=2, seed=seed))
    rng = np.random.default_rng(seed)
    model = EnquirerModel.init(EnquirerConfig(dim=32, vocab_size=20), rng)
    rollout, _ = _collect_rollout(model, corpus, 342, PpoConfig(), rng,
                                  lambda games: (games.words == 2).any(axis=1).astype(float))
    games = rollout.dealt
    t_max = games.words.shape[1]
    for played, rows, turns in minibatches(games.words, rng):
        n = len(rows)
        args = (games.mean_guest[played], games.uttered[played, :t_max - 1],
                masks_before(games.words[played[rows]], turns, 20), rows, turns)
        got, want = _policy_pass(model, *args), reference_policy_pass(model, *args)
        for name in ("probs", "log_probs", "value"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), (n, name)
        one_hot = np.zeros((n, 20))
        one_hot[np.arange(n), games.words[played[rows], turns]] = 1.0
        dlogits = rng.standard_normal(n)[:, None] * (one_hot - got.probs) / n
        dvalue = rng.standard_normal(n) / n
        reference_backward_core(model, want, dlogits, dvalue)
        grads = {name: g.copy() for name, g in model.store.grads.items()}
        model.store.zero_grads()
        _backward_core(model, got, dlogits, dvalue)
        for name, g in grads.items():
            # relative error with no noise floor: every discrepancy counts
            got_g = model.store.grads[name]
            diff = np.abs(got_g - g)
            differ = diff > 0.0
            err = np.max(diff[differ] / np.maximum(np.abs(got_g), np.abs(g))[differ],
                         initial=0.0)
            assert err <= 1e-9, (n, name, err)
        model.store.zero_grads()
    for b in (1, 2, 40, 342):
        for t in range(t_max):
            prefix = games.uttered[:b, :t]
            mask = masks_before(games.words[:b], np.full(b, t), 20)
            got = enquirer_forward(model, games.guests[:b], prefix, mask)
            want = reference_policy_pass(model, games.mean_guest[:b], prefix, mask,
                                         np.arange(b), np.full(b, -1))
            for name in ("probs", "log_probs", "value"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (b, t, name)


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
def test_policy_pass_equals_the_full_sweep(one_blas_thread):
    one_blas_thread(f"""
        import sys
        sys.path.insert(0, {str(Path(__file__).parent)!r})
        from test_policy_pass import check_against_full_sweep
        for seed in (0, 1):
            check_against_full_sweep(seed)
        """)
