"""Policy masking, sampling, GAE identities, and PPO update mechanics."""

import json
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab import neural
from isrlab.corpus import SynthConfig, generate_synthetic
from isrlab.enquirer import (EnquirerConfig, EnquirerModel, PpoConfig, RewardCollapse,
                             _backward_core, _collect_rollout, _play_games, _policy_pass, compute_gae,
                             enquirer_forward, evaluate_enquirer, ppo_update,
                             sample_actions, train_enquirer)
from isrlab.guesser import (Games, GuesserConfig, GuesserModel, GuesserTrainConfig,
                            guesser_success, sample_game_batch, train_guesser)


def masks_before(words, turns, vocab_size):
    # row k marks the words ``words[k]`` requested before turn ``turns[k]``
    masks = np.zeros((len(words), vocab_size), dtype=bool)
    for k, turn in enumerate(turns):
        masks[k, words[k, :turn]] = True
    return masks


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SynthConfig(dimension=6, vocab_size=8,
                                          train_speakers=12, test_speakers=0,
                                          enrollments=2, seed=2))


@pytest.fixture()
def model(corpus):
    return EnquirerModel.init(
        EnquirerConfig(dim=6, vocab_size=8, lstm_hidden=5, policy_hidden=7,
                       value_hidden=6), np.random.default_rng(0))


class TestForward:
    def test_start_token_alone_defines_a_distribution(self, model):
        rng = np.random.default_rng(1)
        out = enquirer_forward(model, rng.standard_normal((4, 6)),
                               np.zeros((0, 6)), np.zeros(8, dtype=bool))
        assert out.probs.shape == (1, 8)
        assert abs(out.probs.sum() - 1.0) < 1e-6

    def test_all_but_one_word_masked(self, model):
        rng = np.random.default_rng(2)
        mask = np.ones(8, dtype=bool)
        mask[3] = False
        out = enquirer_forward(model, rng.standard_normal((4, 6)),
                               rng.standard_normal((2, 6)), mask)
        assert out.probs[0, 3] == 1.0
        assert np.all(out.probs[0, mask] == 0.0)

    def test_masked_entries_are_exactly_zero(self, model):
        rng = np.random.default_rng(3)
        mask = np.zeros(8, dtype=bool)
        mask[[1, 5]] = True
        out = enquirer_forward(model, rng.standard_normal((4, 6)),
                               rng.standard_normal((1, 6)), mask)
        assert out.probs[0, 1] == 0.0 and out.probs[0, 5] == 0.0
        assert abs(out.probs.sum() - 1.0) < 1e-6

    def test_fully_masked_rejected(self, model):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError, match="masked"):
            enquirer_forward(model, rng.standard_normal((4, 6)),
                             np.zeros((0, 6)), np.ones(8, dtype=bool))


    @pytest.mark.parametrize("guests, uttered, mask, message", [
        ((3, 5, 6), (3, 1, 6), (2, 8),
         "mask shape (2, 8) does not fit guests shape (3, 5, 6): expected (3, 8)"),
        ((2, 5, 6), (3, 1, 6), (2, 8),
         "uttered shape (3, 1, 6) does not fit guests shape (2, 5, 6): expected (2, t, 6)"),
        ((3, 5, 6), (3, 1, 6), (8,),
         "mask shape (8,) does not fit guests shape (3, 5, 6): expected (3, 8)"),
        ((4, 6), (1, 6), (1, 8),
         "mask shape (1, 8) does not fit guests shape (4, 6): expected (8,)"),
        ((6,), (1, 6), (8,),
         "guests shape (6,) is neither (B, K, 6) nor (K, 6), for the model dimension 6"),
        ((2, 5, 4), (2, 1, 4), (2, 8),
         "guests shape (2, 5, 4) is neither (B, K, 6) nor (K, 6), for the model dimension 6"),
        ((2, 0, 6), (2, 1, 6), (2, 8),
         "guests shape (2, 0, 6) holds no guest: need at least one guest per game"),
        ((0, 6), (1, 6), (8,),
         "guests shape (0, 6) holds no guest: need at least one guest per game")])
    def test_malformed_input_is_named(self, model, guests, uttered, mask, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enquirer_forward(model, np.zeros(guests), np.zeros(uttered), np.zeros(mask, bool))


class TestPlayGames:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    @pytest.mark.parametrize("mode", ["greedy", "explore"])
    def test_turns_equal_the_policy_pass_on_each_prefix(self, one_blas_thread, mode):
        # the played turns go by blocks of 256 games, take turn 0's steps on
        # the one start-token row and each later backward step once per
        # (speaker, word) cell, and keep no caches; a replay that runs the
        # whole policy pass on each prefix, drawing from the same stream,
        # must give the same turns bit for bit.  The game counts sit on
        # either side of the 512 games that make a second block; from 511
        # games on each later turn's table holds more than 256 cells, and at
        # 1,200 games more than 512, so the table goes in blocks too
        one_blas_thread(f"""
            from isrlab.corpus import SynthConfig, generate_synthetic
            from isrlab.enquirer import (EnquirerConfig, EnquirerModel, _play_games,
                                         _policy_pass, sample_actions)
            from isrlab.guesser import sample_game_batch
            corpus = generate_synthetic(SynthConfig(train_speakers=600, test_speakers=0,
                                                    enrollments=2, seed=2))
            model = EnquirerModel.init(EnquirerConfig(dim=32, vocab_size=20),
                                       np.random.default_rng(0))
            mode, v = {mode!r}, corpus.vocab_size
            for t in (1, 4):
                for e in (1, 2, 40, 511, 512, 513, 1200):
                    guest_rows, targets = sample_game_batch(corpus, e, 4,
                                                            np.random.default_rng(e))
                    actions, log_probs, values = _play_games(
                        model, corpus, guest_rows, targets, t, mode, np.random.default_rng(4))
                    rng = np.random.default_rng(4)
                    rows = np.arange(e)
                    target_rows = guest_rows[rows, targets]
                    mean_guest = corpus.voice_prints[guest_rows].mean(axis=1)
                    uttered, mask = np.zeros((e, t, 32)), np.zeros((e, v), dtype=bool)
                    cells = []
                    for turn in range(t):
                        out = _policy_pass(model, mean_guest, uttered[:, :turn], mask.copy(),
                                           rows, np.full(e, -1))
                        acts = sample_actions(out.probs, mode, rng)
                        case = (t, e, turn)
                        assert np.array_equal(actions[:, turn], acts), case
                        assert np.array_equal(log_probs[:, turn], out.log_probs[rows, acts]), case
                        assert np.array_equal(values[:, turn], out.value), case
                        mask[rows, acts] = True
                        uttered[:, turn] = corpus.utterances[target_rows, acts]
                        cells.append(len(np.unique(target_rows * v + acts)))
                    if t > 1 and e >= 511:
                        assert min(cells[:t - 1]) > (512 if e == 1200 else 256), (e, cells)
            """)


class TestSampling:
    def test_greedy_takes_the_mode(self):
        action = sample_actions(np.array([0.1, 0.7, 0.2]), "greedy")
        assert action == 1 and isinstance(action, int)

    def test_explore_is_reproducible(self):
        probs = np.array([0.25, 0.25, 0.5])
        a = sample_actions(probs, "explore", np.random.default_rng(9))
        b = sample_actions(probs, "explore", np.random.default_rng(9))
        assert a == b and isinstance(a, int)

    def test_explore_frequency_matches_probabilities(self):
        # 1e5 draws from a fair coin: 4-sigma binomial band
        rng = np.random.default_rng(10)
        n = 100_000
        draws = sample_actions(np.tile([0.5, 0.5], (n, 1)), "explore", rng)
        ones = draws.sum()
        sigma = np.sqrt(n * 0.25)
        assert abs(ones - n / 2) < 4 * sigma

    def test_zero_probability_words_never_sampled(self):
        rng = np.random.default_rng(11)
        probs = np.tile([0.0, 0.6, 0.0, 0.4], (5000, 1))
        draws = sample_actions(probs, "explore", rng)
        assert set(np.unique(draws)) <= {1, 3}

    def test_explore_skips_masked_words_at_a_draw_of_zero(self):
        # a uniform draw of exactly 0 lands on the first word of positive
        # probability, never on a masked word before it
        class ZeroDraws:
            def random(self, size):
                return np.zeros(size)

        probs = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
        assert sample_actions(probs, "explore", ZeroDraws()).tolist() == [1, 2]

    def test_degenerate_distribution_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            sample_actions(np.zeros(4), "explore", np.random.default_rng(0))
        with pytest.raises(ValueError, match="mode"):
            sample_actions(np.array([1.0]), "melt", np.random.default_rng(0))


class TestGae:
    def test_all_zero_inputs_give_zero_advantages(self):
        adv, ret = compute_gae(np.zeros((1, 4)), np.zeros((1, 4)), 0.9, 0.95)
        assert np.array_equal(adv, np.zeros((1, 4)))
        assert np.array_equal(ret, np.zeros((1, 4)))

    def test_single_step_closed_form(self):
        adv, ret = compute_gae(np.array([[1.0]]), np.array([[0.5]]), 0.9, 0.95)
        assert adv[0, 0] == pytest.approx(0.5, abs=1e-15)
        assert ret[0, 0] == pytest.approx(1.0, abs=1e-15)

    def test_three_step_hand_recursion(self):
        # deltas: d0 = 0 + g*0.4 - 0.2, d1 = 0 + g*0.6 - 0.4, d2 = 1 - 0.6
        # advantages accumulate backwards with factor g*l
        gamma, lam = 0.9, 0.95
        rewards = np.array([0.0, 0.0, 1.0])
        values = np.array([0.2, 0.4, 0.6])
        d0 = gamma * values[1] - values[0]
        d1 = gamma * values[2] - values[1]
        d2 = rewards[2] - values[2]
        a2 = d2
        a1 = d1 + gamma * lam * a2
        a0 = d0 + gamma * lam * a1
        (adv,), (ret,) = compute_gae(rewards[None], values[None], gamma, lam)
        assert np.allclose(adv, [a0, a1, a2], atol=1e-15)
        assert np.allclose(ret, adv + values, atol=1e-15)

    @given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lambda_one_gamma_one_reduces_to_return_minus_value(self, t, seed):
        rng = np.random.default_rng(seed)
        rewards = np.zeros(t)
        rewards[-1] = rng.random()
        values = rng.standard_normal(t)
        (adv,), _ = compute_gae(rewards[None], values[None], 1.0, 1.0)
        totals = np.cumsum(rewards[::-1])[::-1]
        assert np.allclose(adv, totals - values, atol=1e-12)

    @given(st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_lambda_zero_reduces_to_td_residual(self, t, seed):
        rng = np.random.default_rng(seed)
        rewards = np.zeros(t)
        rewards[-1] = rng.random()
        values = rng.standard_normal(t)
        (adv,), _ = compute_gae(rewards[None], values[None], 0.9, 0.0)
        next_values = np.append(values[1:], 0.0)
        assert np.allclose(adv, rewards + 0.9 * next_values - values, atol=1e-12)


class TestPpoUpdate:
    def collect(self, corpus, model, n_episodes=30, seed=3):
        config = PpoConfig(word_budget=3, n_guests=4, seed=seed)
        rng = np.random.default_rng(seed)
        reward = lambda games: (games.words == 2).any(axis=1).astype(float)
        return config, _collect_rollout(model, corpus, n_episodes, config, rng, reward)

    def test_first_update_ratios_are_exactly_one(self, corpus, model):
        # the rollout carries LSTM state across turns; re-encoding each
        # whole prefix must give the same log-probs and values, bit for bit
        config, (rollout, episode_rewards) = self.collect(corpus, model)
        games = rollout.dealt
        e, t = games.words.shape
        logps = np.zeros((e, t))
        values = np.zeros((e, t))
        for turn in range(t):
            out = enquirer_forward(model, games.mean_guest[:, None], games.uttered[:, :turn],
                                   masks_before(games.words, np.full(e, turn),
                                                games.corpus.vocab_size))
            logps[:, turn] = out.log_probs[np.arange(e), games.words[:, turn]]
            values[:, turn] = out.value
        ratios = np.exp(logps - rollout.log_probs)
        assert np.all(ratios == 1.0)
        rewards = np.zeros((e, t))
        rewards[:, -1] = episode_rewards
        advantages, returns = compute_gae(rewards, values, config.gamma,
                                          config.gae_lambda)
        assert np.array_equal(advantages, rollout.advantages)
        assert np.array_equal(returns, rollout.returns)

    def test_unit_ratio_surrogate_is_mean_normalized_advantage(self, corpus, model):
        config, (rollout, _) = self.collect(corpus, model)
        stats = ppo_update(model, rollout, np.arange(rollout.log_probs.size), config)
        # with ratio 1 everywhere both surrogate branches agree and the
        # objective is the mean of the normalized advantages, which is 0
        assert stats["policy_loss"] == pytest.approx(0.0, abs=1e-12)
        assert stats["mean_ratio"] == pytest.approx(1.0, abs=1e-12)

    def test_clip_arithmetic(self):
        # A=1, ratio=1.5, eps=0.2: min(1.5, 1.2) = 1.2
        adv = 1.0
        ratio = 1.5
        clipped = np.minimum(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv)
        assert clipped == pytest.approx(1.2)

    def test_uniform_policy_entropy_is_ln_v(self):
        from isrlab.neural import categorical_entropy
        probs = np.full((1, 20), 0.05)
        ent = categorical_entropy(probs, np.log(probs))
        assert ent[0] == pytest.approx(np.log(20.0), abs=1e-12)

    def test_non_finite_ratio_names_the_transition(self, corpus, model):
        config, (rollout, _) = self.collect(corpus, model)
        rollout.log_probs[1, 2] = -np.inf    # episode 1, turn 2 of 3
        with pytest.raises(RuntimeError, match="transition 5"):
            ppo_update(model, rollout, np.arange(rollout.log_probs.size), config)

    def test_shared_prefix_backward_matches_finite_differences(self):
        # one forward sweep serves several turns of the same episode, so
        # gradients from several positions meet in one recurrence; in the
        # second pattern episodes 0 and 2 stop below the last position, at
        # turns 1 and 0
        for rows, turns in (([0, 0, 0, 1, 1], [0, 1, 2, 0, 2]),
                            ([0, 0, 1, 1, 2], [1, 0, 2, 0, 0])):
            self.check_policy_pass_gradients(np.array(rows), np.array(turns))

    def check_policy_pass_gradients(self, rows, turns):
        actions = np.array([3, 0, 2, 1, 3])
        for attempt in range(60):
            rng = np.random.default_rng(50 + 100_000 * attempt)
            model = EnquirerModel.init(EnquirerConfig(dim=3, vocab_size=4, lstm_hidden=3,
                                                      policy_hidden=4, value_hidden=4), rng)
            uttered = rng.standard_normal((rows.max() + 1, 2, 3))
            mean_guest = rng.standard_normal((rows.max() + 1, 3))
            mask = np.zeros((5, 4), dtype=bool)
            mask[[1, 2, 4], [3, 3, 0]] = True
            w_logp, w_value = rng.standard_normal(5), rng.standard_normal(5)

            def objective():
                out = _policy_pass(model, mean_guest, uttered, mask, rows, turns)
                return out, float(w_logp @ out.log_probs[np.arange(5), actions]
                                  + w_value @ out.value)

            out, _ = objective()
            # kink guard: keep the ReLU pre-activations clear of zero, where
            # a finite difference would straddle the kink
            if all(np.min(np.abs(cache.x @ model.store.values[f"{net}/W0"]
                                 + model.store.values[f"{net}/b0"])) >= 1e-3
                   for net, cache in (("policy", out._policy_cache),
                                      ("value", out._value_cache))):
                break
        else:
            raise RuntimeError("could not draw a kink-free instance")
        one_hot = np.zeros((5, 4))
        one_hot[np.arange(5), actions] = 1.0
        _backward_core(model, out, w_logp[:, None] * (one_hot - out.probs), w_value)
        for name, p in model.store.values.items():
            num = neural.numerical_gradient(lambda _: objective()[1], p)
            assert neural.max_relative_error(model.store.grads[name], num) < 1e-4, name

    def test_update_changes_parameters(self, corpus, model):
        config, (rollout, _) = self.collect(corpus, model)
        before = {k: v.copy() for k, v in model.store.values.items()}
        ppo_update(model, rollout, np.arange(rollout.log_probs.size), config)
        changed = any(not np.array_equal(before[k], model.store.values[k])
                      for k in before)
        assert changed


@pytest.mark.parametrize("field", ["episodes", "horizon", "update_batches",
                                   "update_batch_size", "word_budget", "n_guests"])
def test_ppo_count_below_one_is_named(field):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
        PpoConfig(**{field: 0})


@pytest.mark.parametrize("field, value, least", [
    ("lr", float("nan"), "positive"), ("lr", 0.0, "positive"),
    ("grad_clip", -1.0, "positive"), ("grad_clip", float("inf"), "positive"),
    ("clip", float("nan"), "positive"), ("clip", 0.0, "positive"),
    ("entropy_coef", float("nan"), "at least 0"), ("entropy_coef", -0.01, "at least 0"),
    ("value_coef", -1.0, "at least 0"), ("value_coef", float("inf"), "at least 0")])
def test_ppo_setting_outside_its_range_is_named(field, value, least):
    # a NaN clip once zeroed every policy gradient without an error
    with pytest.raises(ValueError, match=f"^{field} must be finite and {least}, got {value}$"):
        PpoConfig(**{field: value})


def test_ppo_coefficients_may_be_zero():
    config = PpoConfig(entropy_coef=0.0, value_coef=0.0)
    assert (config.entropy_coef, config.value_coef) == (0.0, 0.0)


def test_default_reward_trains_as_the_array_form_guesser(one_blas_thread):
    # the default reward scores the played games from their corpus rows;
    # at one BLAS thread that is the array form bit for bit, so PPO is too.
    # The rounds have 342 episodes, as at the reference horizon
    one_blas_thread("""
        from isrlab.corpus import SynthConfig, generate_synthetic
        from isrlab.enquirer import PpoConfig, train_enquirer
        from isrlab.guesser import GuesserConfig, GuesserModel, guesser_forward
        corpus = generate_synthetic(SynthConfig(train_speakers=30, test_speakers=0, seed=3))
        guesser = GuesserModel.init(GuesserConfig(dim=32), np.random.default_rng(4))

        def array_form(games):
            probs = guesser_forward(guesser, games.guests, games.uttered).probs
            return (np.argmax(probs, axis=1) == games.targets).astype(np.float64)

        config = PpoConfig(episodes=3 * 342, seed=1)
        (a, curve_a), (b, curve_b) = (train_enquirer(guesser, corpus, config, reward_fn=fn)
                                      for fn in (None, array_form))
        for name, value in a.store.values.items():
            assert np.array_equal(value, b.store.values[name]), name
        assert curve_a == curve_b
        assert 0.0 < curve_a[-1]["moving_avg_reward"] < 1.0
        """)


class TestTraining:
    def bandit_reward(self, word):
        return lambda games: (games.words == word).any(axis=1).astype(float)

    def test_rollouts_never_repeat_words(self, corpus, model):
        config = PpoConfig(word_budget=4, n_guests=3, seed=1)
        rollout, _ = _collect_rollout(model, corpus, 50, config,
                                      np.random.default_rng(1), self.bandit_reward(0))
        assert rollout.dealt.words.shape == (50, 4)
        assert all(len(set(row)) == 4 for row in rollout.dealt.words.tolist())

    def test_two_runs_same_seed_identical_curves(self, corpus):
        config = PpoConfig(episodes=300, horizon=60, update_batch_size=30,
                           word_budget=3, n_guests=3, seed=5)
        _, curve_a = train_enquirer(None, corpus, config, reward_fn=self.bandit_reward(1))
        _, curve_b = train_enquirer(None, corpus, config, reward_fn=self.bandit_reward(1))
        assert curve_a == curve_b

    def test_reward_collapse_aborts_with_diagnostics(self, corpus):
        # one reward, on the first of a 5,000-episode round, leaves a zero
        # run of 4,999; the last round's one episode brings it to the 5,000
        # of COLLAPSE_PATIENCE
        config = PpoConfig(episodes=5001, horizon=15_000, update_batches=1,
                           update_batch_size=30, word_budget=3, n_guests=3, seed=6)
        rounds = []

        def one_reward(games):
            rewards = np.zeros(len(games.words))
            rewards[0] = not rounds
            rounds.append(len(rewards))
            return rewards
        with pytest.raises(RewardCollapse,
                           match=r"^no reward in the last 5000 episodes \(5001 played"):
            train_enquirer(None, corpus, config, reward_fn=one_reward)
        assert rounds == [5000, 1]

    def test_moving_average_covers_the_trailing_thousand_episodes(self, corpus):
        # known rewards over 1,500 episodes in rounds of 300: each row's
        # average is that of the last min(1,000, seen) rewards
        config = PpoConfig(episodes=1500, horizon=600, update_batches=1,
                           update_batch_size=8, word_budget=2, n_guests=3, seed=8)
        rewards = (np.arange(1500) * 7919 % 11) / 10.0

        def known(games):
            start = known.seen
            known.seen += len(games.words)
            return rewards[start:known.seen]
        known.seen = 0
        _, curve = train_enquirer(None, corpus, config, reward_fn=known)
        assert [row["episode"] for row in curve] == [300, 600, 900, 1200, 1500]
        for row in curve:
            seen = row["episode"]
            assert row["moving_avg_reward"] == pytest.approx(
                rewards[max(0, seen - 1000):seen].mean(), rel=1e-12), seen

    def test_curve_rows_have_documented_fields(self, corpus):
        config = PpoConfig(episodes=120, horizon=60, update_batch_size=30,
                           word_budget=3, n_guests=3, seed=7)
        _, curve = train_enquirer(None, corpus, config, reward_fn=self.bandit_reward(2))
        assert len(curve) == 6
        for row in curve:
            assert set(row) == {"episode", "moving_avg_reward", "entropy", "value_loss",
                                "policy_loss"}


@pytest.fixture(scope="module")
def trained_pair():
    train = generate_synthetic(SynthConfig(dimension=6, vocab_size=8,
                                           train_speakers=16, test_speakers=0,
                                           enrollments=4, seed=4))
    guesser, _ = train_guesser(train, train, GuesserTrainConfig(
        n_guests=3, word_budget=2, batch_size=256, n_games=8000, dropout=0.0,
        valid_games=300, eval_every=100, seed=0))
    config = PpoConfig(episodes=600, horizon=120, update_batch_size=60,
                       word_budget=2, n_guests=3, seed=0)
    enquirer, _ = train_enquirer(guesser, train, config)
    return enquirer, guesser, train


class TestEvaluate:
    def test_greedy_evaluation_is_deterministic(self, trained_pair):
        enquirer, guesser, corpus = trained_pair
        a = evaluate_enquirer(enquirer, guesser, corpus, 3, 2, 500, seed=1)
        b = evaluate_enquirer(enquirer, guesser, corpus, 3, 2, 500, seed=1)
        assert a.success_rate == b.success_rate
        assert np.array_equal(a.word_tuples, b.word_tuples)

    @pytest.mark.parametrize("config, message", [
        ({"dim": 4, "vocab_size": 8}, "enquirer dimension 4 does not match corpus dimension 6"),
        ({"dim": 6, "vocab_size": 5},
         "enquirer vocabulary size 5 does not match corpus vocabulary size 8")])
    def test_enquirer_that_does_not_fit_the_corpus_is_named(self, trained_pair, config,
                                                            message):
        _, guesser, corpus = trained_pair
        enquirer = EnquirerModel.init(EnquirerConfig(**config), np.random.default_rng(0))
        with pytest.raises(ValueError, match=f"^{message}$"):
            evaluate_enquirer(enquirer, guesser, corpus, 3, 2, 10, seed=0)

    def test_word_tuples_have_no_repeats(self, trained_pair):
        enquirer, guesser, corpus = trained_pair
        res = evaluate_enquirer(enquirer, guesser, corpus, 3, 2, 400, seed=2)
        assert res.word_tuples.shape == (400, 2)
        assert all(len(set(row)) == 2 for row in res.word_tuples.tolist())

    @pytest.mark.parametrize("budget", [3, 8])
    def test_matches_full_prefix_replay(self, trained_pair, budget):
        # evaluation carries LSTM state across turns; a replay that
        # re-encodes every prefix must pick the same words and score the same
        enquirer, guesser, corpus = trained_pair
        n_games, seed = 300, 5
        res = evaluate_enquirer(enquirer, guesser, corpus, 3, budget, n_games, seed)
        guest_rows, targets = sample_game_batch(corpus, n_games, 3,
                                                np.random.default_rng(seed))
        guests = corpus.voice_prints[guest_rows]
        target_rows = guest_rows[np.arange(n_games), targets]
        uttered = np.zeros((n_games, budget, corpus.dimension))
        mask = np.zeros((n_games, corpus.vocab_size), dtype=bool)
        words = np.zeros((n_games, budget), dtype=np.int64)
        for turn in range(budget):
            out = enquirer_forward(enquirer, guests, uttered[:, :turn], mask)
            words[:, turn] = sample_actions(out.probs, "greedy")
            mask[np.arange(n_games), words[:, turn]] = True
            uttered[:, turn] = corpus.utterances[target_rows, words[:, turn]]
        assert np.array_equal(res.word_tuples, words)
        hits = guesser_success(guesser, Games(corpus, guest_rows, targets, words)).sum()
        assert res.success_rate == hits / n_games

    def test_full_vocabulary_budget_matches_random_policy(self, trained_pair):
        # with the budget equal to the vocabulary every policy utters
        # everything, so the two estimators agree up to game sampling noise
        enquirer, guesser, corpus = trained_pair
        from isrlab.guesser import evaluate_guesser
        res = evaluate_enquirer(enquirer, guesser, corpus, 3, 8, 2000, seed=3)
        acc, _ = evaluate_guesser(guesser, corpus, 3, 8, "random", 2000, seed=3)
        assert abs(res.success_rate - acc) < 0.03


@pytest.mark.parametrize("budget", [0, 9])
def test_word_budget_outside_the_vocabulary_is_named(corpus, model, budget):
    guesser = GuesserModel.init(GuesserConfig(dim=6, attn_hidden=4, score_hidden=4),
                                np.random.default_rng(1))
    with pytest.raises(ValueError, match=rf"^word_budget must be in \[1, 8\], got {budget}$"):
        evaluate_enquirer(model, guesser, corpus, 3, budget, 10, seed=0)


class TestCheckpoint:
    def test_round_trip(self, model, tmp_path):
        path = tmp_path / "enquirer.json"
        model.save(path)
        loaded = EnquirerModel.load(path)
        assert loaded.config == model.config
        for name in model.store.values:
            assert np.array_equal(loaded.store.values[name], model.store.values[name])

    @pytest.mark.parametrize("name, edit, message", [
        ("lstm/Wb", lambda p: p.pop("lstm/Wb"), "missing"),
        ("value/W2", lambda p: p.update({"value/W2": {"shape": [1], "values": [0.0]}}),
         "unexpected"),
        ("start", lambda p: p["start"].update({"shape": [2, 3]}), r"\(2, 3\)"),
        ("lstm/Wf", lambda p: p["lstm/Wf"]["values"].__setitem__(7, float("-inf")),
         "non-finite"),
    ], ids=["missing", "unexpected", "misshapen", "non-finite"])
    def test_parameter_defect_rejected_by_name(self, model, tmp_path, name, edit, message):
        path = tmp_path / "enquirer.json"
        model.save(path)
        payload = json.loads(path.read_text())
        edit(payload["params"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as exc:
            EnquirerModel.load(path)
        assert repr(name) in str(exc.value)

    def test_zero_width_arch_field_is_named(self, model, tmp_path):
        path = tmp_path / "enquirer.json"
        model.save(path)
        payload = json.loads(path.read_text())
        payload["arch"]["lstm_hidden"] = 0
        payload["arch_hash"] = neural.arch_hash(payload["arch"])
        path.write_text(json.dumps(payload))
        with pytest.raises(neural.CheckpointFormatError,
                           match="arch field 'lstm_hidden' is not an integer of at least 1: 0$"):
            EnquirerModel.load(path)

    def test_wrong_kind_rejected(self, tmp_path):
        guesser = GuesserModel.init(GuesserConfig(dim=4), np.random.default_rng(0))
        path = tmp_path / "g.json"
        guesser.save(path)
        with pytest.raises(ValueError, match="guesser"):
            EnquirerModel.load(path)
