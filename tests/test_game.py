"""Episode mechanics: sampling, stepping, terminal reward, immutability."""

import json

import numpy as np
import pytest

from isrlab.corpus import SynthConfig, generate_synthetic
from isrlab.game import (GameConfig, new_game, step, terminal_reward,
                         write_episode_trace)


@pytest.fixture(scope="module")
def corpus():
    return generate_synthetic(SynthConfig(dimension=4, vocab_size=6,
                                          train_speakers=10, test_speakers=0,
                                          enrollments=2, seed=5))


class TestNewGame:
    def test_full_table_seats_every_speaker(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=10, word_budget=3),
                         np.random.default_rng(0))
        assert sorted(state.guest_ids) == list(corpus.speaker_ids)

    def test_seeded_games_are_identical(self, corpus):
        cfg = GameConfig(n_guests=5, word_budget=3)
        a = new_game(corpus, cfg, np.random.default_rng(42))
        b = new_game(corpus, cfg, np.random.default_rng(42))
        assert a.guest_ids == b.guest_ids
        assert a.target_index == b.target_index
        assert np.array_equal(a.guest_prints, b.guest_prints)

    def test_target_frequency_uniform_within_4_sigma(self, corpus):
        # each of the 10 speakers should be the target with p = K/S * 1/K = 1/S;
        # binomial band: n=1e4, p=0.1, sigma = sqrt(n p (1-p)) = 30
        n = 10_000
        rng = np.random.default_rng(7)
        cfg = GameConfig(n_guests=5, word_budget=3)
        counts = {sid: 0 for sid in corpus.speaker_ids}
        for _ in range(n):
            state = new_game(corpus, cfg, rng)
            counts[state.target_id] += 1
        sigma = np.sqrt(n * 0.1 * 0.9)
        for sid, count in counts.items():
            assert abs(count - n * 0.1) < 4 * sigma, (sid, count)

    def test_too_many_guests_rejected(self, corpus):
        with pytest.raises(ValueError, match="^11 guests exceed the 10 corpus speakers$"):
            new_game(corpus, GameConfig(n_guests=11, word_budget=3),
                     np.random.default_rng(0))

    def test_word_budget_validated(self, corpus):
        with pytest.raises(ValueError, match="^word budget 7 exceeds the 6 words$"):
            new_game(corpus, GameConfig(n_guests=3, word_budget=7),
                     np.random.default_rng(0))

    def test_one_guest_deals_a_one_guest_game(self, corpus):
        # the dealer's rule: every evaluator scores one-guest games
        state = new_game(corpus, GameConfig(n_guests=1, word_budget=6),
                         np.random.default_rng(0))
        assert len(state.guest_ids) == 1 and state.target_index == 0

    @pytest.mark.parametrize("field", ["n_guests", "word_budget"])
    def test_count_below_one_is_named_when_built(self, field):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            GameConfig(**{"n_guests": 3, "word_budget": 2, field: 0})


class TestStep:
    def test_turn_advances_with_zero_reward(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=3),
                         np.random.default_rng(1))
        outcome = step(state, 2, corpus)
        assert outcome.state.turn == 1
        assert outcome.reward == 0.0
        assert not outcome.terminal

    def test_budget_one_terminates_immediately(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=1),
                         np.random.default_rng(2))
        outcome = step(state, 0, corpus)
        assert outcome.terminal

    def test_appended_embedding_is_the_corpus_cell(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=2),
                         np.random.default_rng(3))
        outcome = step(state, 5, corpus)
        assert np.array_equal(outcome.state.uttered[0],
                              corpus.utterance(state.target_id, 5))

    def test_repeated_word_rejected(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=3),
                         np.random.default_rng(4))
        state = step(state, 1, corpus).state
        with pytest.raises(ValueError, match="already requested"):
            step(state, 1, corpus)

    def test_out_of_range_word_rejected(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=3),
                         np.random.default_rng(5))
        with pytest.raises(ValueError, match="out of range"):
            step(state, 6, corpus)

    @pytest.mark.parametrize("word", [True, 1.0, 2.5])
    def test_word_that_is_not_an_integer_rejected(self, corpus, word):
        # True would be recorded as word 1, with a (1, V, D) slab as its utterance
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=3),
                         np.random.default_rng(5))
        with pytest.raises(ValueError, match=f"^word id {word} is not an integer$"):
            step(state, word, corpus)

    def test_numpy_integer_word_accepted(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=3),
                         np.random.default_rng(5))
        assert step(state, np.int64(2), corpus).state.uttered_matrix().shape == (1, 4)

    def test_stepping_a_finished_episode_rejected(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=1),
                         np.random.default_rng(6))
        done = step(state, 0, corpus).state
        with pytest.raises(ValueError, match="budget"):
            step(done, 1, corpus)

    def test_input_state_is_unchanged(self, corpus):
        state = new_game(corpus, GameConfig(n_guests=4, word_budget=3),
                         np.random.default_rng(7))
        step(state, 3, corpus)
        assert state.turn == 0
        assert state.requested == ()
        assert state.uttered == ()

    def test_episode_length_is_exactly_the_budget(self, corpus):
        rng = np.random.default_rng(8)
        for budget in (1, 2, 4):
            state = new_game(corpus, GameConfig(n_guests=3, word_budget=budget), rng)
            terminal_seen = False
            for word in range(budget):
                outcome = step(state, word, corpus)
                state = outcome.state
                terminal_seen = outcome.terminal
            assert state.turn == budget
            assert terminal_seen


class TestTerminalReward:
    def make_state(self, corpus, target_index, k=3):
        state = new_game(corpus, GameConfig(n_guests=k, word_budget=1),
                         np.random.default_rng(9))
        return type(state)(guest_ids=state.guest_ids, guest_prints=state.guest_prints,
                           target_index=target_index, word_budget=1,
                           requested=(0,), uttered=(corpus.utterance(state.guest_ids[target_index], 0),))

    def test_one_hot_on_target_wins(self, corpus):
        state = self.make_state(corpus, 1)
        assert terminal_reward(state, np.array([0.0, 1.0, 0.0])) == 1

    def test_uniform_tie_goes_to_lowest_index(self, corpus):
        uniform = np.full(3, 1.0 / 3.0)
        assert terminal_reward(self.make_state(corpus, 0), uniform) == 1
        assert terminal_reward(self.make_state(corpus, 2), uniform) == 0

    def test_argmax_elsewhere_scores_zero(self, corpus):
        state = self.make_state(corpus, 1)
        assert terminal_reward(state, np.array([0.4, 0.35, 0.25])) == 0

    def test_wrong_length_rejected(self, corpus):
        state = self.make_state(corpus, 0)
        with pytest.raises(ValueError, match="probabilities"):
            terminal_reward(state, np.array([1.0, 0.0]))

    def test_uniform_random_guesser_hits_chance_floor(self, corpus):
        # mean terminal reward 1/K within 4 sigma over 1e4 games
        n = 10_000
        k = 5
        rng = np.random.default_rng(10)
        cfg = GameConfig(n_guests=k, word_budget=1)
        wins = 0
        for _ in range(n):
            state = new_game(corpus, cfg, rng)
            probs = rng.random(k)
            wins += terminal_reward(state, probs / probs.sum())
        sigma = np.sqrt(n * (1 / k) * (1 - 1 / k))
        assert abs(wins - n / k) < 4 * sigma


class TestTrace:
    def test_one_record_per_turn(self, corpus, tmp_path):
        state = new_game(corpus, GameConfig(n_guests=3, word_budget=2),
                         np.random.default_rng(11))
        for word in (4, 0):
            state = step(state, word, corpus).state
        path = tmp_path / "episode.jsonl"
        write_episode_trace(path, state)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records[0]["type"] == "game"
        assert [r["word"] for r in records[1:]] == [4, 0]
        assert len(records) == 3
