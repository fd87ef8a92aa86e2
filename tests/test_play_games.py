"""One dealer and one chunked play-and-score loop behind every evaluator.

The reference functions below are the per-evaluator loops that
``guesser.play_games`` replaced, apart from dealing the enquirer's games
outside ``_play_games`` and gathering each chunk's guest prints and
utterances with the local ``gather``.  Each evaluator must reproduce its
loop exactly, across chunk boundaries.
"""

import sys

import numpy as np
import pytest

from isrlab import guesser as guesser_module
from isrlab.corpus import SynthConfig, generate_synthetic
from isrlab.enquirer import (EnquirerConfig, EnquirerModel, _play_games,
                             evaluate_enquirer)
from isrlab.evaluation import (HeuristicConfig, cosine_nearest_print_accuracy,
                               heuristic_baseline)
from isrlab.game import GameConfig, new_game
from isrlab.guesser import (CHUNK_GAMES, Games, GuesserConfig, GuesserModel,
                            evaluate_guesser, guesser_forward, play_games,
                            sample_game_batch, sample_word_subsets, word_pool_policy)


def gather(corpus, guest_rows, targets, words):
    guests = corpus.voice_prints[guest_rows]
    target_rows = guest_rows[np.arange(len(targets)), targets]
    return guests, corpus.utterances[target_rows[:, None], words]


def reference_evaluate_guesser(model, corpus, n_guests, n_words, word_policy,
                               n_games, seed, chunk=4096):
    pool = (np.arange(corpus.vocab_size) if isinstance(word_policy, str)
            else np.asarray(word_policy, dtype=int))
    rng = np.random.default_rng(seed)
    hits = 0
    done = 0
    while done < n_games:
        b = min(chunk, n_games - done)
        guest_rows, targets = sample_game_batch(corpus, b, n_guests, rng)
        words = sample_word_subsets(rng, b, pool, n_words)
        guests, uttered = gather(corpus, guest_rows, targets, words)
        probs = guesser_forward(model, guests, uttered).probs
        hits += int(np.sum(np.argmax(probs, axis=1) == targets))
        done += b
    acc = hits / n_games
    return acc, float(np.sqrt(acc * (1.0 - acc) / n_games))


def reference_cosine(corpus, n_guests, n_words, n_games, seed, chunk=4096):
    rng = np.random.default_rng(seed)
    vocab = np.arange(corpus.vocab_size)
    hits = 0
    done = 0
    while done < n_games:
        b = min(chunk, n_games - done)
        guest_rows, targets = sample_game_batch(corpus, b, n_guests, rng)
        words = sample_word_subsets(rng, b, vocab, n_words)
        guests, uttered = gather(corpus, guest_rows, targets, words)
        sims = np.einsum("btd,bkd->btk", uttered, guests)
        sims /= np.linalg.norm(uttered, axis=2)[:, :, None]
        sims /= np.linalg.norm(guests, axis=2)[:, None, :]
        scores = sims.mean(axis=1)
        hits += int(np.sum(np.argmax(scores, axis=1) == targets))
        done += b
    acc = hits / n_games
    return acc, float(np.sqrt(acc * (1.0 - acc) / n_games))


def reference_evaluate_enquirer(enquirer, guesser, corpus, n_guests, word_budget,
                                n_games, seed, chunk=4096):
    rng = np.random.default_rng(seed)
    hits = 0
    tuples = []
    done = 0
    while done < n_games:
        b = min(chunk, n_games - done)
        guest_rows, targets = sample_game_batch(corpus, b, n_guests, rng)
        words = _play_games(enquirer, corpus, guest_rows, targets, word_budget,
                            "greedy", rng)[0]
        probs = guesser_forward(guesser, *gather(corpus, guest_rows, targets, words)).probs
        hits += int(np.sum(np.argmax(probs, axis=1) == targets))
        tuples.append(words)
        done += b
    rate = hits / n_games
    return rate, float(np.sqrt(rate * (1.0 - rate) / n_games)), np.concatenate(tuples)


def reference_heuristic_scores(guesser, corpus, config, seed):
    """Each word's games as one unchunked batch."""
    v = corpus.vocab_size
    rng = np.random.default_rng(seed)
    scores = np.zeros(v)
    for word in range(v):
        others = np.array([w for w in range(v) if w != word])
        guest_rows, targets = sample_game_batch(
            corpus, config.games_per_word, config.n_guests, rng)
        # the word sampler's draw, which rejects a count of none at T=1
        keys = rng.random((config.games_per_word, others.size))
        rest = others[np.argsort(keys, axis=1)[:, :config.word_budget - 1]]
        words = np.concatenate(
            [np.full((config.games_per_word, 1), word), rest], axis=1)
        guests, uttered = gather(corpus, guest_rows, targets, words)
        probs = guesser_forward(guesser, guests, uttered).probs
        scores[word] = np.mean(np.argmax(probs, axis=1) == targets)
    return scores


@pytest.fixture(scope="module")
def world():
    corpus = generate_synthetic(SynthConfig(dimension=8, vocab_size=6, train_speakers=30,
                                            test_speakers=0, enrollments=3, seed=4))
    rng = np.random.default_rng(5)
    guesser = GuesserModel.init(GuesserConfig(dim=8, attn_hidden=16, score_hidden=16), rng)
    enquirer = EnquirerModel.init(
        EnquirerConfig(dim=8, vocab_size=6, lstm_hidden=8, policy_hidden=16,
                       value_hidden=16), rng)
    return corpus, guesser, enquirer


N_GAMES = 4097   # a whole chunk of 4,096 games and a partial one


class TestSameOutputsAsTheLoopsReplaced:
    @pytest.mark.parametrize("policy", ["random", [0, 2, 3, 5]], ids=["random", "pool"])
    def test_evaluate_guesser(self, world, policy):
        corpus, guesser, _ = world
        got = evaluate_guesser(guesser, corpus, 4, 3, policy, N_GAMES, seed=1)
        assert got == reference_evaluate_guesser(guesser, corpus, 4, 3, policy, N_GAMES,
                                                 seed=1)

    @pytest.mark.parametrize("n_words", [1, 3])
    def test_cosine_yardstick(self, world, n_words):
        corpus, _, _ = world
        got = cosine_nearest_print_accuracy(corpus, 4, n_words, N_GAMES, seed=2)
        assert got == reference_cosine(corpus, 4, n_words, N_GAMES, seed=2)

    def test_evaluate_enquirer(self, world):
        corpus, guesser, enquirer = world
        got = evaluate_enquirer(enquirer, guesser, corpus, 4, 3, N_GAMES, seed=3)
        rate, stderr, tuples = reference_evaluate_enquirer(
            enquirer, guesser, corpus, 4, 3, N_GAMES, seed=3)
        assert (got.success_rate, got.stderr) == (rate, stderr)
        assert np.array_equal(got.word_tuples, tuples)

    @pytest.mark.parametrize("games_per_word", [1, 300, 4096])
    def test_heuristic_scores_up_to_one_chunk(self, world, games_per_word):
        corpus, guesser, _ = world
        config = HeuristicConfig(games_per_word=games_per_word, curated_size=3,
                                 n_guests=4, word_budget=2, eval_games=50)
        got = heuristic_baseline(guesser, corpus, config, seed=4).word_scores
        assert np.array_equal(got, reference_heuristic_scores(guesser, corpus, config,
                                                              seed=4))


class TestPlayGames:
    def test_returns_every_game_played_in_order(self, world):
        corpus, _, _ = world
        seen = []

        def policy(guest_rows, targets, rng):
            seen.append(len(targets))
            return sample_word_subsets(rng, len(targets), np.arange(6), 2)

        played = play_games(
            corpus, 3, 8200, policy, lambda games: np.ones(len(games.targets)),
            np.random.default_rng(0))
        assert seen == [4096, 4096, 8]
        assert played.word_tuples.shape == (8200, 2)
        assert (played.success_rate, played.stderr) == (1.0, 0.0)

    def test_record_joins_each_chunks_deal_and_scores(self, world):
        # across a chunk boundary the record holds every chunk's deal, words
        # and successes in order, and reads the rate and stderr of the hits
        # counted chunk by chunk; the scorer's gathers are not kept
        corpus, _, _ = world
        n_games = CHUNK_GAMES + 3
        policy = word_pool_policy(np.arange(corpus.vocab_size), 2)

        def scorer(games):
            return ((games.mean_guest[:, 0] > 0) == (games.words[:, 0] % 2 == 0)).astype(float)
        played = play_games(corpus, 4, n_games, policy, scorer, np.random.default_rng(9))

        rng, chunks = np.random.default_rng(9), []
        for b in (CHUNK_GAMES, 3):
            guest_rows, targets = sample_game_batch(corpus, b, 4, rng)
            words = policy(guest_rows, targets, rng)
            chunks.append((guest_rows, targets, words,
                           scorer(Games(corpus, guest_rows, targets, words))))
        games = played.games
        for got, parts in zip((games.guest_rows, games.targets, games.words, played.success),
                              zip(*chunks)):
            assert np.array_equal(got, np.concatenate(parts))
        assert games.corpus is corpus and played.word_tuples is games.words
        assert not {"guests", "uttered", "mean_guest"} & vars(games).keys()
        rate = sum(int(success.sum()) for *_, success in chunks) / n_games
        assert 0 < rate < 1
        assert played.success_rate == rate
        assert played.stderr == float(np.sqrt(rate * (1.0 - rate) / n_games))

    def test_oversized_guest_count_named(self, world):
        corpus, _, _ = world
        with pytest.raises(ValueError, match="31 guests exceed the 30 corpus speakers"):
            play_games(corpus, 31, 5, None, None, np.random.default_rng(0))

    @pytest.mark.parametrize("n_games", [0, -3])
    def test_no_games_is_a_named_error(self, world, n_games):
        corpus, guesser, enquirer = world
        for call in (lambda: evaluate_guesser(guesser, corpus, 4, 3, "random", n_games, 0),
                     lambda: cosine_nearest_print_accuracy(corpus, 4, 3, n_games, 0),
                     lambda: evaluate_enquirer(enquirer, guesser, corpus, 4, 3, n_games, 0)):
            with pytest.raises(ValueError, match=f"at least one game to score, got {n_games}"):
                call()

    def test_no_words_is_a_named_error(self, world):
        # an empty word set would score NaN rows (the cosine yardstick's
        # argmax then picks guest 0): the word sampler rejects it
        corpus, guesser, _ = world
        for call in (lambda: cosine_nearest_print_accuracy(corpus, 4, 0, 10, 0),
                     lambda: evaluate_guesser(guesser, corpus, 4, 0, "random", 10, 0)):
            with pytest.raises(ValueError, match="^n_words must be at least 1, got 0$"):
                call()

    def test_heuristic_at_one_word_forces_that_word_alone(self, world):
        # at T=1 the forcing policy draws no other word
        corpus, guesser, _ = world
        config = HeuristicConfig(games_per_word=300, curated_size=3, n_guests=4,
                                 word_budget=1, eval_games=50)
        got = heuristic_baseline(guesser, corpus, config, seed=6).word_scores
        assert np.array_equal(got, reference_heuristic_scores(guesser, corpus, config,
                                                              seed=6))

    def test_non_sequence_word_policy_rejected(self, world):
        corpus, guesser, enquirer = world
        with pytest.raises(TypeError, match="unsupported word policy"):
            evaluate_guesser(guesser, corpus, 4, 3, enquirer, 10, seed=0)


class TestOneDealer:
    @pytest.mark.parametrize("seed", [0, 1, 2, 7, 123])
    def test_new_game_seats_the_batch_dealers_game(self, world, seed):
        corpus, _, _ = world
        state = new_game(corpus, GameConfig(n_guests=5, word_budget=3),
                         np.random.default_rng(seed))
        rows, targets = sample_game_batch(corpus, 1, 5, np.random.default_rng(seed))
        assert state.guest_ids == tuple(int(corpus.speaker_ids[r]) for r in rows[0])
        assert state.target_index == targets[0]
        assert np.array_equal(state.guest_prints, corpus.voice_prints[rows[0]])


def test_heuristic_scores_at_most_one_chunk_per_guesser_call(world, monkeypatch):
    corpus, guesser, _ = world
    batches = []
    original = guesser_module.guesser_forward

    def recording(model, guests, uttered, *args, **kwargs):
        batches.append(len(guests))
        return original(model, guests, uttered, *args, **kwargs)
    monkeypatch.setattr(guesser_module, "guesser_forward", recording)
    config = HeuristicConfig(games_per_word=10_000, curated_size=3, n_guests=4,
                             word_budget=2, eval_games=100)
    heuristic_baseline(guesser, corpus, config, seed=0)
    assert sum(batches) == corpus.vocab_size * 10_000 + 100
    assert max(batches) <= 4096


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts threads in /proc/self/task")
def test_evaluators_hold_only_what_they_read(one_blas_thread):
    # traced peaks at one BLAS thread, in MB: scoring 4,096 games at K=50
    # held their (B, K, D) guest gather (63.7 MB), and at T=20 their
    # (B, T, D) utterance gather (31.5 MB); greedy play held each turn's
    # LSTM steps and head caches through the next turn (74.0 MB), and then
    # the whole chunk's step and heads of one turn (34.6 MB)
    one_blas_thread("""
        import tracemalloc
        from isrlab.corpus import SynthConfig, generate_synthetic
        from isrlab.enquirer import EnquirerConfig, EnquirerModel, evaluate_enquirer
        from isrlab.guesser import GuesserConfig, GuesserModel, evaluate_guesser
        corpus = generate_synthetic(SynthConfig(train_speakers=60, test_speakers=0,
                                                seed=1))
        rng = np.random.default_rng(2)
        guesser = GuesserModel.init(GuesserConfig(dim=32), rng)
        enquirer = EnquirerModel.init(EnquirerConfig(dim=32, vocab_size=20), rng)
        for budget, call in [
                (25, lambda: evaluate_guesser(guesser, corpus, 50, 3, "random", 4096, 0)),
                (15, lambda: evaluate_guesser(guesser, corpus, 5, 20, "random", 4096, 0)),
                (20, lambda: evaluate_enquirer(enquirer, guesser, corpus, 5, 3, 2000, 0))]:
            tracemalloc.start()
            call()
            peak = tracemalloc.get_traced_memory()[1] / 1e6
            tracemalloc.stop()
            assert peak <= budget, f"traced peak {peak:.1f} MB over a budget of {budget} MB"
        """)
