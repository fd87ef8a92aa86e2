"""Attention pooling, scoring symmetry, gradient flow, and training loop."""

import json
import re
import sys
import tracemalloc
import weakref
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab import guesser as guesser_module
from isrlab import neural
from isrlab.corpus import SynthConfig, generate_synthetic, synthetic_split
from isrlab.guesser import (Games, GuesserConfig, GuesserModel, GuesserTrainConfig,
                            evaluate_guesser, guesser_forward, guesser_loss,
                            guesser_success, mean_guest_prints, sample_game_batch,
                            sample_word_subsets, train_guesser)
from isrlab.neural import ParamStore, dropout_mask


@pytest.fixture()
def tiny_model():
    return GuesserModel.init(GuesserConfig(dim=4, attn_hidden=5, score_hidden=6,
                                           dropout=0.0), np.random.default_rng(0))


class TestForward:
    def test_single_guest_gets_probability_one(self, tiny_model):
        rng = np.random.default_rng(1)
        acts = guesser_forward(tiny_model, rng.standard_normal((1, 4)),
                               rng.standard_normal((2, 4)))
        assert np.array_equal(acts.probs, [[1.0]])

    def test_identical_prints_give_uniform_probabilities(self, tiny_model):
        rng = np.random.default_rng(2)
        print_vec = rng.standard_normal(4)
        guests = np.tile(print_vec, (5, 1))
        acts = guesser_forward(tiny_model, guests, rng.standard_normal((3, 4)))
        assert np.allclose(acts.probs, 0.2, atol=1e-12)

    def test_single_word_pools_to_that_word(self, tiny_model):
        rng = np.random.default_rng(3)
        uttered = rng.standard_normal((1, 4))
        acts = guesser_forward(tiny_model, rng.standard_normal((3, 4)), uttered)
        assert np.array_equal(acts.attn_weights, [[1.0]])
        assert np.allclose(acts.pooled[0], uttered[0], atol=1e-15)

    def test_attention_is_a_convex_combination(self, tiny_model):
        rng = np.random.default_rng(4)
        uttered = rng.standard_normal((6, 4))
        acts = guesser_forward(tiny_model, rng.standard_normal((4, 4)), uttered)
        alpha = acts.attn_weights[0]
        assert abs(alpha.sum() - 1.0) < 1e-6
        assert np.all(alpha >= 0.0)
        lo, hi = uttered.min(axis=0), uttered.max(axis=0)
        assert np.all(acts.pooled[0] >= lo - 1e-12)
        assert np.all(acts.pooled[0] <= hi + 1e-12)

    def test_probabilities_sum_to_one(self, tiny_model):
        rng = np.random.default_rng(5)
        acts = guesser_forward(tiny_model, rng.standard_normal((8, 5, 4)),
                               rng.standard_normal((8, 3, 4)))
        assert np.allclose(acts.probs.sum(axis=1), 1.0, atol=1e-12)

    def test_permutation_equivariance(self, tiny_model):
        # reductions reorder, so equality holds at accumulation precision
        rng = np.random.default_rng(6)
        guests = rng.standard_normal((5, 4))
        uttered = rng.standard_normal((3, 4))
        base = guesser_forward(tiny_model, guests, uttered).probs[0]
        for seed in range(5):
            perm = np.random.default_rng(seed).permutation(5)
            permuted = guesser_forward(tiny_model, guests[perm], uttered).probs[0]
            assert np.allclose(permuted, base[perm], atol=1e-12, rtol=0)
            assert np.argmax(permuted) == np.argwhere(perm == np.argmax(base))[0, 0]

    def test_training_masks_are_drawn_attention_net_first(self):
        # each net's cached activation is its dropout-free ReLU output times
        # a (B*N, H) mask from the one rng, drawn in the order the nets run
        model = GuesserModel.init(GuesserConfig(dim=4, attn_hidden=5, score_hidden=6,
                                                dropout=0.5), np.random.default_rng(11))
        rng = np.random.default_rng(12)
        guests, uttered = rng.standard_normal((8, 5, 4)), rng.standard_normal((8, 3, 4))
        acts = guesser_forward(model, guests, uttered, train=True, rng=np.random.default_rng(13))
        masks = np.random.default_rng(13)
        for net, items, context, shape in (("attn", uttered, acts.mean_guest, (24, 5)),
                                           ("score", guests, acts.pooled, (40, 6))):
            _, plain = neural.pair_forward(model.store, net, items, context)
            assert np.array_equal(getattr(acts, f"_{net}_cache").hidden,
                                  plain.hidden * dropout_mask(masks, shape, 0.5)), net

    def test_dimension_mismatch_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="dimension"):
            guesser_forward(tiny_model, np.zeros((3, 5)), np.zeros((2, 5)))

    @pytest.mark.parametrize("guests, uttered, message", [
        ((4,), (2, 4), "guests shape (4,) is neither (B, K, 4) nor (K, 4), "
                       "for the model dimension 4"),
        ((2, 5, 4), (2, 1, 3, 4),
         "uttered shape (2, 1, 3, 4) does not fit guests shape (2, 5, 4): expected (2, T, 4)"),
        ((2, 5, 4), (3, 3, 4),
         "uttered shape (3, 3, 4) does not fit guests shape (2, 5, 4): expected (2, T, 4)"),
        ((5, 4), (1, 3, 4),
         "uttered shape (1, 3, 4) does not fit guests shape (5, 4): expected (T, 4)")])
    def test_malformed_input_is_named(self, tiny_model, guests, uttered, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            guesser_forward(tiny_model, np.zeros(guests), np.zeros(uttered))

    @pytest.mark.parametrize("k, t, message", [
        (0, 3, "guests shape (2, 0, 4) holds no guest: need at least one guest per game"),
        (5, 0, "need at least one uttered word"),
        (0, 0, "guests shape (2, 0, 4) holds no guest: need at least one guest per game")])
    def test_no_guest_or_no_word_rejected(self, tiny_model, k, t, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            guesser_forward(tiny_model, np.zeros((2, k, 4)), np.zeros((2, t, 4)))


def _dealt(corpus, games, k, t, seed):
    """``games`` seeded ``Games``."""
    rng = np.random.default_rng(seed)
    guest_rows, targets = sample_game_batch(corpus, games, k, rng)
    return Games(corpus, guest_rows, targets,
                 sample_word_subsets(rng, games, np.arange(corpus.vocab_size), t))


def table_pass(model, games):
    """The activations ``guesser_success`` scores ``games`` from: those of
    the private forward on the corpus tables."""
    passes, forward = [], guesser_module._forward
    guesser_module._forward = lambda *args: passes.append(forward(*args)) or passes[-1]
    try:
        guesser_success(model, games)
    finally:
        guesser_module._forward = forward
    return passes[0]


@pytest.mark.parametrize("field", ["n_guests", "word_budget", "batch_size", "n_games",
                                   "valid_games", "eval_every"])
def test_training_count_below_one_is_named(field):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1, got -1$"):
        GuesserTrainConfig(**{field: -1})


@pytest.mark.parametrize("lr", [-0.001, 0.0, float("nan"), float("inf")])
def test_learning_rate_outside_its_range_is_named(lr):
    # a negative rate once trained by gradient ascent
    with pytest.raises(ValueError, match=f"^lr must be finite and positive, got {lr}$"):
        GuesserTrainConfig(lr=lr)


@pytest.mark.parametrize("config", [GuesserConfig, GuesserTrainConfig])
@pytest.mark.parametrize("rate", [1.0, -0.5])
def test_dropout_outside_unit_interval_is_named(config, rate):
    kwargs = {"dim": 4} if config is GuesserConfig else {}
    with pytest.raises(ValueError, match=rf"^dropout must be in \[0, 1\), got {rate}$"):
        config(**kwargs, dropout=rate)


class TestCorpusRows:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_synthetic(SynthConfig(dimension=4, vocab_size=6, train_speakers=9,
                                              test_speakers=0, seed=3))

    def test_table_pass_is_the_array_pass(self, tiny_model, corpus):
        # in-process, so at any BLAS thread count: equal up to rounding
        games = _dealt(corpus, 700, 4, 3, seed=1)
        want = guesser_forward(tiny_model, games.guests, games.uttered)
        got = table_pass(tiny_model, games)
        for name in ("attn_logits", "attn_weights", "pooled", "score_logits", "probs"):
            assert np.allclose(getattr(got, name), getattr(want, name),
                               rtol=1e-12, atol=1e-12), name
        assert got._attn_cache is None and got._score_cache is None

    @pytest.mark.parametrize("field, value, message", [
        ("guest_rows", 9, "guest row 9 is outside"),
        ("guest_rows", -1, "guest row -1 is outside"),
        ("targets", 4, "target column 4 is outside"),
        ("targets", -1, "target column -1 is outside"),
        ("words", 6, "word id 6 is outside"),
        ("words", -2, "word id -2 is outside")])
    def test_out_of_range_row_named(self, corpus, field, value, message):
        games = _dealt(corpus, 5, 4, 3, seed=2)
        bad = getattr(games, field).copy()
        bad.flat[-1] = value
        with pytest.raises(ValueError, match=message):
            replace(games, **{field: bad})

    @pytest.mark.parametrize("guest_rows, targets, words", [
        ((5, 3), (5,), (1, 2)), ((5, 3), (4,), (5, 2)), ((4, 3), (5,), (5, 2)),
        ((5, 3), (5,), (5,)), ((5, 3), (5, 1), (5, 2)), ((15,), (5,), (5, 2))])
    def test_arrays_that_disagree_on_b_rejected(self, corpus, guest_rows, targets, words):
        # one game's words beside five games' guests once broadcast to all five
        message = (f"games of shapes {guest_rows}, {targets} and {words} are not "
                   "(B, K), (B,) and (B, T) for one B")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Games(corpus, *(np.zeros(shape, dtype=np.int64)
                            for shape in (guest_rows, targets, words)))

    def test_model_of_another_dimension_rejected(self, corpus):
        model = GuesserModel.init(GuesserConfig(dim=8), np.random.default_rng(0))
        with pytest.raises(ValueError,
                           match="^guesser dimension 8 does not match corpus dimension 4$"):
            guesser_success(model, _dealt(corpus, 10, 3, 2, seed=4))

    def test_games_without_words_rejected(self, corpus):
        guest_rows, targets = sample_game_batch(corpus, 4, 3, np.random.default_rng(5))
        with pytest.raises(ValueError, match="^need at least one word per game, got 0$"):
            Games(corpus, guest_rows, targets, np.zeros((4, 0), dtype=np.int64))


@settings(max_examples=80, deadline=None)
@given(d=st.sampled_from([1, 32]), k=st.integers(1, 60),
       b=st.one_of(st.integers(1, 600), st.sampled_from([255, 256, 257, 511, 512, 513])),
       seed=st.integers(0, 2 ** 32 - 1))
def test_blocked_mean_guest_is_the_gathered_mean(d, k, b, seed):
    # each game's mean reads only its own K rows, so the blocks of 256
    # games give the whole gather's mean bit for bit, at D=1 (where numpy
    # sums the K axis pairwise) as at D=32
    rng = np.random.default_rng(seed)
    prints = rng.standard_normal((k + 3, d))
    rows = rng.integers(0, k + 3, size=(b, k))
    got = mean_guest_prints(prints, rows)
    assert got.tobytes() == prints[rows].mean(axis=1).tobytes()


class TestScoringHoldsNoGuestGather:
    @pytest.fixture(scope="class")
    def world(self):
        corpus = generate_synthetic(SynthConfig(dimension=6, vocab_size=8,
                                                train_speakers=60, test_speakers=0,
                                                enrollments=2, seed=8))
        return corpus, GuesserModel.init(GuesserConfig(dim=6, attn_hidden=8,
                                                       score_hidden=8),
                                         np.random.default_rng(9))

    def test_guesser_success(self, world):
        corpus, model = world
        rng = np.random.default_rng(1)
        guest_rows, targets = sample_game_batch(corpus, 300, 50, rng)
        games = Games(corpus, guest_rows, targets,
                      sample_word_subsets(rng, 300, np.arange(8), 3))
        assert guesser_success(model, games).shape == (300,)
        assert "guests" not in games.__dict__ and "uttered" not in games.__dict__

    def test_evaluate_guesser_at_fifty_guests(self, world, monkeypatch):
        corpus, model = world
        scored = []
        original = guesser_module.guesser_success

        def recording(model, games):
            scored.append(games)
            return original(model, games)
        monkeypatch.setattr(guesser_module, "guesser_success", recording)
        evaluate_guesser(model, corpus, 50, 3, "random", 4097, seed=2)
        assert [len(games.targets) for games in scored] == [4096, 1]
        assert all("guests" not in games.__dict__ and "uttered" not in games.__dict__
                   for games in scored)


class TestBlockedEval:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    def test_table_pass_equals_array_pass(self, one_blas_thread):
        # each distinct corpus row's product, gathered, is the product of
        # its gathered copy: the game counts put either net's item rows on
        # either side of two 256-row blocks, and the games on either side
        # of a block of 256 games
        one_blas_thread(f"""
            import sys
            sys.path.insert(0, {str(Path(__file__).parent)!r})""" + """
            from isrlab.corpus import SynthConfig, generate_synthetic
            from isrlab.guesser import (Games, GuesserConfig, GuesserModel,
                                        guesser_forward,
                                        sample_game_batch, sample_word_subsets)
            from test_guesser import table_pass
            corpus = generate_synthetic(SynthConfig(train_speakers=60, test_speakers=0,
                                                    seed=5))
            model = GuesserModel.init(GuesserConfig(dim=32), np.random.default_rng(6))
            rng = np.random.default_rng(7)
            for k in (1, 5, 50):
                for t in (1, 3, 20):
                    counts = {1, 2, 511, 512, 513}
                    for n in (k, t):
                        counts |= {-(-512 // n) - 1, -(-512 // n)}
                    for games in sorted(counts):
                        guest_rows, targets = sample_game_batch(corpus, games, k, rng)
                        words = sample_word_subsets(rng, games, np.arange(20), t)
                        dealt = Games(corpus, guest_rows, targets, words)
                        want = guesser_forward(model, dealt.guests, dealt.uttered)
                        got = table_pass(model, dealt)
                        for name in ("attn_logits", "attn_weights", "pooled",
                                     "score_logits", "probs"):
                            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                                (k, t, games, name)
            """)

    def test_eval_pass_equals_whole_batch_pass(self, one_blas_thread):
        # without dropout a training pass and an eval pass on arrays give the
        # same outputs and gradients; both run in blocks of 256 item rows once
        # a net has 512 or more (the whole-batch reference is in
        # tests/test_neural.py).
        # The cases put K and T at 1, K up to 513, and either net's item
        # rows on either side of a block boundary
        one_blas_thread("""
            from isrlab.guesser import (GuesserConfig, GuesserModel,
                                        guesser_forward, guesser_loss)
            rng = np.random.default_rng(0)
            model = GuesserModel.init(GuesserConfig(dim=32, dropout=0.0), rng)
            for games, k, t in [(1, 5, 3), (2, 5, 3), (7, 5, 3), (300, 5, 3),
                                (513, 5, 3), (5000, 5, 3), (300, 50, 20),
                                (600, 1, 1), (85, 3, 3), (86, 3, 1), (171, 3, 3),
                                (36, 7, 1), (37, 7, 7), (73, 7, 7), (74, 7, 1),
                                (102, 5, 1), (103, 5, 1), (5, 50, 1), (6, 50, 1),
                                (11, 50, 3), (1, 513, 1), (2, 513, 1)]:
                guests = rng.standard_normal((games, k, 32))
                uttered = rng.standard_normal((games, t, 32))
                targets = rng.integers(0, k, size=games)
                probs, grads = [], []
                for train in (True, False):
                    acts = guesser_forward(model, guests, uttered, train=train)
                    probs.append(acts.probs)
                    guesser_loss(model, acts, targets)
                    grads.append({n: g.copy() for n, g in model.store.grads.items()})
                    model.store.zero_grads()
                assert np.array_equal(probs[0], probs[1]), games
                for name in grads[0]:
                    assert np.array_equal(grads[0][name], grads[1][name]), (games, name)
            """)

    @pytest.mark.parametrize("k, share", [(50, 0.25), (5, 0.75)])
    def test_scoring_peak_memory_is_blocks_not_the_paired_rows(self, k, share):
        # scoring holds a block of hidden activations and a block of games'
        # context rows, never the (B*K, 2D) rows [guest, pooled]; at K=5
        # the 4,096 games' 512-wide context rows would outweigh them
        corpus = generate_synthetic(SynthConfig(train_speakers=60, test_speakers=0, seed=9))
        model = GuesserModel.init(GuesserConfig(dim=32), np.random.default_rng(9))
        games = _dealt(corpus, 4096, k, 3, seed=10)
        paired_rows = 4096 * k * 64 * corpus.voice_prints.itemsize
        tracemalloc.start()
        try:
            guesser_success(model, games)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < share * paired_rows


class TestLoss:
    def test_uniform_probabilities_cost_ln_k(self, tiny_model):
        rng = np.random.default_rng(7)
        guests = np.tile(rng.standard_normal(4), (5, 1))
        acts = guesser_forward(tiny_model, guests, rng.standard_normal((3, 4)))
        loss = guesser_loss(tiny_model, acts, np.array([2]))
        assert loss == pytest.approx(np.log(5.0), abs=1e-12)

    def test_eval_pass_is_dropout_free(self, monkeypatch):
        # an eval pass on arrays draws no mask, and its loss gives the
        # gradients of a dropout-0 copy's training pass
        rng = np.random.default_rng(10)
        model = GuesserModel.init(GuesserConfig(dim=4, attn_hidden=5, score_hidden=6,
                                                dropout=0.5), rng)
        plain = GuesserModel(replace(model.config, dropout=0.0), ParamStore())
        for name, value in model.store.values.items():
            plain.store.add(name, value)
        guests = rng.standard_normal((20, 5, 4))
        uttered = rng.standard_normal((20, 3, 4))
        targets = rng.integers(0, 5, size=20)
        guesser_loss(plain, guesser_forward(plain, guests, uttered, train=True), targets)

        def no_draws(*args):
            raise AssertionError("the eval pass drew a dropout mask")

        monkeypatch.setattr(neural, "dropout_mask", no_draws)
        guesser_loss(model, guesser_forward(model, guests, uttered), targets)
        for name, grad in plain.store.grads.items():
            assert np.array_equal(model.store.grads[name], grad), name

    def test_gradients_match_finite_differences(self, tiny_model):
        rng = np.random.default_rng(8)
        guests = rng.standard_normal((2, 2, 4))
        uttered = rng.standard_normal((2, 2, 4))
        targets = np.array([1, 0])
        acts = guesser_forward(tiny_model, guests, uttered)
        guesser_loss(tiny_model, acts, targets)
        analytic = {k: g.copy() for k, g in tiny_model.store.grads.items()}
        tiny_model.store.zero_grads()

        def loss():
            acts = guesser_forward(tiny_model, guests, uttered)
            losses, _ = neural.softmax_cross_entropy(acts.score_logits, targets)
            return float(losses.mean())

        for name, p in tiny_model.store.values.items():
            num = neural.numerical_gradient(lambda _: loss(), p)
            assert neural.max_relative_error(analytic[name], num) < 1e-4, name


class TestSamplers:
    def test_guests_are_distinct_and_targets_in_range(self):
        corpus = generate_synthetic(SynthConfig(dimension=3, vocab_size=4,
                                                train_speakers=7, test_speakers=0,
                                                enrollments=2, seed=1))
        rows, targets = sample_game_batch(corpus, 500, 4, np.random.default_rng(0))
        assert rows.shape == (500, 4)
        assert all(len(set(r)) == 4 for r in rows)
        assert targets.min() >= 0 and targets.max() < 4

    def test_word_subsets_are_distinct_and_from_pool(self):
        pool = np.array([1, 3, 5, 7, 9])
        words = sample_word_subsets(np.random.default_rng(1), 300, pool, 3)
        assert words.shape == (300, 3)
        assert all(len(set(w)) == 3 for w in words)
        assert set(words.ravel()) <= set(pool.tolist())

    @pytest.mark.parametrize("n_words", [0, -1])
    def test_word_count_below_one_named(self, n_words):
        # -1 once kept all but the last of the pool's words, and 0 none
        with pytest.raises(ValueError, match=f"^n_words must be at least 1, got {n_words}$"):
            sample_word_subsets(np.random.default_rng(0), 10, np.arange(20), n_words)

    def test_oversized_requests_rejected(self):
        corpus = generate_synthetic(SynthConfig(dimension=3, vocab_size=4,
                                                train_speakers=3, test_speakers=0,
                                                enrollments=2, seed=1))
        with pytest.raises(ValueError):
            sample_game_batch(corpus, 10, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_word_subsets(np.random.default_rng(0), 10, np.arange(3), 4)

    @pytest.mark.parametrize("n_guests", [0, -2])
    def test_no_guests_named(self, n_guests):
        corpus = generate_synthetic(SynthConfig(dimension=3, vocab_size=4,
                                                train_speakers=3, test_speakers=0,
                                                enrollments=2, seed=1))
        with pytest.raises(ValueError,
                           match=f"^need at least one guest per game, got {n_guests}$"):
            sample_game_batch(corpus, 10, n_guests, np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_split():
    return synthetic_split(SynthConfig(dimension=8, vocab_size=8, train_speakers=30,
                                       test_speakers=10, enrollments=4, seed=3))


class TestTraining:
    def test_loss_trend_is_downward(self, small_split):
        train, valid = small_split
        cfg = GuesserTrainConfig(n_guests=4, word_budget=2, batch_size=128,
                                 n_games=38_400, lr=1e-3, dropout=0.0,
                                 valid_games=500, eval_every=50, seed=0)
        model, curve = train_guesser(train, valid, cfg)
        losses = [row["train_loss"] for row in curve]
        assert losses[-1] < losses[0]
        assert curve[-1]["games_seen"] == 38_400

    def test_curve_has_the_documented_fields(self, small_split):
        train, valid = small_split
        cfg = GuesserTrainConfig(n_guests=3, word_budget=2, batch_size=64,
                                 n_games=640, valid_games=200, eval_every=5, seed=1)
        _, curve = train_guesser(train, valid, cfg)
        assert len(curve) == 2
        for row in curve:
            assert set(row) == {"epoch", "games_seen", "train_loss", "valid_accuracy"}

    def test_each_step_is_released_before_the_next_forward(self, small_split, monkeypatch):
        # the inputs and every array of the activations a forward returns,
        # the nets' caches included, are gone when the next forward starts:
        # the next batch's or a validation game's.  Both run the private
        # forward; a validation pass reads the corpus tables, which stay
        train, valid = small_split
        original = guesser_module._forward
        held, alive_at_call = [], []

        def arrays(obj):
            for field in fields(obj):
                value = getattr(obj, field.name)
                if isinstance(value, np.ndarray):
                    yield value
                elif is_dataclass(value):
                    yield from arrays(value)

        def tracking(model, guests, uttered, *args):
            alive_at_call.append(sum(ref() is not None for ref in held))
            acts = original(model, guests, uttered, *args)
            inputs = [guests[0], uttered[0]] if guests[1] is None else []
            held[:] = map(weakref.ref, [*inputs, *arrays(acts)])
            return acts
        monkeypatch.setattr(guesser_module, "_forward", tracking)
        train_guesser(train, valid, GuesserTrainConfig(n_guests=3, word_budget=2,
                                                       batch_size=64, n_games=640,
                                                       valid_games=200, eval_every=5))
        assert len(alive_at_call) == 10 + 2
        assert alive_at_call == [0] * len(alive_at_call)

    def test_mismatched_corpora_rejected(self, small_split):
        train, _ = small_split
        other = generate_synthetic(SynthConfig(dimension=4, vocab_size=8,
                                               train_speakers=5, test_speakers=0,
                                               enrollments=2, seed=9))
        with pytest.raises(ValueError, match="dimension"):
            train_guesser(train, other, GuesserTrainConfig(n_games=64, batch_size=64))


class TestEvaluate:
    def test_single_guest_is_always_right(self, small_split, tiny_model):
        _, test = small_split
        model = GuesserModel.init(GuesserConfig(dim=test.dimension),
                                  np.random.default_rng(0))
        acc, err = evaluate_guesser(model, test, 1, 2, "random", 500, seed=0)
        assert acc == 1.0 and err == 0.0

    def test_same_seed_same_accuracy(self, small_split):
        _, test = small_split
        model = GuesserModel.init(GuesserConfig(dim=test.dimension),
                                  np.random.default_rng(0))
        a = evaluate_guesser(model, test, 4, 2, "random", 2000, seed=5)
        b = evaluate_guesser(model, test, 4, 2, "random", 2000, seed=5)
        assert a == b

    def test_fixed_word_list_is_honored(self, small_split):
        _, test = small_split
        model = GuesserModel.init(GuesserConfig(dim=test.dimension),
                                  np.random.default_rng(0))
        acc_fixed, _ = evaluate_guesser(model, test, 3, 2, [0, 1], 300, seed=2)
        assert 0.0 <= acc_fixed <= 1.0
        with pytest.raises(ValueError, match="unknown word policy"):
            evaluate_guesser(model, test, 3, 2, "fancy", 300, seed=2)

    @pytest.mark.parametrize("pool, message", [
        ([1, -1, 2], "word id -1 in the word pool is outside [0, 8)"),
        ([1, 1, 1], "word id 1 is repeated in the word pool"),
        ([1, 2, 99], "word id 99 in the word pool is outside [0, 8)"),
        ([0.5, 1.7, 2.2, 3.9], "word id 0.5 is not an integer"),
        ([True, False, 2, 3], "word id True is not an integer"),
        (["1", "2", "3"], "word id '1' is not an integer"),
        (np.array([1.9, 2.9, 3.9]), "word id 1.9 is not an integer"),
        ([1, 2.0, 3], "word id 2.0 is not an integer"),
        (np.array([True, False, True]), "word id True is not an integer"),
        ([1, None, 3], "word id None is not an integer"),
    ])
    def test_fixed_pool_names_a_bad_word_id(self, small_split, pool, message):
        _, test = small_split
        model = GuesserModel.init(GuesserConfig(dim=test.dimension),
                                  np.random.default_rng(0))
        with pytest.raises(ValueError) as exc:
            evaluate_guesser(model, test, 3, 3, pool, 100, seed=2)
        assert str(exc.value) == message

    def test_untrained_model_sits_near_chance(self, small_split):
        # random-feature scoring drifts a couple points off exact chance;
        # the band here is the acceptance-level binomial check at K=5
        _, test = small_split
        model = GuesserModel.init(GuesserConfig(dim=test.dimension),
                                  np.random.default_rng(1))
        acc, _ = evaluate_guesser(model, test, 5, 2, "random", 10_000, seed=11)
        assert abs(acc - 0.2) < 0.05


class TestCheckpoint:
    def test_round_trip(self, tiny_model, tmp_path):
        path = tmp_path / "guesser.json"
        tiny_model.save(path)
        loaded = GuesserModel.load(path)
        assert loaded.config == tiny_model.config
        for name in tiny_model.store.values:
            assert np.array_equal(loaded.store.values[name], tiny_model.store.values[name])

    @pytest.mark.parametrize("name, edit, message", [
        ("score/W1", lambda p: p.pop("score/W1"), "missing"),
        ("score/W2", lambda p: p.update({"score/W2": {"shape": [1], "values": [0.0]}}),
         "unexpected"),
        ("attn/W0", lambda p: p["attn/W0"].update({"shape": [5, 8]}), r"\(5, 8\)"),
        ("score/W1", lambda p: p["score/W1"].update(
            {"values": [float("nan")] * len(p["score/W1"]["values"])}), "non-finite"),
    ], ids=["missing", "unexpected", "misshapen", "non-finite"])
    def test_parameter_defect_rejected_by_name(self, tiny_model, tmp_path, name, edit,
                                               message):
        path = tmp_path / "guesser.json"
        tiny_model.save(path)
        payload = json.loads(path.read_text())
        edit(payload["params"])
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message) as exc:
            GuesserModel.load(path)
        assert repr(name) in str(exc.value)

    def test_dropout_outside_unit_interval_rejected_at_load(self, tiny_model, tmp_path):
        path = tmp_path / "guesser.json"
        tiny_model.save(path)
        payload = json.loads(path.read_text())
        payload["arch"]["dropout"] = 1.5
        payload["arch_hash"] = neural.arch_hash(payload["arch"])
        path.write_text(json.dumps(payload))
        with pytest.raises(neural.CheckpointFormatError,
                           match=rf"^checkpoint {re.escape(str(path))}: "
                                 r"dropout must be in \[0, 1\), got 1.5$"):
            GuesserModel.load(path)

    # one defect per case, the arch hash redone after the edit; each is
    # named with the file and the field or parameter
    DEFECTS = {
        "arch-field-missing": (lambda p: p["arch"].pop("score_hidden"),
                               "arch has no field 'score_hidden'"),
        "string-dim": (lambda p: p["arch"].update(dim="3"),
                       "arch field 'dim' is not an integer of at least 1: '3'"),
        "fractional-dim": (lambda p: p["arch"].update(dim=2.5),
                           "arch field 'dim' is not an integer of at least 1: 2.5"),
        "boolean-dim": (lambda p: p["arch"].update(dim=True),
                        "arch field 'dim' is not an integer of at least 1: True"),
        "string-dropout": (lambda p: p["arch"].update(dropout="0"),
                           "arch field 'dropout' is not a number: '0'"),
        "arch-list": (lambda p: p.update(arch=list(p["arch"].values())),
                      "'arch' is a JSON list, not an object"),
        "params-list": (lambda p: p.update(params=list(p["params"].values())),
                        "'params' is a JSON list, not an object"),
        "record-not-object": (lambda p: p["params"].update({"attn/W0": [0.0] * 40}),
                              "parameter 'attn/W0' is not an object"),
        "one-value-short": (lambda p: p["params"]["attn/W0"]["values"].pop(),
                            r"parameter 'attn/W0' does not hold the 40 numbers of its "
                            r"shape \(8, 5\)"),
        "string-shape": (lambda p: p["params"]["attn/W0"].update(shape=[8, "5"]),
                         r"parameter 'attn/W0' has a shape that is not a list of counts: "
                         r"\[8, '5'\]"),
        "string-values": (lambda p: p["params"]["attn/W0"].update(values="abc"),
                          r"parameter 'attn/W0' does not hold the 40 numbers of its "
                          r"shape \(8, 5\)"),
        "string-step-count": (lambda p: p.update(step_count="7"),
                              "step_count '7' is not a count"),
        "fractional-step-count": (lambda p: p.update(step_count=2.5),
                                  "step_count 2.5 is not a count"),
    }

    @pytest.mark.parametrize("case", list(DEFECTS))
    def test_format_defect_is_named(self, tiny_model, tmp_path, case):
        edit, message = self.DEFECTS[case]
        path = tmp_path / "guesser.json"
        tiny_model.save(path)
        payload = json.loads(path.read_text())
        edit(payload)
        payload["arch_hash"] = neural.arch_hash(payload["arch"])
        path.write_text(json.dumps(payload))
        with pytest.raises(neural.CheckpointFormatError,
                           match=f"^checkpoint {re.escape(str(path))}: {message}$"):
            GuesserModel.load(path)

    def test_byte_that_is_not_utf8_is_named(self, tiny_model, tmp_path):
        path = tmp_path / "guesser.json"
        tiny_model.save(path)
        path.write_bytes(path.read_bytes().replace(b'"guesser"', b'"gues\xffser"', 1))
        with pytest.raises(neural.CheckpointFormatError,
                           match=f"^checkpoint {re.escape(str(path))}: not valid UTF-8$"):
            GuesserModel.load(path)
