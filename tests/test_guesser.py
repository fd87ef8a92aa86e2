"""Attention pooling, scoring symmetry, gradient flow, and training loop."""

import json
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from isrlab import neural
from isrlab.corpus import SynthConfig, generate_synthetic, synthetic_split
from isrlab.guesser import (Games, GuesserConfig, GuesserModel, GuesserTrainConfig,
                            evaluate_guesser, guesser_forward,
                            guesser_loss, sample_game_batch, sample_word_subsets,
                            train_guesser)
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
        # one (B*N, H) mask per net, in the order the nets run
        model = GuesserModel.init(GuesserConfig(dim=4, attn_hidden=5, score_hidden=6,
                                                dropout=0.5), np.random.default_rng(11))
        rng = np.random.default_rng(12)
        acts = guesser_forward(model, rng.standard_normal((8, 5, 4)),
                               rng.standard_normal((8, 3, 4)), train=True,
                               rng=np.random.default_rng(13))
        masks = np.random.default_rng(13)
        assert np.array_equal(acts._attn_cache.dropout_masks[0],
                              dropout_mask(masks, (24, 5), 0.5))
        assert np.array_equal(acts._score_cache.dropout_masks[0],
                              dropout_mask(masks, (40, 6), 0.5))

    def test_dimension_mismatch_rejected(self, tiny_model):
        with pytest.raises(ValueError, match="dimension"):
            guesser_forward(tiny_model, np.zeros((3, 5)), np.zeros((2, 5)))

    @pytest.mark.parametrize("k, t", [(0, 3), (5, 0), (0, 0)])
    def test_no_guest_or_no_word_rejected(self, tiny_model, k, t):
        with pytest.raises(ValueError, match="need at least one guest and one uttered word"):
            guesser_forward(tiny_model, np.zeros((2, k, 4)), np.zeros((2, t, 4)))


def _dealt(corpus, games, k, t, seed):
    """``games`` seeded games' gathered arrays and the ``Games`` behind them."""
    rng = np.random.default_rng(seed)
    guest_rows, targets = sample_game_batch(corpus, games, k, rng)
    words = sample_word_subsets(rng, games, np.arange(corpus.vocab_size), t)
    rows = Games(corpus, guest_rows, targets, words)
    return rows.guests, rows.uttered, rows


@pytest.mark.parametrize("field", ["n_guests", "word_budget", "batch_size", "n_games",
                                   "valid_games", "eval_every"])
def test_training_count_below_one_is_named(field):
    with pytest.raises(ValueError, match=f"^{field} must be at least 1, got -1$"):
        GuesserTrainConfig(**{field: -1})


class TestCorpusRows:
    @pytest.fixture(scope="class")
    def corpus(self):
        return generate_synthetic(SynthConfig(dimension=4, vocab_size=6, train_speakers=9,
                                              test_speakers=0, seed=3))

    def test_rows_form_is_the_array_form(self, tiny_model, corpus):
        # in-process, so at any BLAS thread count: equal up to rounding
        guests, uttered, rows = _dealt(corpus, 700, 4, 3, seed=1)
        want = guesser_forward(tiny_model, guests, uttered)
        got = guesser_forward(tiny_model, guests, uttered, rows=rows)
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
    def test_out_of_range_row_named(self, tiny_model, corpus, field, value, message):
        guests, uttered, rows = _dealt(corpus, 5, 4, 3, seed=2)
        bad = getattr(rows, field).copy()
        bad.flat[-1] = value
        with pytest.raises(ValueError, match=message):
            guesser_forward(tiny_model, guests, uttered, rows=replace(rows, **{field: bad}))

    def test_rows_of_other_games_rejected(self, tiny_model, corpus):
        guests, uttered, rows = _dealt(corpus, 5, 4, 3, seed=3)
        with pytest.raises(ValueError, match="do not match 5 games of 4 guests and 2 words"):
            guesser_forward(tiny_model, guests, uttered[:, :2], rows=rows)

    def test_rows_are_for_eval_passes(self, tiny_model, corpus):
        guests, uttered, rows = _dealt(corpus, 5, 4, 3, seed=4)
        with pytest.raises(ValueError, match="eval pass"):
            guesser_forward(tiny_model, guests, uttered, train=True, rows=rows)


class TestBlockedEval:
    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="counts threads in /proc/self/task")
    def test_rows_form_equals_array_form(self, one_blas_thread):
        # each distinct corpus row's product, gathered, is the product of
        # its gathered copy: the game counts put either net's item rows on
        # either side of two 256-row blocks, and the games on either side
        # of a block of 256 games
        one_blas_thread("""
            from isrlab.corpus import SynthConfig, generate_synthetic
            from isrlab.guesser import (Games, GuesserConfig, GuesserModel,
                                        guesser_forward,
                                        sample_game_batch, sample_word_subsets)
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
                        rows = Games(corpus, guest_rows, targets, words)
                        guests, uttered = rows.guests, rows.uttered
                        want = guesser_forward(model, guests, uttered)
                        got = guesser_forward(model, guests, uttered, rows=rows)
                        for name in ("attn_logits", "score_logits", "probs"):
                            assert np.array_equal(getattr(got, name), getattr(want, name)), \
                                (k, t, games, name)
            """)

    def test_eval_pass_equals_whole_batch_pass(self, one_blas_thread):
        # without dropout a training pass is the whole-batch pair_forward
        # pass and keeps its caches; an eval pass runs in blocks of 256 item
        # rows once a net has 512 or more.  The cases put K and T at 1, K up
        # to 513, and either net's item rows on either side of a block
        # boundary
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
    def test_eval_peak_memory_is_blocks_not_the_paired_rows(self, k, share):
        # an eval pass holds a block of hidden activations and a block of
        # games' context rows, never the (B*K, 2D) rows [guest, pooled]; at
        # K=5 the 4,096 games' 512-wide context rows would outweigh them
        rng = np.random.default_rng(9)
        model = GuesserModel.init(GuesserConfig(dim=32), rng)
        guests = rng.standard_normal((4096, k, 32))
        uttered = rng.standard_normal((4096, 3, 32))
        paired_rows = 4096 * k * 64 * guests.itemsize
        tracemalloc.start()
        try:
            guesser_forward(model, guests, uttered)
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

    def test_eval_rebuild_is_dropout_free(self, monkeypatch):
        # eval-mode activations carry no caches; the rebuild draws no mask
        # and gives the gradients of a dropout-0 copy's training pass
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
        acts = guesser_forward(model, guests, uttered)

        def no_draws(*args):
            raise AssertionError("the rebuild drew a dropout mask")

        monkeypatch.setattr(neural, "dropout_mask", no_draws)
        guesser_loss(model, acts, targets)
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

    def test_oversized_requests_rejected(self):
        corpus = generate_synthetic(SynthConfig(dimension=3, vocab_size=4,
                                                train_speakers=3, test_speakers=0,
                                                enrollments=2, seed=1))
        with pytest.raises(ValueError):
            sample_game_batch(corpus, 10, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_word_subsets(np.random.default_rng(0), 10, np.arange(3), 4)


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
        for row in curve:
            assert {"epoch", "games_seen", "train_loss", "valid_accuracy"} <= set(row)

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
    ], ids=["missing", "unexpected", "misshapen"])
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
