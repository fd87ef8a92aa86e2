"""Each check passes on a correct output and fails on a corrupted one.

    python3 -m pytest benchmarks/tests
"""

import math

import numpy as np
import pytest

import checks
import tracing
from isrlab import corpus, evaluation, game
from isrlab.enquirer import EnquirerConfig, EnquirerModel
from isrlab.guesser import GuesserConfig, GuesserModel


@pytest.fixture(scope="module")
def world():
    return corpus.generate_synthetic(corpus.SynthConfig(train_speakers=20, test_speakers=5))


@pytest.fixture(scope="module")
def small_guesser():
    return GuesserModel.init(GuesserConfig(dim=32, attn_hidden=16, score_hidden=16),
                             np.random.default_rng(0))


@pytest.fixture(scope="module")
def small_enquirer():
    return EnquirerModel.init(EnquirerConfig(dim=32, vocab_size=20, lstm_hidden=8,
                                             policy_hidden=16, value_hidden=16),
                              np.random.default_rng(1))


def nudged(analytic, name, idx, by=1e-3):
    out = {k: v.copy() for k, v in analytic.items()}
    out[name][idx] += by + abs(out[name][idx]) * 0.01
    return out


def test_guesser_fd_check_fails_on_a_nudged_coordinate(world, small_guesser):
    rng = np.random.default_rng(2)
    guests = world.voice_prints[rng.integers(world.n_speakers, size=(4, 5))]
    uttered = world.utterances[rng.integers(world.n_speakers, size=4)[:, None],
                               np.array([[0, 1, 2]] * 4)]
    targets = np.array([0, 1, 2, 3])
    analytic, objective = checks.guesser_gradients(small_guesser, guests, uttered, targets)
    values = small_guesser.store.values
    coords = checks.sample_coordinates(values, rng, 12)
    ok, detail = checks.fd_spot_check(values, analytic, objective, coords, min_checked=8)
    assert ok, detail
    name, idx = coords[0]
    ok, detail = checks.fd_spot_check(values, nudged(analytic, name, idx), objective,
                                      coords, min_checked=8)
    assert not ok, detail


def test_fd_check_skips_coordinates_that_cross_a_kink():
    values = {"w": np.array([0.0])}

    def objective():
        return float(abs(values["w"][0])), np.array([values["w"][0] > 0])

    ok, detail = checks.fd_spot_check(values, {"w": np.array([0.0])}, objective,
                                      [("w", (0,))], min_checked=1)
    assert not ok and detail.startswith("0 of 1")


def test_bilstm_fd_check_fails_on_a_nudged_coordinate(world, small_enquirer):
    rng = np.random.default_rng(3)
    sequence = world.utterances[rng.integers(world.n_speakers, size=3)[:, None],
                                np.array([[4, 5, 6]] * 3)]
    d_hidden = rng.standard_normal((3, 4, small_enquirer.lstm_spec.out_width))
    values, analytic, objective = checks.bilstm_gradients(small_enquirer, sequence, d_hidden)
    coords = checks.sample_coordinates(values, rng, 12)
    assert checks.fd_spot_check(values, analytic, objective, coords, min_checked=12)[0]
    name, idx = coords[-1]
    assert not checks.fd_spot_check(values, nudged(analytic, name, idx), objective,
                                    coords, min_checked=12)[0]


def test_diversity_check_fails_when_a_pair_is_dropped():
    rng = np.random.default_rng(4)
    tuples = [tuple(rng.choice(20, size=3, replace=False).tolist()) for _ in range(30)]
    report = evaluation.diversity_index(tuples)
    assert checks.diversity_matches(report.omega, tuples)[0]
    dropped = float(np.mean(report.pair_jaccards[1:]))
    assert not checks.diversity_matches(dropped, tuples)[0]


def test_reference_jaccard_of_identical_tuples_is_one():
    assert checks.mean_pairwise_jaccard([(1, 2, 3)] * 5) == 1.0


def test_word_tuple_check_fails_on_a_repeated_or_out_of_range_word():
    good = np.array([[0, 1, 2], [3, 4, 19]])
    assert checks.valid_word_tuples(good, 3, 20)[0]
    assert not checks.valid_word_tuples(np.array([[0, 1, 2], [3, 3, 4]]), 3, 20)[0]
    assert not checks.valid_word_tuples(np.array([[0, 1, 20]]), 3, 20)[0]
    assert not checks.valid_word_tuples(np.array([[0, 1]]), 3, 20)[0]


def test_statistical_checks_fail_at_their_edges():
    assert checks.beats_chance(0.30, 5, 2000)[0]
    assert not checks.beats_chance(0.21, 5, 2000)[0]
    assert checks.loss_below_chance(1.5, 5)[0]
    assert not checks.loss_below_chance(math.log(5), 5)[0]
    assert checks.not_worse(0.45, 1000, 0.46, 4000, sigmas=3.0)[0]
    assert not checks.not_worse(0.30, 1000, 0.46, 4000, sigmas=3.0)[0]


def test_monotone_check_rejects_ties_and_inversions():
    assert checks.strictly_monotone([0.1, 0.2, 0.3])[0]
    assert not checks.strictly_monotone([0.1, 0.1, 0.3])[0]
    assert checks.strictly_monotone([0.5, 0.3, 0.1], decreasing=True)[0]
    assert not checks.strictly_monotone([0.5, 0.6, 0.1], decreasing=True)[0]


def test_curated_check_fails_when_a_better_word_is_left_out():
    scores = np.array([0.1, 0.9, 0.5, 0.7])
    assert checks.curated_is_top(scores, (1, 3), 2)[0]
    assert not checks.curated_is_top(scores, (1, 2), 2)[0]
    assert not checks.curated_is_top(scores, (1, 1), 2)[0]


def test_digest_sees_one_changed_parameter(small_guesser):
    values = {k: v.copy() for k, v in small_guesser.store.values.items()}
    before = checks.digest(values)
    values["score/b0"][3] += 1e-15
    assert not checks.all_identical([before, checks.digest(values)], "calls")[0]
    assert checks.all_identical([before, before], "calls")[0]


def test_replay_detects_changed_probabilities_words_and_rewards(world, small_guesser,
                                                                small_enquirer):
    from isrlab import enquirer, guesser
    rng = np.random.default_rng(5)
    played = []
    for _ in range(6):
        state = game.new_game(world, game.GameConfig(5, 3), rng)
        mask = np.zeros(20, dtype=bool)
        seen = []
        for _ in range(3):
            probs = enquirer.enquirer_forward(small_enquirer, state.guest_prints,
                                              state.uttered_matrix(), mask).probs[0]
            word = enquirer.sample_actions(probs, "greedy")
            seen.append(probs)
            mask[word] = True
            state = game.step(state, word, world).state
        final = guesser.guesser_forward(small_guesser, state.guest_prints,
                                        state.uttered_matrix()).probs[0]
        played.append({"guest_prints": state.guest_prints, "target_index": state.target_index,
                       "target_id": state.target_id, "words": list(state.requested),
                       "probs": seen, "reward": game.terminal_reward(state, final)})
    worst, words, rewards = checks.replay_games(small_enquirer, small_guesser, world, played,
                                                chunk=4)
    assert worst <= 1e-12 and words == 0 and rewards == 0

    played[1]["probs"][2] = played[1]["probs"][2] + 1e-9
    played[2]["words"][0] = (played[2]["words"][0] + 1) % 20
    played[3]["reward"] = 1 - played[3]["reward"]
    worst, words, rewards = checks.replay_games(small_enquirer, small_guesser, world, played,
                                                chunk=4)
    assert worst > 1e-12 and words == 1 and rewards == 1


def test_tracer_splits_self_time_from_child_time():
    tracer = tracing.Tracer()

    def inner():
        return sum(range(20_000))

    traced_inner = tracer.wrap("m.inner", inner, lambda a, k, r: {"rows": 2})

    def outer():
        return traced_inner() + traced_inner()

    tracer.wrap("m.outer", outer, None)()
    inner_stats, outer_stats = tracer.span("setup", "m.inner"), tracer.span("setup", "m.outer")
    assert inner_stats.calls == 2 and inner_stats.counts == {"rows": 4}
    assert outer_stats.self_s == pytest.approx(outer_stats.incl_s - inner_stats.incl_s)
    assert 0.0 <= outer_stats.self_s < outer_stats.incl_s



def test_cell_steps_per_game_counts_only_games_that_run_the_enquirer():
    tracer = tracing.Tracer()
    timed = tracer.stats["timed"] = {}
    # two rounds of 250 greedy games and 5 live games; 10,000 guesser-only games
    for name, counts in (("neural.bilstm_forward", {"cell_steps": 2 * 6_060}),
                         ("enquirer.evaluate_enquirer", {"enquirer_games": 2 * 250}),
                         ("game.new_game", {"enquirer_games": 2 * 5}),
                         ("guesser.guesser_forward", {"games": 2 * 10_000})):
        timed[name] = tracing.SpanStats(counts=counts)
    metrics = tracing.layer_metrics(tracer, n_setups=3, n_rounds=2)
    assert metrics["neural.bilstm_forward.cell_steps"]["value"] == 6_060
    assert metrics["neural.bilstm_forward.cell_steps_per_game"]["value"] == 6_060 / 255
