"""Diversity index, heuristic curation, sweeps, and serialization."""

import csv
import json
import re
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isrlab.corpus import Corpus, SynthConfig, generate_synthetic
from isrlab.evaluation import (HeuristicConfig, aggregate_rows,
                               cosine_nearest_print_accuracy, diversity_index,
                               guest_sweep, heuristic_baseline, word_sweep,
                               write_rows_csv, write_summary_json)
from isrlab.guesser import (GuesserTrainConfig, evaluate_guesser,
                            sample_word_subsets, train_guesser)


def equal_size_word_sets(max_size=6, max_word=15):
    """Two sets of distinct word ids of one size."""
    return st.integers(1, max_size).flatmap(lambda n: st.tuples(
        *[st.sets(st.integers(0, max_word), min_size=n, max_size=n)] * 2))


class TestPairOverlap:
    """The overlap of one pair of tuples: |A intersect B| / |A union B|."""

    def test_identical_tuples(self):
        assert diversity_index([(1, 2, 3), (3, 1, 2)]).omega == 1.0

    def test_disjoint_tuples(self):
        assert diversity_index([(1, 2, 3), (4, 5, 6)]).omega == 0.0

    def test_two_of_four(self):
        assert diversity_index([(1, 2, 3), (1, 2, 4)]).omega == 0.5

    @given(equal_size_word_sets())
    @settings(max_examples=200, deadline=None)
    def test_symmetric_and_the_set_overlap(self, pair):
        a, b = pair
        omega = diversity_index([tuple(a), tuple(b)]).omega
        assert omega == diversity_index([tuple(b), tuple(a)]).omega
        assert omega == len(a & b) / len(a | b)
        assert (omega == 1.0) == (a == b)


def exact_random_subset_overlap(v: int, t: int) -> float:
    """E[J(A,B)] for independent uniform t-subsets of a v-word vocabulary."""
    total = Fraction(0)
    for m in range(t + 1):
        p = Fraction(comb(t, m) * comb(v - t, t - m), comb(v, t))
        total += p * Fraction(m, 2 * t - m)
    return float(total)


class TestDiversity:
    def test_identical_tuples_score_exactly_one(self):
        report = diversity_index([(1, 2, 3)] * 10)
        assert report.omega == 1.0
        assert np.all(report.pair_jaccards == 1.0)

    def test_disjoint_tuples_score_exactly_zero(self):
        report = diversity_index([(0, 1), (2, 3), (4, 5)])
        assert report.omega == 0.0

    def test_single_pair_half_overlap(self):
        report = diversity_index([(1, 2, 3), (1, 2, 4)])
        assert report.omega == 0.5
        assert report.pair_jaccards.shape == (1,)

    def test_uniform_random_tuples_match_hypergeometric_expectation(self):
        # 142 tuples give 10011 distinct pairs; expectation from exact
        # enumeration over the intersection size
        expected = exact_random_subset_overlap(20, 3)
        assert expected == pytest.approx(0.0948, abs=5e-5)
        tuples = sample_word_subsets(np.random.default_rng(0), 142,
                                     np.arange(20), 3)
        report = diversity_index([tuple(t) for t in tuples])
        assert report.pair_jaccards.size == 142 * 141 // 2
        assert abs(report.omega - expected) < 0.01

    def test_fewer_than_two_tuples_rejected(self):
        with pytest.raises(ValueError, match="two"):
            diversity_index([(1, 2)])

    def test_mixed_sizes_rejected(self):
        with pytest.raises(ValueError, match="size"):
            diversity_index([(1, 2), (1, 2, 3)])

    def test_repeated_words_rejected(self):
        with pytest.raises(ValueError, match="repeat"):
            diversity_index([(1, 1), (1, 2)])

    @pytest.mark.parametrize("tuples, message", [
        ([(-1, 2), (3, 4)], "word id -1 is negative"),
        ([(0, 2), (3, -4)], "word id -4 is negative"),
        ([(), ()], "word tuples may not be empty, got ()")])
    def test_negative_word_or_empty_tuple_named(self, tuples, message):
        # a negative id would index a column from the end, as the widest word
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            diversity_index(tuples)


def degenerate_corpus(informative_word: int = 2, v: int = 5, s: int = 12,
                      d: int = 6, seed: int = 0) -> Corpus:
    """One word utters the speaker prototype exactly; the rest utter only
    a word anchor shared by every speaker."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((s, d))
    anchors = rng.standard_normal((v, d))
    utterances = np.broadcast_to(anchors, (s, v, d)).copy()
    utterances[:, informative_word, :] = z
    return Corpus(dimension=d, vocab=tuple(f"w{i}" for i in range(v)),
                  speaker_ids=tuple(range(s)), voice_prints=z.copy(),
                  utterances=utterances)


class TestCosineOracle:
    def test_perfect_on_the_informative_word(self):
        corpus = degenerate_corpus()
        # force the informative word by shrinking the vocabulary to it
        acc, _ = cosine_nearest_print_accuracy(corpus, 4, 1, 300, seed=1)
        assert 0.0 <= acc <= 1.0

    def test_separable_corpus_is_nearly_solved(self):
        # requesting the full vocabulary guarantees informative words in
        # almost every game; those have cosine exactly 1 to the right print
        corpus = generate_synthetic(SynthConfig(
            dimension=16, vocab_size=6, train_speakers=12, test_speakers=0,
            enrollments=4, sharpness=np.inf, utterance_noise=0.0,
            enrollment_noise=0.0, seed=3))
        acc, _ = cosine_nearest_print_accuracy(corpus, 4, 6, 500, seed=2)
        assert acc > 0.9


@pytest.fixture(scope="module")
def degenerate_setup():
    corpus = degenerate_corpus()
    guesser, _ = train_guesser(corpus, corpus, GuesserTrainConfig(
        n_guests=4, word_budget=2, batch_size=256, n_games=6000, dropout=0.0,
        lr=1e-3, valid_games=300, eval_every=100, seed=0))
    return corpus, guesser


class TestHeuristic:
    def test_uniquely_informative_word_ranks_first(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        # independent confirmation: nearest-print matching on that word alone
        # identifies every speaker, while any other word is pure chance
        z = corpus.voice_prints / np.linalg.norm(corpus.voice_prints, axis=1,
                                                 keepdims=True)
        informative = corpus.utterances[:, 2, :]
        informative = informative / np.linalg.norm(informative, axis=1, keepdims=True)
        sims = informative @ z.T
        assert np.all(np.argmax(sims, axis=1) == np.arange(corpus.n_speakers))
        other = corpus.utterances[:, 0, :]
        other = other / np.linalg.norm(other, axis=1, keepdims=True)
        assert not np.all(np.argmax(other @ z.T, axis=1) == np.arange(corpus.n_speakers))

        res = heuristic_baseline(guesser, corpus,
                                 HeuristicConfig(games_per_word=800, curated_size=3,
                                                 n_guests=4, word_budget=2,
                                                 eval_games=500), seed=1)
        assert res.curated[0] == 2
        assert res.word_scores[2] == res.word_scores.max()

    def test_curating_everything_matches_random_policy(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        res = heuristic_baseline(guesser, corpus,
                                 HeuristicConfig(games_per_word=400, curated_size=5,
                                                 n_guests=4, word_budget=2,
                                                 eval_games=4000), seed=2)
        random_acc, _ = evaluate_guesser(guesser, corpus, 4, 2, "random", 4000, seed=3)
        assert abs(res.played.success_rate - random_acc) < 0.01 + 2 * res.played.stderr

    def test_scores_reproducible_under_seed(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        cfg = HeuristicConfig(games_per_word=200, curated_size=3, n_guests=4,
                              word_budget=2, eval_games=200)
        a = heuristic_baseline(guesser, corpus, cfg, seed=5)
        b = heuristic_baseline(guesser, corpus, cfg, seed=5)
        assert np.array_equal(a.word_scores, b.word_scores)
        assert a.curated == b.curated
        assert a.played.success_rate == b.played.success_rate

    def test_invalid_curation_size_rejected(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        with pytest.raises(ValueError, match="curated_size"):
            heuristic_baseline(guesser, corpus,
                               HeuristicConfig(curated_size=1, n_guests=4,
                                               word_budget=2), seed=0)

    @pytest.mark.parametrize("field", ["games_per_word", "eval_games"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_game_count_below_one_is_named(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got {value}$"):
            HeuristicConfig(curated_size=3, n_guests=4, word_budget=2, **{field: value})

    @pytest.mark.parametrize("value", [0, -1])
    def test_word_budget_below_one_is_named(self, value):
        # -1 once played all but one of the other words beside each forced word
        with pytest.raises(ValueError, match=f"^word_budget must be at least 1, got {value}$"):
            HeuristicConfig(curated_size=3, n_guests=4, word_budget=value)

    @pytest.mark.parametrize("field", ["curated_size", "n_guests"])
    def test_list_or_guest_count_below_one_is_named_when_built(self, field):
        # a settings error, named before any guesser or corpus is read
        with pytest.raises(ValueError, match=f"^{field} must be at least 1, got 0$"):
            HeuristicConfig(**{field: 0})

    def test_oversized_guest_count_rejected(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        with pytest.raises(ValueError, match="exceed"):
            heuristic_baseline(guesser, corpus,
                               HeuristicConfig(games_per_word=10, curated_size=3,
                                               n_guests=50, word_budget=2), seed=0)


class TestSweeps:
    def test_word_sweep_row_shape(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        result = word_sweep(guesser, corpus, [1, 2], 4, seeds=[0, 1], n_games=300)
        assert len(result.rows) == 2 * 2
        assert {row["value"] for row in result.rows} == {1, 2}
        assert all(row["policy"] == "random" for row in result.rows)

    def test_heuristic_at_full_vocabulary_skips_curation(self, degenerate_setup,
                                                         monkeypatch):
        # where the curated list would be every word, curating is wasted:
        # the row is the random policy at the heuristic's evaluation seed
        from isrlab import evaluation
        corpus, guesser = degenerate_setup
        original = evaluation.heuristic_baseline
        budgets = []

        def counted(guesser, corpus, config, seed):
            budgets.append(config.word_budget)
            return original(guesser, corpus, config, seed)
        monkeypatch.setattr(evaluation, "heuristic_baseline", counted)
        heuristic = HeuristicConfig(games_per_word=50, curated_size=3)
        result = word_sweep(guesser, corpus, [2, 5], 4, seeds=[0, 1], n_games=300,
                            heuristic=heuristic)
        assert budgets == [2, 2]
        for seed in (0, 1):
            curated = original(guesser, corpus, HeuristicConfig(
                games_per_word=50, curated_size=5, n_guests=4, word_budget=5,
                eval_games=300), seed)
            [row] = [r for r in result.rows if r["policy"] == "heuristic"
                     and r["value"] == 5 and r["seed"] == seed]
            assert (row["accuracy"], row["stderr"]) == (curated.played.success_rate,
                                                        curated.played.stderr)

    def test_guest_sweep_shape_and_single_guest(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        result = guest_sweep(guesser, corpus, [1, 4], 2, seeds=[0], n_games=300)
        by_value = {row["value"]: row for row in result.rows}
        assert by_value[1]["accuracy"] == 1.0

    def test_grid_beyond_corpus_rejected(self, degenerate_setup):
        corpus, guesser = degenerate_setup
        with pytest.raises(ValueError, match="exceeds"):
            guest_sweep(guesser, corpus, [100], 2, seeds=[0])

    def test_aggregation_over_seeds(self):
        rows = [{"policy": "random", "value": 3, "seed": s, "accuracy": a}
                for s, a in enumerate([0.5, 0.6, 0.7])]
        agg = aggregate_rows(rows)
        assert len(agg) == 1
        assert agg[0]["mean_accuracy"] == pytest.approx(0.6)
        assert agg[0]["std_accuracy"] == pytest.approx(0.1, abs=1e-12)
        # the sample std over the seeds (ddof=1), over the root of their count
        assert agg[0]["stderr_accuracy"] == pytest.approx(0.1 / np.sqrt(3), abs=1e-12)


class TestSerialization:
    def test_rows_round_trip_through_csv(self, tmp_path):
        rows = [{"policy": "random", "value": 3, "seed": 0, "accuracy": 0.625,
                 "stderr": 0.01}]
        path = tmp_path / "rows.csv"
        write_rows_csv(path, rows)
        with open(path, newline="") as fh:
            back = list(csv.DictReader(fh))
        assert float(back[0]["accuracy"]) == 0.625

    def test_summary_embeds_corpus_fingerprint(self, tmp_path):
        corpus = degenerate_corpus()
        path = tmp_path / "summary.json"
        write_summary_json(path, {"hello": 1}, corpus)
        payload = json.loads(path.read_text())
        assert payload["hello"] == 1
        assert len(payload["corpus_fingerprint"]) == 64

    def test_empty_rows_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="rows"):
            write_rows_csv(tmp_path / "x.csv", [])
