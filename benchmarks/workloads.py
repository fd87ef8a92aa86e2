"""The three workloads: what they set up, what one round does, what they check.

Every workload plays the paper's game with K=5 guests and a budget of T=3
words on the default synthetic world (200 train + 60 held-out speakers, 20
words, D=32) generated from the run's seed.  Set-up makes that world, writes
it to JSONL and loads it back, splits it by speaker, and trains, saves and
reloads whatever models the workload needs, all from the same seed.  A
round repeats the same operations with the same inputs, so rounds are equal
work and a run is a whole number of rounds.

The program is driven only through the public functions of ``corpus``,
``neural``, ``guesser``, ``enquirer``, ``evaluation`` and ``game``, always
looked up on the module at call time so that a traced run sees the calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from isrlab import corpus, enquirer, evaluation, game, guesser

import checks

N_GUESTS = 5
WORD_BUDGET = 3


@dataclass(frozen=True)
class Sizes:
    train_games: int = 20_480        # guesser-train: 20 batches of 1024 per call
    valid_games: int = 2_000         # held-out games per validation point
    ppo_episodes: int = 1_026        # enquirer-ppo: 3 rounds of 342 at horizon 1024
    frozen_guesser_games: int = 8_192    # set-up guesser of enquirer-ppo
    eval_guesser_games: int = 24_576     # set-up guesser of evaluate
    setup_episodes: int = 1_026          # set-up enquirer of evaluate
    eval_games: int = 2_000          # games per evaluator call
    long_budget_games: int = 500     # games of the word sweep at T=8
    guest_games: int = 4_096         # games per guest-sweep grid point: one full
                                     # evaluate_guesser chunk, 204,800 rows at K=50
    eta: int = 2_000                 # heuristic games per candidate word
    diversity_games: int = 142       # word tuples for the diversity index
    check_games: int = 4_000         # random-word baseline of the PPO check
    live_games: int = 200            # evaluate: games played one at a time, at batch 1


# Shrinks every count so each workload runs end to end in seconds; used by
# the benchmark's own tests.  The statistical checks need the full sizes.
TINY = Sizes(train_games=512, valid_games=200, ppo_episodes=60, frozen_guesser_games=512,
             eval_guesser_games=512, setup_episodes=60, eval_games=200,
             long_budget_games=50, guest_games=100, eta=50, check_games=200,
             live_games=5)


@dataclass
class Round:
    op_seconds: dict    # operation name -> seconds
    games: int
    attempted: int
    failed: int


class Workload:
    name = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.errors: list[str] = []
        # Results outlive each set-up: rounds run after every set-up repeat.
        self.first = None
        self.digests: dict[str, list] = {}

    # -- set-up pieces -----------------------------------------------------

    def make_corpora(self) -> None:
        config = corpus.SynthConfig(seed=self.seed)
        self.world = corpus.generate_synthetic(config)
        path = self.workdir / "corpus.jsonl"
        corpus.save_corpus(self.world, path)
        self.loaded = corpus.load_corpus(path)
        self.train, self.test = corpus.split_speakers(
            self.loaded, config.train_speakers / config.total_speakers, self.seed)

    def make_guesser(self, n_games: int):
        model, _ = guesser.train_guesser(self.train, self.test, guesser.GuesserTrainConfig(
            n_games=n_games, valid_games=self.sizes.valid_games, seed=self.seed))
        path = self.workdir / "guesser.json"
        model.save(path)
        self.saved_guesser = model
        return guesser.GuesserModel.load(path)

    def make_enquirer(self, frozen, n_episodes: int):
        model, _ = enquirer.train_enquirer(frozen, self.train, enquirer.PpoConfig(
            episodes=n_episodes, seed=self.seed))
        path = self.workdir / "enquirer.json"
        model.save(path)
        self.saved_enquirer = model
        return enquirer.EnquirerModel.load(path)

    def setup_checks(self) -> list:
        out = [("corpus JSONL round trip is exact", *_same_corpus(self.world, self.loaded))]
        for label in ("guesser", "enquirer"):
            saved = getattr(self, f"saved_{label}", None)
            if saved is not None:
                loaded = getattr(self, label)
                same = checks.digest(saved.store.values) == checks.digest(loaded.store.values)
                out.append((f"{label} checkpoint round trip is exact", same,
                            f"{saved.store.n_parameters()} parameters"))
        return out

    # -- operations --------------------------------------------------------

    def attempt(self, fn):
        """Run one operation; a raised error counts it as failed."""
        start = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            self.errors.append(f"{type(exc).__name__}: {exc}")
            result = None
        return result, perf_counter() - start

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError

    def verify(self) -> list:
        raise NotImplementedError


def _same_corpus(a, b) -> tuple[bool, str]:
    same = (a.vocab == b.vocab and a.speaker_ids == b.speaker_ids
            and np.array_equal(a.voice_prints, b.voice_prints)
            and np.array_equal(a.utterances, b.utterances))
    return same, f"{b.n_speakers} speakers x {b.vocab_size} words"


def _failed_check(what: str) -> list:
    return [(what, False, "no operation succeeded")]


class GuesserTrain(Workload):
    """``train_guesser`` at the reference settings, from the same seed each call."""

    name = "guesser-train"

    def setup(self) -> None:
        self.make_corpora()

    def run_round(self) -> Round:
        config = guesser.GuesserTrainConfig(
            n_games=self.sizes.train_games, valid_games=self.sizes.valid_games,
            eval_every=5, seed=self.seed)
        result, seconds = self.attempt(
            lambda: guesser.train_guesser(self.train, self.test, config))
        if result is not None:
            self.first = self.first or result
            self.digests.setdefault("train_guesser", []).append(
                checks.digest(result[0].store.values))
        return Round({"train_guesser": seconds}, self.sizes.train_games, 1, int(result is None))

    def verify(self) -> list:
        out = self.setup_checks()
        if self.first is None:
            return out + _failed_check("guesser training")
        model, curve = self.first
        out.append(("held-out accuracy beats chance",
                    *checks.beats_chance(curve[-1]["valid_accuracy"], N_GUESTS,
                                         self.sizes.valid_games)))
        out.append(("final training loss below ln K",
                    *checks.loss_below_chance(curve[-1]["train_loss"], N_GUESTS)))
        out.append(("same seed, same parameters",
                    *checks.all_identical(self.digests["train_guesser"], "training calls")))
        rng = np.random.default_rng(self.seed)
        rows, targets = guesser.sample_game_batch(self.test, 8, N_GUESTS, rng)
        words = guesser.sample_word_subsets(rng, 8, np.arange(self.test.vocab_size),
                                            WORD_BUDGET)
        guests = self.test.voice_prints[rows]
        uttered = self.test.utterances[rows[np.arange(8), targets][:, None], words]
        analytic, objective = checks.guesser_gradients(model, guests, uttered, targets)
        coords = checks.sample_coordinates(model.store.values, rng, 16)
        out.append(("guesser_loss gradients match finite differences",
                    *checks.fd_spot_check(model.store.values, analytic, objective,
                                          coords, min_checked=8)))
        return out


class EnquirerPpo(Workload):
    """``train_enquirer`` at the reference PPO settings against a frozen guesser."""

    name = "enquirer-ppo"

    def setup(self) -> None:
        self.make_corpora()
        self.guesser = self.make_guesser(self.sizes.frozen_guesser_games)

    def run_round(self) -> Round:
        config = enquirer.PpoConfig(episodes=self.sizes.ppo_episodes, seed=self.seed)
        result, seconds = self.attempt(
            lambda: enquirer.train_enquirer(self.guesser, self.train, config))
        if result is not None:
            self.first = self.first or result
            self.digests.setdefault("train_enquirer", []).append(
                checks.digest(result[0].store.values))
        return Round({"train_enquirer": seconds}, self.sizes.ppo_episodes, 1,
                     int(result is None))

    def verify(self) -> list:
        out = self.setup_checks()
        if self.first is None:
            return out + _failed_check("PPO training")
        model, curve = self.first
        out.append(("same seed, same parameters",
                    *checks.all_identical(self.digests["train_enquirer"], "training calls")))
        random_rate, _ = guesser.evaluate_guesser(
            self.guesser, self.train, N_GUESTS, WORD_BUDGET, "random",
            self.sizes.check_games, self.seed)
        window = min(1000, self.sizes.ppo_episodes)
        out.append(("trailing reward not below random words",
                    *checks.not_worse(curve[-1]["moving_avg_reward"], window, random_rate,
                                      self.sizes.check_games, sigmas=3.0)))
        rng = np.random.default_rng(self.seed)
        rows = rng.integers(self.train.n_speakers, size=4)
        words = guesser.sample_word_subsets(rng, 4, np.arange(self.train.vocab_size),
                                            WORD_BUDGET)
        sequence = self.train.utterances[rows[:, None], words]
        d_hidden = rng.standard_normal((4, WORD_BUDGET + 1, model.lstm_spec.out_width))
        values, analytic, objective = checks.bilstm_gradients(model, sequence, d_hidden)
        coords = checks.sample_coordinates(values, rng, 16)
        out.append(("bilstm_backward gradients match finite differences",
                    *checks.fd_spot_check(values, analytic, objective, coords,
                                          min_checked=16)))
        return out


class Evaluate(Workload):
    """The paper's evaluation: greedy enquirer, baselines, sweeps, diversity,
    and live games played one at a time."""

    name = "evaluate"

    def setup(self) -> None:
        self.make_corpora()
        self.guesser = self.make_guesser(self.sizes.eval_guesser_games)
        self.enquirer = self.make_enquirer(self.guesser, self.sizes.setup_episodes)

    def operations(self) -> list:
        s, g, e, test = self.sizes, self.guesser, self.enquirer, self.test
        seed = self.seed
        heuristic = evaluation.HeuristicConfig(
            games_per_word=s.eta, n_guests=N_GUESTS, word_budget=WORD_BUDGET,
            eval_games=s.eval_games)
        latest = {}

        def greedy():
            latest["greedy"] = enquirer.evaluate_enquirer(
                e, g, test, N_GUESTS, WORD_BUDGET, s.eval_games, seed)
            return latest["greedy"]

        def diversity():
            tuples = latest.pop("greedy").word_tuples[:s.diversity_games]
            return evaluation.diversity_index(list(map(tuple, tuples)))

        # (name, call, scored games)
        return [
            ("greedy", greedy, s.eval_games),
            ("random", lambda: guesser.evaluate_guesser(
                g, test, N_GUESTS, WORD_BUDGET, "random", s.eval_games, seed), s.eval_games),
            ("word sweep", lambda: evaluation.word_sweep(
                g, test, (1, 3, 20), N_GUESTS, [seed], n_games=s.eval_games),
             3 * s.eval_games),
            ("enquirer at T=8", lambda: evaluation.word_sweep(
                g, test, (8,), N_GUESTS, [seed], n_games=s.long_budget_games, enquirer=e),
             2 * s.long_budget_games),
            ("guest sweep", lambda: evaluation.guest_sweep(
                g, test, (5, 10, 50), WORD_BUDGET, [seed], n_games=s.guest_games),
             3 * s.guest_games),
            ("heuristic", lambda: evaluation.heuristic_baseline(g, test, heuristic, seed),
             test.vocab_size * s.eta + s.eval_games),
            ("cosine yardstick", lambda: evaluation.cosine_nearest_print_accuracy(
                test, N_GUESTS, WORD_BUDGET, s.eval_games, seed), s.eval_games),
            ("diversity", diversity, 0),
            ("live games", self.play_live, s.live_games),
        ]

    def play_live(self) -> list:
        """The deployment shape: one game at a time, turn by turn, at batch 1."""
        deals = np.random.default_rng(self.seed)
        config = game.GameConfig(n_guests=N_GUESTS, word_budget=WORD_BUDGET)
        played = []
        for _ in range(self.sizes.live_games):
            state = game.new_game(self.test, config, deals)
            mask = np.zeros(self.test.vocab_size, dtype=bool)
            seen = []
            for _ in range(WORD_BUDGET):
                probs = enquirer.enquirer_forward(self.enquirer, state.guest_prints,
                                                  state.uttered_matrix(), mask).probs[0]
                word = enquirer.sample_actions(probs, "greedy")
                seen.append(probs)
                mask[word] = True
                state = game.step(state, word, self.test).state
            final = guesser.guesser_forward(self.guesser, state.guest_prints,
                                            state.uttered_matrix()).probs[0]
            played.append({"guest_prints": state.guest_prints,
                           "target_index": state.target_index, "target_id": state.target_id,
                           "words": list(state.requested), "probs": seen,
                           "reward": game.terminal_reward(state, final)})
        return played

    def run_round(self) -> Round:
        ops = self.operations()
        results, op_seconds, failed = {}, {}, 0
        for name, call, _ in ops:
            result, op_seconds[name] = self.attempt(call)
            failed += result is None
            results[name] = result
            if result is not None:
                self.digests.setdefault(name, []).append(checks.digest(result))
        self.first = self.first or results
        return Round(op_seconds, sum(games for _, _, games in ops), len(ops), failed)

    def verify(self) -> list:
        out = self.setup_checks()
        r, s = self.first, self.sizes
        if r is None or any(v is None for v in r.values()):
            return out + _failed_check("first evaluation round")
        by_t = {row["value"]: row["accuracy"] for row in r["word sweep"].rows}
        out.append(("accuracy rises with the word budget 1 < 3 < 20",
                    *checks.strictly_monotone([by_t[1], by_t[3], by_t[20]])))
        by_k = {row["value"]: row["accuracy"] for row in r["guest sweep"].rows}
        out.append(("accuracy falls with the guest count 5 > 10 > 50",
                    *checks.strictly_monotone([by_k[5], by_k[10], by_k[50]],
                                              decreasing=True)))
        greedy = r["greedy"]
        out.append(("greedy word tuples are distinct words in range",
                    *checks.valid_word_tuples(greedy.word_tuples, WORD_BUDGET,
                                              self.test.vocab_size)))
        out.append(("greedy enquirer not below random words",
                    *checks.not_worse(greedy.success_rate, s.eval_games, r["random"][0],
                                      s.eval_games, sigmas=4.0)))
        tuples = list(map(tuple, greedy.word_tuples[:s.diversity_games].tolist()))
        out.append(("diversity index equals mean pairwise Jaccard",
                    *checks.diversity_matches(r["diversity"].omega, tuples)))
        same = evaluation.diversity_index([tuples[0]] * s.diversity_games).omega
        out.append(("diversity index of identical tuples is 1", same == 1.0, f"omega {same!r}"))
        heuristic = r["heuristic"]
        out.append(("heuristic curates the top-scored words",
                    *checks.curated_is_top(heuristic.word_scores, heuristic.curated,
                                           evaluation.HeuristicConfig().curated_size)))
        out.append(("cosine yardstick beats chance",
                    *checks.beats_chance(r["cosine yardstick"][0], N_GUESTS, s.eval_games)))
        live = r["live games"]
        worst, word_mismatch, reward_mismatch = checks.replay_games(
            self.enquirer, self.guesser, self.test, live)
        out.append(("live single-game probabilities match the batched forward",
                    worst <= 1e-12, f"max difference {worst:.1e} over {len(live)} games"))
        out.append(("live words match a batched replay", word_mismatch == 0,
                    f"{word_mismatch} of {len(live)} games differ"))
        out.append(("live rewards match a batched replay", reward_mismatch == 0,
                    f"{reward_mismatch} of {len(live)} games differ"))
        out.append(("live words are distinct and in range",
                    *checks.valid_word_tuples(np.array([g["words"] for g in live]),
                                              WORD_BUDGET, self.test.vocab_size)))
        for name, digests in self.digests.items():
            out.append((f"{name}: same seed, same result",
                        *checks.all_identical(digests, "rounds")))
        return out


WORKLOADS = {w.name: w for w in (GuesserTrain, EnquirerPpo, Evaluate)}
