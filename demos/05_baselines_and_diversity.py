"""Baselines and the word-diversity index.

Two reference policies bracket the learned enquirer: uniform random word
sets, and a curated heuristic that forces each candidate word into random
games, keeps the globally most discriminant ones, and samples from that
short list.  The overlap index (mean pairwise Jaccard of the requested
word tuples) separates adaptive policies from fixed ones: 1 means every
game asked for the same words, uniform random 3-of-20 sits near 0.095.
"""

import numpy as np

from isrlab import (GuesserTrainConfig, HeuristicConfig, PpoConfig, SynthConfig,
                    synthetic_split, diversity_index, evaluate_enquirer,
                    evaluate_guesser, heuristic_baseline, train_enquirer,
                    train_guesser)
from isrlab.guesser import sample_word_subsets

train, test = synthetic_split(SynthConfig(seed=0))
guesser, _ = train_guesser(train, test, GuesserTrainConfig(
    n_games=120_000, valid_games=2000, eval_every=60, seed=0))
enquirer, _ = train_enquirer(guesser, train, PpoConfig(episodes=30_000, seed=0))

# %% Heuristic curation: force each word into games, keep the top scorers
heuristic = heuristic_baseline(guesser, test, HeuristicConfig(
    games_per_word=2000, curated_size=6, n_guests=5, word_budget=3,
    eval_games=5000), seed=4)
print("per-word forced accuracy:", np.round(heuristic.word_scores, 3))
print("curated words:", [test.vocab[w] for w in heuristic.curated])

# %% The three policies in one table
random_acc, _ = evaluate_guesser(guesser, test, 5, 3, "random", 5000, seed=5)
enq = evaluate_enquirer(enquirer, guesser, test, 5, 3, 5000, seed=5)
print(f"\nrandom    {random_acc:.3f}")
print(f"heuristic {heuristic.played.success_rate:.3f}")
print(f"enquirer  {enq.success_rate:.3f}")

# %% Diversity: does the policy adapt its words to the guests?
rng = np.random.default_rng(6)
random_tuples = sample_word_subsets(rng, 142, np.arange(test.vocab_size), 3)
fixed_tuples = [tuple(heuristic.curated[:3])] * 142
for label, tuples in (("fixed top-3", fixed_tuples),
                      ("uniform random", [tuple(t) for t in random_tuples]),
                      ("enquirer", [tuple(t) for t in enq.word_tuples[:142]])):
    report = diversity_index(tuples)
    print(f"overlap index, {label:>14s}: {report.omega:.3f}")
print("the enquirer lands between fully deterministic and fully random:")
print("it reuses globally good words but personalizes per game")
