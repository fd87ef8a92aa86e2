"""Report the enquirer's gain over random words as a distribution over PPO
seeds, not one seed's number.

    python tools/seeds.py --out SEEDS.json              # PPO seeds 0-7
    python tools/seeds.py --out SEEDS.json --seeds 0,3

Run from the root of a checkout: the program is imported from its ``src/``.
The BLAS thread pools are pinned to one thread before numpy is imported, as
``benchmarks/run.py`` pins them, so one build gives the same figures on
every run.

One guesser is trained as the acceptance suite's fixture is, on
``synthetic_split(SynthConfig(seed=0))`` with ``GuesserTrainConfig(n_games=
120_000, seed=0, valid_games=2000, eval_every=60)``.  Then, per PPO seed s,
an enquirer is trained against it with ``PpoConfig(episodes=80_000,
seed=s)`` and scored as acceptance criterion 5 scores it: greedy play on
10,000 held-out games at seed 123, with K=5 guests and T=3 words, against
random words on the same games.  Per seed the report holds the accuracy and
its stderr, the gain, whether the gain reaches +0.03, the training curve's
first and last moving average reward and the training seconds.  Its summary
holds the pass count, the median gain, the interquartile mean (the mean of
the middle half) and a percentile-bootstrap 95% interval of the mean gain
(Henderson et al. 2018, arXiv 1709.06560; Agarwal et al. 2021, arXiv
2108.13264).  Eight seeds take about five minutes on one core; the script
is not part of the test suite.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402 - the thread pins above must precede numpy
import json  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from isrlab.corpus import SynthConfig, synthetic_split  # noqa: E402
from isrlab.enquirer import PpoConfig, evaluate_enquirer, train_enquirer  # noqa: E402
from isrlab.guesser import GuesserTrainConfig, evaluate_guesser, train_guesser  # noqa: E402

GUESSER = GuesserTrainConfig(n_games=120_000, seed=0, valid_games=2000, eval_every=60)
EPISODES = 80_000
N_GUESTS, WORD_BUDGET, EVAL_GAMES, EVAL_SEED = 5, 3, 10_000, 123
BOUND = 0.03                    # criterion 5's gain over random words
BOOTSTRAP_RESAMPLES, BOOTSTRAP_SEED = 10_000, 0


def summarize(gains: list[float]) -> dict:
    """Pass count, median, interquartile mean and a percentile-bootstrap 95%
    interval of the mean of ``gains``."""
    values = np.asarray(gains)
    cut = len(values) // 4                  # a quarter trimmed from each end
    middle = np.sort(values)[cut:len(values) - cut]
    rng = np.random.default_rng(BOOTSTRAP_SEED)
    resampled = values[rng.integers(0, len(values), (BOOTSTRAP_RESAMPLES, len(values)))]
    low, high = np.percentile(resampled.mean(axis=1), [2.5, 97.5])
    return {"n_seeds": len(gains), "passes": int(sum(g >= BOUND for g in gains)),
            "mean_gain": float(np.mean(gains)), "median_gain": float(np.median(gains)),
            "iqm_gain": float(middle.mean()),
            "bootstrap_95_mean_gain": [float(low), float(high)],
            "bootstrap_resamples": BOOTSTRAP_RESAMPLES, "bootstrap_seed": BOOTSTRAP_SEED}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True, help="JSON report path")
    parser.add_argument("--seeds", default="0,1,2,3,4,5,6,7",
                        help="comma-separated PPO seeds (default: 0-7)")
    args = parser.parse_args(argv)
    seeds = [int(tok) for tok in args.seeds.split(",")]

    train, test = synthetic_split(SynthConfig(seed=0))
    started = time.perf_counter()
    guesser, _ = train_guesser(train, test, GUESSER)
    guesser_s = time.perf_counter() - started
    random_acc, random_err = evaluate_guesser(guesser, test, N_GUESTS, WORD_BUDGET, "random",
                                              EVAL_GAMES, EVAL_SEED)
    print(f"guesser trained in {guesser_s:.0f} s; random words {random_acc:.4f}", flush=True)

    rows = []
    for seed in seeds:
        started = time.perf_counter()
        enquirer, curve = train_enquirer(guesser, train, PpoConfig(episodes=EPISODES, seed=seed))
        train_s = time.perf_counter() - started
        played = evaluate_enquirer(enquirer, guesser, test, N_GUESTS, WORD_BUDGET, EVAL_GAMES,
                                   EVAL_SEED)
        gain = played.success_rate - random_acc
        rows.append({"ppo_seed": seed, "accuracy": played.success_rate,
                     "stderr": played.stderr, "gain": gain, "passes": gain >= BOUND,
                     "first_moving_avg_reward": curve[0]["moving_avg_reward"],
                     "last_moving_avg_reward": curve[-1]["moving_avg_reward"],
                     "train_s": round(train_s, 1)})
        print(f"PPO seed {seed}: enquirer {played.success_rate:.4f} (gain {gain:+.4f}, "
              f"{'pass' if gain >= BOUND else 'FAIL'}) in {train_s:.0f} s", flush=True)

    summary = summarize([row["gain"] for row in rows])
    report = {
        "build": {"numpy": np.__version__, "blas_threads": 1, "cpus": os.cpu_count()},
        "guesser": {"corpus_seed": 0, "n_games": GUESSER.n_games, "seed": GUESSER.seed,
                    "train_s": round(guesser_s, 1)},
        "evaluation": {"n_guests": N_GUESTS, "word_budget": WORD_BUDGET,
                       "games": EVAL_GAMES, "seed": EVAL_SEED, "ppo_episodes": EPISODES,
                       "bound": BOUND},
        "random_accuracy": random_acc, "random_stderr": random_err,
        "seeds": rows, "summary": summary}
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"{summary['passes']} of {len(rows)} seeds reach +{BOUND}; median gain "
          f"{summary['median_gain']:+.4f}, IQM {summary['iqm_gain']:+.4f}, bootstrap 95% "
          f"[{summary['bootstrap_95_mean_gain'][0]:+.4f}, "
          f"{summary['bootstrap_95_mean_gain'][1]:+.4f}]")
    print(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
