"""Interactive speaker recognition game lab.

A guesser identifies a speaker among K voice prints from the embeddings of
words the speaker uttered; an enquirer policy, trained with PPO, picks
which words to request under a tight budget.  Corpora are synthetic or
loaded from a JSON Lines interchange format, and everything runs on plain
numpy with a fully checked hand-rolled gradient stack.

The names below load their module, and with it numpy, on first access, so
``import isrlab.cli`` can cap the BLAS thread pool before numpy starts it.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "corpus": ("Corpus", "CorpusFormatError", "SynthConfig", "corpus_fingerprint",
               "generate_synthetic", "load_corpus", "save_corpus", "split_speakers",
               "synthetic_split"),
    "game": ("GameConfig", "GameState", "StepOutcome", "new_game", "step",
             "terminal_reward", "write_episode_trace"),
    "guesser": ("GuesserConfig", "GuesserModel", "GuesserTrainConfig", "Played",
                "TrainingDiverged", "evaluate_guesser", "guesser_forward", "guesser_loss",
                "train_guesser"),
    "enquirer": ("EnquirerConfig", "EnquirerModel", "PpoConfig", "RewardCollapse",
                 "compute_gae", "enquirer_forward", "evaluate_enquirer", "ppo_update",
                 "sample_actions", "train_enquirer"),
    "evaluation": ("DiversityReport", "HeuristicConfig", "HeuristicResult", "SweepResult",
                   "cosine_nearest_print_accuracy", "diversity_index", "evaluate_policy",
                   "guest_sweep", "heuristic_baseline", "metrics_row", "word_sweep"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
