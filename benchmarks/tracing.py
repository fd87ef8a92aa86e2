"""Per-layer timing of isrlab, taken from outside the package.

A traced run replaces the module-level functions named in ``SPANS`` with
wrappers that time each call and count its work.  Every module namespace
that holds the same function object gets the wrapper, so calls that go
through a re-export (``evaluation`` importing ``guesser_forward``) and
calls inside a module (``neural`` calling its own ``sigmoid``) are both
seen.  Nothing under ``src/`` changes.

Spans are aggregated in memory as they close, per phase of the run
(set-up, timed rounds, checks); a run makes hundreds of thousands of
traced calls, too many to keep each span.  A span's self
time is its duration minus the time of the traced spans it called.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from time import perf_counter

MODULES = ("corpus", "neural", "guesser", "enquirer", "evaluation", "game")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _records(args, kwargs, result):
    with open(_arg(args, kwargs, 0, "path"), encoding="utf-8") as fh:
        return {"records": sum(1 for line in fh if line.strip())}


def _rows(args, kwargs, result):
    rows = _arg(args, kwargs, 3, "x").shape[0]
    return {"rows": rows, "max_rows": rows}


def _forward_steps(args, kwargs, result):
    batch, length = _arg(args, kwargs, 3, "sequence").shape[:2]
    return {"cell_steps": 2 * batch * (length + 1)}   # start token, two directions


def _backward_steps(args, kwargs, result):
    batch, positions = _arg(args, kwargs, 4, "d_hidden").shape[:2]
    return {"cell_steps": 2 * batch * positions}


def _elements(args, kwargs, result):
    return {"elements": _arg(args, kwargs, 0, "x").size}


def _games(args, kwargs, result):
    guests = _arg(args, kwargs, 1, "guests")
    return {"games": guests.shape[0] if guests.ndim == 3 else 1}


# Games that run the enquirer: PPO episodes, greedy evaluation games and live
# games, the denominator of ``cell_steps_per_game``.
def _episodes(args, kwargs, result):
    return {"enquirer_games": _arg(args, kwargs, 2, "config").episodes}


def _greedy_games(args, kwargs, result):
    return {"enquirer_games": _arg(args, kwargs, 5, "n_games")}


def _live_game(args, kwargs, result):
    return {"enquirer_games": 1}


def _heuristic_games(args, kwargs, result):
    corpus = _arg(args, kwargs, 1, "corpus")
    config = _arg(args, kwargs, 2, "config")
    return {"games": corpus.vocab_size * config.games_per_word + config.eval_games}


# (module, function, counter): the layer boundaries a traced run times.
SPANS = (
    ("corpus", "generate_synthetic", None),
    ("corpus", "save_corpus", None),
    ("corpus", "load_corpus", _records),
    ("corpus", "split_speakers", None),
    ("neural", "save_params", None),
    ("neural", "load_params", None),
    ("neural", "mlp_forward", _rows),
    ("neural", "mlp_backward", None),
    ("neural", "softmax_cross_entropy", None),
    ("neural", "dropout_mask", None),
    ("neural", "bilstm_forward", _forward_steps),
    ("neural", "bilstm_backward", _backward_steps),
    ("neural", "sigmoid", _elements),
    ("neural", "masked_log_softmax", None),
    ("neural", "adam_step", None),
    ("guesser", "train_guesser", None),
    ("guesser", "guesser_forward", _games),
    ("guesser", "guesser_loss", None),
    ("guesser", "guesser_success", None),
    ("guesser", "sample_game_batch", None),
    ("guesser", "sample_word_subsets", None),
    ("guesser", "evaluate_guesser", None),
    ("enquirer", "train_enquirer", _episodes),
    ("enquirer", "ppo_update", None),
    ("enquirer", "sample_actions", None),
    ("enquirer", "compute_gae", None),
    ("enquirer", "enquirer_forward", None),
    ("enquirer", "evaluate_enquirer", _greedy_games),
    ("evaluation", "heuristic_baseline", _heuristic_games),
    ("evaluation", "word_sweep", None),
    ("evaluation", "guest_sweep", None),
    ("evaluation", "cosine_nearest_print_accuracy", None),
    ("evaluation", "diversity_index", None),
    ("game", "new_game", _live_game),
    ("game", "step", None),
    ("game", "terminal_reward", None),
)


@dataclass
class SpanStats:
    calls: int = 0
    incl_s: float = 0.0      # outermost calls only, so recursion is not counted twice
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def add_counts(self, counts: dict) -> None:
        for key, value in counts.items():
            if key.startswith("max_"):
                self.counts[key] = max(self.counts.get(key, 0), value)
            else:
                self.counts[key] = self.counts.get(key, 0) + value


class Tracer:
    """Times wrapped calls; ``phase`` names the part of the run being traced."""

    def __init__(self):
        self.phase = "setup"
        self.stats: dict[str, dict[str, SpanStats]] = {}
        self._stack: list[list] = []    # [name, child seconds] per open span

    def span(self, phase: str, name: str) -> SpanStats:
        return self.stats.get(phase, {}).get(name, SpanStats())

    def wrap(self, name: str, fn, counter):
        stack = self._stack

        def traced(*args, **kwargs):
            reentered = any(frame[0] == name for frame in stack)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats = self.stats.setdefault(self.phase, {}).setdefault(name, SpanStats())
                stats.calls += 1
                stats.self_s += elapsed - frame[1]
                if not reentered:
                    stats.incl_s += elapsed
            if counter is not None:
                stats.add_counts(counter(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced


def install(tracer: Tracer) -> None:
    """Swap every ``SPANS`` function for its traced wrapper, wherever bound."""
    modules = [importlib.import_module("isrlab")]
    modules += [importlib.import_module(f"isrlab.{name}") for name in MODULES]
    for module_name, fn_name, counter in SPANS:
        original = getattr(importlib.import_module(f"isrlab.{module_name}"), fn_name)
        wrapped = tracer.wrap(f"{module_name}.{fn_name}", original, counter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


# Per-layer metrics: (metric, unit, phase, span, field).  Set-up figures are
# per set-up repeat, timed-phase figures per round, so neither depends on
# how many rounds fit in the run.
LAYER_METRICS = (
    ("corpus.generate_synthetic.self_ms", "ms", "setup", "corpus.generate_synthetic", "self"),
    ("corpus.save_corpus.self_ms", "ms", "setup", "corpus.save_corpus", "self"),
    ("corpus.load_corpus.self_ms", "ms", "setup", "corpus.load_corpus", "self"),
    ("corpus.load_corpus.records", "count", "setup", "corpus.load_corpus", "records"),
    ("neural.save_params.self_ms", "ms", "setup", "neural.save_params", "self"),
    ("neural.load_params.self_ms", "ms", "setup", "neural.load_params", "self"),
    ("neural.mlp_forward.self_ms", "ms", "timed", "neural.mlp_forward", "self"),
    ("neural.mlp_forward.calls", "count", "timed", "neural.mlp_forward", "calls"),
    ("neural.mlp_forward.rows", "count", "timed", "neural.mlp_forward", "rows"),
    ("neural.mlp_forward.max_rows", "count", "timed", "neural.mlp_forward", "max_rows"),
    ("neural.mlp_backward.self_ms", "ms", "timed", "neural.mlp_backward", "self"),
    ("neural.mlp_backward.calls", "count", "timed", "neural.mlp_backward", "calls"),
    ("neural.softmax_cross_entropy.self_ms", "ms", "timed", "neural.softmax_cross_entropy", "self"),
    ("neural.dropout_mask.self_ms", "ms", "timed", "neural.dropout_mask", "self"),
    ("neural.bilstm_forward.self_ms", "ms", "timed", "neural.bilstm_forward", "self"),
    ("neural.bilstm_forward.calls", "count", "timed", "neural.bilstm_forward", "calls"),
    ("neural.bilstm_forward.cell_steps", "count", "timed", "neural.bilstm_forward", "cell_steps"),
    ("neural.bilstm_forward.cell_steps_per_game", "count", "timed", "neural.bilstm_forward",
     "cell_steps_per_game"),
    ("neural.bilstm_backward.self_ms", "ms", "timed", "neural.bilstm_backward", "self"),
    ("neural.bilstm_backward.cell_steps", "count", "timed", "neural.bilstm_backward", "cell_steps"),
    ("neural.sigmoid.self_ms", "ms", "timed", "neural.sigmoid", "self"),
    ("neural.sigmoid.calls", "count", "timed", "neural.sigmoid", "calls"),
    ("neural.sigmoid.elements", "count", "timed", "neural.sigmoid", "elements"),
    ("neural.masked_log_softmax.self_ms", "ms", "timed", "neural.masked_log_softmax", "self"),
    ("neural.adam_step.self_ms", "ms", "timed", "neural.adam_step", "self"),
    ("neural.adam_step.calls", "count", "timed", "neural.adam_step", "calls"),
    ("guesser.guesser_forward.self_ms", "ms", "timed", "guesser.guesser_forward", "self"),
    ("guesser.guesser_forward.calls", "count", "timed", "guesser.guesser_forward", "calls"),
    ("guesser.guesser_forward.games", "count", "timed", "guesser.guesser_forward", "games"),
    ("guesser.guesser_loss.self_ms", "ms", "timed", "guesser.guesser_loss", "self"),
    ("guesser.sample_game_batch.self_ms", "ms", "timed", "guesser.sample_game_batch", "self"),
    ("guesser.sample_word_subsets.self_ms", "ms", "timed", "guesser.sample_word_subsets", "self"),
    ("guesser.evaluate_guesser.incl_ms", "ms", "timed", "guesser.evaluate_guesser", "incl"),
    ("enquirer.ppo_update.self_ms", "ms", "timed", "enquirer.ppo_update", "self"),
    ("enquirer.ppo_update.calls", "count", "timed", "enquirer.ppo_update", "calls"),
    # time in train_enquirer outside ppo_update: rollout, reward and GAE
    ("enquirer.rollout.self_ms", "ms", "timed", "enquirer.train_enquirer", "rollout"),
    # the guesser's batched success call, PPO's reward
    ("enquirer.reward.incl_ms", "ms", "timed", "guesser.guesser_success", "incl"),
    ("enquirer.sample_actions.self_ms", "ms", "timed", "enquirer.sample_actions", "self"),
    ("enquirer.compute_gae.self_ms", "ms", "timed", "enquirer.compute_gae", "self"),
    ("enquirer.evaluate_enquirer.incl_ms", "ms", "timed", "enquirer.evaluate_enquirer", "incl"),
    ("enquirer.enquirer_forward.incl_ms", "ms", "timed", "enquirer.enquirer_forward", "incl"),
    ("enquirer.enquirer_forward.calls", "count", "timed", "enquirer.enquirer_forward", "calls"),
    ("evaluation.heuristic_baseline.incl_ms", "ms", "timed", "evaluation.heuristic_baseline", "incl"),
    ("evaluation.heuristic_baseline.games", "count", "timed", "evaluation.heuristic_baseline",
     "games"),
    ("evaluation.word_sweep.incl_ms", "ms", "timed", "evaluation.word_sweep", "incl"),
    ("evaluation.guest_sweep.incl_ms", "ms", "timed", "evaluation.guest_sweep", "incl"),
    ("evaluation.cosine_nearest_print_accuracy.self_ms", "ms", "timed",
     "evaluation.cosine_nearest_print_accuracy", "self"),
    ("evaluation.diversity_index.self_ms", "ms", "timed", "evaluation.diversity_index", "self"),
    ("game.new_game.self_us", "us", "timed", "game.new_game", "self"),
    ("game.new_game.calls", "count", "timed", "game.new_game", "calls"),
    ("game.step.self_us", "us", "timed", "game.step", "self"),
    ("game.step.calls", "count", "timed", "game.step", "calls"),
    ("game.terminal_reward.self_us", "us", "timed", "game.terminal_reward", "self"),
    ("game.terminal_reward.calls", "count", "timed", "game.terminal_reward", "calls"),
)

_SCALE = {"ms": 1e3, "us": 1e6, "count": 1.0}


def layer_metrics(tracer: Tracer, n_setups: int, n_rounds: int) -> dict:
    """Every ``LAYER_METRICS`` entry as ``{"value", "unit"}``."""
    enquirer_games = sum(stats.counts.get("enquirer_games", 0)
                         for stats in tracer.stats.get("timed", {}).values())
    out = {}
    for metric, unit, phase, span, kind in LAYER_METRICS:
        stats = tracer.span(phase, span)
        if kind == "self":
            value = stats.self_s
        elif kind == "incl":
            value = stats.incl_s
        elif kind == "calls":
            value = stats.calls
        elif kind == "rollout":
            value = stats.incl_s - tracer.span(phase, "enquirer.ppo_update").incl_s
        elif kind == "cell_steps_per_game":
            # a ratio of two run totals: already independent of the rounds
            value = stats.counts.get("cell_steps", 0) / (enquirer_games or 1)
        else:
            value = stats.counts.get(kind, 0)
        if kind not in ("max_rows", "cell_steps_per_game"):
            value /= n_setups if phase == "setup" else n_rounds
        out[metric] = {"value": value * _SCALE[unit], "unit": unit}
    return out
