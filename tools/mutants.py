"""Run hand-made mutants of the library against the fast test suite.

Each mutant replaces one exact piece of text in one file under ``src/``.
Per mutant, ``src/``, ``tests/``, ``benchmarks/``, ``pyproject.toml`` and
``BENCHMARK.json`` are copied to a temporary directory, the mutant is
applied there and the fast suite runs on the copy with ``pytest -x``:
tier-1 without the acceptance, demo and artifact-digest tests.  A failing
suite (or one that runs past the timeout) has caught the mutant; a passing
one let it survive.  The unmutated copy runs first and must pass, or no
mutant runs.  A mutant whose old text does not occur exactly once in its
file is stale: it is reported and not run, never skipped silently.

    python tools/mutants.py          # every mutant, then the totals
    python tools/mutants.py --check  # report stale mutants, run none

Exits 2 when the unmutated copy fails, 1 when any mutant is stale, else 0.  Only the standard library is used; the suite runs under
the interpreter running this.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "benchmarks", "pyproject.toml", "BENCHMARK.json")
SLOW_TESTS = ("tests/test_acceptance.py", "tests/test_demos.py",
              "tests/test_artifact_digests.py")
TIMEOUT_S = 1200

# the text that the two reordering mutants below move about
_HEURISTIC_BRANCH = ("        return heuristic_baseline(guesser, corpus, replace(\n"
                     "            heuristic, n_guests=n_guests, word_budget=n_words, "
                     "eval_games=n_games), seed).played\n")
_WRITE_LOOP = "    for name, writer, *args in artifacts:\n        writer(directory / name, *args)\n"
_PRINT_LOOP = "    for name, *_ in artifacts:\n        print(directory / name)\n"

# (file under src/isrlab, old text, new text, what the mutant breaks)
MUTANTS = [
    ("neural.py", "    e += 1.0\n    y /= e\n", "    y /= e\n",
     "sigmoid divides by exp(-|x|) instead of 1 + exp(-|x|)"),
    ("neural.py", "        v += (1.0 - ADAM_BETA2) * g * g\n",
     "        v += (1.0 - ADAM_BETA2) * g\n",
     "Adam's second moment tracks the gradient, not its square"),
    ("neural.py", "    bc1 = 1.0 - ADAM_BETA1 ** t\n", "    bc1 = 1.0\n",
     "Adam drops the first moment's bias correction"),
    ("neural.py", "    if norm > max_norm:\n", "    if norm > 1.0001 * max_norm:\n",
     "clipping leaves norms within 0.01% over the bound alone"),
    ("neural.py", "    d *= cache.hidden > 0.0\n", "    d *= cache.hidden >= 0.0\n",
     "the MLP backward passes gradient through dead ReLU units"),
    ("neural.py", "        dh *= scale\n", "        dh *= 1.0\n",
     "the pair backward forgets the inverted-dropout scale"),
    ("neural.py", "            h += ctx\n            np.maximum(h, 0.0, out=h)\n",
     "            h += ctx\n",
     "the table pass of pair_forward drops its ReLU"),
    ("neural.py", "    grad[rows, targets] -= 1.0\n", "    grad[rows, targets] += 1.0\n",
     "the cross-entropy gradient adds the one-hot instead of subtracting it"),
    ("neural.py", "    if indices.size and (indices.min() < 0 or indices.max() >= high):\n",
     "    if indices.size and (indices.min() < 0 or indices.max() > high):\n",
     "an index equal to the bound passes the range check"),
    ("neural.py", "    safe = np.where(probs > 0.0, log_probs, 0.0)   # avoids 0 * -inf\n",
     "    safe = np.where(probs >= 0.0, log_probs, 0.0)   # avoids 0 * -inf\n",
     "a masked word's 0 * -inf makes the entropy NaN"),
    ("guesser.py", "    dlogits /= b\n", "",
     "the guesser loss gradient is a sum over games, not a mean"),
    ("guesser.py",
     "    de = acts.attn_weights * (dalpha - (acts.attn_weights * dalpha).sum(axis=1, "
     "keepdims=True))\n",
     "    de = acts.attn_weights * dalpha\n",
     "the attention backward skips the softmax's centring term"),
    ("guesser.py", 'CHUNK_GAMES = 4096', 'CHUNK_GAMES = 2048',
     "play_games deals other games in chunks of 2,048"),
    ("guesser.py",
     "        return float(np.sqrt(self.success_rate * (1.0 - self.success_rate) "
     "/ len(self.success)))\n",
     "        return float(np.sqrt(self.success_rate * (1.0 - self.success_rate) "
     "/ (len(self.success) - 1)))\n",
     "the binomial stderr divides by n - 1"),
    ("guesser.py", "        items = utter_items[block] if utter_rows is None else "
     "utter_items[utter_rows[block]]\n",
     "        items = utter_items[block] if utter_rows is None else "
     "utter_items[utter_rows[block][:, ::-1]]\n",
     "the table pass pools each game's utterances in reverse order"),
    ("enquirer.py", "        actions = np.sum(cum <= r[:, None], axis=1)\n",
     "        actions = np.sum(cum < r[:, None], axis=1)\n",
     "explore sampling can land on a masked word at a draw of exactly 0"),
    ("enquirer.py", "        window = reward_history[-1000:]\n",
     "        window = reward_history[-100:]\n",
     "the curve's moving average covers 100 episodes, not 1,000"),
    ("enquirer.py", "        carry = deltas[:, step] + gamma * lam * carry\n",
     "        carry = deltas[:, step] + gamma * carry\n",
     "GAE ignores lambda"),
    ("enquirer.py", "    active = np.where(adv >= 0.0, ratios <= 1.0 + config.clip,\n",
     "    active = np.where(adv >= 0.0, ratios <= 1.0 - config.clip,\n",
     "PPO zeroes the gradient of positive advantages at ratios near 1"),
    ("enquirer.py", "    d_value = 2.0 * config.value_coef * value_err / n\n",
     "    d_value = config.value_coef * value_err / n\n",
     "the value loss gradient is half of it"),
    ("enquirer.py", "COLLAPSE_PATIENCE = 5000", "COLLAPSE_PATIENCE = 4000",
     "reward collapse is declared after 4,000 zero-reward episodes"),
    ("evaluation.py", "    union = 2 * size - inter\n", "    union = 2 * size\n",
     "the diversity index divides by the summed sizes, not the union"),
    ("evaluation.py", "    return np.argmax(sims.mean(axis=1), axis=1) == games.targets\n",
     "    return np.argmin(sims.mean(axis=1), axis=1) == games.targets\n",
     "the cosine yardstick picks the least similar print"),
    ("corpus.py", "        if have != want:\n", "        if have > want:\n",
     "a model smaller than the corpus passes the fit check"),
    ("neural.py", "    check_dropout(dropout)\n    if dropout > 0.0", "    if dropout > 0.0",
     "pair_forward takes a dropout rate outside [0, 1)"),
    ("game.py", '        neural.check_counts(self, "n_guests", "word_budget")\n',
     "        pass\n", "a game config of no guests or no words is built"),
    ("game.py", "    if config.word_budget > corpus.vocab_size:\n", "    if False:\n",
     "new_game deals a game whose budget exceeds the vocabulary"),
    ("evaluation.py",
     "        neural.check_counts(self, *(field.name for field in fields(self)))\n",
     "        pass\n", "a heuristic config with a count below one is built"),
    ("corpus.py", "        if math.isnan(self.sharpness):", "        if False:",
     "a synthetic world of NaN sharpness is generated"),
    ("enquirer.py", "            if not 0.0 <= getattr(self, name) <= 1.0:\n",
     "            if not 0.0 <= getattr(self, name) <= 2.0:\n",
     "PpoConfig takes a gamma above 1"),
    ("evaluation.py",
     '    if policy == "heuristic":\n' + _HEURISTIC_BRANCH + '    if policy == "enquirer":\n',
     '    if policy == "enquirer":\n' + _HEURISTIC_BRANCH + '    if policy == "heuristic":\n',
     "evaluate_policy's heuristic and enquirer branches are swapped"),
    ("evaluation.py", '"seed": int(seed),', '"seed": int(value),',
     "metrics_row writes the value in the seed column"),
    ("evaluation.py", '        if row["seed"] in members:\n', "        if False:\n",
     "aggregate_rows counts a repeated seed as another run"),
    ("cli.py", "        if values[-1] in values[:-1]:\n", "        if False:\n",
     "a repeated --seeds or --grid value is taken as another run"),
    ("cli.py", "        if flag is not None:\n            out[key] = flag\n",
     "        if flag is not None and key not in config_values:\n"
     "            out[key] = flag\n",
     "a --config entry overrides an explicit flag"),
    ("cli.py", _WRITE_LOOP + _PRINT_LOOP, _PRINT_LOOP + _WRITE_LOOP,
     "_write prints the paths before writing the files"),
]


def locate(file: str, old: str) -> str | None:
    """Why the mutant is stale, or None when ``old`` occurs exactly once."""
    count = (ROOT / "src" / "isrlab" / file).read_text(encoding="utf-8").count(old)
    return None if count == 1 else f"old text occurs {count} times in {file}"


def run_suite(mutant: tuple | None) -> tuple[bool, float]:
    """Run the fast suite on a fresh copy of the tree with the ``(file,
    old, new)`` mutant applied, or with none; returns whether the suite
    failed and the seconds it took."""
    with tempfile.TemporaryDirectory(prefix="isrlab-mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name,
                                ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, copy / name)
        if mutant is not None:
            file, old, new = mutant
            target = copy / "src" / "isrlab" / file
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "tests", "benchmarks/tests", *(f"--ignore={t}" for t in SLOW_TESTS)]
        env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        started = time.perf_counter()
        try:
            proc = subprocess.run(command, cwd=copy, env=env, capture_output=True,
                                  timeout=TIMEOUT_S)
            failed = proc.returncode != 0
        except subprocess.TimeoutExpired:
            failed = True
        return failed, time.perf_counter() - started


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="report stale mutants and run none")
    args = parser.parse_args(argv)
    if not args.check:
        failed, seconds = run_suite(None)
        if failed:
            print(f"the unmutated tree fails the fast suite ({seconds:.0f} s): no mutant runs")
            return 2
        print(f"the unmutated tree passes the fast suite ({seconds:.0f} s)", flush=True)
    tally = {"caught": 0, "survived": 0, "stale": 0}
    for n, (file, old, new, reason) in enumerate(MUTANTS, 1):
        stale = locate(file, old)
        if stale is not None:
            outcome, detail = "stale", stale
        elif args.check:
            continue
        else:
            caught, seconds = run_suite((file, old, new))
            outcome, detail = ("caught" if caught else "survived"), f"{seconds:.0f} s"
        tally[outcome] += 1
        print(f"{n:3d} {outcome:8s} {file}: {reason} ({detail})", flush=True)
    print(", ".join(f"{count} {outcome}" for outcome, count in tally.items()))
    return 1 if tally["stale"] else 0


if __name__ == "__main__":
    sys.exit(main())
