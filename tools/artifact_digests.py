"""Print one sha256 per CLI artifact and per command's stdout, for a fixed
command list.

    python tools/artifact_digests.py SRC > digests.txt

``SRC`` is the ``src/`` directory of a checkout; the commands run as
``python -m isrlab.cli`` with ``PYTHONPATH=SRC`` and ``--threads 1``, one
at a time, in a temporary directory that is removed afterwards.  The list
covers every subcommand: a corpus at seed 1, a guesser on 20,000 games,
an enquirer on 4,000 episodes, the four eval policies, each with the
diversity index, both sweeps and the heuristic baseline, 30 artifacts in
all.  The two training summaries are hashed without their ``wall_time_s``
field, the one value that differs between repeated runs.  Each command's stdout, the paths it
printed, is hashed with the temporary directory replaced by ``ROOT``.  So
two trees whose outputs are the same byte for byte print the same lines:
diff the output of two checkouts to check that a change keeps every
artifact and every printed path.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TIMED_SUMMARIES = ("guesser_summary.json", "enquirer_summary.json")


def commands(root: Path) -> list[tuple[str, list[str]]]:
    """(output directory, CLI arguments) of each run, in order; gen-corpus
    writes beside its --out, which is in its output directory."""
    corpus, guesser, enquirer = (str(root / p) for p in (
        "corpus/corpus.jsonl", "guesser/guesser.json", "enquirer/enquirer.json"))
    ev = ["eval", "--corpus", corpus, "--guesser", guesser]
    return [
        ("corpus", ["gen-corpus", "--out", corpus, "--seed", "1"]),
        ("guesser", ["train-guesser", "--corpus", corpus, "--games", "20000"]),
        ("enquirer", ["train-enquirer", "--corpus", corpus, "--guesser", guesser,
                      "--episodes", "4000"]),
        ("eval_random", [*ev, "--policy", "random", "--seeds", "0,1", "--diversity"]),
        ("eval_fixed", [*ev, "--policy", "fixed", "--fixed-words", "0,3,5", "--diversity"]),
        ("eval_heuristic", [*ev, "--policy", "heuristic", "--diversity"]),
        ("eval_enquirer", [*ev, "--enquirer", enquirer, "--policy", "enquirer",
                           "--diversity"]),
        ("sweep_words", [*ev, "--enquirer", enquirer, "--sweep", "words",
                         "--grid", "1,3,5", "--include-heuristic"]),
        ("sweep_guests", [*ev, "--sweep", "guests", "--grid", "3,5,10,50"]),
        ("heuristic", ["baseline-heuristic", "--corpus", corpus, "--guesser", guesser,
                       "--words", "1"]),
    ]


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name in TIMED_SUMMARIES:
        summary = json.loads(data)
        summary.pop("wall_time_s")
        data = json.dumps(summary, sort_keys=True).encode()
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "isrlab").is_dir():
        print("usage: python tools/artifact_digests.py SRC", file=sys.stderr)
        return 2
    env = {**os.environ, "PYTHONPATH": str(Path(argv[0]).resolve())}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        printed = []
        for out_dir, args in commands(root):
            if args[0] != "gen-corpus":
                args = [*args, "--out-dir", str(root / out_dir)]
            stdout = subprocess.run([sys.executable, "-m", "isrlab.cli", *args,
                                     "--threads", "1"], env=env, check=True,
                                    stdout=subprocess.PIPE).stdout
            printed.append((out_dir, stdout.replace(str(root).encode(), b"ROOT")))
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            print(digest(path), path.relative_to(root).as_posix())
        for out_dir, stdout in printed:
            print(hashlib.sha256(stdout).hexdigest(), f"stdout of {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
