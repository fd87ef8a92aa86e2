"""The demos run as written: 01-03 end to end, and every name 04 and 05
import from isrlab resolves (those two train for about half a minute each)."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("name", ["01_corpus_tour", "02_play_a_game", "03_train_guesser"])
def test_demo_runs(tmp_path, name):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(DEMOS / f"{name}.py")], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", ["04_train_enquirer", "05_baselines_and_diversity"])
def test_demo_imports_resolve(name):
    tree = ast.parse((DEMOS / f"{name}.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "isrlab"]
    assert imports
    for node in imports:
        module = importlib.import_module(node.module)
        for alias in node.names:
            assert hasattr(module, alias.name), f"{node.module}.{alias.name}"
