"""Every CLI artifact keeps its bytes: ``tools/artifact_digests.py`` must
print the digests committed in ``tests/golden/artifact_digests.txt``.

The golden file's first line names the numpy version and BLAS build the
digests were made with; another build may round differently, so a failure
names both builds as well as every artifact that moved.  A change that
moves bytes on purpose regenerates the file in the same commit,

    PYTHONPATH=src python tests/test_artifact_digests.py

and names each moved line and why it moved.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "artifact_digests.txt"


def build() -> str:
    """This interpreter's numpy version and BLAS build."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):     # numpy before 1.26 prints its config only
        blas = "unknown"
    return f"numpy {np.__version__}, BLAS {blas}"


def tool_digests() -> list[str]:
    """The tool's output lines for this checkout's ``src``: ``digest name``."""
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / "artifact_digests.py"), str(ROOT / "src")],
        check=True, stdout=subprocess.PIPE, text=True).stdout.splitlines()


def by_name(lines: list[str]) -> dict[str, str]:
    return {name: digest for digest, name in (line.split(" ", 1) for line in lines)}


def test_every_artifact_keeps_its_golden_digest():
    header, *golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    want, have = by_name(golden), by_name(tool_digests())
    moved = sorted(name for name in want.keys() | have.keys()
                   if want.get(name) != have.get(name))
    assert not moved, (
        f"{len(moved)} of {len(want)} digests moved: {', '.join(moved)} (golden: "
        f"{header.lstrip('# ')}; this run: {build()})")


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(f"{line}\n" for line in [f"# {build()}", *tool_digests()]),
                      encoding="utf-8")
    print(GOLDEN)
