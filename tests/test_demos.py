"""The demo scripts print the same bytes as the recorded transcripts, and the
README's quickstart prints what its comments say."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


def _run(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run([sys.executable, *args], cwd=REPO, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    return run.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_matches_golden_transcript(demo):
    golden = REPO / "tests" / "golden" / f"{demo.stem}.txt"
    assert _run([str(demo)]) == golden.read_bytes()


def test_readme_quickstart_prints_its_comments():
    """The quickstart block's output is the comment after each ``print``
    followed by the block's own comment lines, in order."""
    readme = (REPO / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quickstart", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = []
    for line in block.splitlines():
        if line.startswith("# "):
            expected.append(line[2:])
        elif line.startswith("print(") and "  # " in line:
            expected.append(line.split("  # ", 1)[1])
    assert "X1*X2 + X1 + 1" in expected
    assert _run(["-c", block]) == "".join(f"{line}\n" for line in expected).encode()
