"""The demo scripts print the same bytes as the recorded transcripts."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_matches_golden_transcript(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run([sys.executable, str(demo)], cwd=REPO, env=env, capture_output=True)
    assert run.returncode == 0, run.stderr.decode()
    golden = REPO / "tests" / "golden" / f"{demo.stem}.txt"
    assert run.stdout == golden.read_bytes()
