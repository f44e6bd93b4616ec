"""The walkthrough scripts run end to end."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run(name: str) -> subprocess.CompletedProcess:
    done = subprocess.run([sys.executable, str(SCRIPTS / name)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def test_replay_traces():
    out = run("replay_traces.py").stdout
    assert "meaning: eat(cheese)(mouse)" in out.splitlines()


def test_run_learning_session():
    run("run_learning_session.py")
