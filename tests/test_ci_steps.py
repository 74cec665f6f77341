"""``tools/ci_steps.py`` on a small workflow: each step's exit code, its
environment and the skipped ``Install``."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ci_steps.py"

WORKFLOW = """\
on: push
jobs:
  tier1:
    runs-on: ubuntu-latest
    steps:
      - uses: actions/checkout@v4
      - name: Install
        run: exit 3
      - name: Console script
        env:
          GREETING: hello
        run: |
          test "$GREETING" = hello
          test -d "$RUNNER_TEMP"
          dynal gen-data --config configs/al_mixture.yaml --out "$RUNNER_TEMP/data"
          test -s "$RUNNER_TEMP/data/data_train.csv"
      - name: Fails
        run: |
          false
          echo not reached
"""


def test_each_step_is_run_and_reported(tmp_path):
    (tmp_path / "tests.yml").write_text(WORKFLOW)
    done = subprocess.run([sys.executable, str(TOOL), "--workflow", str(tmp_path / "tests.yml")],
                          capture_output=True, text=True)
    lines = [line for line in done.stdout.splitlines() if line.startswith(
        ("Install:", "Console script:", "Fails:"))]
    assert done.returncode == 1, done.stdout + done.stderr
    assert [line.split(",")[0] for line in lines] == [
        "Install: skipped (the bin directory on PATH stands in for it)",
        "Console script: exit 0", "Fails: exit 1"]
    assert lines[1].endswith(" s") and "not reached" not in done.stdout


def test_a_workflow_whose_steps_pass_exits_0(tmp_path):
    (tmp_path / "tests.yml").write_text(WORKFLOW.split("      - name: Fails")[0])
    done = subprocess.run([sys.executable, str(TOOL), "--workflow", str(tmp_path / "tests.yml")],
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stdout + done.stderr
