#!/usr/bin/env python3
"""Run the steps of the CI workflow's ``tier1`` job on this tree.

    python3 tools/ci_steps.py [--workflow PATH]

Reads the workflow (``.github/workflows/tests.yml`` by default) with
PyYAML and runs the ``run:`` text of each step of its ``tier1`` job in
order, each in ``bash -e`` from the repository root, as the hosted runner
runs it.  A step runs with its own ``env:`` over this process's
environment, ``RUNNER_TEMP`` set to a fresh temporary directory that is
removed after it, and this tree's ``src`` on PYTHONPATH.  A ``bin``
directory first on PATH holds ``python`` and ``python3``, this
interpreter, and ``dynal``, the console script on this tree's ``src``.
These stand in for the ``Install`` step, which installs the package with
pip; it is the one step with a ``run:`` that is skipped, and the tool
says so.  Steps without a ``run:`` (actions, ``uses:``) have no text to
run.

Prints one line per step, its name, exit code and seconds, after the
step's own output, and a failed step does not stop the ones after it.
Exits 1 if any step exited nonzero, else 0.
"""

from __future__ import annotations

import argparse
import os
import shlex
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
SKIPPED = "Install"


def make_bin(where: Path) -> Path:
    """A directory under ``where`` with ``python``, ``python3`` and the
    ``dynal`` console script, all running this interpreter on ``ROOT/src``."""
    bin_dir = where / "bin"
    bin_dir.mkdir()
    for name in ("python", "python3"):
        (bin_dir / name).symlink_to(sys.executable)
    entry = 'import sys; sys.argv[0] = "dynal"; from dynal.cli import main; sys.exit(main())'
    dynal = bin_dir / "dynal"
    dynal.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -c {shlex.quote(entry)} "$@"\n')
    dynal.chmod(0o755)
    return bin_dir


def run_step(step: dict, bin_dir: Path) -> int:
    """Run one step's ``run:`` text; its exit code."""
    env = dict(os.environ)
    env.update({k: str(v) for k, v in (step.get("env") or {}).items()})
    env["PATH"] = f"{bin_dir}{os.pathsep}{env.get('PATH', '')}"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with tempfile.TemporaryDirectory(prefix="runner_temp_") as runner_temp:
        env["RUNNER_TEMP"] = runner_temp
        return subprocess.run(["bash", "--noprofile", "--norc", "-e", "-c", step["run"]],
                              cwd=ROOT, env=env).returncode


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workflow", type=Path, default=ROOT / ".github/workflows/tests.yml")
    args = parser.parse_args(argv)
    workflow = yaml.load(args.workflow.read_text(), Loader=yaml.CSafeLoader)
    steps = [s for s in workflow["jobs"]["tier1"]["steps"] if "run" in s]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ci_steps_") as work:
        bin_dir = make_bin(Path(work))
        for step in steps:
            name = step.get("name", step["run"].splitlines()[0])
            if name == SKIPPED:
                print(f"{name}: skipped (the bin directory on PATH stands in for it)", flush=True)
                continue
            start = time.perf_counter()
            code = run_step(step, bin_dir)
            print(f"{name}: exit {code}, {time.perf_counter() - start:.1f} s", flush=True)
            failed += code != 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
