#!/usr/bin/env python3
"""Regenerate reference_fingerprints.json: every workload at seeds 0-9.

    python3 benchmark/reference.py

Each (workload, seed) is one shortest run of benchmark/run.py with
``--write-reference``.  A run whose outputs fail a check is reported and
leaves its old reference in place.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SEEDS = range(10)


def main() -> int:
    bad = 0
    for w in workloads.WORKLOADS:
        for s in SEEDS:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(s),
                   "--seconds", "1", "--trace", "0", "--write-reference"]
            out = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True)
            lines = out.stdout.strip().splitlines()
            ok = out.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
            print(f"{w} seed={s}: {'written' if ok else 'FAILED'}", flush=True)
            if not ok:
                bad += 1
                print(out.stdout + out.stderr, file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
