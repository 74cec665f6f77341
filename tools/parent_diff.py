#!/usr/bin/env python3
"""Write the standard artifact set at a git revision and at the working
tree, and compare the two file by file.

    python3 tools/parent_diff.py REV

REV is exported with ``git archive`` into a temporary directory, so the
repository's own state is not touched.  Each side then runs every command
of the set with its own ``src`` on PYTHONPATH, its own configs and demos,
and one BLAS thread.  The set:

* ``al-run --analysis`` on configs/al_mixture.yaml with ``dump_scores``,
  seeds 0-2 and all five strategies, at ``--jobs 1`` and ``--jobs 2``;
* the same at seed 0 on CI's copy of it whose 16,536-row test set makes
  each epoch's snapshot two blocks of ``netcore.predict``;
* ``pilot`` (seeds 0-4), ``kl-analysis`` (seed 0), ``theory-sde`` (seeds
  0-2), ``theory-closed-form`` and ``gen-data`` on the shipped configs;
* ``theory-sde`` (seeds 0-2) on CI's noise-0.3 copy of configs/theory.yaml,
  whose steps draw normals as well as indices;
* each demo's standard output.

Prints one line, the count of identical files and the names of the rest,
and exits 1 on any difference (a file on one side only is one); a command
that fails on either side exits 2.
"""

from __future__ import annotations

import filecmp
import os
import subprocess
import sys
import tempfile
from pathlib import Path

STRATEGIES = "random,snapshot_entropy,coreset,tidal_entropy,tidal_margin"


def derived_configs(root: Path, work: Path) -> dict[str, Path]:
    """CI's two edits of configs/al_mixture.yaml and its noisy copy of
    configs/theory.yaml, written under ``work``."""

    def replace_once(text, name, old, new):
        if text.count(old) != 1:
            raise SystemExit(f"parent_diff: {root}: configs/{name} has not one {old!r}")
        return text.replace(old, new)

    # al: is the config's last section, so an indented line appended to it joins it.
    dump = (root / "configs" / "al_mixture.yaml").read_text() + "  dump_scores: true\n"
    big = dump
    for old, new in [("  per_class: 300\n", "  per_class: 6200\n"),
                     ("  n_cycles: 5\n", "  n_cycles: 2\n"), ("  epochs: 60\n", "  epochs: 3\n")]:
        big = replace_once(big, "al_mixture.yaml", old, new)
    noisy = replace_once((root / "configs" / "theory.yaml").read_text(), "theory.yaml",
                         "  noise: 0.0\n", "  noise: 0.3\n")
    paths = {"al_dump": work / "al_dump.yaml", "al_big_test": work / "al_big_test.yaml",
             "theory_noisy": work / "theory_noisy.yaml"}
    paths["al_dump"].write_text(dump)
    paths["al_big_test"].write_text(big)
    paths["theory_noisy"].write_text(noisy)
    return paths


def commands(root: Path, work: Path, out: Path) -> list[tuple[list[str], Path | None]]:
    """(argv, file for its stdout or None) of every command of the set."""
    cfg = derived_configs(root, work)
    configs = root / "configs"

    def dynal(command, config, name, *flags):
        return ([sys.executable, "-m", "dynal.cli", command, "--config", str(config),
                 "--out", str(out / name), *flags], None)

    runs = [
        dynal("al-run", cfg["al_dump"], f"al_jobs{j}", "--seeds", "0,1,2", "--strategies",
              STRATEGIES, "--analysis", "--jobs", str(j))
        for j in (1, 2)
    ]
    runs += [
        dynal("al-run", cfg["al_big_test"], "al_big_test", "--seeds", "0", "--strategies",
              STRATEGIES, "--analysis"),
        dynal("pilot", configs / "pilot_longtail.yaml", "pilot", "--seeds", "0,1,2,3,4"),
        dynal("kl-analysis", configs / "pilot_longtail.yaml", "kl", "--seeds", "0"),
        dynal("theory-sde", configs / "theory.yaml", "sde", "--seeds", "0,1,2"),
        dynal("theory-sde", cfg["theory_noisy"], "sde_noisy", "--seeds", "0,1,2"),
        dynal("theory-closed-form", configs / "theory.yaml", "closed_form"),
        dynal("gen-data", configs / "al_mixture.yaml", "data"),
    ]
    runs += [([sys.executable, str(demo)], out / "demos" / f"{demo.stem}.txt")
             for demo in sorted((root / "demos").glob("*.py"))]
    return runs


def write_artifacts(root: Path, work: Path) -> Path:
    """Run the set with ``root``'s src, configs and demos; returns its output directory."""
    out = work / "out"
    (out / "demos").mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    for argv, stdout in commands(root, work, out):
        done = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"parent_diff: {' '.join(argv[1:])} exited {done.returncode} "
                             f"with the src of {root}")
        if stdout is not None:
            stdout.write_text(done.stdout)
    return out


def compare(a: Path, b: Path) -> tuple[int, list[str]]:
    """(number of files identical under ``a`` and ``b``, sorted names of the rest)."""
    names = {p.relative_to(d).as_posix() for d in (a, b) for p in d.rglob("*") if p.is_file()}
    same = [n for n in names
            if (a / n).is_file() and (b / n).is_file() and filecmp.cmp(a / n, b / n, shallow=False)]
    return len(same), sorted(names - set(same))


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/parent_diff.py REV", file=sys.stderr)
        return 2
    rev = argv[0]
    root = Path(subprocess.run(["git", "rev-parse", "--show-toplevel"], cwd=Path(__file__).parent,
                               check=True, capture_output=True, text=True).stdout.strip())
    with tempfile.TemporaryDirectory(prefix="parent_diff_") as tmp:
        tmp = Path(tmp)
        at_rev = tmp / "rev"
        at_rev.mkdir()
        archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=root,
                                 capture_output=True)
        if archive.returncode != 0:
            sys.stderr.write(archive.stderr.decode())
            return 2
        subprocess.run(["tar", "-x", "-C", str(at_rev)], input=archive.stdout, check=True)
        sides = []
        for name, tree in [("rev_side", at_rev), ("tree_side", root)]:
            (tmp / name).mkdir()
            sides.append(write_artifacts(tree, tmp / name))
        n_same, differ = compare(*sides)
    print(f"parent_diff {rev}: {n_same} files identical; "
          + (f"{len(differ)} differ: {', '.join(differ)}" if differ else "none differ"))
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
