#!/usr/bin/env python3
"""Count the code, docstring and other lines of Python files.

    python3 tools/code_size.py PATH... [--rev REV]

Each PATH is a ``.py`` file or a directory, whose ``.py`` files are
counted at any depth.  A docstring is the first statement of a module,
class or function when that statement is a string, and each of its lines
counts as docstring.  Of the other lines, one that is blank or whose first
non-blank character is ``#`` counts as other, and every other line as
code.  With ``--rev``, the files are those of git revision REV, read
through ``git ls-tree`` and ``git show REV:path``, not the working tree's.

Prints one line per file, ``code docstring other path``, then their total.
A PATH that is missing, or that holds no ``.py`` file at REV, exits 1 with
a message.
"""

from __future__ import annotations

import argparse
import ast
import subprocess
import sys
from pathlib import Path

DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def counts(source: str) -> tuple[int, int, int]:
    """(code, docstring, other) lines of one module's source."""
    doc_lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOC_OWNERS) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                doc_lines.update(range(first.lineno, first.end_lineno + 1))
    code = doc = other = 0
    for number, line in enumerate(source.splitlines(), start=1):
        if number in doc_lines:
            doc += 1
        elif not line.strip() or line.lstrip().startswith("#"):
            other += 1
        else:
            code += 1
    return code, doc, other


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"code_size: git {' '.join(args)}: {done.stderr.strip()}")
    return done.stdout


def sources(paths: list[str], rev: str | None) -> list[tuple[str, str]]:
    """(path, source) of every ``.py`` file under ``paths``, in path order."""
    if rev is None:
        files = []
        for p in map(Path, paths):
            if p.is_dir():
                files += sorted(p.rglob("*.py"))
            elif p.is_file():
                files.append(p)
            else:
                raise SystemExit(f"code_size: no file or directory {p}")
        return [(str(f), f.read_text(encoding="utf-8")) for f in files]
    out = []
    for p in paths:
        # paths relative to the current directory, as ``REV:./path`` reads them
        names = [n for n in git("ls-tree", "-r", "--name-only", rev, "--", p).splitlines()
                 if n.endswith(".py")]
        if not names:
            raise SystemExit(f"code_size: no .py file at {p} in {rev}")
        out += [(n, git("show", f"{rev}:./{n}")) for n in sorted(names)]
    return out


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Count code, docstring and other lines.")
    parser.add_argument("paths", nargs="+", metavar="PATH")
    parser.add_argument("--rev", help="read the files at this git revision")
    args = parser.parse_args(argv)
    files = sources(args.paths, args.rev)
    total = [0, 0, 0]
    print(f"{'code':>6} {'doc':>6} {'other':>6}  path")
    for path, source in files:
        row = counts(source)
        total = [t + n for t, n in zip(total, row)]
        print(f"{row[0]:6d} {row[1]:6d} {row[2]:6d}  {path}")
    print(f"{total[0]:6d} {total[1]:6d} {total[2]:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
