"""``tools/code_size.py`` on a module whose counts are known, read from the
working tree and from a git revision."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_size.py"

# docstring: lines 1, 2, 7 and 10; other: 4, 5 and 9; code: 3, 6, 8, 11 and 12
SAMPLE = '''"""A module docstring
of two lines."""
import os  # a comment after code is code


class A:
    "A class docstring."
    def f(self):
        # a comment before the docstring
        "A function docstring."
        return """a string that is
not a docstring"""
'''


def code_size(*args, cwd):
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=cwd, capture_output=True,
                          text=True, check=True).stdout.splitlines()


def test_counts_of_a_known_module(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "sample.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "notes.txt").write_text("x = 1\n")
    assert code_size("pkg", cwd=tmp_path) == ["  code    doc  other  path",
                                              "     5      4      3  pkg/sample.py",
                                              "     5      4      3  total"]


def test_rev_reads_the_committed_file(tmp_path):
    (tmp_path / "sample.py").write_text(SAMPLE)
    for args in (["init", "-q"], ["add", "sample.py"], ["commit", "-q", "-m", "sample"]):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        "-c", "commit.gpgsign=false", *args],
                       cwd=tmp_path, check=True, capture_output=True)
    (tmp_path / "sample.py").write_text("import os\n")
    assert code_size("sample.py", "--rev", "HEAD", cwd=tmp_path)[-1] == "     5      4      3  total"
    assert code_size("sample.py", cwd=tmp_path)[-1] == "     1      0      0  total"
