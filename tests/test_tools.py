"""``tools/src_lines.py``, the source size metric."""

import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
SRC_LINES = REPO / "tools" / "src_lines.py"

#: a module of 15 lines, 5 of them code: the rest are docstrings (one-line
#: and multi-line), comments and blank lines; a string that is no docstring
#: counts as code, and a line with code and a comment counts once
MODULE = '''"""Module docstring
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function
        docstring."""
        x = "not a docstring"
        return os.sep + x
'''


@pytest.fixture
def module(tmp_path):
    path = tmp_path / "mod.py"
    path.write_text(MODULE, encoding="utf-8")
    return path


def test_line_count_is_wc_l(module):
    if shutil.which("wc") is None:
        pytest.skip("no wc")
    wc = subprocess.run(["wc", "-l", str(module)], capture_output=True, text=True, check=True)
    lines, _ = runpy.run_path(str(SRC_LINES))["count"](MODULE)
    assert lines == int(wc.stdout.split()[0]) == 15


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    _, code = runpy.run_path(str(SRC_LINES))["count"](MODULE)
    # import, class, def, the assignment and the return
    assert code == 5


def test_total_is_the_sum_of_the_file_rows():
    out = subprocess.run([sys.executable, str(SRC_LINES), str(REPO / "src" / "hankelbody")],
                         capture_output=True, text=True, check=True).stdout
    header, *rows, total = [line.split() for line in out.splitlines()]
    assert header == ["file", "lines", "code"]
    assert total[0] == "total" and rows
    assert {row[0] for row in rows} == {p.name for p in (REPO / "src" / "hankelbody").glob("*.py")}
    assert [int(total[1]), int(total[2])] == [sum(int(row[k]) for row in rows) for k in (1, 2)]
