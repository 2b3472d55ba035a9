"""Tests of tools/src_lines.py, the per-module line counter of `src/ellbethe`."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOOL = os.path.join(ROOT, "tools", "src_lines.py")

# 17 lines; the code lines are 4, 9, 12, 13, 15 and 17: not the blank or
# comment lines, nor the module, class and function docstrings, but both
# lines of the string bound to x, one of which starts with '#'
MODULE = '''"""Module docstring
on two lines."""

import os  # a comment after code

# a comment line


class A:
    """Class docstring."""

    x = """not a docstring,
# its second line"""

    def f(self):
        """One line."""
        return 1
'''
# 3 lines, all code: a function's first string is a docstring only as a
# statement of its own
OTHER = '''def g():
    return """a string,
not a docstring"""
'''


def package(root, modules):
    path = os.path.join(root, "src", "ellbethe")
    os.makedirs(path)
    for name, text in modules.items():
        with open(os.path.join(path, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return str(root)


def run(*trees):
    return subprocess.run([sys.executable, TOOL, *trees], capture_output=True, text=True,
                          check=True).stdout.splitlines()


def test_counts_lines_and_code_lines_per_module(tmp_path):
    tree = package(tmp_path / "one", {"__init__.py": "", "a.py": MODULE, "b.py": OTHER})
    assert [line.split() for line in run(tree)] == [
        ["module", "lines", "code"], ["__init__.py", "0", "0"], ["a.py", "17", "6"],
        ["b.py", "3", "3"], ["total", "20", "9"]]


def test_two_trees_print_both_counts_and_the_change(tmp_path):
    parent = package(tmp_path / "parent", {"a.py": MODULE, "b.py": OTHER})
    change = package(tmp_path / "change", {"a.py": MODULE + "y = 2\n", "c.py": "# note\n"})
    assert [line.split() for line in run(parent, change)] == [
        ["module", "lines", "code", "change"],
        ["a.py", "17", "18", "6", "7", "+1", "+1"],
        ["b.py", "3", "0", "3", "0", "-3", "-3"],
        ["c.py", "0", "1", "0", "0", "+1", "+0"],
        ["total", "20", "19", "9", "7", "-1", "-2"]]
