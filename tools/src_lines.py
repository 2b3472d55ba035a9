"""Count the lines and code lines of each module of `src/ellbethe`.

    python3 tools/src_lines.py [TREE]
    python3 tools/src_lines.py PARENT CHANGE

TREE is a checkout with `src/ellbethe` (default: this one).  A code line
is one that is not blank, not a comment, and not inside the docstring of
a module, class or function; the lines of any other string, and a line
that holds code and a comment, are code.  With one tree the tool prints
one row per module and a total; with two it prints both trees' counts and
the change (CHANGE minus PARENT) for every module either tree has.
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

TOOLS = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(TOOLS)
PACKAGE = os.path.join("src", "ellbethe")
# tokens that make no line code on their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree) -> set:
    """Line numbers of the docstrings of the module and every class and
    function in the parsed `tree`."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node, clean=False):
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(source: str) -> tuple:
    """(lines, code lines) of one module's source text."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def tree_counts(root: str) -> dict:
    """{module file name: (lines, code lines)} over `root`'s package."""
    package = os.path.join(root, PACKAGE)
    if not os.path.isdir(package):
        raise SystemExit("no %s under %s" % (PACKAGE, root))
    out = {}
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                out[name] = count(fh.read())
    return out


def totals(counts: dict) -> tuple:
    return tuple(sum(row[k] for row in counts.values()) for k in (0, 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trees", nargs="*", default=[ROOT], metavar="TREE",
                        help="one checkout to count, or PARENT and CHANGE to compare")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give at most two trees")
    sides = [tree_counts(t) for t in args.trees]
    names = sorted(set().union(*sides))
    if len(sides) == 1:
        print("%-14s %6s %6s" % ("module", "lines", "code"))
        for name in names:
            print("%-14s %6d %6d" % ((name,) + sides[0][name]))
        print("%-14s %6d %6d" % (("total",) + totals(sides[0])))
        return 0
    print("%-14s %13s %13s %13s" % ("module", "lines", "code", "change"))
    rows = [(name,) + tuple(side.get(name, (0, 0)) for side in sides) for name in names]
    rows.append(("total",) + tuple(totals(side) for side in sides))
    for name, (l0, c0), (l1, c1) in rows:
        print("%-14s %6d %6d %6d %6d %+6d %+6d" % (name, l0, l1, c0, c1, l1 - l0, c1 - c0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
