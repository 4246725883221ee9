#!/usr/bin/env python3
"""
Count the lines of every module under ``src/``: all of them, as ``wc -l``
does, and the code lines, the lines that hold a token other than a
comment and are no part of a docstring (read with ``tokenize`` and
``ast``).  Prints one row per module, then the totals::

    python tools/code_lines.py            # the src/ next to this script
    python tools/code_lines.py other/src  # any other tree of modules
"""

import ast
import io
import os
import sys
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Tokens that hold no code: layout, comments and the stream's ends.
NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str):
    """``(lines, code lines)`` of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NO_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return source.count("\n"), len(code - docstring_lines(ast.parse(source)))


def main(argv):
    src = argv[1] if len(argv) > 1 else os.path.join(ROOT, "src")
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(src)
                   for f in files if f.endswith(".py"))
    total_lines = total_code = 0
    print("%8s %8s  %s" % ("lines", "code", "module"))
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            lines, code = count(fh.read())
        total_lines, total_code = total_lines + lines, total_code + code
        print("%8d %8d  %s" % (lines, code, os.path.relpath(path, src)))
    print("%8d %8d  total" % (total_lines, total_code))


if __name__ == "__main__":
    main(sys.argv)
