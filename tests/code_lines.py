"""Count the code lines of Python sources.

A code line is a non-blank line that a token other than a comment, a
newline or an indent covers, and that is not part of a docstring (the
string that opens a module, class or function body).  A multi-line string
that is not a docstring counts on each of its non-blank lines.

    python tests/code_lines.py src/tauseq/*.py

prints one count per file and then the total.
"""

import ast
import io
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in the tree."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    covered = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            covered.update(range(token.start[0], token.end[0] + 1))
    text = source.splitlines()
    return sum(1 for line in covered - docstring_lines(ast.parse(source))
               if text[line - 1].strip())


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        print(f"{count:6d} {path}")
        total += count
    print(f"{total:6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])
