"""Print the net change in code lines of the Python files under a path
between two git revisions.

A code line holds a token that is neither a comment nor part of a
docstring (a statement that is only a string), so blank lines, comments
and docstrings do not count: deleting them is no reduction of the code.

    python3 scripts/code_lines.py BASE [REV [PATH]]

REV defaults to HEAD and PATH to src.
"""

import ast
import io
import subprocess
import sys
import tokenize

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in a Python source."""
    docs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Expr) \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            docs.update(range(node.lineno, node.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def _git(*args: str) -> str:
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout


def total(rev: str, path: str) -> int:
    """Code lines of the Python files under ``path`` at revision ``rev``."""
    files = _git("ls-tree", "-r", "--name-only", rev, "--", path).split()
    return sum(code_lines(_git("show", f"{rev}:{f}"))
               for f in files if f.endswith(".py"))


def main(base: str, rev: str = "HEAD", path: str = "src") -> None:
    before, after = total(base, path), total(rev, path)
    print(f"{path}/: {before} -> {after} code lines, net {after - before:+d}")


if __name__ == "__main__":
    main(*sys.argv[1:])
