"""Count the code lines of each module in src/srlaser, and their total.

A code line is a source line that holds at least one token other than a
comment, a docstring or layout (newlines, indents, dedents).  A docstring
is a string that forms a statement on its own, bare or in one pair of
parentheses: the first statement of a module, class or function, or any
other such string.  Only the standard library's ``tokenize`` is used, so
the count needs no package installed.

    python3 tools/code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to the repository's src/srlaser.
"""
from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that are never code; a NEWLINE ends a statement
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of path that hold code."""
    with open(path, "rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines: set[int] = set()
    statement: list = []  # the tokens of the logical line being read
    for tok in tokens:
        if tok.type in _SKIP:
            continue
        if tok.type != tokenize.NEWLINE:
            statement.append(tok)
            continue
        # a statement that is only strings (implicitly joined), bare or in
        # one pair of parentheses, is a docstring
        body = statement
        if len(body) > 2 and body[0].string == "(" and body[-1].string == ")":
            body = body[1:-1]
        if not all(t.type == tokenize.STRING for t in body):
            for t in statement:
                lines.update(range(t.start[0], t.end[0] + 1))
        statement = []
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parents[1] / "src" / "srlaser")
    counts = {p.stem: code_lines(p) for p in sorted(root.glob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<{width}}  {count:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
