"""Count the code lines of Python files: lines that hold a token other
than a comment, a line break or an indent, where a string that stands
alone as a statement (a docstring) is not code.

    python tools/code_lines.py

Counts every ``*.py`` file under ``src/stiffid`` beside this script and
prints each file's count and the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []
    with open(path, "rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type not in LAYOUT:
                statement.append(token)
            elif token.type in (tokenize.NEWLINE, tokenize.ENDMARKER) and statement:
                if any(t.type != tokenize.STRING for t in statement):
                    lines.update(row for t in statement
                                 for row in range(t.start[0], t.end[0] + 1))
                statement = []
    return len(lines)


def main() -> int:
    package = Path(__file__).resolve().parents[1] / "src" / "stiffid"
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
