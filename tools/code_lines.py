"""Count the code lines of the engine modules.

A code line is a physical line that holds at least one token other than a
comment, a docstring, a line break or an indentation change.  A docstring
is a string statement standing alone: the first token of a logical line,
followed by its end.  Every line a code token spans counts, so a
multi-line string that is not a docstring counts whole.

Usage: python3 tools/code_lines.py [DIRECTORY]

DIRECTORY defaults to the ``src/stablechar`` of the checkout that holds
this script.  Prints the count of each module, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

_NOT_CODE = {
    tokenize.ENCODING,
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
# Tokens after which the next token begins a logical line.
_LINE_ENDS = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python source file."""
    with path.open("rb") as handle:
        tokens = list(tokenize.tokenize(handle.readline))
    lines: set[int] = set()
    starts_line = True
    for tok, after in zip(tokens, tokens[1:]):
        if tok.type in _NOT_CODE:
            starts_line = starts_line or tok.type in _LINE_ENDS
            continue
        docstring = (
            starts_line
            and tok.type == tokenize.STRING
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER)
        )
        starts_line = False
        if not docstring:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    default = Path(__file__).resolve().parent.parent / "src" / "stablechar"
    root = Path(argv[1]) if len(argv) > 1 else default
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{path.name:16} {count:6,}")
    print(f"{'total':16} {total:6,}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
