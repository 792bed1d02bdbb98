"""Count the lines of the package source: python tests/src_lines.py [DIR]

For each ``*.py`` file under DIR (default: src/ next to this script) it
prints the total line count and the code-only count: the lines that hold
a token other than a comment or a docstring, so blank lines, comment
lines and docstring lines are left out.  A docstring is any string that
forms a statement of its own.  The last line gives both totals.
"""

import sys
import tokenize
from pathlib import Path

# tokens that hold no code; NEWLINE is kept, as the end of a statement
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _SKIP]
    lines = set()
    for k, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        # a string between two statement boundaries is a docstring
        alone = (tok.type == tokenize.STRING
                 and (k == 0 or tokens[k - 1].type == tokenize.NEWLINE)
                 and (k + 1 == len(tokens) or tokens[k + 1].type == tokenize.NEWLINE))
        if not alone:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(root) -> None:
    total = code = 0
    for path in sorted(Path(root).rglob("*.py")):
        lines, only = len(path.read_bytes().splitlines()), code_lines(path)
        total, code = total + lines, code + only
        print(f"{lines:6d} {only:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {code:6d}  total (lines, code-only)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent / "src")
