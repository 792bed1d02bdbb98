"""Count the lines of the package source.

    python tests/src_lines.py [DIR]
    python tests/src_lines.py --against REF

For each ``*.py`` file under DIR (default: src/ next to this script) it
prints the total line count and the code-only count: the lines that hold
a token other than a comment or a docstring, so blank lines, comment
lines and docstring lines are left out.  A docstring is any string that
forms a statement of its own.  The last line gives both totals.

With ``--against REF`` it counts src/ at the git revision REF (read with
``git show``) and in the working tree, and prints for each file and in
total both counts at REF, both here, and the net change here minus REF.
"""

import io
import subprocess
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# tokens that hold no code; NEWLINE is kept, as the end of a statement
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: bytes) -> int:
    tokens = [t for t in tokenize.tokenize(io.BytesIO(source).readline)
              if t.type not in _SKIP]
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


def counts(source: bytes | None) -> tuple:
    """(lines, code-only lines) of a file's bytes, (0, 0) for no file."""
    return (0, 0) if source is None else (len(source.splitlines()), code_lines(source))


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout


def main(root) -> None:
    total = code = 0
    for path in sorted(Path(root).rglob("*.py")):
        lines, only = counts(path.read_bytes())
        total, code = total + lines, code + only
        print(f"{lines:6d} {only:6d}  {path.relative_to(root)}")
    print(f"{total:6d} {code:6d}  total (lines, code-only)")


def against(ref: str) -> None:
    old = {name: _git("show", f"{ref}:{name}")
           for name in _git("ls-tree", "-r", "--name-only", ref, "--", "src").decode().split()
           if name.endswith(".py")}
    new = {str(path.relative_to(ROOT)): path.read_bytes()
           for path in (ROOT / "src").rglob("*.py")}
    print(f"{'at ' + ref[:12]:>13} {'here':>13} {'net':>13}")
    sums = [0] * 6
    for name in sorted(old.keys() | new.keys()):
        row = (*counts(old.get(name)), *counts(new.get(name)))
        row += (row[2] - row[0], row[3] - row[1])
        sums = [s + r for s, r in zip(sums, row)]
        print("{:6d} {:6d} {:6d} {:6d} {:+6d} {:+6d}  ".format(*row) + name)
    print("{:6d} {:6d} {:6d} {:6d} {:+6d} {:+6d}  total (lines, code-only)".format(*sums))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--against"] and len(sys.argv) == 3:
        against(sys.argv[2])
    else:
        main(sys.argv[1] if len(sys.argv) > 1 else ROOT / "src")
