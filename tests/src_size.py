"""Print the lines and tokens of each module of ``src/voxalign``, then the totals.

Usage: ``python3 tests/src_size.py``

It measures the checkout this file is in. Lines are the file's newline
characters, as ``wc -l`` counts them. Tokens are the tokens of Python's
``tokenize``, leaving out COMMENT, NL, NEWLINE, INDENT, DEDENT and
ENDMARKER, so comments, blank lines and indentation do not count.
Comparing two commits is then one ``diff`` of their outputs, after
copying this file into the other checkout if it predates it.

Pytest does not collect this file.
"""

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "voxalign"
UNCOUNTED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def size(path: Path) -> tuple:
    text = path.read_text(encoding="utf-8")
    tokens = tokenize.generate_tokens(io.StringIO(text).readline)
    return text.count("\n"), sum(1 for token in tokens if token.type not in UNCOUNTED)


if __name__ == "__main__":
    if len(sys.argv) != 1:
        raise SystemExit(__doc__.splitlines()[2])
    rows = [(path.name, *size(path)) for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", sum(row[1] for row in rows), sum(row[2] for row in rows)))
    print(f"{'module':<16} {'lines':>6} {'tokens':>7}")
    for name, lines, tokens in rows:
        print(f"{name:<16} {lines:>6} {tokens:>7}")
