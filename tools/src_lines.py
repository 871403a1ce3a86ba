"""Line counts of the modules of ``src/runvec``, by one rule.

Usage, from the root of the repository::

    python tools/src_lines.py [DIRECTORY]

Prints one row per ``*.py`` file of DIRECTORY (default ``src/runvec``)
and a total row.  Each line counts once: every line of a docstring (the
first statement of a module, class or function when it is a string),
blank ones included, as docstring; else a line whose first non-blank
character is ``#`` as comment; else an empty or all-blank line as blank;
else as code.  The tool reads the files and changes nothing.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(source: str) -> dict[str, int]:
    """The number of lines of ``source`` of each kind in :data:`KINDS`."""
    docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                docstring.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(source.splitlines(), start=1):
        text = line.strip()
        if number in docstring:
            counts["docstring"] += 1
        elif text.startswith("#"):
            counts["comment"] += 1
        elif not text:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def main(argv: list[str]) -> int:
    directory = Path(argv[0] if argv else "src/runvec")
    rows = [(path.name, line_kinds(path.read_text())) for path in sorted(directory.glob("*.py"))]
    total = {kind: sum(counts[kind] for _, counts in rows) for kind in KINDS}
    print(f"{'module':<16}" + "".join(f"{kind:>11}" for kind in (*KINDS, "total")))
    for name, counts in [*rows, ("total", total)]:
        values = [counts[kind] for kind in KINDS]
        print(f"{name:<16}" + "".join(f"{v:>11}" for v in (*values, sum(values))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
