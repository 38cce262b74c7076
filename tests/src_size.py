"""The size of the library: lines and AST nodes per module, and in total.

Lines are the file's lines, and nodes everything ``ast.walk`` yields
from the parsed module: docstrings count, comments do not.  A report, not
a check, and pytest does not collect it.  Run from the repository root::

    python tests/src_size.py [package directory]

The directory defaults to this repository's ``src/rackkit``.
"""

import ast
import sys
from pathlib import Path


def sizes(root: Path) -> list[tuple[str, int, int]]:
    """(file name, lines, AST nodes) of every .py file under root, sorted."""
    rows = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        nodes = sum(1 for _ in ast.walk(ast.parse(text, str(path))))
        rows.append((path.relative_to(root).as_posix(),
                     len(text.splitlines()), nodes))
    return rows


if __name__ == "__main__":
    root = Path(sys.argv[1] if len(sys.argv) > 1 else
                Path(__file__).resolve().parent.parent / "src" / "rackkit")
    rows = sizes(root)
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}} {'lines':>7} {'nodes':>7}")
    for name, lines, nodes in rows:
        print(f"{name:<{width}} {lines:>7,} {nodes:>7,}")
