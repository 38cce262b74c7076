"""The size of the library: lines and AST nodes per module, and in total.

Lines are the file's lines, and nodes everything ``ast.walk`` yields
from the parsed module: docstrings count, comments do not.  pytest does
not collect this script.  Run from the repository root::

    python tests/src_size.py [--check] [package directory]

The directory defaults to this repository's ``src/rackkit``.  With
``--check`` it exits 1 when the total is above ``CEILING``, naming each
excess.  A change that must grow the library past the ceiling raises it
here, in the same commit, and gives its reason and its measured gain in
CHANGES.md.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent / "src" / "rackkit"
# the most lines and AST nodes src/rackkit may total
CEILING = 3_661, 21_670


def sizes(root: Path) -> list[tuple[str, int, int]]:
    """(file name, lines, AST nodes) of every .py file under root, sorted."""
    rows = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        nodes = sum(1 for _ in ast.walk(ast.parse(text, str(path))))
        rows.append((path.relative_to(root).as_posix(),
                     len(text.splitlines()), nodes))
    return rows


def excess(total: tuple[int, int], ceiling: tuple[int, int]) -> list[str]:
    """A line for each of the total's lines and nodes above the ceiling."""
    return [f"{measure}: {size:,} is {size - most:,} above the ceiling "
            f"of {most:,}"
            for measure, size, most in zip(("lines", "nodes"), total, ceiling)
            if size > most]


def main(argv: list[str]) -> int:
    check = "--check" in argv
    args = [arg for arg in argv if arg != "--check"]
    rows = sizes(Path(args[0]) if args else ROOT)
    total = sum(r[1] for r in rows), sum(r[2] for r in rows)
    rows.append(("total", *total))
    width = max(len(name) for name, _, _ in rows)
    print(f"{'module':<{width}} {'lines':>7} {'nodes':>7}")
    for name, lines, nodes in rows:
        print(f"{name:<{width}} {lines:>7,} {nodes:>7,}")
    over = excess(total, CEILING) if check else []
    for line in over:
        print(line, file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
