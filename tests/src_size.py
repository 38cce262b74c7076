"""The size of the library: lines and AST nodes per module, and in total,
then its five largest definitions.

Lines are the file's lines, and nodes everything ``ast.walk`` yields
from the parsed module: docstrings count, comments do not.  A
definition is a function, method or class, nested ones too, named by
its module and its name; its lines run from ``def`` or ``class`` to its
last line.  pytest does not collect this script.  Run from the
repository root::

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
CEILING = 3_645, 21_530


def modules(root: Path) -> list[tuple[str, str, ast.Module]]:
    """(file name, text, parsed module) of every .py file under root,
    sorted."""
    rows = []
    for path in sorted(root.rglob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.relative_to(root).as_posix(), text,
                     ast.parse(text, str(path))))
    return rows


def count(tree: ast.AST) -> int:
    """The AST nodes in tree, itself included."""
    return sum(1 for _ in ast.walk(tree))


def sizes(root: Path) -> list[tuple[str, int, int]]:
    """(file name, lines, AST nodes) of every .py file under root, sorted."""
    return [(name, len(text.splitlines()), count(tree))
            for name, text, tree in modules(root)]


def largest(root: Path) -> list[tuple[str, int, int]]:
    """(module:name, lines, AST nodes) of the five largest definitions
    under root by nodes, largest first."""
    kinds = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    defs = [(f"{name}:{node.name}", node.end_lineno - node.lineno + 1,
             count(node))
            for name, _, tree in modules(root)
            for node in ast.walk(tree) if isinstance(node, kinds)]
    return sorted(defs, key=lambda d: -d[2])[:5]


def excess(total: tuple[int, int], ceiling: tuple[int, int]) -> list[str]:
    """A line for each of the total's lines and nodes above the ceiling."""
    return [f"{measure}: {size:,} is {size - most:,} above the ceiling "
            f"of {most:,}"
            for measure, size, most in zip(("lines", "nodes"), total, ceiling)
            if size > most]


def show(head: str, rows: list[tuple[str, int, int]]) -> None:
    """Print rows of (name, lines, nodes) under a header."""
    width = max(len(head), *(len(name) for name, _, _ in rows))
    print(f"{head:<{width}} {'lines':>7} {'nodes':>7}")
    for name, lines, nodes in rows:
        print(f"{name:<{width}} {lines:>7,} {nodes:>7,}")


def main(argv: list[str]) -> int:
    check = "--check" in argv
    args = [arg for arg in argv if arg != "--check"]
    root = Path(args[0]) if args else ROOT
    rows = sizes(root)
    total = sum(r[1] for r in rows), sum(r[2] for r in rows)
    rows.append(("total", *total))
    show("module", rows)
    print()
    show("definition", largest(root))
    over = excess(total, CEILING) if check else []
    for line in over:
        print(line, file=sys.stderr)
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
