"""Every unchecked build has a checked twin.

Three builders skip their constructor's checks on a proof: ``core
._trusted_table``, ``poly._poly`` and ``links.parse_diagram``'s crossing
bypass.  Here each runs beside its checked constructor over part of the
parity corpus, and an AST test keeps any other bypass out of the library.
"""

import ast
import sys
from contextlib import ExitStack
from pathlib import Path
from unittest.mock import patch

import parity
import test_parity
from rackkit import RackTable, TwoVarPoly, parse_diagram
from rackkit.core import _trusted_table
from rackkit.links import Crossing
from rackkit.poly import _poly

SRC = Path(__file__).resolve().parent.parent / "src" / "rackkit"

# each builder that calls ``object.__new__``, with its checked twin: from
# the builder's argument and result, what the checked constructor builds
# and what that must equal
TWINS = {
    _trusted_table: lambda rows, table: (RackTable(rows), table),
    _poly: lambda items, poly: (
        TwoVarPoly(tuple((s, t, c) for (s, t), c in items)), poly),
    parse_diagram: lambda text, diagram: (
        tuple(Crossing(cr.sign, cr.over, cr.under_in, cr.under_out)
              for cr in diagram.crossings), diagram.crossings),
}


def _checked(builder, twin, calls):
    """builder, then its checked twin on the same argument, which must
    build an equal record with an equal repr.  An error of the twin is
    raised as an AssertionError, which no caller in the corpus catches."""

    def build(arg):
        built = builder(arg)
        try:
            checked, expected = twin(arg, built)
        except Exception as exc:
            raise AssertionError(
                f"{builder.__name__}'s checked twin raised {exc!r}") from exc
        assert checked == expected and repr(checked) == repr(expected)
        calls[builder.__name__] += 1
        return built

    return build


def test_unchecked_builds_equal_their_checked_twins():
    calls = {builder.__name__: 0 for builder in TWINS}
    with ExitStack() as stack:
        for builder, twin in TWINS.items():
            wrapped = _checked(builder, twin, calls)
            for module in list(sys.modules.values()):
                if vars(module).get(builder.__name__) is builder:
                    stack.enter_context(
                        patch.object(module, builder.__name__, wrapped))
        for name in ("tables", "linear", "scans", "diagrams"):
            assert parity.digest(name) == getattr(
                test_parity, f"{name.upper()}_DIGEST"), name
        # every listed subrack through the checked path as well
        stack.enter_context(
            patch("rackkit.poly._listed_orbit", lambda table, subset: None))
        assert parity.digest("subracks") == test_parity.SUBRACKS_DIGEST
    assert all(calls.values()), calls


def test_every_bypass_sits_in_a_builder_with_a_twin():
    names = {builder.__name__ for builder in TWINS}
    holders = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bypasses = {id(node) for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and node.attr == "__new__"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "object"}
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and func.name in names:
                inside = {id(node) for node in ast.walk(func)} & bypasses
                if inside:
                    holders.add(func.name)
                    bypasses -= inside
        assert not bypasses, f"{path.name}: object.__new__ outside {names}"
    assert holders == names
