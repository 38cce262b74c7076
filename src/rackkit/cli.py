"""Command line interface.

Every command reads tables in the plain text format (size, then the rows)
and diagrams in the JSON format; results go to stdout, errors to stderr.
Exit codes: 0 success, 1 domain error, failed check, undecodable text or
exhausted memory or recursion, 2 usage error or unreadable file (or a
closed output pipe).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from pathlib import Path

# check, props, dual and the quotients need only core; every other handler
# imports its own modules when it runs, so a process loads what it uses
from .core import (CONVENTIONS, NotARackError, Permutation, PropertyReport,
                   RackError, RackTable, _text_lines, dual, format_rack_table,
                   operator_equivalence_quotient, parse_rack_table,
                   properties_report, quotient_by, validate_rack)

__all__ = ["main"]

_MODES = ("sr", "pr", "srpp", "rpp")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_table(path: str) -> RackTable:
    return parse_rack_table(_read(path))


def _load_valid_table(path: str) -> RackTable:
    """The table at path, checked against the axioms only; the report is
    built just to print on a non-rack, before the error."""
    table = _load_table(path)
    try:
        table.require_rack()
    except NotARackError:
        _print_report(table.report, file=sys.stderr)
        raise
    return table


def _parse_elements(text: str) -> tuple[int, ...]:
    """Accept "{4,5}", "4,5", or "4 5"."""
    cleaned = text.strip().strip("{}")
    tokens = [t for t in re.split(r"[,\s]+", cleaned) if t]
    if not tokens:
        raise RackError(f"no elements in {text!r}")
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise RackError(f"non-integer element in {text!r}") from None


def _parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Accept blocks in braces, like "{1,2}{3}{4,5}"."""
    blocks = re.findall(r"\{([^{}]*)\}", text)
    if not blocks:
        raise RackError(f"no blocks in {text!r}; write blocks as {{1,2}}{{3}}")
    return tuple(_parse_elements(b) for b in blocks)


def _format_set(elements: tuple[int, ...]) -> str:
    return "{" + ",".join(str(v) for v in elements) + "}"


def _print_report(report: PropertyReport, file=None) -> None:
    out = file if file is not None else sys.stdout
    for name in ("is_rack", "is_quandle", "is_crossed_set",
                 "is_abelian", "is_latin"):
        flag = "true" if getattr(report, name) else "false"
        print(f"{name}: {flag}", file=out)
    shown = report.first_violations
    for v in shown:
        print(f"violation: {v.axiom} at {v.witness}", file=out)
    hidden = report.violation_count - len(shown)
    if hidden > 0:
        print(f"violation: and {hidden} more", file=out)


def _cmd_check(args: argparse.Namespace) -> int:
    report = validate_rack(_load_table(args.table))
    _print_report(report)
    return 0 if report.is_rack else 1


def _cmd_props(args: argparse.Namespace) -> int:
    _print_report(properties_report(_load_valid_table(args.table)))
    return 0


def _cmd_poly(args: argparse.Namespace) -> int:
    from .poly import rack_polynomial

    table = _load_valid_table(args.table)
    print(rack_polynomial(table, args.m, args.n, args.convention))
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from .poly import exponent_profile

    table = _load_valid_table(args.table)
    profile = exponent_profile(table, args.m, args.n)
    for x in table.elements:
        c, r = profile.pair(x)
        print(f"{x}: c={c} r={r}")
    return 0


def _cmd_subracks(args: argparse.Namespace) -> int:
    from .poly import enumerate_subracks

    table = _load_valid_table(args.table)
    for subset in enumerate_subracks(table):
        print(_format_set(subset))
    return 0


def _cmd_srp(args: argparse.Namespace) -> int:
    from .poly import subrack_polynomial

    table = _load_valid_table(args.table)
    subset = _parse_elements(args.subset)
    print(subrack_polynomial(table, subset, args.m, args.n, args.convention))
    return 0


# each gen handler writes the rows as they come, one row held at a time
def _cmd_gen_constant(args: argparse.Namespace) -> int:
    from .generators import _constant_rows

    n, rows = _constant_rows(Permutation(tuple(args.images)))
    sys.stdout.writelines(_text_lines(n, rows))
    return 0


def _cmd_gen_linear(args: argparse.Namespace) -> int:
    """gen ts, and gen alexander, which has no s: the alexander quandle
    is ts_rack(n, t, 1 - t)."""
    from .generators import _linear_rows

    s = 1 - args.t if args.s is None else args.s
    n, rows = _linear_rows(args.n, args.t, s)
    sys.stdout.writelines(_text_lines(n, rows))
    return 0


def _cmd_dual(args: argparse.Namespace) -> int:
    print(format_rack_table(dual(_load_valid_table(args.table))), end="")
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    table = _load_valid_table(args.table)
    quotient = quotient_by(table, _parse_partition(args.partition))
    print(format_rack_table(quotient), end="")
    return 0


def _cmd_opquot(args: argparse.Namespace) -> int:
    table = _load_valid_table(args.table)
    partition, quotient, is_quandle = operator_equivalence_quotient(table)
    print("partition: " + " ".join(_format_set(b) for b in partition))
    print(f"quandle: {'true' if is_quandle else 'false'}")
    print(format_rack_table(quotient), end="")
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    from .iso import isomorphic

    result = isomorphic(_load_valid_table(args.left),
                        _load_valid_table(args.right))
    if result.isomorphic:
        print("isomorphic")
        print("witness: " + " ".join(str(v) for v in result.witness.images))
    else:
        print("not isomorphic")
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    from .iso import rp_family_scan

    scan = rp_family_scan(_load_valid_table(args.left),
                          _load_valid_table(args.right),
                          bound=args.bound, convention=args.convention)
    for line in scan.lines():
        print(line)
    return 0


def _cmd_classify_ca(args: argparse.Namespace) -> int:
    from .iso import verify_constant_action_classification

    report = verify_constant_action_classification(args.size, args.convention)
    for line in report.lines():
        print(line)
    print(f"consistent: {'true' if report.consistent else 'false'}")
    return 0 if report.consistent else 1


def _cmd_invariant(args: argparse.Namespace) -> int:
    from .links import (counting_polynomial_string, enhanced_invariant,
                        parse_diagram, rack_counting)

    diagram = parse_diagram(_read(args.link))
    table = _load_valid_table(args.table)
    if args.mode == "sr":
        total, _ = rack_counting(diagram, table)
        print(total)
    elif args.mode == "pr":
        _, per_class = rack_counting(diagram, table)
        print(counting_polynomial_string(per_class))
    else:
        invariant = enhanced_invariant(diagram, table, args.m, args.n,
                                       args.convention)
        print(invariant.enhanced_string(with_framing=args.mode == "rpp"))
    return 0


def _add_depths(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("-m", type=int, default=1, metavar="M",
                        help="first depth (default 1)")
    parser.add_argument("-n", type=int, default=1, metavar="N",
                        help="second depth (default 1)")


def _add_convention(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--convention", choices=CONVENTIONS, default="def",
                        help="which count feeds which variable (default def)")


def _command(sub, name: str, func, text: str, *positionals: str,
             **options) -> argparse.ArgumentParser:
    """A subcommand that runs func, with positionals that share options."""
    p = sub.add_parser(name, help=text)
    for arg in positionals:
        p.add_argument(arg, **options)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rackkit",
        description="Finite racks and quandles: polynomial and link invariants")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "check", _cmd_check,
             "validate a table and report properties", "table")
    _command(sub, "props", _cmd_props, "property flags of a valid rack",
             "table")
    p = _command(sub, "poly", _cmd_poly, "two-variable rack polynomial",
                 "table")
    _add_depths(p)
    _add_convention(p)
    p = _command(sub, "profile", _cmd_profile, "per-element count pairs",
                 "table")
    _add_depths(p)
    _command(sub, "subracks", _cmd_subracks, "list all closed subsets",
             "table")
    p = _command(sub, "srp", _cmd_srp, "subrack polynomial of a closed subset",
                 "table")
    p.add_argument("subset", help='subset like "{4,5}"')
    _add_depths(p)
    _add_convention(p)

    p = sub.add_parser("gen", help="generate standard tables")
    gen_sub = p.add_subparsers(dest="family", required=True)
    _command(gen_sub, "constant", _cmd_gen_constant,
             "constant action rack from a permutation", "images", type=int,
             nargs="+", help="images of 1..n in order")
    _command(gen_sub, "alexander", _cmd_gen_linear, "linear quandle on Z/n",
             "n", "t", type=int).set_defaults(s=None)
    _command(gen_sub, "ts", _cmd_gen_linear,
             "two-coefficient linear rack on Z/n", "n", "t", "s", type=int)

    _command(sub, "dual", _cmd_dual, "invert every column action", "table")
    p = _command(sub, "quotient", _cmd_quotient,
                 "quotient by a congruence partition", "table")
    p.add_argument("partition", help='blocks like "{1,2}{3}{4,5}"')
    _command(sub, "opquot", _cmd_opquot,
             "quotient by the acts-identically congruence", "table")
    _command(sub, "iso", _cmd_iso, "isomorphism test with witness", "left",
             "right")
    p = _command(sub, "scan", _cmd_scan,
                 "compare polynomial families over a depth grid", "left",
                 "right")
    p.add_argument("--bound", type=int, default=None,
                   help="max depth (default: period of both tables)")
    _add_convention(p)
    p = _command(sub, "classify-ca", _cmd_classify_ca,
                 "cross-check the constant action classification", "size",
                 type=int)
    _add_convention(p)

    p = _command(sub, "invariant", _cmd_invariant,
                 "framed link counting invariants", "link", "table")
    p.add_argument("--mode", choices=_MODES, default="rpp",
                   help="sr: total count, pr: per-class counts, "
                        "srpp/rpp: polynomial-enhanced (default rpp)")
    _add_depths(p)
    _add_convention(p)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    # RackError, DiagramError and _read's decoding error are ValueErrors
    try:
        return args.func(args)
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the reader has gone; what is still buffered goes to devnull,
            # so the interpreter's last flush cannot fail again
            try:
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            except (OSError, ValueError):
                pass
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # a backstop for inputs no check foresaw: one too large or too deeply
    # nested for this process ends with one line, not a traceback
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 1
    except RecursionError:
        print("error: recursion too deep", file=sys.stderr)
        return 1
