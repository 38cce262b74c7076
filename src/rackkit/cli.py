"""Command line interface.

Every command reads tables in the plain text format (size, then the rows)
and diagrams in the JSON format; results go to stdout, errors to stderr.
Exit codes: 0 success, 1 domain error, failed check, undecodable text or
exhausted memory or recursion, 2 usage error or unreadable file (or a
closed output pipe), 130 an interrupt.
"""

from __future__ import annotations

import argparse
import gc
import os
import re
import sys

# check, props, dual and the quotients need only core; every other handler
# imports its own modules when it runs, so a process loads what it uses
from .core import (CONVENTIONS, NotARackError, Permutation, PropertyReport,
                   RackError, RackTable, _refused, _text_lines, dual,
                   format_rack_table, operator_equivalence_quotient,
                   parse_rack_table, properties_report, quotient_by,
                   validate_rack)

__all__ = ["entry", "main"]

_MODES = ("sr", "pr", "srpp", "rpp")


def _read(path: str) -> str:
    """The file's UTF-8 text, less one leading byte-order mark."""
    try:
        with open(path, encoding="utf-8") as file:
            return file.read().removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _load_valid_table(path: str) -> RackTable:
    """The table at path, checked against the axioms only; the report is
    built just to print on a non-rack, before the error."""
    table = parse_rack_table(_read(path))
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
        _, digits = _refused(tokens)
        raise RackError(f"element of {digits} digits is too long" if digits
                        else f"non-integer element in {text!r}") from None


def _int(text: str) -> int:
    """int for argparse, naming a value refused for its length alone by its
    digit count where argparse would echo it."""
    try:
        return int(text)
    except ValueError:
        digits = text and _refused([text])[1]
        raise argparse.ArgumentTypeError(
            f"integer of {digits} digits is too long" if digits
            else f"invalid int value: {text!r}") from None


def _parse_partition(text: str) -> tuple[tuple[int, ...], ...]:
    """Accept blocks in braces, like "{1,2}{3}{4,5}", with only whitespace
    and commas between them."""
    blocks = re.findall(r"\{([^{}]*)\}", text)
    if not blocks:
        raise RackError(f"no blocks in {text!r}; write blocks as {{1,2}}{{3}}")
    if re.sub(r"\{[^{}]*\}|[,\s]", "", text):
        raise RackError(f"text outside the blocks in {text!r}; "
                        "write blocks as {1,2}{3}")
    return tuple(_parse_elements(b) for b in blocks)


def _format_set(elements: tuple[int, ...]) -> str:
    return "{" + ",".join(map(str, elements)) + "}"


def _print_report(report: PropertyReport, file=None) -> None:
    for name in ("is_rack", "is_quandle", "is_crossed_set",
                 "is_abelian", "is_latin"):
        print(f"{name}:", str(getattr(report, name)).lower(), file=file)
    shown = report.first_violations
    for v in shown:
        print(f"violation: {v.axiom} at {v.witness}", file=file)
    hidden = report.violation_count - len(shown)
    if hidden > 0:
        print(f"violation: and {hidden} more", file=file)


def _cmd_check(args: argparse.Namespace) -> int:
    report = validate_rack(parse_rack_table(_read(args.table)))
    _print_report(report)
    return 0 if report.is_rack else 1


def _cmd_props(args: argparse.Namespace) -> None:
    _print_report(properties_report(_load_valid_table(args.table)))


def _cmd_poly(args: argparse.Namespace) -> None:
    from .poly import rack_polynomial

    print(rack_polynomial(_load_valid_table(args.table), args.m, args.n,
                          args.convention))


def _cmd_profile(args: argparse.Namespace) -> None:
    from .poly import exponent_profile

    table = _load_valid_table(args.table)
    profile = exponent_profile(table, args.m, args.n)
    for x in table.elements:
        print("{}: c={} r={}".format(x, *profile.pair(x)))


def _cmd_subracks(args: argparse.Namespace) -> None:
    from .poly import enumerate_subracks

    for subset in enumerate_subracks(_load_valid_table(args.table)):
        print(_format_set(subset))


def _cmd_srp(args: argparse.Namespace) -> None:
    from .poly import subrack_polynomial

    print(subrack_polynomial(_load_valid_table(args.table),
                             _parse_elements(args.subset), args.m, args.n,
                             args.convention))


# each gen handler writes the rows as they come, one row held at a time
def _cmd_gen_constant(args: argparse.Namespace) -> None:
    from .generators import _constant_rows

    n, rows = _constant_rows(Permutation(tuple(args.images)))
    sys.stdout.writelines(_text_lines(n, rows))


def _cmd_gen_linear(args: argparse.Namespace) -> None:
    """gen ts, and gen alexander, which has no s: the alexander quandle
    is ts_rack(n, t, 1 - t)."""
    from .generators import _linear_rows

    n, rows = _linear_rows(args.n, args.t, getattr(args, "s", 1 - args.t))
    sys.stdout.writelines(_text_lines(n, rows))


def _cmd_dual(args: argparse.Namespace) -> None:
    print(format_rack_table(dual(_load_valid_table(args.table))), end="")


def _cmd_quotient(args: argparse.Namespace) -> None:
    print(format_rack_table(quotient_by(_load_valid_table(args.table),
                                        _parse_partition(args.partition))),
          end="")


def _cmd_opquot(args: argparse.Namespace) -> None:
    partition, quotient, is_quandle = operator_equivalence_quotient(
        _load_valid_table(args.table))
    print("partition: " + " ".join(_format_set(b) for b in partition))
    print(f"quandle: {str(is_quandle).lower()}")
    print(format_rack_table(quotient), end="")


def _cmd_iso(args: argparse.Namespace) -> None:
    from .iso import isomorphic

    result = isomorphic(_load_valid_table(args.left),
                        _load_valid_table(args.right))
    if result.isomorphic:
        print("isomorphic")
        print("witness: " + " ".join(map(str, result.witness.images)))
    else:
        print("not isomorphic")


def _cmd_scan(args: argparse.Namespace) -> None:
    from .iso import rp_family_scan

    scan = rp_family_scan(_load_valid_table(args.left),
                          _load_valid_table(args.right),
                          bound=args.bound, convention=args.convention)
    for line in scan.lines():
        print(line)


def _cmd_classify_ca(args: argparse.Namespace) -> int:
    from .iso import verify_constant_action_classification

    report = verify_constant_action_classification(args.size, args.convention)
    for line in report.lines():
        print(line)
    print(f"consistent: {str(report.consistent).lower()}")
    return 0 if report.consistent else 1


def _cmd_invariant(args: argparse.Namespace) -> None:
    from .links import (counting_polynomial_string, enhanced_invariant,
                        parse_diagram, rack_counting)
    from .poly import _depths

    diagram = parse_diagram(_read(args.link))
    table = _load_valid_table(args.table)
    _depths(table, args.m, args.n, args.convention)  # sr and pr too
    if args.mode == "sr":
        print(rack_counting(diagram, table)[0])
    elif args.mode == "pr":
        print(counting_polynomial_string(rack_counting(diagram, table)[1]))
    else:
        invariant = enhanced_invariant(diagram, table, args.m, args.n,
                                       args.convention)
        print(invariant.enhanced_string(with_framing=args.mode == "rpp"))


def _args(*names: str, **options):
    """A builder that adds each of names to a parser, all with options."""
    def add(parser: argparse.ArgumentParser) -> None:
        for name in names:
            parser.add_argument(name, **options)
    return add


def _commands() -> dict:
    """Every subcommand, written once: name -> (help, handler, builders...),
    with gen's handler the dict of its family.  It is built with each
    parser, so it holds the handlers the module holds then."""
    table = _args("table")
    depths = (_args("-m", type=_int, default=1, metavar="M",
                    help="first depth (default 1)"),
              _args("-n", type=_int, default=1, metavar="N",
                    help="second depth (default 1)"))
    convention = _args("--convention", choices=CONVENTIONS, default="def",
                       help="which count feeds which variable (default def)")
    gen = {
        "constant": ("constant action rack from a permutation",
                     _cmd_gen_constant,
                     _args("images", type=_int, nargs="+",
                           help="images of 1..n in order")),
        "alexander": ("linear quandle on Z/n", _cmd_gen_linear,
                      _args("n", "t", type=_int)),
        "ts": ("two-coefficient linear rack on Z/n", _cmd_gen_linear,
               _args("n", "t", "s", type=_int)),
    }
    return {
        "check": ("validate a table and report properties", _cmd_check,
                  table),
        "props": ("property flags of a valid rack", _cmd_props, table),
        "poly": ("two-variable rack polynomial", _cmd_poly, table, *depths,
                 convention),
        "profile": ("per-element count pairs", _cmd_profile, table, *depths),
        "subracks": ("list all closed subsets", _cmd_subracks, table),
        "srp": ("subrack polynomial of a closed subset", _cmd_srp, table,
                _args("subset", help='subset like "{4,5}"'), *depths,
                convention),
        "gen": ("generate standard tables", gen),
        "dual": ("invert every column action", _cmd_dual, table),
        "quotient": ("quotient by a congruence partition", _cmd_quotient,
                     table,
                     _args("partition", help='blocks like "{1,2}{3}{4,5}"')),
        "opquot": ("quotient by the acts-identically congruence",
                   _cmd_opquot, table),
        "iso": ("isomorphism test with witness", _cmd_iso,
                _args("left", "right")),
        "scan": ("compare polynomial families over a depth grid", _cmd_scan,
                 _args("left", "right"),
                 _args("--bound", type=_int, default=None,
                       help="max depth (default: period of both tables)"),
                 convention),
        "classify-ca": ("cross-check the constant action classification",
                        _cmd_classify_ca, _args("size", type=_int),
                        convention),
        "invariant": ("framed link counting invariants", _cmd_invariant,
                      _args("link", "table"),
                      _args("--mode", choices=_MODES, default="rpp",
                            help="sr: total count, pr: per-class counts, "
                                 "srpp/rpp: polynomial-enhanced "
                                 "(default rpp)"),
                      *depths, convention),
    }


def _add_commands(sub, commands: dict) -> None:
    """Add commands, as ``_commands`` writes them, to the subparsers
    action sub."""
    for name, (text, func, *builders) in commands.items():
        parser = sub.add_parser(name, help=text)
        if isinstance(func, dict):
            _add_commands(parser.add_subparsers(dest="family", required=True),
                          func)
        else:
            parser.set_defaults(func=func)
        for add in builders:
            add(parser)


def build_parser(first: str | None = None) -> argparse.ArgumentParser:
    """The parser of a command line whose first argument is first: the
    parser of that subcommand alone when first names one, else the full
    parser.  A one-subcommand parser's usage still names every
    subcommand, as an unrecognized argument prints it; the full parser
    keeps argparse's own, which its "required" error reads."""
    parser = argparse.ArgumentParser(
        prog="rackkit",
        description="Finite racks and quandles: polynomial and link invariants")
    commands, metavar = _commands(), None
    if first in commands:
        metavar = "{" + ",".join(commands) + "}"
        commands = {first: commands[first]}
    _add_commands(parser.add_subparsers(dest="command", required=True,
                                        metavar=metavar), commands)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    # a handler returns its exit code, or None for 0; RackError,
    # DiagramError and _read's decoding error are ValueErrors
    try:
        return args.func(args) or 0
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


def entry() -> int:
    """main() as the process of ``rackkit`` and ``python -m rackkit``.

    gc.freeze() then moves every object into the permanent generation, so
    the full collections of interpreter exit skip them.  stdout and stderr
    are still flushed and atexit handlers still run; only cyclic garbage
    left at exit goes unfinalized, and rackkit has none whose finalizer
    matters.  os._exit saves as much but skips the flush and atexit, and
    gc.disable() saves nothing, as finalization collects anyway.  main()
    leaves the collector alone, for callers that go on running.  ^C ends
    with one line and 130, the code a shell gives a process SIGINT ended.
    """
    try:
        code = main()
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    gc.freeze()
    return code
