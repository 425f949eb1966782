"""Command-line front end.

Exit codes: 0 for success and affirmative verdicts, 1 for negative verdicts
(a property fails, tables are not isomorphic, a loop is not simple), 2 for
usage errors, invalid parameters, unreadable input, or an exhausted search
budget.
"""
from __future__ import annotations

import argparse
import functools
import itertools
import sys

from . import constructions, powers, structure
from .search import SearchIncomplete, SearchOptions, _labelled
from .tables import (
    PROPERTY_TAGS,
    MagmaTable,
    ValidationError,
    _cells_text,
    _table_lines,
    find_counterexample,
    find_isomorphism,
    parse_tables,
)


def _read_tables(path: str) -> list[MagmaTable]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    try:
        tables = parse_tables(text)
    except ValidationError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    if not tables:
        raise ValueError(f"{path}: no tables found")
    return tables


def _emit(chunks, out_path: str | None):
    if out_path is None or out_path == "-":
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise ValueError(f"cannot write {out_path}: {exc}") from exc


def _each_table(path: str, report) -> int:
    """Call ``report(idx, table)`` on every table in the file, naming the
    table in any ValueError; exit 1 if some report returned True."""
    negative = False
    for idx, table in enumerate(_read_tables(path), start=1):
        try:
            negative |= report(idx, table)
        except ValueError as exc:
            raise ValueError(f"table {idx}: {exc}") from exc
    return 1 if negative else 0


def _cmd_construct(args) -> int:
    _emit(_table_lines(constructions.construct(args.order)), args.out)
    return 0


def _cmd_verify(args) -> int:
    def report(idx, table):
        failed = False
        for prop in args.properties:
            witness = find_counterexample(table, prop)
            if witness is None:
                print(f"table {idx}: {prop} ok")
            else:
                failed = True
                print(f"table {idx}: {prop} FAIL: {witness}")
        return failed

    return _each_table(args.file, report)


def _cmd_search(args) -> int:
    options = SearchOptions(
        order=args.order,
        require_jordan=args.jordan,
        nonassociative_only=args.nonassociative,
        up_to_iso=args.up_to_iso,
        node_limit=args.node_limit,
        time_budget=args.budget,
        result_limit=args.limit,
    )
    try:
        raw, stats = _labelled(options)
    except SearchIncomplete as exc:
        print(
            f"# nodes={exc.stats.nodes} failures={exc.stats.failures} "
            f"seconds={exc.stats.seconds:.3f}"
        )
        raise ValueError(str(exc)) from exc
    footer = (
        f"# nodes={stats.nodes} failures={stats.failures} models={stats.models_found} "
        f"classes={stats.models_after_iso} seconds={stats.seconds:.3f}\n"
    )
    text = _cells_text(options.order)
    texts = (text(*raw[k : k + 256]) for k in range(0, len(raw), 256))
    _emit(itertools.chain(texts, [footer]), args.out)
    return 0


def _cmd_powers(args) -> int:
    def report(idx, table):
        c = args.element
        max_k = args.max_k if args.max_k is not None else table.order + 1
        profile = powers.power_profile(table, c, max_k, cap=max_k)
        print(f"table {idx}: element {c}, order {table.order}")
        for k in range(1, max_k + 1):
            values = sorted(profile[k])
            tag = "well-defined" if len(values) == 1 else "ambiguous"
            shown = ",".join(str(v) for v in values)
            print(f"  k={k} products={{{shown}}} {tag}")
        order = powers.element_order(table, c)
        if order is None:
            print("  element order: undefined (generated subloop is not associative)")
        else:
            print(f"  element order: {order}")
        pa = "yes" if powers.is_power_associative(table) else "no"
        print(f"  loop power-associative: {pa}")
        return False

    return _each_table(args.file, report)


def _cmd_simple(args) -> int:
    def report(idx, table):
        witness = structure.find_proper_normal_subloop(table)
        if table.order == 1:
            print(f"table {idx}: not simple (trivial loop)")
        elif witness is None:
            print(f"table {idx}: simple")
        else:
            members = ",".join(str(m) for m in witness.members)
            print(
                f"table {idx}: not simple (proper normal subloop of size "
                f"{len(witness.members)}: {{{members}}})"
            )
        return witness is not None or table.order == 1

    return _each_table(args.file, report)


def _cmd_iso(args) -> int:
    lhs = _read_tables(args.file1)[0]
    rhs = _read_tables(args.file2)[0]
    mapping = find_isomorphism(lhs, rhs)
    if lhs.order != rhs.order:
        print(f"not isomorphic: orders differ ({lhs.order} vs {rhs.order})")
        return 1
    if mapping is None:
        print("not isomorphic")
        return 1
    print("isomorphic: " + " ".join(str(v) for v in mapping))
    return 0


def _cmd_tower(args) -> int:
    _emit(_table_lines(constructions.jordan_tower(args.depth)), args.out)
    return 0


def _cmd_gap_loop(args) -> int:
    table, element = powers.powers_gap_loop(args.m, args.n)
    note = f"# element {element}: powers well-defined below {args.m * args.n}\n"
    _emit(itertools.chain(_table_lines(table), [note]), args.out)
    return 0


@functools.cache  # parse_args fills a fresh namespace per call
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jordanloops",
        description="Build, search, and analyse commutative Jordan loops.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a nonassociative Jordan loop of a given order")
    p.add_argument("--order", type=int, required=True, help="loop order (>= 6 and != 9)")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check properties of tables in a file")
    p.add_argument(
        "--property", "-p", dest="properties", action="append", required=True,
        choices=PROPERTY_TAGS, help="property to check (repeatable)",
    )
    p.add_argument("file", help="table file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustively enumerate commutative loops of an order")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--jordan", dest="jordan", action="store_true", default=True,
                   help="restrict to Jordan loops (default)")
    p.add_argument("--no-jordan", dest="jordan", action="store_false",
                   help="enumerate all commutative loops")
    p.add_argument("--nonassociative", action="store_true",
                   help="keep only nonassociative results")
    p.add_argument("--up-to-iso", action="store_true",
                   help="report one representative per isomorphism class")
    p.add_argument("--limit", type=int, default=None, help="print at most this many tables")
    p.add_argument("--node-limit", type=int, default=None,
                   help="abort after this many search nodes")
    p.add_argument("--budget", type=float, default=None,
                   help="abort after this many seconds")
    p.add_argument("--out", help="write results here instead of stdout")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("powers", help="tabulate parenthesization sets of powers of an element")
    p.add_argument("--element", type=int, required=True, help="element to raise to powers")
    p.add_argument("--max-k", type=int, default=None,
                   help="largest exponent to examine (default: order + 1)")
    p.add_argument("file", help="table file, or - for stdin")
    p.set_defaults(func=_cmd_powers)

    p = sub.add_parser("simple", help="test loops for simplicity")
    p.add_argument("file", help="table file, or - for stdin")
    p.set_defaults(func=_cmd_simple)

    p = sub.add_parser("iso", help="decide whether two loops are isomorphic")
    p.add_argument("file1", help="first table file")
    p.add_argument("file2", help="second table file")
    p.set_defaults(func=_cmd_iso)

    p = sub.add_parser("tower", help="build a member of the doubling tower of simple Jordan loops")
    p.add_argument("--depth", type=int, required=True, help="tower level (0 is the trivial loop)")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=_cmd_tower)

    p = sub.add_parser("gap-loop", help="build a loop whose powers are well defined only below m*n")
    p.add_argument("--m", type=int, required=True, help="first parameter (>= 2)")
    p.add_argument("--n", type=int, required=True, help="second parameter (odd, >= 3)")
    p.add_argument("--out", help="write the table here instead of stdout")
    p.set_defaults(func=_cmd_gap_loop)

    return parser


def run(argv=None) -> int:
    """Run one command; any ValueError becomes ``error: …`` and exit 2."""
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
